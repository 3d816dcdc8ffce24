"""Exact between-group set distance.

The distance between the two groups is the larger of the two directed
max-min terms: for each point in one group take the distance to its
nearest point in the other group, then take the worst case over the
group; symmetrize by doing this in both directions. Points live in the
space (insensitive features, label), so a row contributes the vector
[y, x_1, ..., x_nx] and distances are plain Euclidean. Sensitive columns
never enter the metric.

Three routes compute the same value, bit for bit, by construction: every
pair distance any of them returns comes from one numpy kernel,
`_PairKernel`, and only the order in which pairs are evaluated differs.

- `exact_set_distance` is the brute-force baseline: it evaluates all
  n0*n1 point pairs, streaming the pair matrix block by block so memory
  stays O(block) while both directed terms are accumulated in one pass.
- `early_break_set_distance` is the route `dist`/`hfm --method exact`
  and `hfm_distances` take: Taha and Hanbury's early-break scan, which
  stops an anchor's scan as soon as an opponent lies within the running
  maximum. It imports no scipy, whose import costs more than the scan
  on separated groups; on inputs where the scan finds no near opponents
  early it hands its rows to the tree route.
- `tree_set_distance`: label-stratified k-d tree queries, with the
  anchors that tie the largest distance recomputed by the pair kernel,
  so the value is the baseline's. It is the one route that imports
  scipy.

One frame, `distance_frame`, builds every `DistanceResult`, exact and
approx alike: it starts the timer, builds every row's [value,
features...] once with `augmented_points`, which rejects an empty group,
hands the rows and the partition to a compute function,
`compute(rows, partition)`, and builds the result from its value. The
exact routes are such compute functions. Each gathers what it needs
straight from the frame's rows by the partition's row indices: brute
force and the scan take each group in the pair kernel's column layout
with `_columns`, one copy per group, and the tree takes each group's
rows as its k-d trees need them. A result's `elapsed_ns` is the whole
call's wall time, scipy's first import included.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import GroupPartition, LabeledDataset, LabelSource
from .errors import EmptyGroup, InvalidArgument

_KERNEL_PAIRS = 256 * 256  # pairs in one block of the pair kernel


@dataclass(frozen=True, kw_only=True)
class DistanceResult:
    """A computed set distance plus its provenance, its fields in the
    order of the `dist` report.

    `m1`, `m2` and `seed` are populated only for approximate results;
    exact results carry None there.
    """

    value: float
    method: str  # "exact" | "approx"
    label_source: LabelSource
    seed: int | None = None
    m1: int | None = None
    m2: int | None = None
    elapsed_ns: int

    def __post_init__(self):
        if self.value < 0:
            raise InvalidArgument("distance cannot be negative")
        has_params = None not in (self.m1, self.m2, self.seed)
        if self.method == "approx" and not has_params:
            raise InvalidArgument("approx results must carry m1, m2 and seed")
        if self.method == "exact" and (self.m1, self.m2, self.seed) != (None, None, None):
            raise InvalidArgument("exact results carry no approximation parameters")

    def to_record(self) -> dict:
        return asdict(self) | {"label_source": self.label_source.value}


def augmented_points(
    dataset: LabeledDataset, partition: GroupPartition, source: LabelSource
) -> np.ndarray:
    """Every row's [value, features...], the coordinates the metric acts
    on, for a partition whose groups are both nonempty."""
    if partition.has_empty_group:
        raise EmptyGroup("both groups must be nonempty to compute a distance")
    out = np.empty((dataset.n, dataset.n_features + 1), dtype=np.float64)
    out[:, 0] = dataset.values_for(source)
    out[:, 1:] = dataset.features
    return out


def distance_frame(
    dataset: LabeledDataset, partition: GroupPartition, source: LabelSource, compute, **approx
) -> DistanceResult:
    """The one frame every `DistanceResult` comes from: the value that
    `compute(rows, partition)` takes from every row's [value,
    features...] and the partition, timed over the whole call. `approx`
    holds an approx result's m1, m2 and seed, and is empty for an exact
    one."""
    start = time.perf_counter_ns()
    value = compute(augmented_points(dataset, partition, source), partition)
    elapsed = time.perf_counter_ns() - start
    method = "approx" if approx else "exact"
    return DistanceResult(
        value=value, method=method, label_source=source, elapsed_ns=elapsed, **approx
    )


# Relative gap below the largest tree distance within which an anchor's
# distance is recomputed by the pair kernel: tree and pair-kernel
# distances differ by a few rounding errors, far less than this.
_TIE_RTOL = 1e-12


def _scipy_spatial():
    # imported on first use: scipy.spatial dominates the package's import
    # time, and only the tree route needs it
    from scipy.spatial import cKDTree

    return cKDTree


class _PairKernel:
    """Squared pair distances summed in column order, (a_j - b_j)**2 from
    j = 0 upward, with nothing reordered or fused. It is the only code
    that evaluates pair distances, so every route rounds each pair alike
    and the square root of a minimum is the same bits whichever route
    found it. Points are the columns of (d, n) arrays. A block holds at
    most _KERNEL_PAIRS pairs, in two buffers reused block after block."""

    def __init__(self):
        self._total = np.empty(_KERNEL_PAIRS)
        self._term = np.empty(_KERNEL_PAIRS)

    def _squares(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        shape = (rows.shape[1], cols.shape[1])
        total = self._total[: shape[0] * shape[1]].reshape(shape)
        term = self._term[: total.size].reshape(shape)
        np.subtract(rows[0][:, None], cols[0], out=total)
        np.multiply(total, total, out=total)
        for j in range(1, len(rows)):
            np.subtract(rows[j][:, None], cols[j], out=term)
            np.multiply(term, term, out=term)
            np.add(total, term, out=total)
        return total

    def lower(
        self, nearest: np.ndarray, anchors: np.ndarray, opponents: np.ndarray, theirs=None
    ) -> None:
        """Lower nearest[i] to the squared distance from anchor i to its
        nearest opponent and, when `theirs` is given, theirs[k] to the
        squared distance from opponent k to its nearest anchor. One side
        may be empty, not both."""
        # (a_j - b_j)**2 and (b_j - a_j)**2 are the same bits, so the
        # longer side may run along the inner axis
        flip = anchors.shape[1] > opponents.shape[1]
        rows, cols = (opponents, anchors) if flip else (anchors, opponents)
        row_min, col_min = (theirs, nearest) if flip else (nearest, theirs)
        width = min(cols.shape[1], _KERNEL_PAIRS)
        height = _KERNEL_PAIRS // width
        for i in range(0, rows.shape[1], height):
            for k in range(0, cols.shape[1], width):
                block = self._squares(rows[:, i : i + height], cols[:, k : k + width])
                if row_min is not None:
                    out = row_min[i : i + height]
                    np.minimum(out, block.min(axis=1), out=out)
                if col_min is not None:
                    out = col_min[k : k + width]
                    np.minimum(out, block.min(axis=0), out=out)


def _nearest(za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """Each row of za's distance to its nearest row of zb, by the pair kernel."""
    nearest = np.full(len(za), np.inf)
    if len(za):  # with no anchors, spare the transpose of zb
        _PairKernel().lower(nearest, np.ascontiguousarray(za.T), np.ascontiguousarray(zb.T))
    return np.sqrt(nearest)


def _columns(rows: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The rows at `indices` as the columns of a C-contiguous (d+1, k)
    array, the pair kernel's layout, in one copy. Both axes are indexed
    at once, so numpy gathers straight into the result;
    `rows.T.take(indices, axis=1)` would first copy all of `rows` into
    column order."""
    return rows[indices, np.arange(rows.shape[1])[:, None]]


def _brute_force(rows: np.ndarray, partition: GroupPartition) -> float:
    """The largest nearest-row distance of either group, from one
    two-sided pass of the pair kernel over every pair. The square root,
    monotone and correctly rounded, is taken once, of the largest
    squared minimum: the same bits as the largest minimum."""
    min0, min1 = (np.full(size, np.inf) for size in partition.sizes)
    z0, z1 = (_columns(rows, group) for group in (partition.group0, partition.group1))
    _PairKernel().lower(min0, z0, z1, min1)
    return math.sqrt(max(min0.max(), min1.max()))


def exact_set_distance(
    dataset: LabeledDataset, partition: GroupPartition, source: LabelSource
) -> DistanceResult:
    """The symmetric between-group distance by brute force, the baseline
    the other routes are checked against.

    Cost is O(n0*n1) point-distance evaluations; both directed terms are
    accumulated from one streamed pass over the pair kernel's blocks.
    """
    return distance_frame(dataset, partition, source, _brute_force)


def _tree_nearest(za: np.ndarray, zb: np.ndarray, cKDTree) -> np.ndarray:
    """Each row of za's distance to its nearest row of zb, as k-d tree
    queries round it. The trees hold whole augmented rows, whose label
    coordinate is constant within a stratum, so rows without features
    work too."""
    nearest = np.full(len(za), np.inf)
    labels_a, labels_b = za[:, 0], zb[:, 0]
    for label in np.unique(labels_a):
        theirs = zb[labels_b == label]
        if len(theirs):
            mine = labels_a == label
            nearest[mine] = cKDTree(theirs).query(za[mine])[0]
    # a row with another label lies at least 1 away, so only an anchor
    # with no same-label row within 1 can have a nearer row elsewhere
    far = nearest > 1.0
    if far.any():
        nearest[far] = cKDTree(zb).query(za[far])[0]
    return nearest


def _tree(rows: np.ndarray, partition: GroupPartition) -> float:
    """The label-stratified tree queries, then the pair kernel on the
    anchors that tie the largest tree distance."""
    cKDTree = _scipy_spatial()
    z0, z1 = rows[partition.group0], rows[partition.group1]
    near0 = _tree_nearest(z0, z1, cKDTree)
    near1 = _tree_nearest(z1, z0, cKDTree)
    cutoff = max(near0.max(), near1.max()) * (1.0 - _TIE_RTOL)
    ties0, ties1 = near0 >= cutoff, near1 >= cutoff
    # the pair kernel rounds a pair alike from either side; when the ties
    # would cost more pairs than brute force, it does brute force
    if ties0.sum() * len(z1) + len(z0) * ties1.sum() >= len(z0) * len(z1):
        return _brute_force(rows, partition)
    min0, min1 = _nearest(z0[ties0], z1), _nearest(z1[ties1], z0)
    return float(max(min0.max(initial=0.0), min1.max(initial=0.0)))


def tree_set_distance(
    dataset: LabeledDataset, partition: GroupPartition, source: LabelSource
) -> DistanceResult:
    """The symmetric between-group distance by label-stratified k-d tree
    queries, equal bit for bit to `exact_set_distance`.

    Each group's rows are split by label value and one tree is built per
    (group, label); an anchor queries the opposite group's tree for its
    own label, and falls back to a tree over the whole opposite group
    when that finds nothing within 1. The anchors whose tree distance is
    within a relative 1e-12 of the largest one are recomputed with the
    pair kernel, so the maximum is the baseline's. Memory stays O(n).
    The recompute costs O(ties * n) pairs, capped at brute force's n0*n1,
    which it reaches when most anchors tie, as when both groups hold the
    same points.
    """
    return distance_frame(dataset, partition, source, _tree)


# The early-break route's constants. The two caps that send a call to
# the tree sit well above what separated groups reach; CHANGES.md
# records the inputs measured on each side of them
_FIRST_BATCH = 32  # anchors in each direction's first batch; doubles...
_LAST_BATCH = 8192  # ...up to this
_FIRST_SPAN = 8  # opponents a batch scans first; the scanned prefix doubles
_FAR_BUDGET = 4096  # opponents an anchor scans before it counts as far
_FAR_CAP = 1024  # far anchors scanned on before the call goes to the tree
_MEAN_CAP = 1024  # mean opponents scanned per anchor before it does,
_COUNTED_BATCH = 4 * _FIRST_BATCH  # counted over batches of this size on


class _EarlyBreak:
    """One early-break scan over both directed terms, which share one
    running maximum of squared nearest-opponent distances.

    Each group's points are taken in a fixed random order (from a seeded
    numpy generator), as anchors and as opponents alike. The anchors go
    in batches, one direction after the other, that double from
    _FIRST_BATCH; a batch scans its opponents in blocks whose prefix
    doubles from _FIRST_SPAN, and an anchor leaves as soon as its nearest
    opponent so far is within the running maximum (`<=`: on duplicate
    points every distance ties at 0). An anchor still scanning after
    _FAR_BUDGET opponents is far: the far anchors of a batch scan on one
    at a time, the largest nearest distance first, so that one which sees
    every opponent raises the maximum before the next one goes on.

    The maximum comes only from anchors scanned in full, so it is the
    largest squared nearest distance bit for bit; the order changes only
    how many pairs are evaluated. The scan gives up (returns None) when
    more than _FAR_CAP anchors are far, or when, after a round of one
    batch per direction, the batches of _COUNTED_BATCH anchors or more
    have scanned more than _MEAN_CAP opponents per anchor on average
    before their far anchors went on. The smaller first batches are not
    counted: they scan long because the maximum still rises from 0."""

    def __init__(self):
        self.kernel = _PairKernel()
        self.largest = 0.0
        self.far = 0

    def _scan(
        self, nearest: np.ndarray, anchors: np.ndarray, opponents: np.ndarray, done: int, limit: int
    ) -> tuple[np.ndarray, int, int]:
        """Scan the anchors on from opponent `done` up to opponent `limit`,
        in blocks whose prefix doubles from _FIRST_SPAN, lowering nearest
        (one entry per anchor) and dropping each anchor once it is within
        the running maximum. Returns the indices of the anchors left, the
        opponents scanned and the pairs evaluated."""
        active = np.arange(anchors.shape[1])
        pairs = 0
        while len(active) and done < limit:
            stop = min(max(2 * done, _FIRST_SPAN), limit)
            part = nearest[active]
            self.kernel.lower(part, anchors[:, active], opponents[:, done:stop])
            nearest[active] = part
            pairs += len(active) * (stop - done)
            active = active[part > self.largest]
            done = stop
        return active, done, pairs

    def _batch(self, anchors: np.ndarray, opponents: np.ndarray) -> int | None:
        """Settle one batch of anchors; returns the number of pairs its
        scan evaluated before the far anchors were finished, or None when
        too many anchors are far."""
        n = opponents.shape[1]
        nearest = np.full(anchors.shape[1], np.inf)
        active, done, pairs = self._scan(nearest, anchors, opponents, 0, min(n, _FAR_BUDGET))
        if done == n:
            self.largest = max(self.largest, nearest[active].max(initial=0.0))
            return pairs
        for i in active[np.argsort(-nearest[active], kind="stable")]:
            if nearest[i] <= self.largest:
                continue
            self.far += 1
            if self.far > _FAR_CAP:
                return None
            # an anchor still outside after every opponent raises the maximum
            left, _, _ = self._scan(nearest[i : i + 1], anchors[:, i : i + 1], opponents, done, n)
            if len(left):
                self.largest = nearest[i]
        return pairs

    def run(self, rows: np.ndarray, partition: GroupPartition) -> float | None:
        """The largest squared nearest-opponent distance between the
        partition's two groups of rows, or None when the scan gives up."""
        # the groups take unrelated orders, so that groups listing the
        # same rows in the same order do not meet them in lockstep
        rng = np.random.default_rng(0)
        groups = (partition.group0, partition.group1)
        points = [_columns(rows, g[rng.permutation(len(g))]) for g in groups]
        taken = [0, 0]
        size = _FIRST_BATCH
        pairs = anchors = 0
        while taken[0] < points[0].shape[1] or taken[1] < points[1].shape[1]:
            for side in (0, 1):
                batch = points[side][:, taken[side] : taken[side] + size]
                if batch.shape[1] == 0:
                    continue
                scanned = self._batch(batch, points[1 - side])
                if scanned is None:
                    return None
                taken[side] += batch.shape[1]
                if size >= _COUNTED_BATCH:
                    pairs += scanned
                    anchors += batch.shape[1]
            if pairs > _MEAN_CAP * anchors:
                return None
            size = min(2 * size, _LAST_BATCH)
        return self.largest


def _early_break(rows: np.ndarray, partition: GroupPartition) -> float:
    """The early-break scan, or the tree on the same rows when it gives up."""
    largest = _EarlyBreak().run(rows, partition)
    return _tree(rows, partition) if largest is None else math.sqrt(largest)


def early_break_set_distance(
    dataset: LabeledDataset, partition: GroupPartition, source: LabelSource
) -> DistanceResult:
    """The symmetric between-group distance by an early-break scan,
    equal bit for bit to `exact_set_distance`, without scipy.

    Pairs are evaluated by the pair kernel that brute force uses, and an
    anchor stops at the first opponent within the running maximum (see
    `_EarlyBreak`). On separated groups this evaluates under 1% of the
    n0*n1 pairs. Where anchors find no near opponent early, as on
    overlapping uniform groups, on many duplicate points or on a grid,
    the scan gives up and the tree route takes the same rows;
    `elapsed_ns` covers both, scipy's first import included. Memory
    stays O(n).
    """
    return distance_frame(dataset, partition, source, _early_break)
