"""Exact between-group set distance.

The distance between the two groups is the larger of the two directed
max-min terms: for each point in one group take the distance to its
nearest point in the other group, then take the worst case over the
group; symmetrize by doing this in both directions. Points live in the
space (insensitive features, label), so a row contributes the vector
[y, x_1, ..., x_nx] and distances are plain Euclidean. Sensitive columns
never enter the metric.

Three routes compute the same value, bit for bit (for the early-break
route, on the platforms `_PairKernel` names):

- `exact_set_distance` is the brute-force baseline: it evaluates all
  n0*n1 point pairs, streaming the pair matrix block by block so memory
  stays O(block^2) while both directed terms are accumulated in one pass.
- `early_break_set_distance` is the route `dist`/`hfm --method exact`
  and `hfm_distances` take: Taha and Hanbury's early-break scan in numpy
  alone, which stops an anchor's scan as soon as an opponent lies within
  the running maximum. It imports no scipy, whose import costs more than
  the scan on separated groups; on inputs where the scan finds no near
  opponents early it hands the call to the tree route.
- `tree_set_distance`: label-stratified k-d tree queries, with the
  anchors that tie the largest distance recomputed by the brute-force
  pair kernel, so the value is the baseline's by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .dataset import GroupPartition, LabeledDataset, LabelSource
from .errors import EmptyGroup, InvalidArgument

_BLOCK = 1024


@dataclass(frozen=True)
class DistanceResult:
    """A computed set distance plus its provenance.

    `m1`, `m2` and `seed` are populated only for approximate results;
    exact results carry None there.
    """

    value: float
    method: str  # "exact" | "approx"
    label_source: LabelSource
    elapsed_ns: int
    m1: int | None = None
    m2: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.value < 0:
            raise InvalidArgument("distance cannot be negative")
        has_params = None not in (self.m1, self.m2, self.seed)
        if self.method == "approx" and not has_params:
            raise InvalidArgument("approx results must carry m1, m2 and seed")
        if self.method == "exact" and (self.m1, self.m2, self.seed) != (None, None, None):
            raise InvalidArgument("exact results carry no approximation parameters")

    def to_record(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "label_source": self.label_source.value,
            "seed": self.seed,
            "m1": self.m1,
            "m2": self.m2,
            "elapsed_ns": self.elapsed_ns,
        }


def augmented_points(features: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rows of [value, features...], the coordinates the metric acts on."""
    out = np.empty((features.shape[0], features.shape[1] + 1), dtype=np.float64)
    out[:, 0] = values
    out[:, 1:] = features
    return out


# Relative gap below the largest tree distance within which an anchor's
# distance is recomputed by the pair kernel: tree and pair-kernel
# distances differ by a few rounding errors, far less than this.
_TIE_RTOL = 1e-12


def _scipy_spatial():
    # imported on first use: scipy.spatial dominates the package's import
    # time, and only the exact routes need it
    from scipy.spatial import cKDTree
    from scipy.spatial.distance import cdist

    return cKDTree, cdist


def _pair_minima(za: np.ndarray, zb: np.ndarray, cdist) -> tuple[np.ndarray, np.ndarray]:
    """Row and column minima of the za-by-zb distance matrix, streamed
    block by block: each row's nearest row of zb and each row of zb's
    nearest row of za."""
    min_a = np.full(len(za), np.inf)
    min_b = np.full(len(zb), np.inf)
    for i in range(0, len(za), _BLOCK):
        for j in range(0, len(zb), _BLOCK):
            block = cdist(za[i : i + _BLOCK], zb[j : j + _BLOCK])
            np.minimum(min_a[i : i + _BLOCK], block.min(axis=1), out=min_a[i : i + _BLOCK])
            np.minimum(min_b[j : j + _BLOCK], block.min(axis=0), out=min_b[j : j + _BLOCK])
    return min_a, min_b


def _group_points(
    dataset: LabeledDataset, partition: GroupPartition, source: LabelSource
) -> tuple[np.ndarray, np.ndarray]:
    values = dataset.values_for(source).astype(np.float64)
    return (
        augmented_points(dataset.features[partition.group0], values[partition.group0]),
        augmented_points(dataset.features[partition.group1], values[partition.group1]),
    )


def exact_set_distance(
    dataset: LabeledDataset, partition: GroupPartition, source: LabelSource
) -> DistanceResult:
    """The symmetric between-group distance by brute force, the baseline
    the other routes are checked against.

    Cost is O(n0*n1) point-distance evaluations; both directed terms are
    accumulated from one streamed pass over the pair blocks.
    """
    if partition.has_empty_group:
        raise EmptyGroup("both groups must be nonempty to compute a distance")
    _, cdist = _scipy_spatial()  # a first import stays out of elapsed_ns
    start = time.perf_counter_ns()
    z0, z1 = _group_points(dataset, partition, source)
    min0, min1 = _pair_minima(z0, z1, cdist)
    value = float(max(min0.max(), min1.max()))
    elapsed = time.perf_counter_ns() - start
    return DistanceResult(
        value=value, method="exact", label_source=source, elapsed_ns=elapsed
    )


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
    brute-force pair kernel, so the maximum is the baseline's. Memory
    stays O(n). The recompute costs O(ties * n) pairs, capped at brute
    force's n0*n1, which it reaches when most anchors tie, as when both
    groups hold the same points.
    """
    if partition.has_empty_group:
        raise EmptyGroup("both groups must be nonempty to compute a distance")
    cKDTree, cdist = _scipy_spatial()  # a first import stays out of elapsed_ns
    start = time.perf_counter_ns()
    z0, z1 = _group_points(dataset, partition, source)
    near0 = _tree_nearest(z0, z1, cKDTree)
    near1 = _tree_nearest(z1, z0, cKDTree)
    cutoff = max(near0.max(), near1.max()) * (1.0 - _TIE_RTOL)
    ties0, ties1 = near0 >= cutoff, near1 >= cutoff
    # the pair kernel sees group 0 as rows and group 1 as columns, as in
    # exact_set_distance, so each pair's distance is rounded alike; when
    # the ties would cost more pairs than that, it does exactly that
    n0, n1 = len(z0), len(z1)
    if int(ties0.sum()) * n1 + n0 * int(ties1.sum()) >= n0 * n1:
        min0, min1 = _pair_minima(z0, z1, cdist)
    else:
        min0, _ = _pair_minima(z0[ties0], z1, cdist)
        _, min1 = _pair_minima(z0, z1[ties1], cdist)
    value = float(max(min0.max(initial=0.0), min1.max(initial=0.0)))
    elapsed = time.perf_counter_ns() - start
    return DistanceResult(
        value=value, method="exact", label_source=source, elapsed_ns=elapsed
    )


# The early-break route's constants. The two caps that send a call to
# the tree sit well above what separated groups reach; CHANGES.md
# records the inputs measured on each side of them
_KERNEL_PAIRS = 256 * 256  # pairs in one block of the numpy pair kernel
_FIRST_BATCH = 32  # anchors in each direction's first batch; doubles...
_LAST_BATCH = 8192  # ...up to this
_FIRST_SPAN = 8  # opponents a batch scans first; the scanned prefix doubles
_FAR_BUDGET = 4096  # opponents an anchor scans before it counts as far
_FAR_CAP = 1024  # far anchors scanned on before the call goes to the tree
_MEAN_CAP = 1024  # mean opponents scanned per anchor before it does,
_COUNTED_BATCH = 4 * _FIRST_BATCH  # counted over batches of this size on


class _PairKernel:
    """Squared pair distances summed in column order, (a_j - b_j)**2 from
    j = 0 upward: the order in which scipy's `cdist` sums them before its
    one square root, so the square root of a sum is `cdist`'s distance
    bit for bit. That holds while `cdist`'s compiled loop neither reorders
    nor fuses its multiply-adds. `tests/test_exact.py::TestPairKernel`
    checks it; it passed on x86-64 with numpy 2.4 / scipy 1.17, CI also
    runs it on numpy 1.24 / scipy 1.10, and other architectures are
    unchecked. Points are the columns of (d, n) arrays. A block holds at
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

    def lower(self, nearest: np.ndarray, anchors: np.ndarray, opponents: np.ndarray) -> None:
        """Lower nearest[i] to the squared distance from anchor i to its
        nearest opponent; both sides must be nonempty."""
        # (a_j - b_j)**2 and (b_j - a_j)**2 are the same bits, so the
        # longer side may run along the inner axis
        flip = anchors.shape[1] > opponents.shape[1]
        rows, cols = (opponents, anchors) if flip else (anchors, opponents)
        width = min(cols.shape[1], _KERNEL_PAIRS)
        height = _KERNEL_PAIRS // width
        for i in range(0, rows.shape[1], height):
            for k in range(0, cols.shape[1], width):
                block = self._squares(rows[:, i : i + height], cols[:, k : k + width])
                if flip:
                    out = nearest[k : k + width]
                    np.minimum(out, block.min(axis=0), out=out)
                else:
                    out = nearest[i : i + height]
                    np.minimum(out, block.min(axis=1), out=out)


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

    def run(self, z0: np.ndarray, z1: np.ndarray) -> float | None:
        """The largest squared nearest-opponent distance of the rows of
        z0 and z1, or None when the scan gives up."""
        # the groups take unrelated orders, so that groups listing the
        # same rows in the same order do not meet them in lockstep
        rng = np.random.default_rng(0)
        points = [np.ascontiguousarray(z[rng.permutation(len(z))].T) for z in (z0, z1)]
        taken = [0, 0]
        size = _FIRST_BATCH
        pairs = anchors = 0
        while taken[0] < len(z0) or taken[1] < len(z1):
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


def early_break_set_distance(
    dataset: LabeledDataset, partition: GroupPartition, source: LabelSource
) -> DistanceResult:
    """The symmetric between-group distance by an early-break scan,
    equal bit for bit to `exact_set_distance` where `_PairKernel` rounds
    as `cdist` does, without scipy.

    Pairs are evaluated by a numpy kernel that sums squared coordinate
    differences in `cdist`'s order, and an anchor stops at the first
    opponent within the running maximum (see `_EarlyBreak`). On separated
    groups this evaluates under 1% of the n0*n1 pairs. Where anchors find
    no near opponent early, as on overlapping uniform groups, on
    many duplicate points or on a grid, the call goes to
    `tree_set_distance` instead; `elapsed_ns` then covers the scan and the
    tree but not scipy's first import. Memory stays O(n).
    """
    if partition.has_empty_group:
        raise EmptyGroup("both groups must be nonempty to compute a distance")
    start = time.perf_counter_ns()
    z0, z1 = _group_points(dataset, partition, source)
    largest = _EarlyBreak().run(z0, z1)
    elapsed = time.perf_counter_ns() - start
    if largest is None:
        tree = tree_set_distance(dataset, partition, source)
        return replace(tree, elapsed_ns=elapsed + tree.elapsed_ns)
    return DistanceResult(
        value=math.sqrt(largest), method="exact", label_source=source, elapsed_ns=elapsed
    )
