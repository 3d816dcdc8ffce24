"""Fast approximation of the between-group set distance.

One trial projects every point onto a random direction drawn from the
L1 unit sphere, sorts the projected values, and for each anchor point
inspects only a bounded window of opposite-group neighbors on each side
of it in the sorted order. A projection with L1 norm 1 never expands
Euclidean distances, so an anchor's true nearest opposite point tends to
land near it in the sorted order; and since the window is a subset of
the opposite group, the per-anchor minimum can only overestimate the
true nearest-opposite distance. Every trial therefore yields an upper
bound on the exact set distance, and repeating with fresh directions and
keeping the smallest trial result tightens it. The bound holds up to
the rounding of one pair distance: a trial sums a pair's squared
differences with a row-wise einsum, the exact routes in column order,
and on points of three or more coordinates the two can differ in the
last bit, so a trial may come out one ulp below the exact value.

The worst case is O(m1 * n * (log n + m2)) overall, against O(n0 * n1)
for the exact computation. An anchor's window is its nearest m2
opposite-group rows on each side, fewer where the sorted order ends
first. Each group's sorted rows sit between min(m2, group size) rows of
inf above and below, so every window is the same number of contiguous
rows and an offset past either end reads inf, which never sets a
minimum: rows are finite, so the difference is never NaN, and every
anchor has a real opponent next to it on one side at least. Two exact
bounds cut the scan without changing any result:

- Prefix bound. Every anchor first takes its nearest opposite point on
  each side. Their minimum bounds the anchor's windowed minimum from
  above, so an anchor whose bound is at most the largest finished
  minimum cannot set the trial's maximum and is never finished. The
  others are finished best first, largest bound first, over their whole
  window in chunks.
- Early abandon. The reported value is the minimum over trials, so a
  trial whose largest finished minimum reaches the best earlier trial
  cannot lower it and stops there (as in the UCR suite's early
  abandoning, Rakthanmanon et al., KDD 2012).

Measured at n=50k, 10 features and m2=10 (uniform rows, both label
sources, default m1), a call takes about a fifth of the time of a full
window scan of every trial. Its trials spend about 18% projecting, 8%
sorting, 14% gathering each group's sorted rows, 24% on the prefix and
36% finishing anchors. A stable sort alone would take about a quarter:
the default sort, checked for ties (`_sort_order`), gives the same order
faster.

The values are bit-identical to a full scan: each squared pair distance
is computed by the same expression (row difference, then a row-wise
einsum), and minimum and maximum are exact; the square root is monotone,
so taking it once at the end gives the same bits as taking it per
anchor.

Determinism: trial j draws its direction from a child seed derived from
(seed, j), so results never depend on scheduling and the sequence of
trial outcomes for a given master seed is a fixed stream (running more
trials can only lower the reported minimum).

`approx_set_distance` runs its trials inside `exact.distance_frame`, the
one frame every `DistanceResult` comes from, exact or approx: it rejects
an empty group, builds every row's [value, features...] once, times the
whole call and records m1, m2 and seed with the value. The trials
project those rows as they are, the label from column 0 and the
features from columns 1.. (`_project_all`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .dataset import GroupPartition, LabeledDataset, LabelSource
from .errors import DimensionError, InvalidArgument
from .exact import DistanceResult, augmented_points, distance_frame

DEFAULT_M1 = 25
DEFAULT_SEED = 42
# At most this many pair distances per chunk, which bounds its temporaries.
CHUNK_PAIRS = 1 << 15


@dataclass(frozen=True)
class ProjectionVector:
    """A direction on the L1 unit sphere in the (label, features) space.

    weights[0] multiplies the label slot, weights[1:] the features.
    Every coordinate lies in [-1, 1] and the absolute values sum to 1,
    which makes the induced projection 1-Lipschitz for the point metric.
    """

    weights: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64, copy=True)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        if weights.ndim != 1 or len(weights) < 1:
            raise InvalidArgument("projection weights must form a nonempty vector")
        # written so that NaN fails them too
        if not abs(float(np.abs(weights).sum()) - 1.0) <= 1e-12:
            raise InvalidArgument("projection weights must have L1 norm 1")
        if not float(np.abs(weights).max()) <= 1.0:
            raise InvalidArgument("projection weights must lie in [-1, 1]")

    @property
    def dim(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ApproxParams:
    """Trial count m1, per-direction neighbor window m2, and master seed.

    m2=None means "derive from the dataset size" via default_m2.
    """

    m1: int = DEFAULT_M1
    m2: int | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.m1 < 1:
            raise InvalidArgument("m1 must be a positive integer")
        if self.m2 is not None and self.m2 < 1:
            raise InvalidArgument("m2 must be a positive integer")
        if self.seed < 0:
            raise InvalidArgument("seed must be a nonnegative integer")


def default_m2(n: int) -> int:
    """Default neighbor window for a dataset of n rows: ceil(2*log10(n)),
    at least 1."""
    if n < 1:
        raise InvalidArgument("n must be positive")
    return max(1, math.ceil(2.0 * math.log10(n)))


def derived_seed(master: int, tag: str) -> int:
    """A stable 64-bit child seed for a named subcomputation."""
    digest = hashlib.sha256(f"{master}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial,))))


def sample_l1_unit_vector(dim: int, rng: np.random.Generator) -> ProjectionVector:
    """Draw a direction uniformly from the L1 unit sphere.

    Coordinates are sampled iid from the standard Laplace distribution and
    normalized by their L1 norm, the L1 analogue of normalizing a Gaussian
    draw to get a uniform point on the Euclidean sphere.
    """
    if dim < 1:
        raise InvalidArgument("dim must be a positive integer")
    while True:
        raw = rng.laplace(size=dim)
        norm = np.abs(raw).sum()
        if norm > 0:
            return ProjectionVector(raw / norm)


def _project_all(rows: np.ndarray, w: ProjectionVector, work: np.ndarray) -> np.ndarray:
    """Project every row of [value, features...]; `work` (shaped like
    `rows`) takes the products."""
    if rows.shape[1] != w.dim:
        raise DimensionError("feature matrix width must be projection dim - 1")
    # elementwise multiply + reduce keeps the result independent of any
    # threaded BLAS configuration. The features' products are summed first
    # and the label's added last. One contiguous multiply over whole rows
    # costs less than one that reads the features at the rows' stride
    products = np.multiply(rows, w.weights, out=work)
    return products[:, 0] + products[:, 1:].sum(axis=1)


def _window_minima_sq(
    anchors: np.ndarray, padded: np.ndarray, first: np.ndarray, span: int
) -> np.ndarray:
    """Each anchor's minimum squared distance over the `span` contiguous
    rows of `padded` that start at its entry of `first`."""
    diff = anchors[:, None, :] - padded[first[:, None] + np.arange(span)]
    flat = diff.reshape(-1, diff.shape[2])
    return np.einsum("ij,ij->i", flat, flat).reshape(len(anchors), span).min(axis=1)


def _sort_order(projected: np.ndarray) -> np.ndarray:
    """The stable sort order of `projected`: tied rows keep their original
    order, which fixes the scan semantics across platforms.

    The default sort is several times faster than the stable one. When its
    sorted values are strictly increasing, every value is distinct and the
    stable order is the only sorted order, so it is returned as is. Ties
    (-0.0 next to 0.0 among them) are put in row order inside each run of
    equal sorted values, by one sort of the unique keys run * n + row.
    Projections are never NaN (ProjectionVector's weights are finite, as
    are the rows), so every run is one value.
    """
    order = np.argsort(projected)
    ranked = projected[order]
    rises = ranked[1:] > ranked[:-1]
    if rises.all():
        return order
    runs = np.concatenate(([0], np.cumsum(rises)))
    return order[np.argsort(runs * len(order) + order)]


class _WindowScan:
    """What every trial on one set of rows, partition and window m2
    shares: the rows of [value, features...] that `distance_frame` built,
    the group-1 membership, and buffers reused by every trial (fresh
    multi-megabyte temporaries per trial cost page faults once the
    allocator returns them to the OS).

    `padded[g]` holds group g's rows in the trial's sorted order between
    `reach[g]` = min(m2, size of g) rows of inf above and below; only the
    middle is rewritten per trial, so the padding stays inf. An anchor
    with `n_left` opponents before it in sorted order has its window, the
    nearest `reach` opponents on each side, at the padded rows
    n_left .. n_left + 2 * reach - 1 of the opposite group; the offsets
    that fall off either end of that group read padding. `products` takes
    the projection's elementwise products and `work` the prefix gathers.
    """

    def __init__(self, rows: np.ndarray, partition: GroupPartition, m2: int):
        self.rows = rows
        self.in_group1 = np.zeros(len(rows), dtype=bool)
        self.in_group1[partition.group1] = True
        width = rows.shape[1]
        self.products = np.empty_like(rows)
        self.reach = [min(m2, size) for size in partition.sizes]
        self.padded = [
            np.full((size + 2 * reach, width), np.inf)
            for size, reach in zip(partition.sizes, self.reach)
        ]
        self.work = np.empty((max(partition.sizes), width))

    def trial_max_sq(self, w: ProjectionVector, cutoff: float = math.inf) -> float:
        """The largest windowed nearest-opposite squared distance of the
        trial along `w`. Once the largest finished anchor reaches
        `cutoff`, the trial stops and returns that anchor's value instead:
        it is >= cutoff and at most the trial's, so a caller that keeps
        the minimum over trials gets the same result either way."""
        projected = _project_all(self.rows, w, self.products)
        order = _sort_order(projected)
        sorted_in_group1 = self.in_group1[order]
        positions = (np.flatnonzero(~sorted_in_group1), np.flatnonzero(sorted_in_group1))
        anchors = [
            # in range, so mode="clip" only skips the copy that
            # mode="raise" makes of `out`
            np.take(self.rows, order[pos], axis=0, out=padded[reach:-reach], mode="clip")
            for pos, padded, reach in zip(positions, self.padded, self.reach)
        ]
        # per direction: anchors, the opponents' padded rows and reach,
        # and the count of opponents strictly left of each anchor
        # (non-decreasing); the i-th anchor of a group has i own-group
        # rows and pos - i opponents before it
        sides = [
            (za, self.padded[1 - g], self.reach[1 - g], pos - np.arange(len(pos)))
            for g, (za, pos) in enumerate(zip(anchors, positions))
        ]
        # prefix bound: the nearest opponent on each side, an upper bound
        # on the anchor's windowed minimum; padding gives inf
        bounds = []
        for za, padded, reach, n_left in sides:
            nearest = []
            for row in (n_left + reach - 1, n_left + reach):
                diff = np.take(padded, row, axis=0, out=self.work[: len(za)], mode="clip")
                np.subtract(za, diff, out=diff)
                nearest.append(np.einsum("ij,ij->i", diff, diff))
            bounds.append(np.minimum(*nearest))
        ub = np.concatenate(bounds)
        # An anchor whose bound is <= the largest finished minimum cannot
        # set the trial's maximum; finish the others, largest bound first.
        chunk = max(1, CHUNK_PAIRS // (2 * max(self.reach)))
        n0 = len(anchors[0])
        largest = 0.0
        pending = np.arange(len(ub))
        while len(pending) and largest < cutoff:
            if len(pending) > chunk:
                split = np.argpartition(ub[pending], len(pending) - chunk)
                head, pending = pending[split[-chunk:]], pending[split[:-chunk]]
            else:
                head, pending = pending, pending[:0]
            head.sort()  # ascending anchors: the gathers below walk memory forward
            for (za, padded, reach, n_left), idx in zip(
                sides, (head[head < n0], head[head >= n0] - n0)
            ):
                if len(idx):
                    minima = _window_minima_sq(za[idx], padded, n_left[idx], 2 * reach)
                    largest = max(largest, float(minima.max()))
            pending = pending[ub[pending] > largest]
        return largest


def projection_scan_distance(
    dataset: LabeledDataset,
    partition: GroupPartition,
    source: LabelSource,
    w: ProjectionVector,
    m2: int,
) -> float:
    """One sorted-scan trial: project, sort, take each anchor's windowed
    nearest-opposite distance, and return the worst case over all anchors.

    The result is always >= the exact set distance, and equals it exactly
    once m2 covers the larger group (the windows then contain every
    opposite point).
    """
    rows = augmented_points(dataset, partition, source)
    if m2 < 1:
        raise InvalidArgument("m2 must be a positive integer")
    return math.sqrt(_WindowScan(rows, partition, m2).trial_max_sq(w))


def approx_set_distance(
    dataset: LabeledDataset,
    partition: GroupPartition,
    source: LabelSource,
    params: ApproxParams | None = None,
) -> DistanceResult:
    """Approximate the set distance as the minimum over m1 independent
    sorted-scan trials, each with a freshly sampled direction, in the
    frame that builds every distance result (`distance_frame`)."""
    params = params or ApproxParams()
    m2 = params.m2 if params.m2 is not None else default_m2(dataset.n)

    def trials(rows: np.ndarray, partition: GroupPartition) -> float:
        scan = _WindowScan(rows, partition, m2)
        # squared throughout: sqrt is monotone, so taking it once at the
        # end gives the same bits as taking it per anchor
        best_sq = math.inf
        for trial in range(params.m1):
            w = sample_l1_unit_vector(rows.shape[1], _trial_rng(params.seed, trial))
            # a trial that reaches best_sq cannot lower it: stop it there
            best_sq = min(best_sq, scan.trial_max_sq(w, cutoff=best_sq))
        return math.sqrt(best_sq)

    return distance_frame(
        dataset, partition, source, trials, m1=params.m1, m2=m2, seed=params.seed
    )
