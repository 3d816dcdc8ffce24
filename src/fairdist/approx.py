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
keeping the smallest trial result tightens it.

The worst case is O(m1 * n * (log n + m2)) overall, against O(n0 * n1)
for the exact computation. Measured at n=50k, 10 features and m2=10, a
full window scan took about 85% of a trial; projecting, sorting and
gathering the rows took the rest, a few milliseconds each. Two exact
bounds cut the scan without changing any result:

- Prefix bound. Every anchor first takes its nearest PREFIX_DEPTH
  opposite points on each side. Their minimum bounds the anchor's
  windowed minimum from above, so an anchor whose bound is at most the
  largest finished minimum cannot set the trial's maximum and is never
  finished. The others are finished best first, largest bound first,
  over the rest of the window in chunks.
- Early abandon. The reported value is the minimum over trials, so a
  trial whose largest finished minimum reaches the best earlier trial
  cannot lower it and stops there (as in the UCR suite's early
  abandoning, Rakthanmanon et al., KDD 2012).

With both, an approx call at that size takes about 30% of its time
with the full scan. The time left is spread over projecting (~15%),
sorting (~30%), gathering (~10%), the prefix (~20%) and finishing
anchors (~25%).

The values are bit-identical to a full scan: each squared pair distance
is computed by the same expression (row difference, then a row-wise
einsum), and minimum and maximum are exact; the square root is monotone,
so taking it once at the end gives the same bits as taking it per
anchor.

Determinism: trial j draws its direction from a child seed derived from
(seed, j), so results never depend on scheduling and the sequence of
trial outcomes for a given master seed is a fixed stream (running more
trials can only lower the reported minimum).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from .dataset import GroupPartition, LabeledDataset, LabelSource
from .errors import DimensionError, EmptyGroup, InvalidArgument
from .exact import DistanceResult, augmented_points

DEFAULT_M1 = 25
DEFAULT_SEED = 42
# Window offsets per side evaluated for every anchor before best-first
# completion; see CHANGES.md for the measurement behind the value.
PREFIX_DEPTH = 1
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
        if abs(float(np.abs(weights).sum()) - 1.0) > 1e-12:
            raise InvalidArgument("projection weights must have L1 norm 1")
        if float(np.abs(weights).max()) > 1.0:
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


def _project_all(
    features: np.ndarray, values: np.ndarray, w: ProjectionVector, work: np.ndarray
) -> np.ndarray:
    """Project every row; `work` (shaped like `features`) takes the products."""
    if features.shape[1] + 1 != w.dim:
        raise DimensionError("feature matrix width must be projection dim - 1")
    # elementwise multiply + reduce keeps the result independent of any
    # threaded BLAS configuration
    return w.weights[0] * values + np.multiply(features, w.weights[1:], out=work).sum(axis=1)


def _gather_diff(
    anchors: np.ndarray, opponents: np.ndarray, idx: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """anchors - opponents[idx], row by row, written into the head of `work`."""
    diff = np.take(opponents, idx, axis=0, out=work[: len(idx)], mode="clip")
    return np.subtract(anchors, diff, out=diff)


def _prefix_minima_sq(
    za: np.ndarray, zo: np.ndarray, n_left: np.ndarray, depth: int, work: np.ndarray
) -> np.ndarray:
    """Per-anchor minimum squared distance over at most `depth`
    opposite-group points on each side of the anchor.

    Works one window offset at a time: anchors are in ascending sorted
    position, so the anchors for which the k-th left (right) neighbor
    exists form a suffix (prefix) slice and no masking is needed.
    """
    n_opp = len(zo)
    best = np.full(len(za), np.inf)
    for k in range(1, depth + 1):
        start = int(np.searchsorted(n_left, k))  # first anchor with k left neighbors
        if start < len(za):
            diff = _gather_diff(za[start:], zo, n_left[start:] - k, work)
            np.minimum(best[start:], np.einsum("ij,ij->i", diff, diff), out=best[start:])
        stop = int(np.searchsorted(n_left, n_opp - k, side="right"))
        if stop > 0:
            diff = _gather_diff(za[:stop], zo, n_left[:stop] + (k - 1), work)
            np.minimum(best[:stop], np.einsum("ij,ij->i", diff, diff), out=best[:stop])
    return best


def _offset_minima_sq(
    za: np.ndarray, zo: np.ndarray, n_left: np.ndarray, idx: np.ndarray, first: int, last: int
) -> np.ndarray:
    """Minimum squared distance of the anchors `idx` over the window
    offsets first..last on both sides; inf for an anchor with none."""
    ks = np.arange(first, last + 1)
    left = n_left[idx][:, None]
    neighbor = np.concatenate((left - ks, left + (ks - 1)), axis=1)
    diff = za[idx][:, None, :] - zo[np.clip(neighbor, 0, len(zo) - 1)]
    flat = diff.reshape(-1, diff.shape[2])
    sq = np.einsum("ij,ij->i", flat, flat).reshape(neighbor.shape)
    sq[(neighbor < 0) | (neighbor >= len(zo))] = np.inf
    return sq.min(axis=1)


class _WindowScan:
    """What every trial on one (dataset, partition, source) shares: the
    label values, the augmented rows, the group-1 membership, and work
    buffers reused by every trial (fresh multi-megabyte temporaries per
    trial cost page faults once the allocator returns them to the OS)."""

    def __init__(self, dataset: LabeledDataset, partition: GroupPartition, source: LabelSource):
        self.features = dataset.features
        self.values = dataset.values_for(source).astype(np.float64)
        self.rows = augmented_points(self.features, self.values)
        self.in_group1 = np.zeros(dataset.n, dtype=bool)
        self.in_group1[partition.group1] = True
        width = self.rows.shape[1]
        self.products = np.empty_like(self.features)
        self.z0 = np.empty((len(partition.group0), width))
        self.z1 = np.empty((len(partition.group1), width))
        self.work = np.empty((max(partition.sizes), width))

    def trial_max_sq(self, w: ProjectionVector, m2: int, cutoff: float = math.inf) -> float:
        """The largest windowed nearest-opposite squared distance of the
        trial along `w`, or, once it is known to be >= cutoff, some value
        >= cutoff that is at most the trial's."""
        projected = _project_all(self.features, self.values, w, self.products)
        # stable: tied rows keep their original order, which fixes the
        # scan semantics across platforms
        order = np.argsort(projected, kind="stable")
        sorted_in_group1 = self.in_group1[order]
        pos0 = np.flatnonzero(~sorted_in_group1)
        pos1 = np.flatnonzero(sorted_in_group1)
        z0 = np.take(self.rows, order[pos0], axis=0, out=self.z0, mode="clip")
        z1 = np.take(self.rows, order[pos1], axis=0, out=self.z1, mode="clip")
        # per direction: anchors, opponents, and the count of opponents
        # strictly left of each anchor (non-decreasing); the i-th anchor
        # of a group has i own-group rows and pos - i opponents before it
        sides = (
            (z0, z1, pos0 - np.arange(len(pos0))),
            (z1, z0, pos1 - np.arange(len(pos1))),
        )
        depth = min(m2, PREFIX_DEPTH)
        bounds = [_prefix_minima_sq(za, zo, n_left, depth, self.work) for za, zo, n_left in sides]
        ub = np.concatenate(bounds)
        widest = min(m2, max(len(z0), len(z1)))
        if widest <= depth:
            return float(ub.max())
        # An anchor's windowed minimum is at most its prefix bound, so an
        # anchor whose bound is <= the largest finished minimum cannot set
        # the trial's maximum; finish the others, largest bound first.
        chunk = max(1, CHUNK_PAIRS // (2 * (widest - depth)))
        n0 = len(z0)
        largest = 0.0
        pending = np.arange(len(ub))
        while len(pending) and largest < cutoff:
            if len(pending) > chunk:
                split = np.argpartition(ub[pending], len(pending) - chunk)
                head, pending = pending[split[-chunk:]], pending[split[:-chunk]]
            else:
                head, pending = pending, pending[:0]
            head.sort()  # ascending anchors: the gathers below walk memory forward
            for (za, zo, n_left), bound, idx in zip(
                sides, bounds, (head[head < n0], head[head >= n0] - n0)
            ):
                if len(idx) == 0:
                    continue
                bound, last = bound[idx], min(m2, len(zo))
                if last > depth:
                    rest = _offset_minima_sq(za, zo, n_left, idx, depth + 1, last)
                    bound = np.minimum(bound, rest)
                largest = max(largest, float(bound.max()))
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
    if partition.has_empty_group:
        raise EmptyGroup("both groups must be nonempty to compute a distance")
    if m2 < 1:
        raise InvalidArgument("m2 must be a positive integer")
    return math.sqrt(_WindowScan(dataset, partition, source).trial_max_sq(w, m2))


def approx_set_distance(
    dataset: LabeledDataset,
    partition: GroupPartition,
    source: LabelSource,
    params: ApproxParams | None = None,
) -> DistanceResult:
    """Approximate the set distance as the minimum over m1 independent
    sorted-scan trials, each with a freshly sampled direction."""
    if partition.has_empty_group:
        raise EmptyGroup("both groups must be nonempty to compute a distance")
    params = params or ApproxParams()
    m2 = params.m2 if params.m2 is not None else default_m2(dataset.n)
    start = time.perf_counter_ns()
    scan = _WindowScan(dataset, partition, source)
    # squared throughout: sqrt is monotone, so taking it once at the end
    # gives the same bits as taking it per anchor
    best_sq = math.inf
    for trial in range(params.m1):
        w = sample_l1_unit_vector(1 + dataset.n_features, _trial_rng(params.seed, trial))
        # a trial that reaches best_sq cannot lower it: stop it there
        best_sq = min(best_sq, scan.trial_max_sq(w, m2, cutoff=best_sq))
    elapsed = time.perf_counter_ns() - start
    return DistanceResult(
        value=math.sqrt(best_sq),
        method="approx",
        label_source=source,
        elapsed_ns=elapsed,
        m1=params.m1,
        m2=m2,
        seed=params.seed,
    )
