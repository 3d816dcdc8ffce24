"""Exact between-group set distance.

The distance between the two groups is the larger of the two directed
max-min terms: for each point in one group take the distance to its
nearest point in the other group, then take the worst case over the
group; symmetrize by doing this in both directions. Points live in the
space (insensitive features, label), so a row contributes the vector
[y, x_1, ..., x_nx] and distances are plain Euclidean. Sensitive columns
never enter the metric.

Two routes compute the same value, bit for bit:

- `exact_set_distance` is the brute-force baseline: it evaluates all
  n0*n1 point pairs, streaming the pair matrix block by block so memory
  stays O(block^2) while both directed terms are accumulated in one pass.
- `tree_set_distance` is the route `dist`/`hfm --method exact` and
  `hfm_distances` take: label-stratified k-d tree queries, with the
  anchors that tie the largest distance recomputed by the brute-force
  pair kernel, so the value is the baseline's by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
