"""Exact between-group set distance.

The distance between the two groups is the larger of the two directed
max-min terms: for each point in one group take the distance to its
nearest point in the other group, then take the worst case over the
group; symmetrize by doing this in both directions. Points live in the
space (insensitive features, label), so a row contributes the vector
[y, x_1, ..., x_nx] and distances are plain Euclidean. Sensitive columns
never enter the metric.

Direct evaluation needs all n0*n1 point pairs; the pair matrix is
streamed block by block so memory stays O(block^2) while both directed
terms are accumulated in a single pass.
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

    def to_record(self, include_timing: bool = True) -> dict:
        record = {
            "value": self.value,
            "method": self.method,
            "label_source": self.label_source.value,
            "seed": self.seed,
            "m1": self.m1,
            "m2": self.m2,
        }
        if include_timing:
            record["elapsed_ns"] = self.elapsed_ns
        return record


def augmented_points(features: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rows of [value, features...], the coordinates the metric acts on."""
    out = np.empty((features.shape[0], features.shape[1] + 1), dtype=np.float64)
    out[:, 0] = values
    out[:, 1:] = features
    return out


def _cdist():
    # imported on first use: scipy.spatial dominates the package's import
    # time, and only the exact route needs it
    from scipy.spatial.distance import cdist

    return cdist


def _pair_minima(
    dataset: LabeledDataset, indices_a: np.ndarray, indices_b: np.ndarray, source: LabelSource
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row nearest-opposite distances for both index sets, with the
    label slot chosen by `source`, streamed block by block."""
    cdist = _cdist()
    values = dataset.values_for(source).astype(np.float64)
    za = augmented_points(dataset.features[indices_a], values[indices_a])
    zb = augmented_points(dataset.features[indices_b], values[indices_b])
    min_a = np.full(len(za), np.inf)
    min_b = np.full(len(zb), np.inf)
    for i in range(0, len(za), _BLOCK):
        a = za[i : i + _BLOCK]
        for j in range(0, len(zb), _BLOCK):
            b = zb[j : j + _BLOCK]
            block = cdist(a, b)
            np.minimum(min_a[i : i + _BLOCK], block.min(axis=1), out=min_a[i : i + _BLOCK])
            np.minimum(min_b[j : j + _BLOCK], block.min(axis=0), out=min_b[j : j + _BLOCK])
    return min_a, min_b


def directed_max_min(
    dataset: LabeledDataset,
    from_indices: np.ndarray,
    to_indices: np.ndarray,
    source: LabelSource,
) -> float:
    """max over `from` rows of the distance to the nearest `to` row,
    with the label slot chosen by `source`."""
    from_indices = np.asarray(from_indices, dtype=np.int64)
    to_indices = np.asarray(to_indices, dtype=np.int64)
    if len(from_indices) == 0 or len(to_indices) == 0:
        raise EmptyGroup("directed distance needs two nonempty index sets")
    min_a, _ = _pair_minima(dataset, from_indices, to_indices, source)
    return float(min_a.max())


def exact_set_distance(
    dataset: LabeledDataset, partition: GroupPartition, source: LabelSource
) -> DistanceResult:
    """The symmetric between-group distance, computed exactly.

    Cost is O(n0*n1) point-distance evaluations; both directed terms are
    accumulated from one streamed pass over the pair blocks.
    """
    if partition.has_empty_group:
        raise EmptyGroup("both groups must be nonempty to compute a distance")
    _cdist()  # a first import stays out of elapsed_ns
    start = time.perf_counter_ns()
    min0, min1 = _pair_minima(dataset, partition.group0, partition.group1, source)
    value = float(max(min0.max(), min1.max()))
    elapsed = time.perf_counter_ns() - start
    return DistanceResult(
        value=value, method="exact", label_source=source, elapsed_ns=elapsed
    )
