"""In-memory tabular data model: scaled features, sensitive attributes,
labels, optional predictions (plain and on attribute-disturbed rows), and
group partitions over one or more sensitive attributes.

All values are immutable after construction (the backing numpy arrays are
marked read-only), so datasets and partitions can be shared freely across
threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    InvalidArgument,
    MissingPredictions,
    UnsupportedAttributeArity,
)


class LabelSource(enum.Enum):
    """Which label slot enters a distance: the true labels or the
    classifier's predictions."""

    TRUE_LABELS = "labels"
    PREDICTIONS = "predictions"


def _frozen(array: np.ndarray, dtype) -> np.ndarray:
    out = np.array(array, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LabeledDataset:
    """A fixed table of n rows: real-valued insensitive features in [0, 1],
    small nonnegative integer sensitive attributes (1 = privileged),
    integer class labels in {1..n_c}, and optionally predictions with the
    same codomain, plus the predictions made once the sensitive attributes
    are disturbed (the input to discriminative risk).
    """

    features: np.ndarray
    sensitive: np.ndarray
    labels: np.ndarray
    predictions: np.ndarray | None = None
    predictions_flipped: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", _frozen(self.features, np.float64))
        object.__setattr__(self, "sensitive", _frozen(self.sensitive, np.int64))
        object.__setattr__(self, "labels", _frozen(self.labels, np.int64))
        for name in ("predictions", "predictions_flipped"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen(getattr(self, name), np.int64))

        if self.features.ndim != 2:
            raise DimensionError("features must be a 2-D matrix")
        if self.sensitive.ndim != 2:
            raise DimensionError("sensitive must be a 2-D matrix")
        n = self.features.shape[0]
        if n < 1:
            raise InvalidArgument("dataset must contain at least one row")
        if self.sensitive.shape[0] != n or self.labels.shape != (n,):
            raise DimensionError("row counts are inconsistent across columns")
        if not np.isfinite(self.features).all():
            raise InvalidArgument("features contain NaN or infinite values")
        if self.features.size and (self.features.min() < 0.0 or self.features.max() > 1.0):
            raise InvalidArgument("features must be scaled to [0, 1]")
        if self.sensitive.size and self.sensitive.min() < 0:
            raise InvalidArgument("sensitive attribute values must be nonnegative")
        if self.labels.min() < 1:
            raise InvalidArgument("labels must be positive class indices (1..n_c)")
        for name in ("predictions", "predictions_flipped"):
            values = getattr(self, name)
            if values is None:
                continue
            if values.shape != (n,):
                raise DimensionError(f"{name} length differs from row count")
            if values.min() < 1:
                raise InvalidArgument(f"{name} must be positive class indices (1..n_c)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_sensitive(self) -> int:
        return self.sensitive.shape[1]

    def values_for(self, source: LabelSource) -> np.ndarray:
        """The label vector selected by `source` (predictions must exist
        when requested)."""
        if source is LabelSource.TRUE_LABELS:
            return self.labels
        if self.predictions is None:
            raise MissingPredictions("dataset has no prediction column")
        return self.predictions


@dataclass(frozen=True)
class GroupPartition:
    """Row indices split into the unprivileged (group0) and privileged
    (group1) groups induced by one or more sensitive attributes.

    Always a true partition: the two index sets are disjoint and cover
    every row. A side may be empty; such partitions are valid but are
    rejected by the distance computations.
    """

    attr_indices: tuple[int, ...]
    group0: np.ndarray
    group1: np.ndarray
    n: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "group0", _frozen(np.sort(self.group0), np.int64))
        object.__setattr__(self, "group1", _frozen(np.sort(self.group1), np.int64))
        combined = np.concatenate([self.group0, self.group1])
        if len(combined) != self.n or not np.array_equal(np.sort(combined), np.arange(self.n)):
            raise InvalidArgument("groups must partition the row indices exactly")

    @property
    def sizes(self) -> tuple[int, int]:
        return len(self.group0), len(self.group1)

    @property
    def has_empty_group(self) -> bool:
        return len(self.group0) == 0 or len(self.group1) == 0


def _require_binary(dataset: LabeledDataset, attr_index: int) -> np.ndarray:
    if not 0 <= attr_index < dataset.n_sensitive:
        raise InvalidArgument(
            f"attribute index {attr_index} out of range [0, {dataset.n_sensitive})"
        )
    column = dataset.sensitive[:, attr_index]
    if not np.isin(column, (0, 1)).all():
        raise UnsupportedAttributeArity(f"sensitive column {attr_index} is not binary")
    return column


def partition_by_attribute(dataset: LabeledDataset, attr_index: int) -> GroupPartition:
    """Split rows by one binary sensitive attribute: value 1 (privileged)
    goes to group1, value 0 to group0: joint_partition over one attribute."""
    return joint_partition(dataset, [attr_index])


def joint_partition(dataset: LabeledDataset, attr_indices: list[int]) -> GroupPartition:
    """Split rows by several binary attributes jointly: group1 holds the
    rows privileged in every listed attribute, group0 all others."""
    if not attr_indices:
        raise InvalidArgument("joint_partition needs at least one attribute index")
    privileged = np.ones(dataset.n, dtype=bool)
    for idx in attr_indices:
        privileged &= _require_binary(dataset, idx) == 1
    return GroupPartition(
        attr_indices=tuple(attr_indices),
        group0=np.nonzero(~privileged)[0],
        group1=np.nonzero(privileged)[0],
        n=dataset.n,
    )
