"""Fairness measures.

The headline measure is the harmonic fairness measure (HFM): the ratio of
the between-group distance computed from predictions to the one computed
from true labels, minus one. Zero means the classifier adds no bias beyond
what the data carries, positive means it adds bias, negative means it
reduces it. The degenerate cases follow the ratio's limits: 0/0 counts as
perfectly unbiased (0), and a positive prediction distance over a zero
data distance is +infinity.

Also included are the standard group measures (demographic parity, equal
opportunity, predictive quality parity) and discriminative risk, the
fraction of rows whose prediction changes when the sensitive attributes
are flipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .approx import ApproxParams, approx_set_distance, derived_seed
from .dataset import GroupPartition, LabeledDataset, LabelSource
from .errors import (
    DimensionError,
    EmptyGroup,
    InvalidArgument,
    MissingPredictions,
    UndefinedRate,
)
from .exact import DistanceResult, exact_set_distance

# Finite float, or math.inf for the degenerate positive case.
FairnessValue = float


def hfm(d_f: float, d: float) -> FairnessValue:
    """Fairness degree from the two distances: d_f / d - 1.

    d = 0 with d_f = 0 yields 0 (nothing to amplify, nothing added);
    d = 0 with d_f > 0 yields +infinity.
    """
    if d_f < 0 or d < 0:
        raise InvalidArgument("distances must be nonnegative")
    if d > 0:
        return d_f / d - 1.0
    return 0.0 if d_f == 0 else math.inf


def hfm_distances(
    dataset: LabeledDataset,
    partition: GroupPartition,
    method: str = "exact",
    params: ApproxParams | None = None,
) -> tuple[DistanceResult, DistanceResult]:
    """The two distances the HFM compares, (d, d_f): from the true labels
    and from the predictions, both by `method` ("exact" or "approx").

    The approx runs draw their projection directions from independent
    streams, derived from the master seed of `params` with the tags "D"
    and "Df"; exact ignores `params`.
    """
    if dataset.predictions is None:
        raise MissingPredictions("HFM needs a prediction column")
    if method == "exact":
        return (
            exact_set_distance(dataset, partition, LabelSource.TRUE_LABELS),
            exact_set_distance(dataset, partition, LabelSource.PREDICTIONS),
        )
    if method != "approx":
        raise InvalidArgument(f"unknown distance method {method!r}")
    params = params or ApproxParams()
    d = approx_set_distance(
        dataset,
        partition,
        LabelSource.TRUE_LABELS,
        ApproxParams(params.m1, params.m2, derived_seed(params.seed, "D")),
    )
    d_f = approx_set_distance(
        dataset,
        partition,
        LabelSource.PREDICTIONS,
        ApproxParams(params.m1, params.m2, derived_seed(params.seed, "Df")),
    )
    return d, d_f


@dataclass(frozen=True)
class GroupRates:
    """Per-group conditional rates; None marks an empty conditioning event."""

    count: int
    positive_rate: float | None
    tpr: float | None
    precision: float | None


def compute_group_rates(
    dataset: LabeledDataset, partition: GroupPartition, positive_label: int
) -> tuple[GroupRates, GroupRates]:
    """Rates for group0 and group1 in that order."""
    if dataset.predictions is None:
        raise MissingPredictions("group rates need a prediction column")
    out = []
    for indices in (partition.group0, partition.group1):
        labels = dataset.labels[indices]
        preds = dataset.predictions[indices]
        count = len(indices)
        pred_pos = preds == positive_label
        label_pos = labels == positive_label
        positive_rate = float(pred_pos.mean()) if count else None
        tpr = float(pred_pos[label_pos].mean()) if label_pos.any() else None
        precision = float(label_pos[pred_pos].mean()) if pred_pos.any() else None
        out.append(GroupRates(count, positive_rate, tpr, precision))
    return out[0], out[1]


def _rate_gap(rate0: float | None, rate1: float | None, what: str) -> float:
    if rate0 is None or rate1 is None:
        raise UndefinedRate(f"{what} is undefined: empty conditioning event in a group")
    return abs(rate1 - rate0)


def demographic_parity(
    dataset: LabeledDataset, partition: GroupPartition, positive_label: int
) -> float:
    """Absolute gap in positive-prediction rate between the groups."""
    if partition.has_empty_group:
        raise EmptyGroup("demographic parity needs two nonempty groups")
    g0, g1 = compute_group_rates(dataset, partition, positive_label)
    return _rate_gap(g0.positive_rate, g1.positive_rate, "demographic parity")


def equal_opportunity(
    dataset: LabeledDataset, partition: GroupPartition, positive_label: int
) -> float:
    """Absolute gap in true-positive rate between the groups."""
    if partition.has_empty_group:
        raise EmptyGroup("equal opportunity needs two nonempty groups")
    g0, g1 = compute_group_rates(dataset, partition, positive_label)
    return _rate_gap(g0.tpr, g1.tpr, "equal opportunity")


def predictive_quality_parity(
    dataset: LabeledDataset, partition: GroupPartition, positive_label: int
) -> float:
    """Absolute gap in precision between the groups."""
    if partition.has_empty_group:
        raise EmptyGroup("predictive quality parity needs two nonempty groups")
    g0, g1 = compute_group_rates(dataset, partition, positive_label)
    return _rate_gap(g0.precision, g1.precision, "predictive quality parity")


def discriminative_risk(
    predictions_raw: np.ndarray, predictions_flipped: np.ndarray
) -> float:
    """Fraction of rows whose prediction changes when the sensitive
    attributes are disturbed."""
    predictions_raw = np.asarray(predictions_raw)
    predictions_flipped = np.asarray(predictions_flipped)
    if predictions_raw.shape != predictions_flipped.shape or predictions_raw.ndim != 1:
        raise DimensionError("prediction vectors must be 1-D and of equal length")
    if len(predictions_raw) == 0:
        raise InvalidArgument("prediction vectors must be nonempty")
    return float((predictions_raw != predictions_flipped).mean())

