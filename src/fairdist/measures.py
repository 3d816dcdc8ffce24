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
import threading
from dataclasses import replace

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
from .exact import DistanceResult, early_break_set_distance


def hfm(d_f: float, d: float) -> float:
    """Fairness degree from the two distances: d_f / d - 1.

    d = 0 with d_f = 0 yields 0 (nothing to amplify, nothing added);
    d = 0 with d_f > 0 yields +infinity.
    """
    # written so that NaN fails it too
    if not (d_f >= 0 and d >= 0):
        raise InvalidArgument("distances must be nonnegative")
    if d > 0:
        return d_f / d - 1.0
    return 0.0 if d_f == 0 else math.inf


def set_distance(
    dataset: LabeledDataset,
    partition: GroupPartition,
    source: LabelSource,
    method: str,
    params: ApproxParams | None,
) -> DistanceResult:
    """One between-group distance by `method`: "exact", which ignores
    `params` and takes the early-break route (`early_break_set_distance`,
    equal bit for bit to `exact_set_distance`, whose pair kernel it
    shares; scipy's k-d tree is imported only on the inputs it hands
    over), or "approx" with `params`."""
    if method == "exact":
        return early_break_set_distance(dataset, partition, source)
    if method != "approx":
        raise InvalidArgument(f"unknown distance method {method!r}")
    return approx_set_distance(dataset, partition, source, params)


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
    and "Df"; exact ignores `params` and takes `set_distance`'s
    early-break route, which loads scipy only for a call it hands to the
    k-d tree: importing scipy takes longer than both exact distances on
    separated groups.

    The two distances share only read-only inputs, so d_f is computed on a
    worker thread while the calling thread computes d; numpy releases the
    GIL in the sorts, gathers and reductions that dominate both. Each
    result is the same bits as a sequential call. If both calls raise,
    d's exception is the one raised.
    """
    if dataset.predictions is None:
        raise MissingPredictions("HFM needs a prediction column")
    params = params or ApproxParams()

    def seeded(tag: str) -> ApproxParams:
        return replace(params, seed=derived_seed(params.seed, tag))

    outcome: list[DistanceResult | BaseException] = []

    def predictions_distance() -> None:
        try:
            outcome.append(
                set_distance(dataset, partition, LabelSource.PREDICTIONS, method, seeded("Df"))
            )
        except BaseException as exc:
            outcome.append(exc)

    worker = threading.Thread(target=predictions_distance, name="fairdist-hfm-df")
    worker.start()
    try:
        d = set_distance(dataset, partition, LabelSource.TRUE_LABELS, method, seeded("D"))
    finally:
        worker.join()
    (d_f,) = outcome
    if isinstance(d_f, BaseException):
        raise d_f
    return d, d_f


def group_gaps(
    dataset: LabeledDataset,
    partition: GroupPartition,
    positive_label: int,
    measure: str = "demographic parity",
) -> dict[str, float | None]:
    """Demographic parity, equal opportunity and predictive quality parity,
    keyed by their report names: each the absolute gap between the groups
    in positive-prediction rate, true-positive rate and precision, or None
    where a group's conditioning event is empty. An empty group raises
    EmptyGroup, naming `measure`."""
    if partition.has_empty_group:
        raise EmptyGroup(f"{measure} needs two nonempty groups")
    if dataset.predictions is None:
        raise MissingPredictions("group rates need a prediction column")
    rates = []
    for indices in (partition.group0, partition.group1):
        pred_pos = dataset.predictions[indices] == positive_label
        label_pos = dataset.labels[indices] == positive_label
        tpr = float(pred_pos[label_pos].mean()) if label_pos.any() else None
        precision = float(label_pos[pred_pos].mean()) if pred_pos.any() else None
        rates.append((float(pred_pos.mean()), tpr, precision))
    keys = ("demographic_parity", "equal_opportunity", "predictive_quality_parity")
    return {
        key: None if rate0 is None or rate1 is None else abs(rate1 - rate0)
        for key, rate0, rate1 in zip(keys, *rates)
    }


def _gap(dataset: LabeledDataset, partition: GroupPartition, positive_label: int, key: str):
    measure = key.replace("_", " ")
    gap = group_gaps(dataset, partition, positive_label, measure)[key]
    if gap is None:
        raise UndefinedRate(f"{measure} is undefined: empty conditioning event in a group")
    return gap


def demographic_parity(
    dataset: LabeledDataset, partition: GroupPartition, positive_label: int
) -> float:
    """Absolute gap in positive-prediction rate between the groups."""
    return _gap(dataset, partition, positive_label, "demographic_parity")


def equal_opportunity(
    dataset: LabeledDataset, partition: GroupPartition, positive_label: int
) -> float:
    """Absolute gap in true-positive rate between the groups."""
    return _gap(dataset, partition, positive_label, "equal_opportunity")


def predictive_quality_parity(
    dataset: LabeledDataset, partition: GroupPartition, positive_label: int
) -> float:
    """Absolute gap in precision between the groups."""
    return _gap(dataset, partition, positive_label, "predictive_quality_parity")


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

