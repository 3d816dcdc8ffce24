"""Benchmark harness: synthetic datasets, exact-vs-approx sweeps, and the
agreement/timing summaries that back the accuracy and speed claims.

Each sweep row records both distance values, their relative difference,
and the wall-clock cost of each method, measured around the distance call
only. A failing row (say, a degenerate partition) is marked failed and
the sweep continues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .approx import ApproxParams, approx_set_distance
from .dataset import LabeledDataset, LabelSource, partition_by_attribute
from .errors import ComputationError, InvalidArgument, UndefinedCorrelation
from .exact import exact_set_distance

REL_DIFF_EPSILON = 1e-12


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a random dataset: size, feature count, privileged-group
    fraction, class count, optional two-cluster separation, and seed.

    cluster_separation = 0 draws features uniformly in [0, 1]; a positive
    value centers one Gaussian cluster per group that far apart (clipped
    back into the unit box).
    """

    n: int
    n_x: int = 3
    group_fraction: float = 0.5
    n_c: int = 2
    cluster_separation: float = 0.0
    seed: int = 0
    with_predictions: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise InvalidArgument("n must be at least 2")
        if self.n_x < 1:
            raise InvalidArgument("n_x must be at least 1")
        if not 0.0 < self.group_fraction < 1.0:
            raise InvalidArgument("group_fraction must lie strictly between 0 and 1")
        if self.n_c < 2:
            raise InvalidArgument("n_c must be at least 2")
        if self.cluster_separation < 0.0:
            raise InvalidArgument("cluster_separation must be nonnegative")


def synth_dataset(spec: SynthSpec) -> LabeledDataset:
    """Generate a dataset from the recipe; the same recipe (same seed)
    always produces the identical dataset."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    n1 = int(round(spec.n * spec.group_fraction))
    if n1 < 1 or n1 >= spec.n:
        raise InvalidArgument("group_fraction leaves one group empty at this n")
    membership = np.zeros(spec.n, dtype=np.int64)
    membership[rng.permutation(spec.n)[:n1]] = 1

    if spec.cluster_separation == 0.0:
        features = rng.uniform(0.0, 1.0, size=(spec.n, spec.n_x))
    else:
        centers = np.where(
            membership[:, None] == 1,
            0.5 + spec.cluster_separation / 2.0,
            0.5 - spec.cluster_separation / 2.0,
        )
        features = np.clip(centers + rng.normal(0.0, 0.15, size=(spec.n, spec.n_x)), 0.0, 1.0)

    labels = rng.integers(1, spec.n_c + 1, size=spec.n)
    predictions = rng.integers(1, spec.n_c + 1, size=spec.n) if spec.with_predictions else None
    return LabeledDataset(features, membership[:, None], labels, predictions)


@dataclass(frozen=True)
class ComparisonRow:
    """One sweep cell: a dataset, one parameter set, one label source."""

    dataset_id: str
    n: int
    n_x: int
    n0: int
    n1: int
    label_source: str
    m1: int
    m2: int
    seed: int
    exact_value: float | None
    approx_value: float | None
    relative_difference: float | None
    exact_ns: int | None
    approx_ns: int | None
    status: str
    error: str = ""

    def to_record(self, include_timing: bool = True) -> dict:
        record = {
            "dataset_id": self.dataset_id,
            "n": self.n,
            "n_x": self.n_x,
            "n0": self.n0,
            "n1": self.n1,
            "label_source": self.label_source,
            "m1": self.m1,
            "m2": self.m2,
            "seed": self.seed,
            "exact_value": self.exact_value,
            "approx_value": self.approx_value,
            "relative_difference": self.relative_difference,
        }
        if include_timing:
            record["exact_ns"] = self.exact_ns
            record["approx_ns"] = self.approx_ns
        record["status"] = self.status
        record["error"] = self.error
        return record


def relative_difference(approx: float, exact: float) -> float:
    """(approx - exact) / max(exact, eps); the eps floor keeps the ratio
    defined when the exact distance is 0."""
    return (approx - exact) / max(exact, REL_DIFF_EPSILON)


def run_comparison(
    datasets: Sequence[tuple[str, LabeledDataset]], params: ApproxParams
) -> list[ComparisonRow]:
    """Exact vs approx over every (dataset, label source) cell.

    Uses each dataset's first sensitive attribute for the partition. Rows
    that fail (degenerate groups and the like) are marked failed rather
    than aborting the sweep.
    """
    rows = []
    for dataset_id, dataset in datasets:
        sources = [LabelSource.TRUE_LABELS]
        if dataset.predictions is not None:
            sources.append(LabelSource.PREDICTIONS)
        for source in sources:
            rows.append(_one_row(dataset_id, dataset, params, source))
    return rows


def _one_row(
    dataset_id: str, dataset: LabeledDataset, params: ApproxParams, source: LabelSource
) -> ComparisonRow:
    base = {
        "dataset_id": dataset_id,
        "n": dataset.n,
        "n_x": dataset.n_features,
        "label_source": source.value,
        "m1": params.m1,
        "seed": params.seed,
    }
    try:
        partition = partition_by_attribute(dataset, 0)
        exact = exact_set_distance(dataset, partition, source)
        approx = approx_set_distance(dataset, partition, source, params)
        return ComparisonRow(
            n0=len(partition.group0),
            n1=len(partition.group1),
            m2=approx.m2,
            exact_value=exact.value,
            approx_value=approx.value,
            relative_difference=relative_difference(approx.value, exact.value),
            exact_ns=exact.elapsed_ns,
            approx_ns=approx.elapsed_ns,
            status="ok",
            **base,
        )
    except ComputationError as exc:
        return ComparisonRow(
            n0=-1,
            n1=-1,
            m2=params.m2 if params.m2 is not None else -1,
            exact_value=None,
            approx_value=None,
            relative_difference=None,
            exact_ns=None,
            approx_ns=None,
            status="failed",
            error=str(exc),
            **base,
        )


def pearson(xs: np.ndarray, ys: np.ndarray) -> float:
    """Sample Pearson correlation coefficient."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise InvalidArgument("inputs must be 1-D and of equal length")
    if len(xs) < 2:
        raise InvalidArgument("correlation needs at least two observations")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    ssx = float((dx * dx).sum())
    ssy = float((dy * dy).sum())
    if ssx == 0.0 or ssy == 0.0:
        raise UndefinedCorrelation("correlation is undefined for a constant input")
    r = float((dx * dy).sum() / math.sqrt(ssx * ssy))
    return min(1.0, max(-1.0, r))


def summarize(rows: Sequence[ComparisonRow]) -> dict:
    """Sweep-level agreement and speed summary over the ok rows."""
    ok = [row for row in rows if row.status == "ok"]
    summary = {
        "rows": len(rows),
        "rows_ok": len(ok),
        "rows_failed": len(rows) - len(ok),
        "pearson_r": None,
        "max_relative_difference": None,
        "median_relative_difference": None,
        "mean_speedup": None,
    }
    if len(ok) >= 2:
        exact = np.array([row.exact_value for row in ok])
        approx = np.array([row.approx_value for row in ok])
        try:
            summary["pearson_r"] = pearson(exact, approx)
        except UndefinedCorrelation:
            pass
        rel = np.array([row.relative_difference for row in ok])
        summary["max_relative_difference"] = float(rel.max())
        summary["median_relative_difference"] = float(np.median(rel))
        summary["mean_speedup"] = float(
            np.mean([row.exact_ns / row.approx_ns for row in ok if row.approx_ns])
        )
    return summary
