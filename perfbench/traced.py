"""In-process traced run: the CLI's pipeline, one public call at a time.

Each call into the package's io, dataset, exact, approx and measures
modules is wrapped in a span recorded from the benchmark's own code; the
package itself is not instrumented. For approx, every trial is rebuilt
from the public `sample_l1_unit_vector` and `projection_scan_distance`
with the per-trial seed stream the approx module documents (trial j of
master seed s draws from SeedSequence(s, spawn_key=(j,))), and the
minimum over the rebuilt trials must equal the reported distance bit for
bit.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from fairdist import approx, dataset, exact, measures
from fairdist import io as fio
from reference import check_hfm_report, check_measures_report

GROUP_MEASURES = (
    ("demographic_parity", measures.demographic_parity),
    ("equal_opportunity", measures.equal_opportunity),
    ("predictive_quality_parity", measures.predictive_quality_parity),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; a span's parent is the span open around it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), math.nan, parent)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open.pop()
            record.end = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial,))))


def _rebuilt_trials(tracer, data, part, source, result) -> tuple[int, list[str]]:
    """Re-run every trial of one approx call; returns the count of trials
    that lowered the running minimum, and problems."""
    best, useful = math.inf, 0
    for trial in range(result.m1):
        w = approx.sample_l1_unit_vector(1 + data.n_features, _trial_rng(result.seed, trial))
        with tracer.span("approx.projection_scan_distance"):
            value = approx.projection_scan_distance(data, part, source, w, result.m2)
        if value < best:
            best, useful = value, useful + 1
    problems = []
    if best.hex() != result.value.hex():
        problems.append(
            f"rebuilt trial minimum {best!r} != approx_set_distance {result.value!r} "
            f"({source.value})"
        )
    return useful, problems


def _no_counts() -> dict[str, int]:
    return {"approx.trials": 0, "approx.useful_trials": 0, "approx.m2": 0, "exact.pairs": 0}


@dataclass(frozen=True)
class RoundResult:
    tracer: Tracer
    pipeline_s: float
    counts: dict[str, float]
    problems: list[str]


def hfm_round(path: str, schema, method: str, refs: dict[str, float]) -> RoundResult:
    """`fairdist hfm --method <method>` at default m1/m2/seed, traced."""
    tracer = Tracer()
    counts = _no_counts()
    problems: list[str] = []
    with tracer.span("pipeline"):
        with tracer.span("io.load_csv"):
            data, _ = fio.load_csv(path, schema)
        with tracer.span("dataset.partition_by_attribute"):
            part = dataset.partition_by_attribute(data, 0)
        results = {}
        for key, source, tag in (
            ("d", dataset.LabelSource.TRUE_LABELS, "D"),
            ("d_f", dataset.LabelSource.PREDICTIONS, "Df"),
        ):
            if method == "exact":
                with tracer.span("exact.exact_set_distance"):
                    results[key] = exact.exact_set_distance(data, part, source)
                n0, n1 = part.sizes
                counts["exact.pairs"] = n0 * n1
            else:
                params = approx.ApproxParams(seed=approx.derived_seed(approx.DEFAULT_SEED, tag))
                with tracer.span("approx.approx_set_distance"):
                    results[key] = approx.approx_set_distance(data, part, source, params)
        with tracer.span("measures.hfm"):
            value = measures.hfm(results["d_f"].value, results["d"].value)
    pipeline_s = tracer.spans[0].seconds
    if method == "approx":
        # outside the pipeline span: the CLI does not run these
        for key, source in (
            ("d", dataset.LabelSource.TRUE_LABELS),
            ("d_f", dataset.LabelSource.PREDICTIONS),
        ):
            useful, found = _rebuilt_trials(tracer, data, part, source, results[key])
            problems += found
            counts["approx.trials"] += results[key].m1
            counts["approx.useful_trials"] += useful
            counts["approx.m2"] = results[key].m2
    report = {"d": results["d"].value, "d_f": results["d_f"].value, "hfm": value}
    problems += check_hfm_report(report, refs, method)
    return RoundResult(tracer, pipeline_s, counts, problems)


def group_metrics_round(
    path: str, schema, flipped_column: str, refs: dict[str, float]
) -> RoundResult:
    """`fairdist group-metrics --prediction-flipped <col>`, traced."""
    tracer = Tracer()
    report = {}
    with tracer.span("pipeline"):
        with tracer.span("io.load_csv"):
            data, _ = fio.load_csv(path, schema)
        with tracer.span("dataset.partition_by_attribute"):
            part = dataset.partition_by_attribute(data, 0)
        for key, measure in GROUP_MEASURES:
            with tracer.span("measures.group_metric"):
                report[key] = measure(data, part, schema.positive_label)
        with tracer.span("io.read_int_column"):
            flipped = fio.read_int_column(path, flipped_column, schema.label_values)
        with tracer.span("measures.group_metric"):
            report["discriminative_risk"] = measures.discriminative_risk(
                data.predictions, flipped
            )
    return RoundResult(
        tracer, tracer.spans[0].seconds, _no_counts(), check_measures_report(report, refs)
    )


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(rounds: list[RoundResult], n_rows: int) -> dict[str, float]:
    """Per-layer figures over all traced rounds. A layer the workload
    never calls reports 0: zero calls, zero time."""

    def per_round(name: str) -> float:
        return _median_or_zero([r.tracer.total(name) for r in rounds if r.tracer.durations(name)])

    def per_call(name: str) -> float:
        return _median_or_zero([d for r in rounds for d in r.tracer.durations(name)])

    last = rounds[-1].counts
    load_s = per_round("io.load_csv")
    exact_s = per_call("exact.exact_set_distance")
    trials, useful = last["approx.trials"], last["approx.useful_trials"]
    return {
        "io.load_csv_s": load_s,
        "io.load_csv_rows_per_s": n_rows / load_s,
        "io.read_int_column_s": per_round("io.read_int_column"),
        "dataset.partition_s": per_round("dataset.partition_by_attribute"),
        "exact.call_s": exact_s,
        "exact.pairs": last["exact.pairs"],
        "exact.pairs_per_s": last["exact.pairs"] / exact_s if exact_s else 0.0,
        "approx.call_s": per_call("approx.approx_set_distance"),
        "approx.trial_s": per_call("approx.projection_scan_distance"),
        "approx.trials": trials,
        "approx.useful_trials": useful,
        "approx.useful_ratio": useful / trials if trials else 0.0,
        "approx.m2": last["approx.m2"],
        "measures.group_metrics_s": per_round("measures.group_metric"),
    }
