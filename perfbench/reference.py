"""Independent references for the benchmark's correctness checks.

Nothing here imports the package: distances come from scipy's k-d tree
on the benchmark's own scaling, and the group measures from a NumPy
recount of the generated arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from inputs import GeneratedInput

EXACT_RTOL = 1e-9
MEASURE_ATOL = 1e-12
# approx and the k-d tree round differently; an approx value that equals
# the true distance may land this far below the tree's value
APPROX_FLOOR_RTOL = 1e-12


def set_distance(data: GeneratedInput, values: np.ndarray) -> float:
    """Symmetric max-min distance between the groups over points
    [value, scaled features...], by nearest-neighbour queries both ways."""
    points = np.column_stack([values.astype(np.float64), data.scaled])
    group1, group0 = points[data.male], points[~data.male]
    worst = 0.0
    for anchors, others in ((group0, group1), (group1, group0)):
        nearest, _ = cKDTree(others).query(anchors, k=1, workers=2)
        worst = max(worst, float(nearest.max()))
    return worst


def reference_distances(data: GeneratedInput) -> dict[str, float]:
    return {
        "d": set_distance(data, data.labels),
        "d_f": set_distance(data, data.predictions),
    }


def expected_hfm(d_f: float, d: float) -> float:
    """d_f / d - 1, with 0/0 -> 0 and positive/0 -> inf."""
    if d > 0:
        return d_f / d - 1.0
    return 0.0 if d_f == 0 else math.inf


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    return abs(float(b.mean()) - float(a.mean()))


def reference_measures(data: GeneratedInput, positive_label: int) -> dict[str, float]:
    """DP, EO, PQP and DR recounted from the generated arrays."""
    pred_pos = data.predictions == positive_label
    label_pos = data.labels == positive_label
    g0, g1 = ~data.male, data.male
    return {
        "demographic_parity": _gap(pred_pos[g0], pred_pos[g1]),
        "equal_opportunity": _gap(pred_pos[g0 & label_pos], pred_pos[g1 & label_pos]),
        "predictive_quality_parity": _gap(label_pos[g0 & pred_pos], label_pos[g1 & pred_pos]),
        "discriminative_risk": float((data.predictions != data.flipped).mean()),
    }


def _as_float(value) -> float:
    return math.inf if value == "inf" else float(value)


def check_hfm_report(report: dict, refs: dict[str, float], method: str) -> list[str]:
    """Problems found in one `hfm` report; empty when it is correct."""
    problems = []
    d, d_f = _as_float(report["d"]), _as_float(report["d_f"])
    for key, value in (("d", d), ("d_f", d_f)):
        ref = refs[key]
        if method == "exact" and abs(value - ref) > EXACT_RTOL * ref:
            problems.append(f"exact {key}={value!r} differs from reference {ref!r}")
        if method == "approx" and value < ref * (1.0 - APPROX_FLOOR_RTOL):
            problems.append(f"approx {key}={value!r} is below reference {ref!r}")
    if _as_float(report["hfm"]) != expected_hfm(d_f, d):
        problems.append(f"hfm={report['hfm']!r} is not d_f/d - 1 for d={d!r}, d_f={d_f!r}")
    return problems


def check_measures_report(report: dict, refs: dict[str, float]) -> list[str]:
    problems = []
    for key, ref in refs.items():
        value = report.get(key)
        if isinstance(value, str) or value is None or abs(value - ref) > MEASURE_ATOL:
            problems.append(f"{key}={value!r} differs from recount {ref!r}")
    return problems


def dist_ratio(report: dict, refs: dict[str, float]) -> float:
    """Largest ratio of a reported value to its nonzero reference."""
    return max(_as_float(report[key]) / ref for key, ref in refs.items() if ref > 0)
