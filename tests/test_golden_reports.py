"""Byte-for-byte CLI reports on the committed fixtures.

Each case's golden file under `fixtures/reports/` holds the report the
CLI wrote for it before the HFM pipeline and the report code were
unified; a refactor must leave every byte as it was. Reports carry no
timing fields unless --timings is given, so they are deterministic. To regenerate after
a deliberate report change, run each case's argv with
`--out fixtures/reports/<name>.<format> --format <format>`.
"""

from __future__ import annotations

import os

import pytest

from fairdist.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPORTS = os.path.join(FIXTURES, "reports")
SCHEMA6 = ["--features", "x", "--sensitive", "sex", "--privileged", "Male", "--label", "y"]
SCHEMA12 = [
    "--features", "x1,x2",
    "--sensitive", "sex",
    "--privileged", "Male",
    "--label", "y",
    "--prediction", "yhat",
    "--positive-label", "2",
]

DIST6 = ["--input", os.path.join(FIXTURES, "distance_6.csv"), *SCHEMA6]
GM12 = ["--input", os.path.join(FIXTURES, "group_metrics_12.csv"), *SCHEMA12]

CASES = {
    "dist_exact": ["dist", *DIST6, "--method", "exact"],
    "dist_approx": ["dist", *DIST6, "--method", "approx", "--m1", "5", "--seed", "3"],
    "hfm_exact": ["hfm", *DIST6, "--prediction", "yhat", "--method", "exact", "--alpha", "0.05"],
    "hfm_approx": [
        "hfm", *DIST6, "--prediction", "yhat", "--method", "approx", "--alpha", "0.05",
    ],
    "group_metrics": ["group-metrics", *GM12, "--prediction-flipped", "yhat_flip"],
    # predictions differ from labels here, so d_f, the HFM and the error
    # rate are not the trivial values of the six-row fixture; at m2 = 1
    # both approx distances depend on the seed each run derives
    "hfm_approx_12": [
        "hfm", *GM12, "--method", "approx", "--m1", "2", "--m2", "1", "--seed", "3",
        "--alpha", "0.3",
    ],
    "bench": [
        "bench", "--count", "3", "--min-n", "40", "--max-n", "80", "--m1", "3",
        "--with-predictions",
    ],
    "verify_theory": ["verify-theory", "--pairs", "3", "--trials", "2000"],
}


def case_argv(name: str, fmt: str, out: str) -> list[str]:
    """The full CLI argv of one golden case, writing its report to `out`."""
    return [*CASES[name], "--format", fmt, "--out", out]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, fmt, tmp_path):
    out = tmp_path / f"{name}.{fmt}"
    assert main(case_argv(name, fmt, str(out))) == 0
    with open(os.path.join(REPORTS, f"{name}.{fmt}"), "rb") as golden:
        assert out.read_bytes() == golden.read()
