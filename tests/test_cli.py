import json
import os
import subprocess
import sys

import pytest

from fairdist.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
DIST6 = os.path.join(FIXTURES, "distance_6.csv")
GM12 = os.path.join(FIXTURES, "group_metrics_12.csv")

SCHEMA6 = [
    "--features", "x",
    "--sensitive", "sex",
    "--privileged", "Male",
    "--label", "y",
]
SCHEMA12 = [
    "--features", "x1,x2",
    "--sensitive", "sex",
    "--privileged", "Male",
    "--label", "y",
    "--prediction", "yhat",
    "--positive-label", "2",
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_leaves_scipy_out():
    # scipy.spatial dominates the import time; only the exact route needs it
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, fairdist.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


class TestDist:
    def test_exact_on_six_row_fixture(self, capsys):
        code, out, _ = run(capsys, ["dist", "--input", DIST6, *SCHEMA6, "--method", "exact"])
        assert code == 0
        record = json.loads(out)
        # nested-loop oracle for this fixture: max(1.0, 0.8) = 1.0
        assert record["value"] == pytest.approx(1.0, abs=1e-12)
        assert record["method"] == "exact"

    def test_full_window_approx_equals_exact(self, capsys):
        code, out, _ = run(
            capsys,
            ["dist", "--input", DIST6, *SCHEMA6, "--method", "approx", "--m2", "6", "--m1", "1"],
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-12)

    def test_missing_label_column_exits_two(self, capsys):
        argv = ["dist", "--input", DIST6, "--features", "x", "--sensitive", "sex",
                "--privileged", "Male", "--label", "nope"]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "nope" in err

    def test_empty_group_exits_three(self, capsys, tmp_path):
        path = tmp_path / "one_group.csv"
        path.write_text("x,sex,y\n0.1,Male,1\n0.9,Male,2\n")
        code, _, err = run(capsys, ["dist", "--input", str(path), *SCHEMA6])
        assert code == 3
        assert "nonempty" in err

    def test_column_spanning_double_range(self, capsys, tmp_path):
        # min-max scaling maps x to 0, 0.5, 1, 0.5; groups {0, 0.5} and
        # {1, 0.5} with equal labels are 0.5 apart
        path = tmp_path / "huge.csv"
        path.write_text("x,sex,y\n-1.5e308,Female,1\n0,Female,1\n1.5e308,Male,1\n0,Male,1\n")
        code, out, err = run(capsys, ["dist", "--input", str(path), *SCHEMA6])
        assert code == 0, err
        assert json.loads(out)["value"] == 0.5

    def test_prediction_label_source(self, capsys):
        argv = ["dist", "--input", DIST6, *SCHEMA6, "--prediction", "yhat",
                "--label-source", "predictions"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["label_source"] == "predictions"


class TestHfm:
    def test_predictions_equal_labels(self, capsys):
        code, out, _ = run(capsys, ["hfm", "--input", DIST6, *SCHEMA6, "--prediction", "yhat"])
        assert code == 0
        record = json.loads(out)
        assert record["hfm"] == 0.0  # yhat column equals y in this fixture

    def test_degenerate_data_distance_reports_inf(self, capsys, tmp_path):
        path = tmp_path / "degen.csv"
        path.write_text("x,sex,y,yhat\n0.5,Male,1,1\n0.5,Female,1,2\n")
        code, out, _ = run(
            capsys, ["hfm", "--input", str(path), *SCHEMA6, "--prediction", "yhat"]
        )
        assert code == 0
        assert json.loads(out)["hfm"] == "inf"

    def test_alpha_combiner_column(self, capsys):
        argv = ["hfm", "--input", DIST6, *SCHEMA6, "--prediction", "yhat", "--alpha", "0.05"]
        code, out, _ = run(capsys, argv)
        record = json.loads(out)
        assert record["alpha"] == 0.05
        assert record["combined_score"] == pytest.approx(
            0.05 * record["error_rate"] + 0.95 * abs(record["hfm"])
        )

    def test_requires_prediction_flag(self, capsys):
        code, _, err = run(capsys, ["hfm", "--input", DIST6, *SCHEMA6])
        assert code == 2
        assert "--prediction" in err


class TestGroupMetrics:
    def test_hand_counted_fixture(self, capsys):
        argv = ["group-metrics", "--input", GM12, *SCHEMA12,
                "--prediction-flipped", "yhat_flip"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        record = json.loads(out)
        assert record["demographic_parity"] == pytest.approx(1 / 3, abs=1e-12)
        assert record["equal_opportunity"] == pytest.approx(1 / 2, abs=1e-12)
        assert record["predictive_quality_parity"] == pytest.approx(1 / 4, abs=1e-12)
        assert record["discriminative_risk"] == pytest.approx(1 / 4, abs=1e-12)

    def test_undefined_rate_rendered_not_fatal(self, capsys, tmp_path):
        # group0 has no positive labels: EO undefined, exit still 0
        path = tmp_path / "undef.csv"
        path.write_text(
            "x,sex,y,yhat\n0.0,Male,2,2\n0.5,Male,1,1\n0.8,Female,1,1\n1.0,Female,1,2\n"
        )
        argv = ["group-metrics", "--input", str(path), "--features", "x", "--sensitive",
                "sex", "--privileged", "Male", "--label", "y", "--prediction", "yhat",
                "--positive-label", "2"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        record = json.loads(out)
        assert record["equal_opportunity"] == "undefined"
        assert record["demographic_parity"] == pytest.approx(0.0, abs=1e-12)

    def test_dr_omitted_without_flipped_column(self, capsys):
        code, out, _ = run(capsys, ["group-metrics", "--input", GM12, *SCHEMA12])
        assert code == 0
        assert "discriminative_risk" not in json.loads(out)

    def test_identical_groups_all_zero(self, capsys, tmp_path):
        # both groups carry the same (y, yhat) profile
        path = tmp_path / "same.csv"
        path.write_text(
            "x,sex,y,yhat\n"
            "0.0,Male,2,2\n0.3,Male,1,1\n0.5,Male,1,2\n"
            "0.7,Female,2,2\n0.9,Female,1,1\n1.0,Female,1,2\n"
        )
        argv = ["group-metrics", "--input", str(path), "--features", "x", "--sensitive",
                "sex", "--privileged", "Male", "--label", "y", "--prediction", "yhat",
                "--positive-label", "2"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        record = json.loads(out)
        assert record["demographic_parity"] == 0.0
        assert record["equal_opportunity"] == 0.0
        assert record["predictive_quality_parity"] == 0.0


class TestBench:
    def test_sweep_rows_and_summary(self, capsys, tmp_path):
        out_path = str(tmp_path / "rows.csv")
        argv = ["bench", "--count", "5", "--min-n", "40", "--max-n", "120",
                "--m1", "3", "--out", out_path, "--format", "csv"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        lines = open(out_path).read().splitlines()
        assert len(lines) == 6  # header + 5 rows (labels only)
        summary = json.loads(out)
        assert summary["rows"] == 5
        assert -1.0 <= summary["pearson_r"] <= 1.0

    def test_overestimation_across_sweep(self, capsys, tmp_path):
        out_path = str(tmp_path / "rows.json")
        argv = ["bench", "--count", "6", "--min-n", "40", "--max-n", "200",
                "--with-predictions", "--m1", "2", "--out", out_path]
        code, _, _ = run(capsys, argv)
        assert code == 0
        rows = json.loads(open(out_path).read())
        assert len(rows) == 12
        for row in rows:
            assert row["approx_value"] >= row["exact_value"] - 1e-9


class TestVerifyTheory:
    def test_small_run(self, capsys, tmp_path):
        out_path = str(tmp_path / "theory.json")
        argv = ["verify-theory", "--pairs", "5", "--trials", "5000", "--out", out_path]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "6/6 ok" in out  # 5 random pairs + the equal-norm right-angle pair
        rows = json.loads(open(out_path).read())
        checks = [r for r in rows if r["kind"] == "projection_check"]
        bounds = [r for r in rows if r["kind"] == "success_bound"]
        assert all(c["sandwich_ok"] and c["mc_ok"] for c in checks)
        assert checks[0]["exact"] == 0.5  # the pinned equal-norm pair
        assert bounds, "expected a success-bound grid"
        from fairdist import failure_exponent

        for b in bounds:
            assert b["failure_exponent"] == pytest.approx(
                failure_exponent(b["n"], b["k"], b["m1"], b["m2"]), abs=1e-12
            )
