import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairdist import cli
from fairdist.cli import main
from fairdist.dataset import joint_partition, partition_by_attribute

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


def loaded_after_cli_import(module: str, then: str = "pass") -> bool:
    """Whether `import fairdist.cli`, followed by the statement `then`, in
    a fresh interpreter loads `module`."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, fairdist.cli; {then}; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.strip() == "True"


def test_cli_import_leaves_scipy_out():
    # scipy.spatial dominates the import time; only the exact route needs it
    assert not loaded_after_cli_import("scipy")


def test_exact_hfm_leaves_scipy_out(tmp_path):
    # the early-break route settles separated groups without handing the
    # call to scipy's k-d tree, whose import costs more than the distances
    rng = np.random.Generator(np.random.PCG64(11))
    path = tmp_path / "separated.csv"
    lines = ["x1,x2,sex,y,yhat"]
    for i in range(300):
        male = i % 3 == 0
        x1, x2 = rng.normal(0.3 if male else 0.7, 0.1, size=2).tolist()
        y = int(rng.integers(1, 3))
        lines.append(f"{x1!r},{x2!r},{'Male' if male else 'Female'},{y},{3 - y if i % 5 else y}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["hfm", "--method", "exact", "--input", str(path), "--features", "x1,x2",
            "--sensitive", "sex", "--privileged", "Male", "--label", "y", "--prediction", "yhat",
            "--out", str(tmp_path / "hfm.json")]  # fmt: skip
    assert not loaded_after_cli_import("scipy", f"fairdist.cli.main({argv!r}) == 0 or sys.exit(1)")
    report = json.loads((tmp_path / "hfm.json").read_text(encoding="utf-8"))
    assert report["d"] > 0 and report["d_f"] > 0


def test_brute_force_leaves_scipy_out(tmp_path):
    # brute force evaluates its pairs with the numpy kernel the early-break
    # scan uses; only the k-d tree route imports scipy
    call = (
        "import numpy as np, fairdist as fd; "
        "ds = fd.LabeledDataset(np.array([[0.1], [0.9], [0.4]]), np.array([[0], [1], [1]]), "
        "[1, 2, 1]); "
        "fd.exact_set_distance(ds, fd.partition_by_attribute(ds, 0), fd.LabelSource.TRUE_LABELS)"
    )
    assert not loaded_after_cli_import("scipy", call)
    out = tmp_path / "bench.json"
    argv = ["bench", "--count", "2", "--min-n", "40", "--max-n", "60", "--out", str(out)]
    assert not loaded_after_cli_import("scipy", f"fairdist.cli.main({argv!r}) == 0 or sys.exit(1)")
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert len(rows) == 2


def test_cli_import_leaves_concurrent_futures_out():
    # hfm_distances runs its worker on a plain threading.Thread:
    # concurrent.futures would pull in logging at import time
    assert not loaded_after_cli_import("concurrent.futures")


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

    def test_directory_as_input_exits_two(self, capsys, tmp_path):
        code, out, err = run(capsys, ["dist", "--input", str(tmp_path), *SCHEMA6])
        assert (code, out) == (2, "")
        assert "cannot read" in err

    def test_out_in_a_missing_directory_exits_two(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, ["dist", "--input", DIST6, *SCHEMA6, "--out", str(out_path)])
        assert (code, out) == (2, "")
        assert "cannot write" in err
        assert not out_path.parent.exists()

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

    def test_bytes_that_are_not_utf8_exit_two(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x,sex,y\n0.1,Male,1\n0.9,Fémale,2\n".encode("latin-1"))
        code, _, err = run(capsys, ["dist", "--input", str(path), *SCHEMA6])
        assert code == 2
        assert "line 3" in err and "not valid UTF-8" in err

    def test_cell_over_the_csv_field_limit_exits_two(self, capsys, tmp_path):
        path = tmp_path / "huge_cell.csv"
        path.write_text("x,sex,y\n0.1,Male,1\n0." + "1" * 200_000 + ",Female,2\n")
        code, _, err = run(capsys, ["dist", "--input", str(path), *SCHEMA6])
        assert code == 2
        assert "line 3" in err and "field larger than field limit" in err

    def test_privileged_values_must_match_the_sensitive_columns(self, capsys):
        argv = ["dist", "--input", DIST6, *SCHEMA6[:4], "--privileged", "Male,White"]
        code, out, err = run(capsys, [*argv, "--label", "y"])
        assert (code, out) == (2, "")
        assert "--privileged must list one value per --sensitive column" in err

    def test_prediction_label_source(self, capsys):
        argv = ["dist", "--input", DIST6, *SCHEMA6, "--prediction", "yhat",
                "--label-source", "predictions"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["label_source"] == "predictions"

    def test_prediction_label_source_requires_prediction_flag(self, capsys, monkeypatch):
        # an input error found from the options alone: no file is read
        def read(path, schema):
            pytest.fail(f"{path} was read")

        monkeypatch.setattr(cli, "load_csv", read)
        argv = ["dist", "--input", DIST6, *SCHEMA6, "--label-source", "predictions"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "input error: dist requires --prediction\n"


def test_m1_below_one_exits_three_for_both_methods(capsys):
    # dist builds the approx parameters for exact runs too, as hfm does
    for command in ("dist", "hfm"):
        for method in ("exact", "approx"):
            argv = [command, "--input", DIST6, *SCHEMA6, "--prediction", "yhat",
                    "--method", method, "--m1", "0"]
            code, out, err = run(capsys, argv)
            assert (code, out) == (3, ""), argv
            assert "m1" in err


WALL_CLOCK_FIELDS = ("elapsed_ns", "exact_ns", "approx_ns", "mean_speedup")
BENCH = ["bench", "--count", "3", "--min-n", "40", "--max-n", "80", "--m1", "3",
         "--with-predictions"]


def stdout_records(out: str) -> list[dict]:
    """Every record of a JSON stdout: one report (object or list) a line."""
    records = []
    for line in out.splitlines():
        report = json.loads(line)
        records.extend(report if isinstance(report, list) else [report])
    return records


class TestTimings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dist", "--input", DIST6, *SCHEMA6],
            ["dist", "--input", DIST6, *SCHEMA6, "--method", "approx", "--m1", "3"],
            ["hfm", "--input", GM12, *SCHEMA12, "--alpha", "0.3"],
            ["hfm", "--input", GM12, *SCHEMA12, "--method", "approx", "--m1", "3"],
            BENCH,  # the rows, then the summary line
        ],
    )
    def test_timings_add_only_the_wall_clock_fields(self, capsys, argv):
        code, plain, _ = run(capsys, argv)
        assert code == 0
        code, timed, _ = run(capsys, [*argv, "--timings"])
        assert code == 0
        plain, timed = stdout_records(plain), stdout_records(timed)
        assert [list(r.items()) for r in plain] == [
            [(k, v) for k, v in r.items() if k not in WALL_CLOCK_FIELDS] for r in timed
        ]
        assert all(set(r) & set(WALL_CLOCK_FIELDS) for r in timed)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["group-metrics", "--input", GM12, *SCHEMA12, "--prediction-flipped", "yhat_flip"],
            ["verify-theory", "--pairs", "2", "--trials", "2000"],
        ],
    )
    def test_timings_leave_untimed_reports_alone(self, capsys, argv, fmt):
        argv = [*argv, "--format", fmt]
        assert run(capsys, argv) == run(capsys, [*argv, "--timings"])

    @pytest.mark.parametrize("method", [["exact"], ["approx", "--m1", "3"]])
    def test_dist_record_keys_in_report_order(self, capsys, method):
        # the golden reports leave elapsed_ns out, so only this pins its place
        keys = "value,method,label_source,seed,m1,m2,elapsed_ns"
        argv = ["dist", "--input", DIST6, *SCHEMA6, "--method", *method, "--timings"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert ",".join(json.loads(out)) == keys
        code, out, _ = run(capsys, [*argv, "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == keys


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

    def test_alpha_one_with_infinite_hfm(self, capsys, tmp_path):
        # the groups share (x, y) but not yhat: d = 0 < d_f, so the HFM is
        # inf, and at alpha = 1 the score is the error rate alone
        path = tmp_path / "degen.csv"
        path.write_text(
            "x,sex,y,yhat\n0.2,Male,1,1\n0.2,Female,1,2\n0.8,Male,2,2\n0.8,Female,2,2\n"
        )
        argv = ["hfm", "--input", str(path), *SCHEMA6, "--prediction", "yhat", "--alpha", "1"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["hfm"] == "inf"
        assert record["error_rate"] == record["combined_score"] == 0.25

    @pytest.mark.parametrize("alpha", ["-0.1", "1.5", "nan"])
    def test_alpha_outside_unit_interval_exits_three(self, capsys, alpha):
        argv = ["hfm", "--input", DIST6, *SCHEMA6, "--prediction", "yhat", "--alpha", alpha]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert "--alpha" in err

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

    def test_positive_label_no_row_has_exits_two(self, capsys):
        # labels and predictions here are 1 and 2: before, label 7 ran to
        # exit 0 with DP 0 and "undefined" rates
        schema = ["group-metrics", "--input", GM12, *SCHEMA12[:-2]]
        code, out, err = run(capsys, [*schema, "--positive-label", "7"])
        assert (code, out) == (2, "")
        assert err.startswith("input error: positive label 7 occurs in neither")
        assert "--label-values" in err
        # declared label values admit a code that no row has
        coding = ["--label-values", "1,2,7", "--positive-label", "3"]
        code, out, err = run(capsys, [*schema, *coding])
        assert code == 0, err
        assert json.loads(out)["equal_opportunity"] == "undefined"

    def test_flipped_column_equal_to_predictions(self, capsys):
        # the prediction column may serve as its own disturbed copy: DR 0
        argv = ["group-metrics", "--input", GM12, *SCHEMA12, "--prediction-flipped", "yhat"]
        code, out, err = run(capsys, argv)
        assert code == 0, err
        assert json.loads(out)["discriminative_risk"] == 0.0

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

    @pytest.mark.parametrize(
        "features, bad_cell",
        [(None, None), ("x1,nope", None), ("x1,x2", "abc"), ("x1,x2", ""), ("x1,x2", "inf")],
    )
    def test_features_are_not_read(self, capsys, tmp_path, features, bad_cell):
        # the measures depend on no feature column, so neither a missing
        # --features name nor a feature cell that dist and hfm reject
        # stops group-metrics or changes its record
        flags = [*SCHEMA12[2:], "--prediction-flipped", "yhat_flip"]
        want = run(capsys, ["group-metrics", "--input", GM12, *SCHEMA12[:2], *flags])
        path = GM12
        if bad_cell is not None:
            lines = Path(GM12).read_text().splitlines(keepends=True)
            lines[3] = bad_cell + lines[3][lines[3].index(","):]
            path = tmp_path / "bad_feature.csv"
            path.write_text("".join(lines))
        argv = ["group-metrics", "--input", str(path), *flags]
        if features is not None:
            argv += ["--features", features]
        assert want[0] == 0
        assert run(capsys, argv) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--input", DIST6],
        ["hfm", "--input", DIST6, "--prediction", "yhat"],
        ["bench", "--input", DIST6],
    ],
)
def test_distance_commands_need_features(capsys, monkeypatch, argv):
    # an input error found from the options alone: no file is read
    def read(path, schema):
        pytest.fail(f"{path} was read")

    monkeypatch.setattr(cli, "load_csv", read)
    code, out, err = run(capsys, [*argv, *SCHEMA6[2:], "--features", ""])
    assert (code, out) == (2, "")
    assert err == f"input error: {argv[0]} needs at least one --features column\n"


# x, sex, race, y, yhat: privileged sex is M (rows 0, 1, 4), privileged
# race W (rows 0, 2, 4, 5), and both jointly rows 0 and 4
TWO_ATTR_ROWS = [
    ("0.0", "M", "W", "lo", "lo"),
    ("0.2", "M", "B", "hi", "mid"),
    ("0.4", "F", "W", "mid", "hi"),
    ("0.6", "F", "B", "hi", "hi"),
    ("0.8", "M", "W", "lo", "mid"),
    ("1.0", "F", "W", "mid", "lo"),
]
# the labels coded 1..3 in the order lo, mid, hi
CODES = {"lo": "1", "mid": "2", "hi": "3"}
TWO_ATTR_SCHEMA = ["--features", "x", "--sensitive", "sex,race", "--privileged", "M,W",
                   "--label", "y", "--prediction", "yhat"]


def two_attr_csv(tmp_path, codes=None, name="two_attr.csv") -> str:
    """TWO_ATTR_ROWS as a CSV file, the label cells mapped through `codes`
    (default: left as text)."""
    codes = codes or {}
    path = tmp_path / name
    lines = ["x,sex,race,y,yhat"]
    for *cells, y, yhat in TWO_ATTR_ROWS:
        lines.append(",".join([*cells, codes.get(y, y), codes.get(yhat, yhat)]))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestPartitionAndLabelOptions:
    """--attr, --joint and --label-values on a file with two sensitive
    columns."""

    def partition_of(self, capsys, monkeypatch, argv):
        """The dataset and partition that `dist` computes its distance on."""
        seen = []
        real = cli.set_distance

        def spy(dataset, partition, *rest):
            seen.append((dataset, partition))
            return real(dataset, partition, *rest)

        monkeypatch.setattr(cli, "set_distance", spy)
        code, _, err = run(capsys, ["dist", *argv])
        assert code == 0, err
        [(dataset, partition)] = seen
        return dataset, partition

    def groups(self, partition):
        return partition.attr_indices, partition.group0.tolist(), partition.group1.tolist()

    @pytest.mark.parametrize("attr, index", [(None, 0), ("sex", 0), ("race", 1)])
    def test_attr_picks_the_partition_column(self, capsys, monkeypatch, tmp_path, attr, index):
        path = two_attr_csv(tmp_path, CODES)
        argv = ["--input", path, *TWO_ATTR_SCHEMA] + (["--attr", attr] if attr else [])
        dataset, partition = self.partition_of(capsys, monkeypatch, argv)
        assert self.groups(partition) == self.groups(partition_by_attribute(dataset, index))
        want = {0: ([2, 3, 5], [0, 1, 4]), 1: ([1, 3], [0, 2, 4, 5])}[index]
        assert (partition.group0.tolist(), partition.group1.tolist()) == want

    def test_undeclared_attr_exits_two(self, capsys, tmp_path):
        path = two_attr_csv(tmp_path, CODES)
        code, out, err = run(capsys, ["dist", "--input", path, *TWO_ATTR_SCHEMA, "--attr", "age"])
        assert (code, out) == (2, "")
        assert "is not a declared sensitive column" in err

    def test_joint_splits_on_every_sensitive_column(self, capsys, monkeypatch, tmp_path):
        path = two_attr_csv(tmp_path, CODES)
        argv = ["--input", path, *TWO_ATTR_SCHEMA, "--joint"]
        dataset, partition = self.partition_of(capsys, monkeypatch, argv)
        assert self.groups(partition) == self.groups(joint_partition(dataset, [0, 1]))
        assert self.groups(partition) == ((0, 1), [1, 2, 3, 5], [0, 4])

    def test_label_values_map_by_position(self, capsys, tmp_path):
        # the text file with --label-values writes the same report as the
        # file whose labels are already coded 1..3 in that order, and the
        # two orders write different reports
        text = two_attr_csv(tmp_path)
        tail = [*TWO_ATTR_SCHEMA, "--method", "exact"]
        reports = []
        for order in (("lo", "mid", "hi"), ("hi", "lo", "mid")):
            codes = {label: str(i) for i, label in enumerate(order, 1)}
            coded = two_attr_csv(tmp_path, codes, name="coded.csv")
            got = run(capsys, ["hfm", "--input", text, *tail, "--label-values", ",".join(order)])
            assert got == run(capsys, ["hfm", "--input", coded, *tail])
            assert got[0] == 0
            reports.append(got[1])
        assert reports[0] != reports[1]

    def test_attr_with_joint_is_a_usage_error(self, capsys, tmp_path):
        # each names a partition; before, --attr was silently dropped
        path = two_attr_csv(tmp_path, CODES)
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--input", path, *TWO_ATTR_SCHEMA, "--attr", "sex", "--joint"])
        assert exc.value.code == 2
        assert "not allowed with argument --attr" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, coding, message",
        [
            ("group-metrics", ["--label-values", "lo,mid,hi", "--positive-label", "0"],
             "positive label 0 is not a label code: codes start at 1"),
            ("group-metrics", ["--label-values", "lo,mid,hi", "--positive-label", "4"],
             "positive label 4 is beyond the 3 declared label values"),
            ("dist", ["--label-values", "lo,mid,hi,lo"], "label values must not repeat"),
        ],
        ids=["positive label below 1", "positive label beyond the values", "repeated values"],
    )  # fmt: skip
    def test_label_coding_is_checked(self, capsys, tmp_path, command, coding, message):
        # before, each ran to exit 0: group-metrics reported DP 0 and
        # "undefined" rates for a positive label no row can have
        path = two_attr_csv(tmp_path)
        code, out, err = run(capsys, [command, "--input", path, *TWO_ATTR_SCHEMA, *coding])
        assert (code, out) == (2, "")
        assert err == f"input error: {message}\n"

    def test_undeclared_label_exits_two(self, capsys, tmp_path):
        path = two_attr_csv(tmp_path)
        argv = ["dist", "--input", path, *TWO_ATTR_SCHEMA, "--label-values", "lo,mid"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "label 'hi' not in declared label values" in err


class TestBench:
    def test_sweep_rows_and_summary(self, capsys, tmp_path):
        out_path = str(tmp_path / "rows.csv")
        argv = ["bench", "--count", "5", "--min-n", "40", "--max-n", "120",
                "--m1", "3", "--out", out_path, "--format", "csv"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        lines = Path(out_path).read_text().splitlines()
        assert len(lines) == 6  # header + 5 rows (labels only)
        summary = json.loads(out)
        assert summary["rows"] == 5
        assert -1.0 <= summary["pearson_r"] <= 1.0

    def test_default_stdout_is_reproducible(self, capsys):
        # the wall-clock mean_speedup only appears under --timings
        first, second = run(capsys, BENCH), run(capsys, BENCH)
        assert first == second
        assert first[0] == 0
        assert "mean_speedup" not in first[1]
        code, out, _ = run(capsys, [*BENCH, "--timings"])
        assert code == 0
        assert json.loads(out.splitlines()[-1])["mean_speedup"] > 0

    @pytest.mark.parametrize(
        "flag, value",
        [("--count", "0"), ("--count", "-1"), ("--min-n", "0"), ("--min-n", "1"), ("--max-n", "1")],
    )
    def test_sweep_bounds_exit_three_before_any_dataset(self, capsys, monkeypatch, flag, value):
        def built(spec):
            pytest.fail(f"a dataset was built for {spec}")

        monkeypatch.setattr(cli, "synth_dataset", built)
        code, out, err = run(capsys, [*BENCH, flag, value])
        assert (code, out) == (3, "")
        assert flag in err

    def test_negative_data_seed_exits_three(self, capsys):
        code, out, err = run(capsys, [*BENCH, "--data-seed", "-1"])
        assert (code, out) == (3, "")
        assert err == "computation error: seed must be a nonnegative integer\n"

    def test_input_path_with_control_characters_writes_valid_json(self, capsys, tmp_path):
        # every row names its dataset by the --input path, so the report
        # holds the path's tab, quote, backslash and non-ASCII letter
        path = str(tmp_path / 'a\tb "c" \\ caf\u00e9.csv')
        shutil.copyfile(GM12, path)
        out_path = str(tmp_path / "rows.json")
        argv = ["bench", "--input", path, *SCHEMA12, "--m1", "2", "--out", out_path]
        code, out, err = run(capsys, argv)
        assert code == 0, err
        with open(out_path, encoding="utf-8") as handle:
            rows = json.loads(handle.read())
        assert [row["dataset_id"] for row in rows] == [path, path]
        assert json.loads(out)["rows_ok"] == 2

    def test_input_path_that_is_not_utf8_exits_two_without_a_file(self, capsys, tmp_path):
        # the path's byte 0xff reaches the report as a lone surrogate,
        # which a UTF-8 report file cannot hold
        path = os.fsdecode(os.path.join(os.fsencode(tmp_path), b"bad\xff.csv"))
        shutil.copyfile(GM12, path)
        out_path = str(tmp_path / "rows.json")
        argv = ["bench", "--input", path, *SCHEMA12, "--m1", "2", "--out", out_path]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: cannot write {out_path}: the report is not valid UTF-8")
        assert not os.path.exists(out_path)

    def test_input_without_label_exits_two(self, capsys):
        argv = ["bench", "--input", DIST6, *SCHEMA6[:6]]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "--label is required" in err

    def test_overestimation_across_sweep(self, capsys, tmp_path):
        out_path = str(tmp_path / "rows.json")
        argv = ["bench", "--count", "6", "--min-n", "40", "--max-n", "200",
                "--with-predictions", "--m1", "2", "--out", out_path]
        code, _, _ = run(capsys, argv)
        assert code == 0
        rows = json.loads(Path(out_path).read_text())
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
        rows = json.loads(Path(out_path).read_text())
        checks = [r for r in rows if r["kind"] == "projection_check"]
        bounds = [r for r in rows if r["kind"] == "success_bound"]
        assert all(c["sandwich_ok"] and c["mc_ok"] for c in checks)
        assert checks[0]["exact"] == 0.5  # the pinned equal-norm pair
        assert bounds, "expected a success-bound grid"
        from fairdist.theory import failure_exponent

        for b in bounds:
            assert b["failure_exponent"] == pytest.approx(
                failure_exponent(b["n"], b["k"], b["m1"], b["m2"]), abs=1e-12
            )

    def test_empty_grid_keeps_the_whole_header(self, capsys):
        # the header is the golden report's, success-bound columns included,
        # though no success_bound row fills them
        argv = ["verify-theory", "--pairs", "2", "--trials", "2000", "--grid-n", ""]
        code, out, _ = run(capsys, [*argv, "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        with open(os.path.join(FIXTURES, "reports", "verify_theory.csv")) as golden:
            assert lines[0] == golden.readline().rstrip("\r\n")
        assert len(lines[0].split(",")) == 21
        assert [line.split(",")[0] for line in lines[1:4]] == ["projection_check"] * 3
        assert lines[4:] == ["projection checks: 3/3 ok"]

    @pytest.mark.parametrize(
        "flag, cells",
        [("--grid-n", "1000,abc"), ("--grid-n", "1e3"), ("--grid-k", "3,x"), ("--grid-alpha", "x")],
    )
    def test_grid_cell_of_the_wrong_type_is_a_usage_error(self, capsys, flag, cells):
        with pytest.raises(SystemExit) as exc:
            main(["verify-theory", "--pairs", "1", flag, cells])
        assert exc.value.code == 2  # argparse's usage error, as for --m1 abc
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}:" in err and repr(cells) in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--grid-alpha", "2,nan", "alpha must be >= 1"),
            ("--pairs", "-1", "--pairs"),
            ("--mu", "inf", "mu"),
            ("--mu", "1e308", "mu"),
        ],
    )
    def test_out_of_range_exits_three_before_any_check(
        self, capsys, monkeypatch, flag, value, message
    ):
        def checked(*args):
            pytest.fail("a Monte Carlo check ran")

        monkeypatch.setattr(cli, "monte_carlo_projection_probability", checked)
        code, out, err = run(capsys, ["verify-theory", "--pairs", "2", flag, value])
        assert (code, out) == (3, "")
        assert message in err

    @pytest.mark.parametrize(
        "value, message",
        [("nan", "finite nonnegative"), ("inf", "finite nonnegative"), ("1e6", "overflow")],
    )
    def test_target_lambda_out_of_range_exits_three(self, capsys, monkeypatch, value, message):
        def checked(*args):
            pytest.fail("a Monte Carlo check ran")

        monkeypatch.setattr(cli, "monte_carlo_projection_probability", checked)
        argv = ["verify-theory", "--pairs", "2", "--target-lambda", value]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert "target_lambda" in err and message in err

    def test_failing_projection_check_exits_three(self, capsys, monkeypatch, tmp_path):
        # an estimate far from the exact 1/2 of the pinned pair fails it
        monkeypatch.setattr(cli, "monte_carlo_projection_probability", lambda *args: (0.0, 0.0))
        argv = ["verify-theory", "--pairs", "0", "--out", str(tmp_path / "theory.json")]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "projection checks: 0/1 ok\n")
        assert err == "1 projection check(s) failed\n"

    def test_max_dim_below_two_exits_three(self, capsys):
        code, out, err = run(capsys, ["verify-theory", "--pairs", "2", "--max-dim", "1"])
        assert (code, out) == (3, "")
        assert "--max-dim" in err
        argv = ["verify-theory", "--pairs", "2", "--trials", "2000", "--max-dim", "2"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "3/3 ok" in out
