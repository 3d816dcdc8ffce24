import dataclasses

import numpy as np
import pytest

from fairdist import ApproxParams, approx_set_distance, partition_by_attribute
from fairdist.bench import (
    ComparisonRow,
    SynthSpec,
    pearson,
    relative_difference,
    run_comparison,
    summarize,
    synth_dataset,
)
from fairdist.errors import InvalidArgument, UndefinedCorrelation
from fairdist.io import render_report

from conftest import TRUE


class TestSynthDataset:
    def test_group_counts_rounded(self):
        ds = synth_dataset(SynthSpec(n=100, group_fraction=0.3, seed=1))
        part = partition_by_attribute(ds, 0)
        assert part.sizes == (70, 30)

    def test_same_seed_same_dataset(self):
        a = synth_dataset(SynthSpec(n=50, seed=9))
        b = synth_dataset(SynthSpec(n=50, seed=9))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_features_in_unit_box(self):
        for sep in (0.0, 0.4):
            ds = synth_dataset(SynthSpec(n=200, cluster_separation=sep, seed=3))
            assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_predictions_optional(self):
        assert synth_dataset(SynthSpec(n=10, seed=0)).predictions is None
        assert synth_dataset(SynthSpec(n=10, seed=0, with_predictions=True)).predictions is not None

    def test_invalid_specs(self):
        with pytest.raises(InvalidArgument):
            SynthSpec(n=1)
        with pytest.raises(InvalidArgument):
            SynthSpec(n=10, group_fraction=0.0)
        with pytest.raises(InvalidArgument):
            SynthSpec(n=10, seed=-1)
        with pytest.raises(InvalidArgument):
            synth_dataset(SynthSpec(n=10, group_fraction=0.01))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_x", 0, "n_x must be at least 1"),
            ("n_c", 1, "n_c must be at least 2"),
            ("cluster_separation", -0.1, "cluster_separation must be nonnegative"),
        ],
    )
    def test_invalid_shape_fields(self, field, value, message):
        with pytest.raises(InvalidArgument, match=message):
            SynthSpec(n=10, **{field: value})


class TestRunComparison:
    def sweep(self):
        datasets = [
            (f"ds{i}", synth_dataset(SynthSpec(n=40 + 10 * i, seed=i, with_predictions=True)))
            for i in range(10)
        ]
        return run_comparison(datasets, ApproxParams(m1=3, m2=2, seed=0))

    def test_row_cardinality_two_sources(self):
        rows = self.sweep()
        assert len(rows) == 20  # 10 datasets x 2 label sources

    def test_overestimation_on_every_row(self):
        for row in self.sweep():
            assert row.status == "ok"
            assert row.approx_value >= row.exact_value - 1e-9

    def test_csv_header_is_stable(self):
        rows = self.sweep()
        text = render_report([dataclasses.asdict(r) for r in rows], "csv")
        assert text.splitlines()[0] == (
            "dataset_id,n,n_x,n0,n1,label_source,m1,m2,seed,exact_value,approx_value,"
            "relative_difference,exact_ns,approx_ns,status,error"
        )

    def test_failed_row_does_not_abort(self):
        # one dataset with a constant sensitive column: its rows fail,
        # the other dataset's rows survive
        from conftest import make_dataset

        good = synth_dataset(SynthSpec(n=30, seed=4))
        bad = make_dataset(np.linspace(0, 1, 5), [1, 1, 1, 1, 1], [1, 2, 1, 2, 1])
        rows = run_comparison([("good", good), ("bad", bad)], ApproxParams(m1=2, m2=2, seed=0))
        by_id = {row.dataset_id: row for row in rows}
        assert by_id["good"].status == "ok"
        assert by_id["bad"].status == "failed"
        assert "nonempty" in by_id["bad"].error

    def test_single_source_without_predictions(self):
        datasets = [("d", synth_dataset(SynthSpec(n=30, seed=5)))]
        rows = run_comparison(datasets, ApproxParams(m1=2, m2=2, seed=0))
        assert len(rows) == 1
        assert rows[0].label_source == "labels"


class TestPearson:
    def test_perfect_linear(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(xs, 2 * xs + 1) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_inverse(self):
        xs = np.array([1.0, 2.0, 3.0])
        assert pearson(xs, -xs) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_half(self):
        assert pearson(np.array([1.0, 2, 3]), np.array([1.0, 3, 2])) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_zero_variance(self):
        with pytest.raises(UndefinedCorrelation):
            pearson(np.array([1.0, 1.0]), np.array([1.0, 2.0]))

    def test_too_short(self):
        with pytest.raises(InvalidArgument):
            pearson(np.array([1.0]), np.array([2.0]))

    def test_unequal_lengths(self):
        with pytest.raises(InvalidArgument, match="equal length"):
            pearson(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))


class TestRelativeDifference:
    def test_plain_ratio(self):
        assert relative_difference(1.2, 1.0) == pytest.approx(0.2, abs=1e-12)

    def test_zero_exact_survives(self):
        assert relative_difference(0.5, 0.0) == 0.5 / 1e-12


class TestSummary:
    def test_fields_present(self):
        datasets = [
            ("a", synth_dataset(SynthSpec(n=40, seed=0))),
            ("b", synth_dataset(SynthSpec(n=60, seed=1))),
            ("c", synth_dataset(SynthSpec(n=80, seed=2))),
        ]
        rows = run_comparison(datasets, ApproxParams(m1=2, m2=2, seed=0))
        summary = summarize(rows)
        assert summary["rows"] == 3
        assert summary["rows_ok"] == 3
        assert -1.0 <= summary["pearson_r"] <= 1.0
        assert summary["mean_speedup"] > 0

    def test_equal_exact_values_leave_no_correlation(self):
        # a constant exact column makes the correlation undefined: the
        # summary leaves it None and still reports the other fields
        rows = [
            ComparisonRow(
                dataset_id=f"d{i}", n=4, n_x=1, n0=2, n1=2, label_source="labels",
                m1=2, m2=2, seed=0, exact_value=0.5, approx_value=approx,
                relative_difference=relative_difference(approx, 0.5),
                exact_ns=100, approx_ns=50, status="ok",
            )  # fmt: skip
            for i, approx in enumerate((0.5, 0.75))
        ]
        summary = summarize(rows)
        assert summary["rows_ok"] == 2
        assert summary["pearson_r"] is None
        assert summary["max_relative_difference"] == 0.5
        assert summary["mean_speedup"] == 2.0

    def test_timing_roughly_linear_in_trials(self):
        # m1 25 vs 5 should cost about 5x, accepted within a factor of 2
        ds = synth_dataset(SynthSpec(n=4000, n_x=4, seed=8))
        part = partition_by_attribute(ds, 0)

        def best_of(m1):
            return min(
                approx_set_distance(ds, part, TRUE, ApproxParams(m1=m1, seed=0)).elapsed_ns
                for _ in range(3)
            )

        ratio = best_of(25) / best_of(5)
        assert 2.5 <= ratio <= 10.0
