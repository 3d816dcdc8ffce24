import math
import os

import numpy as np
import pytest

from fairdist import (
    DatasetSchema,
    DistanceResult,
    InvalidArgument,
    LabelSource,
    MissingValue,
    ParseError,
    SchemaMismatch,
    load_csv,
    minmax_scale,
    read_int_column,
    render_report,
    write_report,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASIC_SCHEMA = DatasetSchema(
    feature_columns=("a", "b"),
    sensitive_columns=(("sex", "Male"),),
    label_column="y",
)


class TestMinMaxScale:
    def test_endpoints(self):
        scaled, report = minmax_scale(np.array([[2.0], [4.0], [6.0]]), ["a"])
        assert scaled[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert report.feature_ranges == (("a", 2.0, 6.0),)
        assert report.constant_columns == ()

    def test_constant_column(self):
        scaled, report = minmax_scale(np.array([[5.0], [5.0], [5.0]]), ["a"])
        assert scaled[:, 0].tolist() == [0.0, 0.0, 0.0]
        assert report.constant_columns == ("a",)

    def test_ordinary_column_keeps_plain_formula_bits(self, rng):
        raw = rng.normal(size=(50, 2)) * 1e3
        scaled, _ = minmax_scale(raw, ["a", "b"])
        lo, hi = raw.min(axis=0), raw.max(axis=0)
        assert np.array_equal(scaled, (raw - lo) / (hi - lo))

    def test_span_beyond_double_range(self):
        # hi - lo overflows to inf here; the scaled column must stay finite
        top = np.finfo(np.float64).max
        scaled, report = minmax_scale(np.array([[-top], [0.0], [top], [1e308]]), ["a"])
        assert scaled[:3, 0].tolist() == [0.0, 0.5, 1.0]
        assert 0.0 <= scaled[3, 0] <= 1.0
        assert report.feature_ranges == (("a", -top, top),)

    def test_idempotent(self, rng):
        raw = rng.normal(size=(20, 3)) * 10
        once, _ = minmax_scale(raw, ["a", "b", "c"])
        twice, _ = minmax_scale(once, ["a", "b", "c"])
        assert np.array_equal(once, twice)


class TestLoadCsv:
    def test_privileged_encoding(self, tmp_path):
        path = write_csv(tmp_path, "a,b,sex,y\n1,0,Male,1\n2,1,Female,2\n3,2,Male,1\n")
        ds, _ = load_csv(path, BASIC_SCHEMA)
        assert ds.sensitive[:, 0].tolist() == [1, 0, 1]

    def test_features_scaled(self, tmp_path):
        path = write_csv(tmp_path, "a,b,sex,y\n2,5,Male,1\n4,5,Female,2\n6,5,Male,1\n")
        ds, report = load_csv(path, BASIC_SCHEMA)
        assert ds.features[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert ds.features[:, 1].tolist() == [0.0, 0.0, 0.0]
        assert report.constant_columns == ("b",)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "a,sex,y\n1,Male,1\n")
        with pytest.raises(SchemaMismatch):
            load_csv(path, BASIC_SCHEMA)

    def test_unparsable_cell_location(self, tmp_path):
        path = write_csv(tmp_path, "a,b,sex,y\n1,0,Male,1\nx,1,Female,2\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, BASIC_SCHEMA)
        assert err.value.line == 3
        assert err.value.column == "a"

    def test_missing_value_is_hard_error(self, tmp_path):
        path = write_csv(tmp_path, "a,b,sex,y\n1,0,Male,1\n2,,Female,2\n")
        with pytest.raises(MissingValue) as err:
            load_csv(path, BASIC_SCHEMA)
        assert (err.value.line, err.value.column) == (3, "b")

    def test_textual_labels_need_declared_values(self, tmp_path):
        path = write_csv(tmp_path, "a,b,sex,y\n1,0,Male,no\n2,1,Female,yes\n")
        with pytest.raises(ParseError):
            load_csv(path, BASIC_SCHEMA)
        schema = DatasetSchema(
            feature_columns=("a", "b"),
            sensitive_columns=(("sex", "Male"),),
            label_column="y",
            label_values=("no", "yes"),
        )
        ds, _ = load_csv(path, schema)
        assert ds.labels.tolist() == [1, 2]

    def test_deterministic(self, tmp_path):
        path = write_csv(tmp_path, "a,b,sex,y\n1,7,Male,1\n2,3,Female,2\n9,4,Male,1\n")
        ds1, _ = load_csv(path, BASIC_SCHEMA)
        ds2, _ = load_csv(path, BASIC_SCHEMA)
        assert np.array_equal(ds1.features, ds2.features)
        assert np.array_equal(ds1.labels, ds2.labels)

    def test_header_only_file(self, tmp_path):
        path = write_csv(tmp_path, "a,b,sex,y\n")
        with pytest.raises(SchemaMismatch):
            load_csv(path, BASIC_SCHEMA)

    def test_prediction_column(self, tmp_path):
        path = write_csv(tmp_path, "a,b,sex,y,p\n1,0,Male,1,2\n2,1,Female,2,1\n")
        schema = DatasetSchema(
            feature_columns=("a", "b"),
            sensitive_columns=(("sex", "Male"),),
            label_column="y",
            prediction_column="p",
        )
        ds, _ = load_csv(path, schema)
        assert ds.predictions.tolist() == [2, 1]

    def test_read_int_column(self, tmp_path):
        path = write_csv(tmp_path, "a,b,sex,y,pf\n1,0,Male,1,2\n2,1,Female,2,2\n")
        assert read_int_column(path, "pf").tolist() == [2, 2]

    def test_schema_roles_must_not_overlap(self):
        with pytest.raises(SchemaMismatch):
            DatasetSchema(
                feature_columns=("a", "y"),
                sensitive_columns=(("sex", "Male"),),
                label_column="y",
            )


class TestWriteReport:
    def make_result(self):
        return DistanceResult(
            value=1.0 / 3.0,
            method="approx",
            label_source=LabelSource.TRUE_LABELS,
            elapsed_ns=1234,
            m1=25,
            m2=6,
            seed=42,
        )

    def test_distance_result_keys(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_report(self.make_result().to_record(), path, "json")
        text = open(path).read()
        assert text.startswith(
            '{"value": 0.33333333333333331, "method": "approx", "label_source": "labels", '
            '"seed": 42, "m1": 25, "m2": 6, "elapsed_ns": 1234}'
        )

    def test_serialization_is_byte_stable(self, tmp_path):
        record = self.make_result().to_record()
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_report(record, p1, "json")
        write_report(record, p2, "json")
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_csv_single_record_shape(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_report(self.make_result().to_record(), path, "csv")
        lines = open(path).read().splitlines()
        assert len(lines) == 2
        assert lines[0] == "value,method,label_source,seed,m1,m2,elapsed_ns"

    def test_infinity_rendering(self):
        assert render_report({"v": math.inf}, "json") == '{"v": "inf"}\n'
        assert render_report({"v": math.inf}, "csv") == "v\ninf\n"

    def test_seventeen_significant_digits(self):
        out = render_report({"v": 0.1}, "json")
        assert out == '{"v": 0.10000000000000001}\n'

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgument):
            render_report({"v": math.nan}, "json")

    def test_record_list_to_csv(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": math.inf}]
        assert render_report(rows, "csv") == "a,b\n1,0.5\n2,inf\n"


def test_fixture_files_load():
    schema = DatasetSchema(
        feature_columns=("x1", "x2"),
        sensitive_columns=(("sex", "Male"),),
        label_column="y",
        prediction_column="yhat",
        positive_label=2,
    )
    ds, _ = load_csv(os.path.join(FIXTURES, "group_metrics_12.csv"), schema)
    assert ds.n == 12
    assert int(ds.sensitive[:, 0].sum()) == 6
