import codecs
import csv
import dataclasses
import io
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdist import DatasetSchema, DistanceResult, LabelSource, ScalingReport, load_csv
from fairdist import io as io_module
from fairdist.errors import InvalidArgument, MissingValue, ParseError, SchemaMismatch
from fairdist.io import minmax_scale, read_int_column, render_report, write_report

from conftest import copying_minmax_scale, rowwise_load_csv, rowwise_read_int_column

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
        scaled, _ = minmax_scale(raw.copy(), ["a", "b"])
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
        twice, _ = minmax_scale(once.copy(), ["a", "b", "c"])
        assert np.array_equal(once, twice)

    def test_in_place_matches_the_copying_scale(self, rng):
        # ordinary, constant and overflowing columns keep the bits of the
        # old copying version, and the argument itself is overwritten
        top = np.finfo(np.float64).max
        raw = rng.normal(size=(40, 3)) * 1e3
        raw[:, 1] = 5.0
        raw[:, 2] = rng.uniform(-1.0, 1.0, size=40) * top
        raw[:2, 2] = (-top, top)
        names = ["a", "b", "c"]
        expected, expected_report = copying_minmax_scale(raw, names)
        scaled, report = minmax_scale(raw, names)
        assert scaled is raw
        assert np.array_equal(scaled, expected)
        assert report == expected_report


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

    def test_schema_without_sensitive_column(self):
        with pytest.raises(SchemaMismatch, match="at least one sensitive column"):
            DatasetSchema(feature_columns=("a",), sensitive_columns=(), label_column="y")

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

    @pytest.mark.parametrize("content", [b"", codecs.BOM_UTF8])
    def test_empty_file(self, tmp_path, content):
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        for block in BLOCKS:
            with mock.patch.object(io_module, "BLOCK_BYTES", block):
                with pytest.raises(SchemaMismatch, match="file is empty"):
                    load_csv(str(path), BASIC_SCHEMA)
        # the row-wise reader drops a byte-order mark as load_csv does
        want = outcome(lambda: rowwise_load_csv(str(path), BASIC_SCHEMA))
        assert outcome(lambda: _streamed(str(path), BASIC_SCHEMA)) == want

    def test_schema_column_named_twice(self, tmp_path):
        path = write_csv(tmp_path, "a,b,sex,a,y\n1,0,Male,2,1\n")
        with pytest.raises(SchemaMismatch, match="column 'a' appears more than once"):
            load_csv(path, BASIC_SCHEMA)
        want = outcome(lambda: rowwise_load_csv(path, BASIC_SCHEMA))
        assert outcome(lambda: _streamed(path, BASIC_SCHEMA)) == want

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

    def test_read_int_column_rejects_ragged_rows(self, tmp_path):
        # the one reader checks every row's width, whichever columns it reads
        path = write_csv(tmp_path, "a,b,sex,y,pf\n1,0,Male,1,2\n2,1,Female,2\n")
        with pytest.raises(ParseError) as err:
            read_int_column(path, "a")
        assert err.value.line == 3
        assert str(err.value) == "line 3, column '': expected 5 cells, found 4"

    def test_flipped_predictions_read_in_the_same_pass(self, tmp_path):
        path = write_csv(tmp_path, "a,b,sex,y,p,pf\n1,0,Male,no,yes,no\n2,1,Female,yes,yes,yes\n")
        schema = DatasetSchema(
            feature_columns=("a", "b"),
            sensitive_columns=(("sex", "Male"),),
            label_column="y",
            prediction_column="p",
            label_values=("no", "yes"),
            prediction_flipped_column="pf",
        )
        ds, _ = load_csv(path, schema)
        assert ds.predictions.tolist() == [2, 2]
        assert ds.predictions_flipped.tolist() == [1, 2]
        unflipped = dataclasses.replace(schema, prediction_flipped_column=None)
        assert load_csv(path, unflipped)[0].predictions_flipped is None

    def test_flipped_column_may_be_the_prediction_column(self, tmp_path):
        path = write_csv(tmp_path, "a,b,sex,y,p\n1,0,Male,1,2\n2,1,Female,2,1\n")
        schema = DatasetSchema(
            feature_columns=("a", "b"),
            sensitive_columns=(("sex", "Male"),),
            label_column="y",
            prediction_column="p",
            prediction_flipped_column="p",
        )
        ds, _ = load_csv(path, schema)
        assert ds.predictions_flipped.tolist() == ds.predictions.tolist() == [2, 1]

    def test_missing_flipped_column(self, tmp_path):
        path = write_csv(tmp_path, "a,b,sex,y\n1,0,Male,1\n")
        schema = DatasetSchema(
            feature_columns=("a", "b"),
            sensitive_columns=(("sex", "Male"),),
            label_column="y",
            prediction_flipped_column="pf",
        )
        with pytest.raises(SchemaMismatch, match="'pf' not found"):
            load_csv(path, schema)

    def test_label_beyond_int64_is_a_parse_error(self, tmp_path):
        path = write_csv(tmp_path, "a,b,sex,y\n1,0,Male,1\n2,1,Female,99999999999999999999\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, BASIC_SCHEMA)
        assert (err.value.line, err.value.column) == (3, "y")

    def test_bytes_that_are_not_utf8(self, tmp_path):
        # the bad byte sits far past the first decoded block
        body = "".join(f"{i},0,Male,1\n" for i in range(5000))
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,b,sex,y\n" + body.encode() + b"1,\xff,Male,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(str(path), BASIC_SCHEMA)
        assert err.value.line == 5002
        assert "not valid UTF-8" in str(err.value)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts with EF BB BF; the first header name
        # must not keep it, on the split path and on the csv.reader path
        schema = TestStreamingReaderMatchesRowwiseReader.NOTE_SCHEMA
        table = TestStreamingReaderMatchesRowwiseReader.NOTE_HEADER
        table += "0.5,a,1,2,1,Male\n1.5,b,2,1,2,Female\n2.5,c,1,1,2,Male\n"
        for text in (table, table.replace(",b,", ',"b,""q""",')):
            plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
            plain.write_bytes(text.encode())
            marked.write_bytes(codecs.BOM_UTF8 + text.encode())
            for block in BLOCKS:
                with mock.patch.object(io_module, "BLOCK_BYTES", block):
                    want = outcome(lambda: _streamed(str(plain), schema))
                    assert isinstance(want, list)
                    assert outcome(lambda: _streamed(str(marked), schema)) == want
            # and the row-wise readers read the marked file alike
            check_text_against_oracle("\ufeff" + text, schema)

    def test_bytes_that_are_not_utf8_after_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"a,b,sex,y\n1,0,Male,1\n2,\xff,Male,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(str(path), BASIC_SCHEMA)
        assert err.value.line == 3
        assert "not valid UTF-8" in str(err.value)

    def test_cell_over_the_csv_field_limit(self, tmp_path):
        big = "1" * (csv.field_size_limit() + 1)
        path = write_csv(tmp_path, f"a,b,sex,y\n1,0,Male,1\n2,0,Male,1\n{big},1,Female,2\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, BASIC_SCHEMA)
        assert err.value.line == 4
        assert "field larger than field limit" in str(err.value)

    def test_memory_bounded_by_the_chunk(self, tmp_path):
        # 30,000 rows, 5.9 MB: reading the whole file as string rows first
        # peaked at 35 MiB here, the chunked reader at 8.5 MiB, and 6.5 MiB
        # once the features are scaled in place
        rng = np.random.Generator(np.random.PCG64(7))
        raw = rng.uniform(-100.0, 100.0, size=(30_000, 10))
        names = [f"x{j}" for j in range(10)]
        path = tmp_path / "wide.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(",".join(names + ["sex", "y", "yhat"]) + "\n")
            males = rng.random(30_000) < 0.4
            for row, male, y in zip(raw.tolist(), males, rng.integers(1, 3, 30_000)):
                sex = "Male" if male else "Female"
                handle.write(",".join(map(repr, row)) + f",{sex},{y},{3 - y}\n")
        schema = DatasetSchema(
            feature_columns=tuple(names),
            sensitive_columns=(("sex", "Male"),),
            label_column="y",
            prediction_column="yhat",
        )
        tracemalloc.start()
        try:
            ds, _ = load_csv(str(path), schema)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n == 30_000
        assert peak < 7.5 * 2**20

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
        text = Path(path).read_text()
        assert text.startswith(
            '{"value": 0.33333333333333331, "method": "approx", "label_source": "labels", '
            '"seed": 42, "m1": 25, "m2": 6, "elapsed_ns": 1234}'
        )

    def test_serialization_is_byte_stable(self, tmp_path):
        record = self.make_result().to_record()
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_report(record, p1, "json")
        write_report(record, p2, "json")
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_csv_single_record_shape(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_report(self.make_result().to_record(), path, "csv")
        lines = Path(path).read_text().splitlines()
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

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidArgument, match="unknown report format 'xml'"):
            render_report({"v": 1}, "xml")

    def test_unserializable_value_rejected(self):
        with pytest.raises(InvalidArgument, match="cannot serialize value of type set"):
            render_report({"a": {1}}, "json")

    def test_record_list_to_csv(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": math.inf}]
        assert render_report(rows, "csv") == "a,b\n1,0.5\n2,inf\n"

    # a tab, a newline, the quote, the backslash, a non-ASCII letter, and
    # every other control character
    AWKWARD = [
        "a\tb", "one\ntwo", 'say "hi"', "back\\slash", "caf\u00e9", "".join(map(chr, range(32)))
    ]

    def test_awkward_strings_round_trip_through_json(self):
        record = {text: text for text in self.AWKWARD}
        assert json.loads(render_report(record, "json")) == record
        assert json.loads(render_report([record, record], "json")) == [record, record]

    def test_strings_escaped_as_json_dumps_escapes_them(self):
        text = "".join(map(chr, range(128))) + "\u00e9\u2028\U0001f600"
        quoted = json.dumps(text, ensure_ascii=False)
        assert render_report({text: [text]}, "json") == "{%s: [%s]}\n" % (quoted, quoted)

    @pytest.mark.parametrize(
        "rows, message",
        [([], "empty record list"), ([{"a": 1}, {"b": 2}], "share one field set")],
    )
    def test_csv_rejects_what_has_no_one_header(self, rows, message):
        with pytest.raises(InvalidArgument, match=message):
            render_report(rows, "csv")


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


# derandomized: the examples are the same on every run
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# 1 and 64 bytes per read cut lines and multi-byte characters, so small
# files span many blocks, with a fault landing in any of them; the
# default takes each file in one
BLOCKS = (1, 64, io_module.BLOCK_BYTES)

REAL_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(
        [" 1.5 ", "1_0", "+2", "-0.0", "5e-324", "2.2250738585072014e-308", "1E5", ".5", "7.",
         "\n2.5\n", "-1.7976931348623157e308"]
    ),
)
# int() reads the Arabic-Indic two and the fullwidth one as 2 and 1
INT_LABEL_CELLS = st.sampled_from(["1", "2", " 1", "+2", "1_0", "02", "3 ", "\u0662", "\uff11"])
# "déjà vu" is over 8 bytes in UTF-8, so the reader takes its label column
# as strings
LABEL_VALUES = ("no", "yes", "a,b", "x\ny", "s\u00ed", "d\u00e9j\u00e0 vu")
SENSITIVE_CELLS = st.sampled_from(
    ["Male", "Female", "male", " Male", "M,a", "Ma\nle", "M\u00e4le", "\u7537"]
)
# csv.writer leaves a lone "\r" unquoted under a "\n" terminator, so a
# carriage return only comes as part of "\r\n"
NOTE_CELLS = st.lists(st.sampled_from([",", '"', "\n", "\r\n", " ", "a"]), max_size=4).map("".join)
QUOTED_NOTE_CELLS = st.lists(st.sampled_from([",", '"', "\n", "\r\n"]), min_size=1, max_size=4).map(
    "".join
)
CORRUPT_CELLS = st.sampled_from(
    ["", "abc", "nan", "inf", "-inf", "1e999", "0", "-1", "maybe", "no", "1.5", "Male"]
)


def unquoted(strategy):
    """The cells of `strategy` that csv.writer writes as they are."""
    return strategy.filter(lambda cell: not set(cell) & set(',"\r\n'))


@st.composite
def csv_tables(draw, clean=None):
    """(rows with the header first, schema, line terminator, LF rows) of a
    valid file: quoted commas and newlines, padded and underscored
    numbers, subnormals, constant columns, integer or declared textual
    labels. The first `LF rows` rows end in "\n", the rest in the
    terminator.

    clean="all" writes every data row unquoted with "\n" ends, so the
    reader splits every chunk on commas; clean="head" does so for the
    first 1 to n-1 data rows, then writes "\r\n" ends or quotes a cell,
    so the reader turns to csv.reader part way through the file.
    """
    n = draw(st.integers(2 if clean == "head" else 1, 12))
    head = 0 if clean is None else n if clean == "all" else draw(st.integers(1, n - 1))

    def cells(strategy):
        clean_cells = unquoted(strategy)
        return [draw(clean_cells if i < head else strategy) for i in range(n)]

    features = [f"f{j}" for j in range(draw(st.integers(1, 3)))]
    columns = {}
    for name in features:
        constant = draw(st.booleans())
        value = unquoted(REAL_CELLS) if head else REAL_CELLS
        columns[name] = [draw(value)] * n if constant else cells(REAL_CELLS)
    textual = draw(st.booleans())
    label_cells = st.sampled_from(LABEL_VALUES) if textual else INT_LABEL_CELLS
    columns["sex"] = cells(SENSITIVE_CELLS)
    for name in ("y", "yhat", "flip"):
        columns[name] = cells(label_cells)
    note = draw(st.sampled_from(["note, free", "note"])) if clean else "note, free"
    columns[note] = cells(NOTE_CELLS)
    terminator = "\n" if clean == "all" else draw(st.sampled_from(["\n", "\r\n"]))
    if clean == "head" and terminator == "\n":
        # without CRLF ends, a quoted cell makes the turn
        columns[note][head] = draw(QUOTED_NOTE_CELLS)
    header = draw(st.permutations(list(columns)))
    schema = DatasetSchema(
        feature_columns=tuple(features),
        sensitive_columns=(("sex", "Male"),),
        label_column="y",
        prediction_column="yhat",
        label_values=LABEL_VALUES if textual else None,
        prediction_flipped_column="flip",
    )
    rows = [list(header)] + [[columns[name][i] for name in header] for i in range(n)]
    return rows, schema, terminator, 1 + head if clean == "head" else 0


def _raw(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return None if value is None else repr(value)


def outcome(read):
    """What a read gives: its arrays as raw bytes, or its error."""
    try:
        values = read()
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)
    return [_raw(value) for value in values]


def table_text(rows, terminator, lf_rows=0):
    """The rows as csv.writer writes them, the first `lf_rows` ending in
    "\n" and the rest in `terminator`."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows[:lf_rows])
    csv.writer(buffer, lineterminator=terminator).writerows(rows[lf_rows:])
    return buffer.getvalue()


def check_against_oracle(rows, schema, terminator, lf_rows=0, ragged=False, blocks=BLOCKS):
    """check_text_against_oracle on the table_text of the rows."""
    check_text_against_oracle(table_text(rows, terminator, lf_rows), schema, ragged, blocks)


def check_text_against_oracle(text, schema, ragged=False, blocks=BLOCKS):
    """The streaming reads against the frozen pair the CLI used to make:
    load_csv without the flipped column, then read_int_column for it, at
    each BLOCK_BYTES of `blocks`."""
    plain = dataclasses.replace(schema, prediction_flipped_column=None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        want = outcome(lambda: rowwise_load_csv(path, plain))
        want_flip = outcome(lambda: [rowwise_read_int_column(path, "flip", schema.label_values)])
        for block in blocks:
            with mock.patch.object(io_module, "BLOCK_BYTES", block):
                got_plain = outcome(lambda: _streamed(path, plain))
                got = outcome(lambda: _streamed(path, schema))
                got_flip = outcome(lambda: [read_int_column(path, "flip", schema.label_values)])
            if isinstance(want, list):
                assert got_plain == want + [None]
            else:
                assert got_plain == want
            if not ragged:
                # the frozen read_int_column never checked row widths
                assert got_flip == want_flip
            # one pass raises whichever fault comes first in row-major order
            if isinstance(want, list) and isinstance(want_flip, list):
                assert got == want + want_flip
            elif isinstance(want_flip, list):
                assert got == want
            elif isinstance(want, list):
                assert got == want_flip
            else:
                assert got in (want, want_flip)


def check_faults_against_oracle(table, data):
    """check_against_oracle on a table with one or two faulty cells or
    row widths drawn into it."""
    rows, schema, terminator, lf_rows = table
    ragged = False
    line = data.draw(st.integers(1, len(rows) - 1))
    for _ in range(data.draw(st.integers(1, 2))):
        # two faults often share a row, which tests the order of checks in it
        line = data.draw(st.one_of(st.just(line), st.integers(1, len(rows) - 1)))
        row = rows[line]
        kind = data.draw(st.sampled_from(["cell", "cell", "short", "long"]))
        if kind == "cell":
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(CORRUPT_CELLS)
        elif kind == "short":
            row.pop(data.draw(st.integers(0, len(row) - 1)))
            ragged = True
        else:
            row.append("x")
            ragged = True
    check_against_oracle(rows, schema, terminator, lf_rows, ragged)


def _streamed(path, schema):
    ds, report = load_csv(path, schema)
    return ds.features, ds.sensitive, ds.labels, ds.predictions, report, ds.predictions_flipped


class TestStreamingReaderMatchesRowwiseReader:
    """Block-wise, column-wise parsing must give the frozen row-by-row
    reader's arrays bit for bit, and its exception, line and column."""

    @PROPERTY
    @given(csv_tables())
    def test_valid_files_hex_equal(self, table):
        check_against_oracle(*table)

    @PROPERTY
    @given(csv_tables(), st.data())
    def test_faults_raise_as_before(self, table, data):
        check_faults_against_oracle(table, data)

    @PROPERTY
    @given(csv_tables(clean="all"))
    def test_quote_free_files_hex_equal(self, table):
        check_against_oracle(*table)

    @PROPERTY
    @given(csv_tables(clean="all"), st.data())
    def test_faults_in_quote_free_files(self, table, data):
        check_faults_against_oracle(table, data)

    @PROPERTY
    @given(csv_tables(clean="head"))
    def test_files_turning_quoted_hex_equal(self, table):
        check_against_oracle(*table)

    @PROPERTY
    @given(csv_tables(clean="head"), st.data())
    def test_faults_in_files_turning_quoted(self, table, data):
        check_faults_against_oracle(table, data)

    @PROPERTY
    @given(st.sampled_from([None, "all", "head"]).flatmap(lambda clean: csv_tables(clean=clean)))
    def test_feature_free_schema_reads_the_same_other_columns(self, table):
        # the group-metrics schema: no real-valued column is converted,
        # and every other array keeps the full read's bits
        rows, schema, terminator, lf_rows = table
        bare = dataclasses.replace(schema, feature_columns=())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.csv")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(table_text(rows, terminator, lf_rows))
            for block in BLOCKS:
                with mock.patch.object(io_module, "BLOCK_BYTES", block):
                    full = _streamed(path, schema)
                    got = _streamed(path, bare)
                assert got[0].shape == (len(rows) - 1, 0)
                assert got[4] == ScalingReport((), ())
                assert [_raw(a) for a in got[1:4] + got[5:]] == [
                    _raw(a) for a in full[1:4] + full[5:]
                ]

    @PROPERTY
    @given(st.sampled_from([None, "all", "head"]).flatmap(lambda clean: csv_tables(clean=clean)))
    def test_last_line_without_its_line_end(self, table):
        rows, schema, terminator, lf_rows = table
        end = "\n" if lf_rows >= len(rows) else terminator
        check_text_against_oracle(table_text(rows, terminator, lf_rows)[: -len(end)], schema)

    def test_two_faults_in_one_row_every_column_pair(self):
        schema = DatasetSchema(
            feature_columns=("f0", "f1"),
            sensitive_columns=(("sex", "Male"),),
            label_column="y",
            prediction_column="yhat",
            prediction_flipped_column="flip",
        )
        header = ["f0", "y", "sex", "flip", "f1", "yhat", "note"]
        valid = [["0.5", "1", "Male", "2", "1e3", "2", "a,b"] for _ in range(4)]
        for first in range(len(header)):
            for second in range(first + 1, len(header)):
                for bad in ("", "x"):
                    rows = [header] + [list(row) for row in valid]
                    rows[3][first] = rows[3][second] = bad
                    check_against_oracle(rows, schema, "\n")

    # a quote-free table: header, then rows of f0, note, y, yhat, flip,
    # sex; with sex last, a "\r" left on a line's last cell would change
    # the flags
    NOTE_HEADER = "f0,note,y,yhat,flip,sex\n"
    NOTE_SCHEMA = DatasetSchema(
        feature_columns=("f0",),
        sensitive_columns=(("sex", "Male"),),
        label_column="y",
        prediction_column="yhat",
        prediction_flipped_column="flip",
    )

    def test_blank_line_mid_file(self, tmp_path):
        # csv.reader reads a blank line as a row of no cells
        text = self.NOTE_HEADER + "0.5,a,1,2,1,Male\n\n1.5,b,2,1,2,Female\n"
        check_text_against_oracle(text, self.NOTE_SCHEMA, ragged=True)
        # a blank line and a line one comma short hold one row's separators
        # between them, the last a newline
        text = self.NOTE_HEADER + "0.5,a,1,2,1,Male\n\n1.5,b,2,1,2\n2.5,c,1,1,1,Male\n"
        check_text_against_oracle(text, self.NOTE_SCHEMA, ragged=True)
        # with one column, a blank line has as many commas as a row
        path = write_csv(tmp_path, "y\n1\n\n2\n")
        for block in BLOCKS:
            with mock.patch.object(io_module, "BLOCK_BYTES", block):
                with pytest.raises(ParseError) as err:
                    read_int_column(path, "y")
            assert str(err.value) == "line 3, column '': expected 1 cells, found 0"

    @pytest.mark.parametrize("note", ["b", '"b"'])
    def test_integer_label_zero(self, tmp_path, note):
        # a quoted cell sends the reader to csv.reader, a quote-free file
        # takes the split path
        text = self.NOTE_HEADER + f"0.5,a,1,2,1,Male\n1.5,{note},0,1,2,Female\n"
        check_text_against_oracle(text, self.NOTE_SCHEMA)
        path = write_csv(tmp_path, text)
        for block in BLOCKS:
            with mock.patch.object(io_module, "BLOCK_BYTES", block):
                with pytest.raises(ParseError) as err:
                    load_csv(path, self.NOTE_SCHEMA)
            assert str(err.value).startswith("line 3, column 'y': integer labels must be >= 1")

    def test_nul_byte(self, tmp_path):
        # csv.reader rejects NUL on Python 3.10 and reads it as a
        # character on 3.11+; the reader must do as csv.reader does
        text = self.NOTE_HEADER + "0.5,a,1,2,1,Male\n" * 3 + "1.5,a\0b,2,1,2,Female\n"
        try:
            list(csv.reader(io.StringIO(text, newline="")))
        except csv.Error as exc:
            path = write_csv(tmp_path, text)
            for block in BLOCKS:
                with mock.patch.object(io_module, "BLOCK_BYTES", block):
                    with pytest.raises(ParseError) as err:
                        load_csv(path, self.NOTE_SCHEMA)
                assert str(err.value) == f"line 5, column '': {exc}"
        else:
            check_text_against_oracle(text, self.NOTE_SCHEMA)

    def test_cell_over_the_field_limit_after_the_switch(self, tmp_path):
        # the quoted note spans lines 4 and 5, so the oversized cell is on
        # physical line 7, the sixth record
        big = "1" * (csv.field_size_limit() + 1)
        text = self.NOTE_HEADER + "0.5,a,1,2,1,Male\n" * 2 + '1.5,"a\nb",2,1,2,Female\n'
        text += f"2.5,c,1,1,1,Male\n{big},d,1,1,1,Male\n"
        path = write_csv(tmp_path, text)
        for block in BLOCKS:
            with mock.patch.object(io_module, "BLOCK_BYTES", block):
                with pytest.raises(ParseError) as err:
                    load_csv(path, self.NOTE_SCHEMA)
            assert err.value.line == 7
            assert "field larger than field limit" in str(err.value)

    def test_file_ending_on_a_block_boundary(self):
        # at a block size that divides the file, the last read ends on its
        # last byte, with no rest carried to the end of the file
        text = self.NOTE_HEADER + "0.5,a,1,2,1,Male\n1.5,b,2,1,2,Female\n2.5,c,2,2,1,M\u00e4le\n"
        size = len(text.encode())
        divisors = tuple(d for d in range(1, size + 1) if size % d == 0)
        assert len(divisors) > 2
        check_text_against_oracle(text, self.NOTE_SCHEMA, blocks=divisors)

    @pytest.mark.parametrize(
        "body, line",
        [
            # on the split path, after csv.reader took over, in the header,
            # and in a character cut short by the end of the file
            (b"\n" + b"0.5,a,1,2,1,Male\n" * 5 + b"3.5,\xe9,1,1,1,Male\n", 7),
            (b"\n" + b'0.5,"a",1,2,1,Male\n' * 5 + b"3.5,\xe9,1,1,1,Male\n", 7),
            (b"\xe9\n0.5,a,1,2,1,Male\n", 1),
            (b"\n" + b"0.5,a,1,2,1,Male\n" * 5 + b"3.5,a,1,1,1,M\xc3", 7),
        ],
    )
    def test_bytes_that_are_not_utf8_at_every_block_size(self, tmp_path, body, line):
        # the body goes on from the header's last name, "sex"
        path = tmp_path / "data.csv"
        path.write_bytes(self.NOTE_HEADER.encode()[:-1] + body)
        for block in BLOCKS:
            with mock.patch.object(io_module, "BLOCK_BYTES", block):
                with pytest.raises(ParseError) as err:
                    load_csv(str(path), self.NOTE_SCHEMA)
            assert str(err.value) == f"line {line}, column '': bytes are not valid UTF-8"

    @pytest.mark.parametrize("last", ["2.5,c,2,1,2,Male", "x,c,2,1,2,Male", "2.5,c,2"])
    def test_last_line_without_newline(self, last):
        text = self.NOTE_HEADER + "0.5,a,1,2,1,Male\n1.5,b,2,2,1,Female\n" + last
        check_text_against_oracle(text, self.NOTE_SCHEMA, ragged=last.count(",") != 5)

    def test_padded_and_underscored_numbers_in_a_quote_free_file(self):
        rows = [
            " 1.5 ,a, 1,1_0,+2,Male",
            "1_0,b,+2,02,3 ,Female",
            "+2,,1,1,1,Male",
            "7.,c,2,2,2, Male",
        ]
        check_text_against_oracle(self.NOTE_HEADER + "\n".join(rows) + "\n", self.NOTE_SCHEMA)

    @pytest.mark.parametrize("terminator", ["\n", "\r\n"])
    def test_turning_quoted_after_the_first_default_chunks(self, terminator):
        # the rows of the first default block and six more are quote-free
        # with "\n" ends; from there on a quoted note or "\r\n" ends send
        # the reader to csv.reader, and a fault later on must keep its
        # record number
        n = 40_000  # about 1.3 MB, over two default blocks
        rows = [self.NOTE_HEADER.split()[0].split(",")]
        rows += [[repr(i / 7), "a", "1", "2", str(1 + i % 2), "Male" if i % 3 else "Female"]
                 for i in range(n)]
        ends = np.cumsum([len(",".join(row)) + 1 for row in rows])
        lf_rows = int(np.searchsorted(ends, io_module.BLOCK_BYTES)) + 7
        if terminator == "\n":
            rows[lf_rows][1] = "a,b"
        blocks = (4096, io_module.BLOCK_BYTES)
        check_against_oracle(rows, self.NOTE_SCHEMA, terminator, lf_rows, blocks=blocks)
        rows[n - 3][0] = "x"
        check_against_oracle(rows, self.NOTE_SCHEMA, terminator, lf_rows, blocks=blocks)
