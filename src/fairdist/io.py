"""CSV ingestion with min-max feature scaling, and bit-stable report
serialization.

Input files are RFC-4180 CSV with a header row, UTF-8; a leading
byte-order mark, as spreadsheet tools write it, is skipped. Features are
rescaled per column to [0, 1]; a constant column maps to all zeros and is
recorded in the scaling report. Missing cells are a hard error, never
imputed: silently filling values would change distances. A schema may
name no features; its read then converts no real-valued column at all.

A file is read in one streaming pass: rows are taken CHUNK_ROWS at a time
and converted column by column, so the memory a read needs is one
chunk's strings plus the output arrays. The header is read by
csv.reader. After it, a chunk of lines with no quote, carriage return or
NUL, no line over csv.field_size_limit() and the header's number of
commas on every line is split on commas in one go, which gives exactly
the cells csv.reader would. The first chunk that is not so (a quoted
cell, CRLF line ends, a ragged or blank line) and the rest of the file
go through csv.reader, with the same values, errors and line numbers.
`load_csv` reads every column a schema names, the disturbed-prediction
column included, in that one pass; `read_int_column` reads a single
column through the same reader.

Reports are written with a fixed field order and reals rendered with 17
significant digits, so identical records always produce byte-identical
files. Positive infinity is rendered as the string "inf" (JSON has no
infinity literal). A report is a record (a mapping) or a list of
records. JSON takes one path for both, `_to_json`, which escapes every
string, keys included, by one rule: the quote, the backslash and
U+0000-U+001F, as json.dumps(..., ensure_ascii=False) writes them. CSV
writes a lone record as a one-row table.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import chain, islice, repeat, starmap
from typing import Mapping, Sequence

import numpy as np

from .dataset import LabeledDataset
from .errors import (
    DataInputError,
    InvalidArgument,
    IoError,
    MissingValue,
    ParseError,
    SchemaMismatch,
)

# rows per conversion step of the streaming reader; on a 200k-row,
# 14-column file, 2^12 parsed about 9% faster than 2^15 (the chunk's
# strings stay in cache) and holds an eighth of the strings at a time
CHUNK_ROWS = 1 << 12


@dataclass(frozen=True)
class DatasetSchema:
    """Column roles for a CSV file.

    sensitive_columns pairs each column name with the cell value that
    marks the privileged group (encoded as 1; every other value as 0).
    label_values, when given, is the ordered list of raw label strings,
    mapped to 1..n_c by position; otherwise label cells must already be
    positive integers. label_values must not repeat, and positive_label is
    a code: at least 1 and, with label_values, at most their number.
    prediction_flipped_column names the predictions made on
    attribute-disturbed rows (for discriminative risk); it is decoded like
    the predictions and may name any column, the prediction column
    included, so it takes no part in the role-overlap check.
    feature_columns may be empty: the group measures need no features,
    and a read that names none parses and scales no real-valued column.
    """

    feature_columns: tuple[str, ...]
    sensitive_columns: tuple[tuple[str, str], ...]
    label_column: str
    prediction_column: str | None = None
    positive_label: int = 1
    label_values: tuple[str, ...] | None = None
    prediction_flipped_column: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))
        object.__setattr__(
            self, "sensitive_columns", tuple((n, str(v)) for n, v in self.sensitive_columns)
        )
        if self.label_values is not None:
            object.__setattr__(self, "label_values", tuple(self.label_values))
        if not self.sensitive_columns:
            raise SchemaMismatch("schema needs at least one sensitive column")
        names = (
            list(self.feature_columns)
            + [name for name, _ in self.sensitive_columns]
            + [self.label_column]
            + ([self.prediction_column] if self.prediction_column else [])
        )
        if len(set(names)) != len(names):
            raise SchemaMismatch("schema column roles overlap")
        if self.positive_label < 1:
            raise SchemaMismatch(
                f"positive label {self.positive_label} is not a label code: codes start at 1"
            )
        if self.label_values is not None:
            if len(set(self.label_values)) != len(self.label_values):
                raise SchemaMismatch("label values must not repeat")
            if self.positive_label > len(self.label_values):
                raise SchemaMismatch(
                    f"positive label {self.positive_label} is beyond the "
                    f"{len(self.label_values)} declared label values"
                )


@dataclass(frozen=True)
class ScalingReport:
    """Per-feature (min, max) used by the affine rescale, plus the names
    of columns that turned out constant (mapped to 0)."""

    feature_ranges: tuple[tuple[str, float, float], ...]
    constant_columns: tuple[str, ...] = field(default_factory=tuple)


def minmax_scale(matrix: np.ndarray, names: Sequence[str]) -> tuple[np.ndarray, ScalingReport]:
    """Column-wise (x - min) / (max - min), in place: the float64 `matrix`
    is overwritten with its scaled values and returned. Constant columns
    become 0."""
    ranges = []
    constant = []
    for j, name in enumerate(names):
        col = matrix[:, j]
        lo = float(col.min())
        hi = float(col.max())
        ranges.append((name, lo, hi))
        if hi > lo and math.isfinite(hi - lo):
            col -= lo
            col /= hi - lo
        elif hi > lo:
            # the span overflows a double (a column reaching about
            # +-1e308): halving every term first keeps it finite
            col /= 2
            col -= lo / 2
            col /= hi / 2 - lo / 2
        else:
            col[:] = 0.0
            constant.append(name)
    return matrix, ScalingReport(tuple(ranges), tuple(constant))


_INT64_MAX = int(np.iinfo(np.int64).max)


def _parse_label(cell: str, line: int, column: str, label_values: tuple[str, ...] | None) -> int:
    if cell == "":
        raise MissingValue(line, column)
    if label_values is not None:
        try:
            return label_values.index(cell) + 1
        except ValueError:
            raise ParseError(line, column, f"label {cell!r} not in declared label values") from None
    try:
        value = int(cell)
    except ValueError:
        raise ParseError(line, column, f"cannot parse {cell!r} as an integer label") from None
    if value < 1:
        raise ParseError(line, column, "integer labels must be >= 1 (or declare label values)")
    if value > _INT64_MAX:
        raise ParseError(line, column, "integer label does not fit in 64 bits")
    return value


def _column_index(header: list[str], name: str, path: str) -> int:
    hits = [i for i, h in enumerate(header) if h == name]
    if not hits:
        raise SchemaMismatch(f"{path}: column {name!r} not found in header")
    if len(hits) > 1:
        raise SchemaMismatch(f"{path}: column {name!r} appears more than once")
    return hits[0]


def _undecodable_line(path: str) -> int:
    """Number of the first line that is not valid UTF-8 (a newline byte
    never occurs inside a multi-byte sequence, so lines decode alone)."""
    with open(path, "rb") as handle:
        for line, raw in enumerate(handle, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                break
    return line


def _next_rows(source, count: int, path: str, lines_before: int = 0) -> list:
    """Up to `count` further items of a file handle (lines) or a
    csv.reader (rows); bytes that are not UTF-8 and cells the csv module
    rejects (such as one over its field size limit) are reported as a
    ParseError at their line. `lines_before` counts the physical lines
    read before a reader's first."""
    try:
        return list(islice(source, count))
    except UnicodeDecodeError:
        raise ParseError(_undecodable_line(path), "", "bytes are not valid UTF-8") from None
    except csv.Error as exc:
        raise ParseError(source.line_num + lines_before, "", str(exc)) from None


def _chunks(handle, width: int, lines_before: int, path: str):
    """The records after the header, CHUNK_ROWS at a time, as
    (first_line, cells, rows): `cells` lists a chunk's cells row after
    row, or is None when its `rows` differ in width.

    Chunks of physical lines are split on commas while csv.reader would
    return exactly line.split(","): no quote, carriage return or NUL, no
    line over the field size limit, and `width - 1` commas on every line
    (a one-column table could not tell a blank line, which csv.reader
    reads as no cells, from an empty cell). The first chunk that fails
    the test and the rest of the file go through csv.reader.
    """
    limit = csv.field_size_limit()
    line = 2
    while True:
        lines = _next_rows(handle, CHUNK_ROWS, path)
        if not lines:
            return
        text = ",".join(lines)
        if not (
            width > 1
            and '"' not in text
            and "\r" not in text
            and "\0" not in text
            and max(map(len, lines)) <= limit
            and set(map(str.count, lines, repeat(","))) == {width - 1}
        ):
            break
        m = len(lines)
        del lines
        # joined by commas, each line's "\n" sits before the next
        # line's first cell, so dropping it leaves the cells alone
        text = text.replace("\n", "")
        cells = text.split(",")
        del text
        yield line, cells, None
        del cells  # drop this chunk's strings before reading the next
        line += m
    del text
    reader = csv.reader(chain(lines, handle))
    del lines
    lines_before += line - 2
    while rows := _next_rows(reader, CHUNK_ROWS, path, lines_before):
        m = len(rows)
        cells = None
        if set(map(len, rows)) == {width}:
            cells, rows = list(chain.from_iterable(rows)), None
        yield line, cells, rows
        del cells, rows
        line += m


class _ChunkFault(Exception):
    """A chunk that the column-wise conversion cannot take."""


class _Columns:
    """The columns of one read, located in the header, and their
    conversion one chunk of rows at a time.

    reals are parsed with float() and must be finite; each flag is 1
    where the cell equals its value and 0 elsewhere; labels are decoded
    by _parse_label. A chunk converts column by column. A chunk with any
    fault is checked again row by row and cell by cell, in the order
    roles are listed, so the error names the first faulty line and
    column exactly as a row-by-row reader would.
    """

    def __init__(self, header, path, reals, flags, labels, label_values):
        self.width = len(header)
        self.reals = [(name, _column_index(header, name, path)) for name in reals]
        self.flags = [(name, _column_index(header, name, path), value) for name, value in flags]
        self.labels = [(name, _column_index(header, name, path)) for name in labels]
        self.label_values = label_values

    def convert(self, first_line: int, cells, rows):
        """(reals (m, r) float64, flags (m, f) int64, labels (l, m) int64)
        for the m rows of one chunk of _chunks, whose first row is
        `first_line`."""
        if cells is not None:
            try:
                return self._by_column(cells)
            except _ChunkFault:
                w = self.width
                rows = [cells[i : i + w] for i in range(0, len(cells), w)]
        self._raise_first_fault(rows, first_line)
        raise AssertionError("a faulty chunk passed the row-by-row checks")

    def _by_column(self, cells):
        w = self.width
        m = len(cells) // w
        reals = np.empty((m, len(self.reals)))
        for j, (_, col) in enumerate(self.reals):
            try:
                reals[:, j] = np.fromiter(map(float, cells[col::w]), np.float64, m)
            except ValueError:
                raise _ChunkFault from None
        if not np.isfinite(reals).all():
            raise _ChunkFault
        flags = np.empty((m, len(self.flags)), dtype=np.int64)
        for j, (_, col, value) in enumerate(self.flags):
            column = cells[col::w]
            if "" in column:
                raise _ChunkFault
            flags[:, j] = np.fromiter(map(value.__eq__, column), bool, m)
        labels = np.empty((len(self.labels), m), dtype=np.int64)
        for j, (name, col) in enumerate(self.labels):
            column = cells[col::w]
            try:
                codes = {c: _parse_label(c, 0, name, self.label_values) for c in set(column)}
            except DataInputError:
                raise _ChunkFault from None
            labels[j] = np.fromiter(map(codes.__getitem__, column), np.int64, m)
        return reals, flags, labels

    def _raise_first_fault(self, rows, first_line: int) -> None:
        for i, row in enumerate(rows):
            line = first_line + i
            if len(row) != self.width:
                raise ParseError(line, "", f"expected {self.width} cells, found {len(row)}")
            for name, col in self.reals:
                cell = row[col]
                if cell == "":
                    raise MissingValue(line, name)
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        line, name, f"cannot parse {cell!r} as a real number"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(line, name, "value is not finite")
            for name, col, _ in self.flags:
                if row[col] == "":
                    raise MissingValue(line, name)
            for name, col in self.labels:
                _parse_label(row[col], line, name, self.label_values)


def _read_table(
    path: str,
    reals: Sequence[str],
    flags: Sequence[tuple[str, str]],
    labels: Sequence[str],
    label_values: tuple[str, ...] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one pass over a CSV file: the named columns as float64 reals
    (n, r), int64 flags (n, f) and int64 labels (l, n) (see _Columns).

    The header is read by csv.reader and the records stream in chunks of
    CHUNK_ROWS (see _chunks), so the strings held at any time are one
    chunk's; line numbers count records from the header as line 1.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = _next_rows(reader, 1, path)
            if not header:
                raise SchemaMismatch(f"{path}: file is empty")
            chunks = _chunks(handle, len(header[0]), reader.line_num, path)
            chunk = next(chunks, None)
            if chunk is None:
                raise SchemaMismatch(f"{path}: file has a header but no data rows")
            columns = _Columns(header[0], path, reals, flags, labels, label_values)
            parts = [columns.convert(*chunk)]
            # drop this chunk's strings before reading the next, as starmap
            # does for every later chunk
            del chunk
            parts += starmap(columns.convert, chunks)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    real_parts, flag_parts, label_parts = zip(*parts)
    return (
        np.concatenate(real_parts),
        np.concatenate(flag_parts),
        np.concatenate(label_parts, axis=1),
    )


def load_csv(path: str, schema: DatasetSchema) -> tuple[LabeledDataset, ScalingReport]:
    """Read a CSV per the schema and return the scaled dataset plus the
    scaling report. Deterministic: the same file and schema always yield
    the identical dataset. A schema without feature columns gives
    features of shape (n, 0) and an empty report, and no cell of an
    unnamed column is parsed or checked."""
    label_roles = (
        schema.label_column,
        schema.prediction_column,
        schema.prediction_flipped_column,
    )
    raw_features, sensitive, decoded = _read_table(
        path,
        schema.feature_columns,
        schema.sensitive_columns,
        [name for name in label_roles if name],
        schema.label_values,
    )
    vectors = iter(decoded)
    labels, predictions, flipped = (next(vectors) if name else None for name in label_roles)
    features, report = minmax_scale(raw_features, schema.feature_columns)
    return LabeledDataset(features, sensitive, labels, predictions, flipped), report


def read_int_column(
    path: str, column: str, label_values: tuple[str, ...] | None = None
) -> np.ndarray:
    """Read one integer-valued column (same label decoding rules as
    load_csv)."""
    return _read_table(path, (), (), (column,), label_values)[2][0]


def format_real(value: float) -> str:
    """17-significant-digit rendering; infinities as "inf" / "-inf"."""
    if math.isnan(value):
        raise InvalidArgument("reports cannot contain NaN")
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return "%.17g" % value


def _cell(value) -> str:
    """One report value as a CSV cell. _to_json writes the same text and
    adds only JSON's syntax, so the two formats agree on every value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_real(float(value))
    return str(value)


# JSON's string escapes, as json.dumps(..., ensure_ascii=False) writes
# them: the quote, the backslash and U+0000-U+001F, in short form where
# JSON has one; every other character stands as is
_JSON_ESCAPES = str.maketrans(
    {chr(code): "\\u%04x" % code for code in range(0x20)}
    | {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)


def _to_json(value) -> str:
    if isinstance(value, Mapping):
        parts = ("%s: %s" % (_to_json(k), _to_json(v)) for k, v in value.items())
        return "{%s}" % ", ".join(parts)
    if isinstance(value, (list, tuple)):
        return "[%s]" % ", ".join(_to_json(v) for v in value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return '"%s"' % value.translate(_JSON_ESCAPES)
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidArgument(f"cannot serialize value of type {type(value).__name__}")
    text = _cell(value)
    # JSON has no infinity literal
    return '"%s"' % text if text in ("inf", "-inf") else text


def render_report(report, fmt: str = "json") -> str:
    """Serialize a record (or list of records) to a deterministic JSON or
    CSV string."""
    if fmt == "json":
        return _to_json(report) + "\n"
    if fmt == "csv":
        records = [report] if isinstance(report, Mapping) else report
        if not records:
            raise InvalidArgument("cannot emit CSV for an empty record list")
        keys = list(records[0].keys())
        for record in records:
            if list(record.keys()) != keys:
                raise InvalidArgument("CSV rows must share one field set")
        import io as _io

        buffer = _io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(keys)
        for record in records:
            writer.writerow([_cell(record[k]) for k in keys])
        return buffer.getvalue()
    raise InvalidArgument(f"unknown report format {fmt!r}")


def write_report(report, path: str, fmt: str = "json") -> None:
    """Write a record (or list of records) to disk; serialization is
    bit-stable, so equal records yield byte-identical files.

    The report is encoded before the file is opened: one that is not
    valid UTF-8 text, such as one naming an input path with a byte that
    is not UTF-8, raises IoError and leaves no file behind."""
    try:
        data = render_report(report, fmt).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise IoError(f"cannot write {path}: the report is not valid UTF-8 text ({exc})") from exc
    try:
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
