"""CSV ingestion with min-max feature scaling, and bit-stable report
serialization.

Input files are RFC-4180 CSV with a header row, UTF-8; a leading
byte-order mark, as spreadsheet tools write it, is skipped. Features are
rescaled per column to [0, 1]; a constant column maps to all zeros and is
recorded in the scaling report. Missing cells are a hard error, never
imputed: silently filling values would change distances. A schema may
name no features; its read then converts no real-valued column at all.

A file is read in one streaming pass over raw byte blocks of about
BLOCK_BYTES, each cut after its last newline, so the memory a read needs
is one block plus the output arrays. The header is read by csv.reader.
After it, one numpy pass finds every comma and newline of a block, and
bulk checks decide whether csv.reader would read each of its lines as
line.split(","): no quote, carriage return or NUL, no line over
csv.field_size_limit() and the header's number of commas on every line.
Such a block converts only the columns a read names: real columns from
the block's cells as strings, flag and label columns by comparing or
decoding each distinct cell once. The first block that is not so (a
quoted cell, CRLF line ends, a ragged or blank line) and the rest of the
file go through csv.reader, with the same values, errors and line
numbers. Bytes that are not UTF-8 are reported at their line, found in
the block that holds them. `load_csv` reads every column a schema names,
the disturbed-prediction column included, in that one pass;
`read_int_column` reads a single column through the same reader.

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

import codecs
import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from io import StringIO
from itertools import chain, islice, starmap
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

# bytes per read of the streaming reader, each block then cut after its
# last "\n". A read with real columns holds a block's cells as strings,
# about five times its bytes: on a 30,000-row, 13-column file 2^19 kept
# load_csv's tracemalloc peak at 6.7 MiB where 2^20 reached 10.3 MiB,
# and the feature-free 200k-row read took 0.18 s against 0.17 s
BLOCK_BYTES = 1 << 19


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


def _decode(data: bytes, first_line: int) -> str:
    r"""The text of a block whose first physical line is `first_line`.
    Bytes that are not UTF-8 raise a ParseError at their own line: a
    newline byte never occurs inside a multi-byte sequence, so the "\n"
    before the fault count the lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = first_line + data.count(b"\n", 0, exc.start)
        raise ParseError(line, "", "bytes are not valid UTF-8") from None


def _blocks(handle):
    r"""A binary file's bytes in reads of BLOCK_BYTES, each block cut after
    its last "\n" and the rest carried to the next; the file's last block
    may end without one."""
    rest = b""
    while data := handle.read(BLOCK_BYTES):
        cut = data.rfind(b"\n") + 1
        if not cut:
            rest += data
            continue
        block, rest = rest + data[:cut], data[cut:]
        del data
        yield block
        del block  # drop this block before reading the next
    if rest:
        yield rest


class _Text:
    r"""The blocks as csv.reader reads a file opened with newline="": each
    decoded, then split into lines after "\n", "\r\n" or a lone "\r".
    `stream` holds the block being read and `line` the physical line (one
    per "\n") that the next block starts at."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.stream = StringIO()
        self.line = 1

    def __iter__(self):
        return chain(self.stream, chain.from_iterable(map(self.open, self.blocks)))

    def open(self, data: bytes) -> StringIO:
        self.stream = StringIO(_decode(data, self.line), newline="")
        self.line += data.count(b"\n")
        return self.stream

    def rest(self) -> bytes:
        """The unread rest of the block being read; `line` then counts
        from its start."""
        rest = self.stream.read()
        self.stream = StringIO()
        self.line -= rest.count("\n")
        return rest.encode("utf-8")


def _next_rows(reader, count: int, lines_before: int = 0) -> list:
    """Up to `count` further rows of a csv.reader; a cell it rejects (such
    as one over its field size limit) is reported as a ParseError at its
    line. `lines_before` counts the lines read before the reader's
    first."""
    try:
        return list(islice(reader, count))
    except csv.Error as exc:
        raise ParseError(reader.line_num + lines_before, "", str(exc)) from None


def _separators(data: bytes, width: int, limit: int) -> np.ndarray | None:
    r"""The positions of the commas and newlines of a block that ends in
    "\n", as an (n, width) matrix with row i for line i, when csv.reader
    would read every line as line.split(","); None otherwise.

    That holds for a block with no quote, carriage return or NUL, with
    `width - 1` commas on every line, and with no line over the field size
    `limit` (counted in bytes, never fewer than its characters, so
    csv.reader could not reject a cell of it). A one-column table never
    qualifies: it could not tell a blank line, which csv.reader reads as
    no cells, from an empty cell.
    """
    if width < 2 or b'"' in data or b"\r" in data or b"\0" in data:
        return None
    codes = np.frombuffer(data, np.uint8)
    found = codes == ord(",")
    found |= codes == ord("\n")
    seps = np.flatnonzero(found)
    del found
    if len(seps) % width:
        return None
    seps = seps.reshape(-1, width)
    kinds = codes[seps]
    if not ((kinds[:, :-1] == ord(",")).all() and (kinds[:, -1] == ord("\n")).all()):
        return None
    if np.diff(seps[:, -1], prepend=-1).max() > limit:
        return None
    return seps


def _distinct(cells: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct cells in first-seen order, and each cell's position
    among them."""
    positions = {cell: i for i, cell in enumerate(dict.fromkeys(cells))}
    return list(positions), np.fromiter(map(positions.__getitem__, cells), np.intp, len(cells))


class _TextCells:
    """A chunk's cells as strings, row after row, `width` to a row."""

    def __init__(self, cells: list[str], width: int):
        self.cells = cells
        self.width = width
        self.m = len(cells) // width

    def strings(self, col: int) -> list[str]:
        return self.cells[col :: self.width]

    def distinct(self, col: int) -> tuple[list[str], np.ndarray]:
        return _distinct(self.strings(col))

    def rows(self) -> list[list[str]]:
        w = self.width
        return [self.cells[i : i + w] for i in range(0, len(self.cells), w)]


class _ByteCells(_TextCells):
    """A block that passed _separators: cell (i, j) is the bytes between
    seps[i, j] and the separator before it. The cells become strings only
    when a column asks for them, all in one split."""

    def __init__(self, data: bytes, seps: np.ndarray):
        self.data = data
        self.seps = seps
        self.width = seps.shape[1]
        self.m = len(seps)

    @cached_property
    def cells(self) -> list[str]:
        # no cell holds a comma or a newline
        return self.data[:-1].decode("utf-8").replace("\n", ",").split(",")

    def distinct(self, col: int) -> tuple[list[str], np.ndarray]:
        """The column's distinct cells and each cell's position among
        them. Cells of up to 8 bytes are zero-padded to one uint64 key
        each (no cell holds a NUL), so only the distinct keys are decoded,
        and they come in key order, not first-seen order; a column with a
        longer cell goes through the strings and _distinct."""
        ends = self.seps[:, col]
        if col:
            starts = self.seps[:, col - 1] + 1
        else:
            starts = np.concatenate(([0], self.seps[:-1, -1] + 1))
        sizes = ends - starts
        longest = int(sizes.max())
        if longest > 8:
            return super().distinct(col)
        offsets = np.arange(longest)
        codes = np.frombuffer(self.data, np.uint8)
        cells = codes.take(starts[:, None] + offsets, mode="clip")
        padded = np.zeros((self.m, 8), np.uint8)
        padded[:, :longest] = np.where(offsets < sizes[:, None], cells, 0)
        keys, index = np.unique(padded.view(np.uint64).ravel(), return_inverse=True)
        return [key.decode("utf-8") for key in keys.view("S8").tolist()], index


def _chunks(text: _Text, width: int, lines_before: int):
    """The records after the header as (first_line, cells), one block at
    a time: `cells` is a _ByteCells, a _TextCells, or a list of rows when
    they differ in width.

    The rest of the header's block, then every later block, is split on
    its separators (see _separators). The first block that fails the test
    and the rest of the file go through csv.reader, in batches of as many
    rows as that block has lines.
    """
    limit = csv.field_size_limit()
    line = 2
    data = text.rest()
    while True:
        if data:
            ended = data if data.endswith(b"\n") else data + b"\n"
            seps = _separators(ended, width, limit)
            if seps is None:
                break
            cells = _ByteCells(ended, seps)
            del data, ended, seps
            yield line, cells
            line += cells.m
            text.line += cells.m
            del cells  # drop this block before reading the next
        data = next(text.blocks, None)
        if data is None:
            return
        _decode(data, text.line)
    batch = max(1, data.count(b"\n"))
    text.open(data)
    del data
    reader = csv.reader(text)
    lines_before += line - 2
    while rows := _next_rows(reader, batch, lines_before):
        m = len(rows)
        cells = rows
        if set(map(len, rows)) == {width}:
            cells = _TextCells(list(chain.from_iterable(rows)), width)
        del rows
        yield line, cells
        del cells
        line += m


class _ChunkFault(Exception):
    """A chunk that the column-wise conversion cannot take."""


class _Columns:
    """The columns of one read, located in the header, and their
    conversion one chunk of rows at a time.

    reals are parsed with float() and must be finite; each flag is 1
    where the cell equals its value and 0 elsewhere; labels are decoded
    by _parse_label. A chunk converts column by column, and a flag or
    label column compares or decodes each of its distinct cells once. A
    chunk with any fault is checked again row by row and cell by cell, in
    the order roles are listed, so the error names the first faulty line
    and column exactly as a row-by-row reader would.
    """

    def __init__(self, header, path, reals, flags, labels, label_values):
        self.width = len(header)
        self.reals = [(name, _column_index(header, name, path)) for name in reals]
        self.flags = [(name, _column_index(header, name, path), value) for name, value in flags]
        self.labels = [(name, _column_index(header, name, path)) for name in labels]
        self.label_values = label_values

    def convert(self, first_line: int, cells):
        """(reals (m, r) float64, flags (m, f) int64, labels (l, m) int64)
        for the m rows of one chunk of _chunks, whose first row is
        `first_line`."""
        if not isinstance(cells, list):
            try:
                return self._by_column(cells)
            except _ChunkFault:
                cells = cells.rows()
        self._raise_first_fault(cells, first_line)
        raise AssertionError("a faulty chunk passed the row-by-row checks")

    def _by_column(self, cells):
        m = cells.m
        reals = np.empty((m, len(self.reals)))
        for j, (_, col) in enumerate(self.reals):
            try:
                reals[:, j] = np.fromiter(map(float, cells.strings(col)), np.float64, m)
            except ValueError:
                raise _ChunkFault from None
        if not np.isfinite(reals).all():
            raise _ChunkFault
        flags = np.empty((m, len(self.flags)), dtype=np.int64)
        for j, (_, col, value) in enumerate(self.flags):
            values, index = cells.distinct(col)
            if "" in values:
                raise _ChunkFault
            flags[:, j] = np.array([cell == value for cell in values])[index]
        labels = np.empty((len(self.labels), m), dtype=np.int64)
        for j, (name, col) in enumerate(self.labels):
            values, index = cells.distinct(col)
            try:
                codes = [_parse_label(cell, 0, name, self.label_values) for cell in values]
            except DataInputError:
                raise _ChunkFault from None
            labels[j] = np.array(codes, np.int64)[index]
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

    The file is read in blocks of about BLOCK_BYTES (see _blocks), a
    leading UTF-8 byte-order mark dropped. csv.reader reads the header,
    and the records stream a block at a time (see _chunks), so the bytes
    and strings held at any time are one block's; line numbers count
    records from the header as line 1.
    """
    try:
        with open(path, "rb") as handle:
            blocks = _blocks(handle)
            first = next(blocks, b"").removeprefix(codecs.BOM_UTF8)
            text = _Text(chain([first], blocks))
            del first
            reader = csv.reader(text)
            header = _next_rows(reader, 1)
            if not header:
                raise SchemaMismatch(f"{path}: file is empty")
            chunks = _chunks(text, len(header[0]), reader.line_num)
            del reader  # and with it the header's block
            chunk = next(chunks, None)
            if chunk is None:
                raise SchemaMismatch(f"{path}: file has a header but no data rows")
            columns = _Columns(header[0], path, reals, flags, labels, label_values)
            parts = [columns.convert(*chunk)]
            # drop this chunk before reading the next, as starmap does for
            # every later chunk
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
        buffer = StringIO()
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
