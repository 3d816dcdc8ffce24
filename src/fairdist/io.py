"""CSV ingestion with min-max feature scaling, and bit-stable report
serialization.

Input files are RFC-4180 CSV with a header row, UTF-8. Features are
rescaled per column to [0, 1]; a constant column maps to all zeros and is
recorded in the scaling report. Missing cells are a hard error, never
imputed: silently filling values would change distances.

Reports are written with a fixed field order and reals rendered with 17
significant digits, so identical records always produce byte-identical
files. Positive infinity is rendered as the string "inf" (JSON has no
infinity literal).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dataset import LabeledDataset
from .errors import InvalidArgument, IoError, MissingValue, ParseError, SchemaMismatch


@dataclass(frozen=True)
class DatasetSchema:
    """Column roles for a CSV file.

    sensitive_columns pairs each column name with the cell value that
    marks the privileged group (encoded as 1; every other value as 0).
    label_values, when given, is the ordered list of raw label strings,
    mapped to 1..n_c by position; otherwise label cells must already be
    positive integers.
    """

    feature_columns: tuple[str, ...]
    sensitive_columns: tuple[tuple[str, str], ...]
    label_column: str
    prediction_column: str | None = None
    positive_label: int = 1
    label_values: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))
        object.__setattr__(
            self, "sensitive_columns", tuple((n, str(v)) for n, v in self.sensitive_columns)
        )
        if self.label_values is not None:
            object.__setattr__(self, "label_values", tuple(self.label_values))
        if not self.feature_columns:
            raise SchemaMismatch("schema needs at least one feature column")
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


@dataclass(frozen=True)
class ScalingReport:
    """Per-feature (min, max) used by the affine rescale, plus the names
    of columns that turned out constant (mapped to 0)."""

    feature_ranges: tuple[tuple[str, float, float], ...]
    constant_columns: tuple[str, ...] = field(default_factory=tuple)

    def to_record(self) -> dict:
        return {
            "feature_ranges": [
                {"column": name, "min": lo, "max": hi} for name, lo, hi in self.feature_ranges
            ],
            "constant_columns": list(self.constant_columns),
        }


def minmax_scale(matrix: np.ndarray, names: Sequence[str]) -> tuple[np.ndarray, ScalingReport]:
    """Column-wise (x - min) / (max - min); constant columns become 0."""
    matrix = np.asarray(matrix, dtype=np.float64)
    scaled = np.empty_like(matrix)
    ranges = []
    constant = []
    for j, name in enumerate(names):
        lo = float(matrix[:, j].min())
        hi = float(matrix[:, j].max())
        ranges.append((name, lo, hi))
        if hi > lo and math.isfinite(hi - lo):
            scaled[:, j] = (matrix[:, j] - lo) / (hi - lo)
        elif hi > lo:
            # the span overflows a double (a column reaching about
            # +-1e308): halving every term first keeps it finite
            scaled[:, j] = (matrix[:, j] / 2 - lo / 2) / (hi / 2 - lo / 2)
        else:
            scaled[:, j] = 0.0
            constant.append(name)
    return scaled, ScalingReport(tuple(ranges), tuple(constant))


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
    return value


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise SchemaMismatch(f"{path}: file is empty")
    header, data = rows[0], rows[1:]
    if not data:
        raise SchemaMismatch(f"{path}: file has a header but no data rows")
    return header, data


def _column_index(header: list[str], name: str, path: str) -> int:
    hits = [i for i, h in enumerate(header) if h == name]
    if not hits:
        raise SchemaMismatch(f"{path}: column {name!r} not found in header")
    if len(hits) > 1:
        raise SchemaMismatch(f"{path}: column {name!r} appears more than once")
    return hits[0]


def load_csv(path: str, schema: DatasetSchema) -> tuple[LabeledDataset, ScalingReport]:
    """Read a CSV per the schema and return the scaled dataset plus the
    scaling report. Deterministic: the same file and schema always yield
    the identical dataset."""
    header, data = _read_rows(path)
    feat_idx = [_column_index(header, name, path) for name in schema.feature_columns]
    sens_idx = [_column_index(header, name, path) for name, _ in schema.sensitive_columns]
    label_idx = _column_index(header, schema.label_column, path)
    pred_idx = (
        _column_index(header, schema.prediction_column, path)
        if schema.prediction_column
        else None
    )

    n = len(data)
    raw_features = np.empty((n, len(feat_idx)), dtype=np.float64)
    sensitive = np.empty((n, len(sens_idx)), dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    predictions = np.empty(n, dtype=np.int64) if pred_idx is not None else None

    for i, row in enumerate(data):
        line = i + 2  # header is line 1
        if len(row) != len(header):
            raise ParseError(line, "", f"expected {len(header)} cells, found {len(row)}")
        for j, col in enumerate(feat_idx):
            cell = row[col]
            if cell == "":
                raise MissingValue(line, schema.feature_columns[j])
            try:
                raw_features[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    line, schema.feature_columns[j], f"cannot parse {cell!r} as a real number"
                ) from None
            if not math.isfinite(raw_features[i, j]):
                raise ParseError(line, schema.feature_columns[j], "value is not finite")
        for j, col in enumerate(sens_idx):
            cell = row[col]
            if cell == "":
                raise MissingValue(line, schema.sensitive_columns[j][0])
            sensitive[i, j] = 1 if cell == schema.sensitive_columns[j][1] else 0
        labels[i] = _parse_label(row[label_idx], line, schema.label_column, schema.label_values)
        if predictions is not None:
            predictions[i] = _parse_label(
                row[pred_idx], line, schema.prediction_column, schema.label_values
            )

    features, report = minmax_scale(raw_features, schema.feature_columns)
    return LabeledDataset(features, sensitive, labels, predictions), report


def read_int_column(
    path: str, column: str, label_values: tuple[str, ...] | None = None
) -> np.ndarray:
    """Read one integer-valued column (same label decoding rules as
    load_csv); used for auxiliary vectors such as disturbed predictions."""
    header, data = _read_rows(path)
    idx = _column_index(header, column, path)
    out = np.empty(len(data), dtype=np.int64)
    for i, row in enumerate(data):
        out[i] = _parse_label(row[idx], i + 2, column, label_values)
    return out


def format_real(value: float) -> str:
    """17-significant-digit rendering; infinities as "inf" / "-inf"."""
    if math.isnan(value):
        raise InvalidArgument("reports cannot contain NaN")
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return "%.17g" % value


def _scalar_to_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value) or math.isnan(value):
            return '"%s"' % format_real(value)
        return format_real(value)
    if isinstance(value, str):
        return '"%s"' % value.replace("\\", "\\\\").replace('"', '\\"')
    raise InvalidArgument(f"cannot serialize value of type {type(value).__name__}")


def _to_json(value) -> str:
    if isinstance(value, Mapping):
        parts = ('"%s": %s' % (k, _to_json(v)) for k, v in value.items())
        return "{%s}" % ", ".join(parts)
    if isinstance(value, (list, tuple)):
        return "[%s]" % ", ".join(_to_json(v) for v in value)
    return _scalar_to_json(value)


def _scalar_to_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format_real(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _as_records(report) -> tuple[list[dict], bool]:
    # returns (records, was_single)
    if hasattr(report, "to_record"):
        report = report.to_record()
    if isinstance(report, Mapping):
        return [dict(report)], True
    if isinstance(report, Sequence) and not isinstance(report, (str, bytes)):
        records = []
        for item in report:
            if hasattr(item, "to_record"):
                item = item.to_record()
            if not isinstance(item, Mapping):
                raise InvalidArgument("report rows must be mappings or carry to_record()")
            records.append(dict(item))
        return records, False
    raise InvalidArgument("report must be a mapping, a sequence of mappings, or a record object")


def render_report(report, fmt: str = "json") -> str:
    """Serialize a record (or list of records) to a deterministic JSON or
    CSV string."""
    records, single = _as_records(report)
    if fmt == "json":
        if single:
            return _to_json(records[0]) + "\n"
        return _to_json(records) + "\n"
    if fmt == "csv":
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
            writer.writerow([_scalar_to_cell(record[k]) for k in keys])
        return buffer.getvalue()
    raise InvalidArgument(f"unknown report format {fmt!r}")


def write_report(report, path: str, fmt: str = "json") -> None:
    """Write a record (or list of records) to disk; serialization is
    bit-stable, so equal records yield byte-identical files."""
    text = render_report(report, fmt)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
