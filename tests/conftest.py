"""Shared fixtures and independent reference oracles.

The oracles here are deliberately naive (pure-Python nested loops) so the
vectorized implementations are checked against an independent route, not
against themselves.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from fairdist import GroupPartition, LabeledDataset, LabelSource
from fairdist.approx import ProjectionVector, sample_l1_unit_vector
from fairdist.bench import SynthSpec, synth_dataset
from fairdist.errors import DimensionError, IoError, MissingValue, ParseError, SchemaMismatch
from fairdist.io import ScalingReport


def make_dataset(features, sensitive, labels, predictions=None) -> LabeledDataset:
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[0] == 1 and len(np.asarray(labels).ravel()) > 1:
        features = features.T
    sensitive = np.asarray(sensitive)
    if sensitive.ndim == 1:
        sensitive = sensitive[:, None]
    return LabeledDataset(features, sensitive, np.asarray(labels), predictions)


def two_group_dataset(points0, labels0, points1, labels1):
    """Bundle two raw point sets into one dataset plus its partition."""
    points0 = np.atleast_2d(np.asarray(points0, dtype=float))
    points1 = np.atleast_2d(np.asarray(points1, dtype=float))
    features = np.vstack([points0, points1])
    sensitive = np.array([0] * len(points0) + [1] * len(points1))[:, None]
    labels = np.concatenate([labels0, labels1])
    dataset = LabeledDataset(features, sensitive, labels)
    partition = GroupPartition(
        attr_indices=(0,),
        group0=np.arange(len(points0)),
        group1=np.arange(len(points0), len(points0) + len(points1)),
        n=len(labels),
    )
    return dataset, partition


def naive_point_distance(xa, ya, xb, yb, counter=None) -> float:
    """The Euclidean distance of [ya, xa...] and [yb, xb...], its squared
    differences summed in column order. Each square is a product: `** 2`
    goes through the C library's pow, which need not round as x * x."""
    if counter is not None:
        counter[0] += 1
    total = (ya - yb) * (ya - yb)
    for a, b in zip(xa, xb):
        total += (a - b) * (a - b)
    return math.sqrt(total)


def column_order_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The squared distances from each row of a to each row of b, summed
    in column order over the whole matrix at once, without blocks: kept
    frozen as the reference for the pair kernel on inputs too large for
    `naive_point_distance`."""
    total = np.zeros((len(a), len(b)))
    for j in range(a.shape[1]):
        diff = a[:, j, None] - b[:, j]
        total += diff * diff
    return total


def project(features: np.ndarray, value: float, w: ProjectionVector) -> float:
    """Inner product of one point [value, features...] with the direction."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 1 or len(features) + 1 != w.dim:
        raise DimensionError("feature vector length must be projection dim - 1")
    return float(w.weights[0] * value + (w.weights[1:] * features).sum())


def naive_directed(points_from, values_from, points_to, values_to, counter=None) -> float:
    worst = 0.0
    for xa, ya in zip(points_from, values_from):
        nearest = min(
            naive_point_distance(xa, ya, xb, yb, counter)
            for xb, yb in zip(points_to, values_to)
        )
        worst = max(worst, nearest)
    return worst


def naive_set_distance(points0, values0, points1, values1, counter=None) -> float:
    return max(
        naive_directed(points0, values0, points1, values1, counter),
        naive_directed(points1, values1, points0, values0, counter),
    )


def naive_set_distance_of(dataset, partition, source, counter=None) -> float:
    values = dataset.values_for(source).astype(float)
    g0, g1 = partition.group0, partition.group1
    return naive_set_distance(
        dataset.features[g0], values[g0], dataset.features[g1], values[g1], counter
    )


def reference_scan(dataset, partition, source, w, m2) -> float:
    """Pure-Python re-implementation of the sorted-window scan: project,
    stable-sort, walk outward collecting at most m2 opposite-group points
    per side, min per anchor, max over anchors."""
    values = dataset.values_for(source).astype(float)
    projected = [
        float(w.weights[0] * values[i] + w.weights[1:] @ dataset.features[i])
        for i in range(dataset.n)
    ]
    order = sorted(range(dataset.n), key=lambda i: (projected[i], i))
    in_group1 = set(int(i) for i in partition.group1)
    worst = 0.0
    for position, row in enumerate(order):
        mine = row in in_group1
        candidates = []
        found = 0
        for q in range(position - 1, -1, -1):
            other = order[q]
            if (other in in_group1) != mine:
                candidates.append(other)
                found += 1
                if found == m2:
                    break
        found = 0
        for q in range(position + 1, dataset.n):
            other = order[q]
            if (other in in_group1) != mine:
                candidates.append(other)
                found += 1
                if found == m2:
                    break
        nearest = min(
            naive_point_distance(dataset.features[row], values[row],
                                 dataset.features[other], values[other])
            for other in candidates
        )
        worst = max(worst, nearest)
    return worst


def full_scan_trial(dataset, partition, source, w, m2) -> float:
    """One trial by the vectorised full window scan, kept frozen as the
    reference: project, stable-sort, evaluate every window offset for
    every anchor, min per anchor, max over anchors. The pruned kernel
    must reproduce its values bit for bit."""
    values = dataset.values_for(source).astype(np.float64)
    projected = w.weights[0] * values + (dataset.features * w.weights[1:]).sum(axis=1)
    order = np.argsort(projected, kind="stable")
    in_group1 = np.zeros(dataset.n, dtype=bool)
    in_group1[partition.group1] = True
    sorted_in_group1 = in_group1[order]
    z_sorted = np.column_stack([values[order], dataset.features[order]])
    pos0 = np.nonzero(~sorted_in_group1)[0]
    pos1 = np.nonzero(sorted_in_group1)[0]
    worst = 0.0
    for anchors, opponents in ((pos0, pos1), (pos1, pos0)):
        minima = _full_window_minima(z_sorted, anchors, opponents, m2)
        worst = max(worst, float(minima.max()))
    return worst


def _full_window_minima(z_sorted, anchor_pos, opposite_pos, m2):
    # one window offset at a time: the anchors with a k-th left (right)
    # opposite neighbor form a suffix (prefix) slice
    n_opp = len(opposite_pos)
    za = z_sorted[anchor_pos]
    z_opp = z_sorted[opposite_pos]
    n_left = np.searchsorted(opposite_pos, anchor_pos)
    best = np.full(len(anchor_pos), np.inf)
    for k in range(1, m2 + 1):
        start = int(np.searchsorted(n_left, k))
        if start < len(anchor_pos):
            diff = za[start:] - z_opp[n_left[start:] - k]
            np.minimum(best[start:], np.einsum("ij,ij->i", diff, diff), out=best[start:])
        stop = int(np.searchsorted(n_left, n_opp - k, side="right"))
        if stop > 0:
            diff = za[:stop] - z_opp[n_left[:stop] + (k - 1)]
            np.minimum(best[:stop], np.einsum("ij,ij->i", diff, diff), out=best[:stop])
    return np.sqrt(best)


def dense_scaled_density(points, d, radii=None) -> float:
    """estimate_scaled_density by the original dense formula, kept frozen
    as the reference: one n x n x dim difference tensor, then neighbour
    counts per radius. The blockwise version must match it exactly."""
    points = np.asarray(points, dtype=np.float64)
    if radii is None:
        radii = d * np.geomspace(0.25, 4.0, 9)
    dim = points.shape[1]
    diff = points[:, None, :] - points[None, :, :]
    pairwise = np.sqrt((diff * diff).sum(axis=2))
    volume = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    best = 0.0
    for r in np.asarray(radii, dtype=np.float64):
        counts = (pairwise <= r).sum(axis=1)
        density = counts.min() / volume / r**dim
        best = max(best, float(density))
    return best * volume * d**dim


def _rowwise_label(cell, line, column, label_values) -> int:
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


def _rowwise_rows(path):
    try:
        # "utf-8-sig" drops a leading byte-order mark, as load_csv does
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise SchemaMismatch(f"{path}: file is empty")
    header, data = rows[0], rows[1:]
    if not data:
        raise SchemaMismatch(f"{path}: file has a header but no data rows")
    return header, data


def _rowwise_index(header, name, path) -> int:
    hits = [i for i, h in enumerate(header) if h == name]
    if not hits:
        raise SchemaMismatch(f"{path}: column {name!r} not found in header")
    if len(hits) > 1:
        raise SchemaMismatch(f"{path}: column {name!r} appears more than once")
    return hits[0]


def copying_minmax_scale(matrix, names):
    """minmax_scale as it was before it scaled in place, kept frozen as the
    reference: a new scaled block, the argument left as it is."""
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
            scaled[:, j] = (matrix[:, j] / 2 - lo / 2) / (hi / 2 - lo / 2)
        else:
            scaled[:, j] = 0.0
            constant.append(name)
    return scaled, ScalingReport(tuple(ranges), tuple(constant))


def rowwise_load_csv(path, schema):
    """load_csv by the original reader, kept frozen as the reference: the
    whole file as a list of string rows, then every cell converted and
    checked in row-major order. Returns (features, sensitive, labels,
    predictions, scaling report); the streaming reader must match it bit
    for bit and raise the same errors."""
    header, data = _rowwise_rows(path)
    feat_idx = [_rowwise_index(header, name, path) for name in schema.feature_columns]
    sens_idx = [_rowwise_index(header, name, path) for name, _ in schema.sensitive_columns]
    label_idx = _rowwise_index(header, schema.label_column, path)
    pred_idx = (
        _rowwise_index(header, schema.prediction_column, path)
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
        labels[i] = _rowwise_label(row[label_idx], line, schema.label_column, schema.label_values)
        if predictions is not None:
            predictions[i] = _rowwise_label(
                row[pred_idx], line, schema.prediction_column, schema.label_values
            )
    features, report = copying_minmax_scale(raw_features, schema.feature_columns)
    return features, sensitive, labels, predictions, report


def rowwise_read_int_column(path, column, label_values=None) -> np.ndarray:
    """read_int_column by the original reader (a second whole-file read
    that looks at one column only), kept frozen as the reference."""
    header, data = _rowwise_rows(path)
    idx = _rowwise_index(header, column, path)
    out = np.empty(len(data), dtype=np.int64)
    for i, row in enumerate(data):
        out[i] = _rowwise_label(row[idx], i + 2, column, label_values)
    return out


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The documented per-trial stream: trial j of master seed s draws
    from SeedSequence(s, spawn_key=(j,))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial,))))


def full_scan_approx(dataset, partition, source, m1, m2, seed) -> float:
    """approx_set_distance by the frozen full scan: the minimum over m1
    trials of the documented seed stream."""
    return min(
        full_scan_trial(
            dataset,
            partition,
            source,
            sample_l1_unit_vector(1 + dataset.n_features, trial_rng(seed, trial)),
            m2,
        )
        for trial in range(m1)
    )


def sweep_datasets(count=200, n_lo=10, n_hi=300, seed=20240601):
    """Random small datasets with nonempty groups and predictions."""
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    while len(out) < count:
        n = int(rng.integers(n_lo, n_hi + 1))
        n_x = int(rng.integers(1, 9))
        fraction = float(rng.uniform(0.1, 0.9))
        if not 1 <= round(n * fraction) <= n - 1:
            continue
        spec = SynthSpec(
            n=n,
            n_x=n_x,
            group_fraction=fraction,
            cluster_separation=float(rng.choice([0.0, 0.2, 0.4])),
            seed=int(rng.integers(0, 2**31)),
            with_predictions=True,
        )
        out.append(synth_dataset(spec))
    return out


def random_grouped_dataset(rng, n_lo=6, n_hi=40, nx_hi=4, with_predictions=True):
    """A small random dataset guaranteed to have two nonempty groups."""
    n = int(rng.integers(n_lo, n_hi + 1))
    nx = int(rng.integers(1, nx_hi + 1))
    sensitive = np.zeros(n, dtype=int)
    n1 = int(rng.integers(1, n))
    sensitive[rng.permutation(n)[:n1]] = 1
    features = rng.uniform(0.0, 1.0, size=(n, nx))
    labels = rng.integers(1, 3, size=n)
    predictions = rng.integers(1, 3, size=n) if with_predictions else None
    return make_dataset(features, sensitive, labels, predictions)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240809))


@pytest.fixture
def six_row_dataset():
    # groups {(0.0,1),(0.2,1),(0.5,2)} vs {(1.0,1),(0.9,2),(0.4,2)}:
    # directed max-mins are 1.0 and 0.8, so the distance is 1.0
    return two_group_dataset(
        [[0.0], [0.2], [0.5]], [1, 1, 2], [[1.0], [0.9], [0.4]], [1, 2, 2]
    )


TRUE = LabelSource.TRUE_LABELS
PRED = LabelSource.PREDICTIONS
