"""Shared fixtures and independent reference oracles.

The oracles here are deliberately naive (pure-Python nested loops) so the
vectorized implementations are checked against an independent route, not
against themselves.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from fairdist import (
    DimensionError,
    GroupPartition,
    LabeledDataset,
    LabelSource,
    ProjectionVector,
    SynthSpec,
    sample_l1_unit_vector,
    synth_dataset,
)


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
    if counter is not None:
        counter[0] += 1
    total = (ya - yb) ** 2
    for a, b in zip(xa, xb):
        total += (a - b) ** 2
    return math.sqrt(total)


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
