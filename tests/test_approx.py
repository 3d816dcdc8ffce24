from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdist import (
    ApproxParams,
    DimensionError,
    EmptyGroup,
    GroupPartition,
    InvalidArgument,
    LabeledDataset,
    ProjectionVector,
    approx_set_distance,
    default_m2,
    derived_seed,
    exact_set_distance,
    hfm_distances,
    partition_by_attribute,
    projection_scan_distance,
    sample_l1_unit_vector,
)
from fairdist import approx as approx_module
from fairdist.approx import _trial_rng

from conftest import (
    PRED,
    TRUE,
    full_scan_approx,
    full_scan_trial,
    make_dataset,
    naive_point_distance,
    project,
    random_grouped_dataset,
    reference_scan,
    sweep_datasets,
    trial_rng,
    two_group_dataset,
)


class TestSampleL1UnitVector:
    def test_l1_norm_is_one(self, rng):
        for dim in (1, 2, 5, 12):
            for _ in range(50):
                w = sample_l1_unit_vector(dim, rng)
                assert abs(np.abs(w.weights).sum() - 1.0) <= 1e-12

    def test_dim_one_is_a_sign(self, rng):
        values = {float(sample_l1_unit_vector(1, rng).weights[0]) for _ in range(40)}
        assert values <= {1.0, -1.0}
        assert len(values) == 2

    def test_coordinates_centered(self):
        # symmetry check: each coordinate has mean 0 within 3 standard errors
        gen = np.random.Generator(np.random.PCG64(7))
        draws = np.array([sample_l1_unit_vector(4, gen).weights for _ in range(100_000)])
        means = draws.mean(axis=0)
        stderr = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert (np.abs(means) <= 3 * stderr).all()

    def test_zero_dim_rejected(self, rng):
        with pytest.raises(InvalidArgument):
            sample_l1_unit_vector(0, rng)

    def test_invariants_enforced_on_construction(self):
        with pytest.raises(InvalidArgument):
            ProjectionVector(np.array([0.7, 0.7]))


class TestProject:
    def test_label_coordinate(self):
        w = ProjectionVector(np.array([1.0, 0.0, 0.0]))
        assert project(np.array([0.3, 0.9]), 2, w) == 2.0

    def test_dot_product_by_hand(self):
        w = ProjectionVector(np.array([0.5, -0.5]))
        assert project(np.array([0.5]), 2, w) == pytest.approx(0.75, abs=1e-15)

    def test_contraction_on_random_pairs(self, rng):
        for _ in range(200):
            dim = int(rng.integers(1, 6))
            w = sample_l1_unit_vector(dim + 1, rng)
            xa, xb = rng.uniform(size=dim), rng.uniform(size=dim)
            ya, yb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            gap = abs(project(xa, ya, w) - project(xb, yb, w))
            assert gap <= naive_point_distance(xa, ya, xb, yb) + 1e-12

    def test_dimension_mismatch(self):
        w = ProjectionVector(np.array([0.5, 0.5]))
        with pytest.raises(DimensionError):
            project(np.array([0.1, 0.2]), 1, w)


class TestProjectionScanDistance:
    def test_two_points_any_window(self, rng):
        ds, part = two_group_dataset([[0.1, 0.8]], [1], [[0.7, 0.2]], [2])
        expected = naive_point_distance([0.1, 0.8], 1, [0.7, 0.2], 2)
        for m2 in (1, 3):
            w = sample_l1_unit_vector(3, rng)
            assert projection_scan_distance(ds, part, TRUE, w, m2) == pytest.approx(expected)

    def test_full_window_recovers_exact(self, rng):
        for _ in range(25):
            ds = random_grouped_dataset(rng, n_lo=4, n_hi=30, with_predictions=False)
            part = partition_by_attribute(ds, 0)
            exact = exact_set_distance(ds, part, TRUE).value
            w = sample_l1_unit_vector(1 + ds.n_features, rng)
            got = projection_scan_distance(ds, part, TRUE, w, max(part.sizes))
            assert got == pytest.approx(exact, abs=1e-12)

    def test_never_below_exact(self, rng):
        ds = random_grouped_dataset(rng, n_lo=30, n_hi=30, with_predictions=False)
        part = partition_by_attribute(ds, 0)
        exact = exact_set_distance(ds, part, TRUE).value
        for _ in range(20):
            w = sample_l1_unit_vector(1 + ds.n_features, rng)
            assert projection_scan_distance(ds, part, TRUE, w, 3) >= exact - 1e-9

    def test_matches_pure_python_reference(self, rng):
        for _ in range(40):
            ds = random_grouped_dataset(rng, n_lo=4, n_hi=30)
            part = partition_by_attribute(ds, 0)
            source = TRUE if rng.integers(0, 2) else PRED
            m2 = int(rng.integers(1, 6))
            w = sample_l1_unit_vector(1 + ds.n_features, rng)
            got = projection_scan_distance(ds, part, source, w, m2)
            assert got == pytest.approx(reference_scan(ds, part, source, w, m2), abs=1e-12)

    def test_monotone_in_window_size(self, rng):
        ds = random_grouped_dataset(rng, n_lo=25, n_hi=25, with_predictions=False)
        part = partition_by_attribute(ds, 0)
        w = sample_l1_unit_vector(1 + ds.n_features, rng)
        values = [projection_scan_distance(ds, part, TRUE, w, m2) for m2 in range(1, 15)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_window_evaluation_budget(self, rng):
        # the scan may touch at most 2*m2 opposite points per anchor
        ds = random_grouped_dataset(rng, n_lo=20, n_hi=20, with_predictions=False)
        part = partition_by_attribute(ds, 0)
        w = sample_l1_unit_vector(1 + ds.n_features, rng)
        m2 = 3
        counted = _counting_reference(ds, part, TRUE, w, m2)
        assert counted <= 2 * m2 * ds.n


class TestApproxSetDistance:
    def test_m1_one_equals_single_scan(self):
        ds = random_grouped_dataset(
            np.random.Generator(np.random.PCG64(3)), n_lo=20, n_hi=20, with_predictions=False
        )
        part = partition_by_attribute(ds, 0)
        result = approx_set_distance(ds, part, TRUE, ApproxParams(m1=1, m2=4, seed=11))
        w = sample_l1_unit_vector(1 + ds.n_features, _trial_rng(11, 0))
        assert result.value == projection_scan_distance(ds, part, TRUE, w, 4)

    def test_overestimates_exact_on_sweep(self, rng):
        for i in range(60):
            ds = random_grouped_dataset(rng, n_lo=4, n_hi=40)
            part = partition_by_attribute(ds, 0)
            source = TRUE if i % 2 else PRED
            exact = exact_set_distance(ds, part, source).value
            got = approx_set_distance(ds, part, source, ApproxParams(m1=3, m2=2, seed=i))
            assert got.value >= exact - 1e-9

    def test_monotone_in_trial_count(self):
        ds = random_grouped_dataset(
            np.random.Generator(np.random.PCG64(9)), n_lo=40, n_hi=40, with_predictions=False
        )
        part = partition_by_attribute(ds, 0)
        values = [
            approx_set_distance(ds, part, TRUE, ApproxParams(m1=m1, m2=2, seed=5)).value
            for m1 in (1, 2, 5, 10, 25)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_deterministic(self):
        ds = random_grouped_dataset(
            np.random.Generator(np.random.PCG64(2)), n_lo=30, n_hi=30, with_predictions=False
        )
        part = partition_by_attribute(ds, 0)
        a = approx_set_distance(ds, part, TRUE, ApproxParams(m1=5, m2=3, seed=123))
        b = approx_set_distance(ds, part, TRUE, ApproxParams(m1=5, m2=3, seed=123))
        assert a.value == b.value

    def test_result_provenance(self, six_row_dataset):
        ds, part = six_row_dataset
        result = approx_set_distance(ds, part, TRUE, ApproxParams(m1=2, seed=1))
        assert result.method == "approx"
        assert (result.m1, result.m2, result.seed) == (2, default_m2(ds.n), 1)

    def test_empty_group_rejected(self):
        ds = make_dataset([[0.1], [0.2]], [1, 1], [1, 2])
        part = partition_by_attribute(ds, 0)
        with pytest.raises(EmptyGroup):
            approx_set_distance(ds, part, TRUE)


@st.composite
def scan_cases(draw):
    """A small dataset with two nonempty groups plus scan parameters.

    Features are rounded to one decimal half the time, so tied
    projections and duplicate rows occur; either group may be a
    singleton; m2 is either small or reaches past the larger group."""
    n = draw(st.integers(2, 40))
    nx = draw(st.integers(1, 4))
    n1 = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    sensitive = np.zeros(n, dtype=int)
    sensitive[rng.permutation(n)[:n1]] = 1
    features = rng.uniform(0.0, 1.0, size=(n, nx))
    if draw(st.booleans()):
        features = np.round(features, 1)
    labels = rng.integers(1, 4, size=n)
    predictions = rng.integers(1, 4, size=n)
    dataset = make_dataset(features, sensitive, labels, predictions)
    partition = partition_by_attribute(dataset, 0)
    m2 = draw(st.one_of(st.integers(1, 4), st.integers(max(partition.sizes), n + 2)))
    source = draw(st.sampled_from([TRUE, PRED]))
    return dataset, partition, source, m2


# derandomized: the examples are the same on every run
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# pair budget per chunk: small inputs fit one default chunk, so the
# smaller budgets make them reach the chunked completion and the early
# abandon between chunks (a budget of 1 finishes one anchor per chunk)
CHUNKING = st.sampled_from([1 << 15, 8, 1])


def chunked(pairs):
    return mock.patch.object(approx_module, "CHUNK_PAIRS", pairs)


class TestPrunedScanMatchesFullScan:
    """The prefix bound, best-first completion and early abandon must not
    change a single bit against the frozen full window scan."""

    @PROPERTY
    @given(scan_cases(), st.integers(1, 30), st.integers(0, 2**32 - 1), CHUNKING)
    def test_approx_hex_equal(self, case, m1, seed, chunking):
        dataset, partition, source, m2 = case
        with chunked(chunking):
            got = approx_set_distance(dataset, partition, source, ApproxParams(m1, m2, seed))
        want = full_scan_approx(dataset, partition, source, m1, m2, seed)
        assert got.value.hex() == want.hex()

    @PROPERTY
    @given(scan_cases(), st.integers(0, 2**32 - 1), CHUNKING, st.integers(0, 4))
    def test_trials_hex_equal(self, case, seed, chunking, axis):
        dataset, partition, source, m2 = case
        # an axis direction ties every pair of rows equal on that axis,
        # so the tie order of the sort matters
        dim = 1 + dataset.n_features
        directions = [ProjectionVector(np.eye(dim)[axis % dim])]
        directions += [sample_l1_unit_vector(dim, trial_rng(seed, trial)) for trial in range(4)]
        for w in directions:
            with chunked(chunking):
                got = projection_scan_distance(dataset, partition, source, w, m2)
            assert got.hex() == full_scan_trial(dataset, partition, source, w, m2).hex()

    def test_criterion_1_grid_hex_equal(self):
        for i, ds in enumerate(sweep_datasets()):
            part = partition_by_attribute(ds, 0)
            source = TRUE if i % 2 else PRED
            for m1 in (1, 5, 25):
                for m2 in (1, 3, default_m2(ds.n)):
                    seed = 7 * i + m1
                    got = approx_set_distance(ds, part, source, ApproxParams(m1, m2, seed))
                    want = full_scan_approx(ds, part, source, m1, m2, seed)
                    assert got.value.hex() == want.hex(), (i, m1, m2)

    def test_criterion_2_grid_hex_equal(self):
        datasets = sweep_datasets()
        seeds = np.random.Generator(np.random.PCG64(5)).integers(0, 2**31, size=len(datasets))
        for i, ds in enumerate(datasets):
            part = partition_by_attribute(ds, 0)
            source = TRUE if i % 2 else PRED
            m2 = max(part.sizes)
            for j in range(20):
                w = sample_l1_unit_vector(1 + ds.n_features, trial_rng(int(seeds[i]), j))
                got = projection_scan_distance(ds, part, source, w, m2)
                assert got.hex() == full_scan_trial(ds, part, source, w, m2).hex(), (i, j)


class TestDistanceProperties:
    @PROPERTY
    @given(scan_cases(), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_approx_never_below_exact(self, case, m1, seed):
        dataset, partition, source, m2 = case
        approx = approx_set_distance(dataset, partition, source, ApproxParams(m1, m2, seed))
        exact = exact_set_distance(dataset, partition, source)
        assert approx.value >= exact.value * (1 - 1e-12)

    @PROPERTY
    @given(scan_cases(), st.integers(0, 2**32 - 1))
    def test_exact_invariant_under_group_swap_and_row_permutation(self, case, seed):
        dataset, partition, source, _ = case
        want = exact_set_distance(dataset, partition, source).value
        swapped = GroupPartition((0,), partition.group1, partition.group0, dataset.n)
        assert exact_set_distance(dataset, swapped, source).value == want
        perm = np.random.Generator(np.random.PCG64(seed)).permutation(dataset.n)
        permuted = LabeledDataset(
            dataset.features[perm],
            dataset.sensitive[perm],
            dataset.labels[perm],
            dataset.predictions[perm],
        )
        got = exact_set_distance(permuted, partition_by_attribute(permuted, 0), source)
        assert got.value == want

    @PROPERTY
    @given(scan_cases(), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_approx_reruns_repeat_bits(self, case, m1, seed):
        dataset, partition, source, m2 = case
        params = ApproxParams(m1, m2, seed)
        first = approx_set_distance(dataset, partition, source, params)
        second = approx_set_distance(dataset, partition, source, params)
        assert first.value.hex() == second.value.hex()

    @PROPERTY
    @given(scan_cases(), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_hfm_distances_use_the_derived_seeds(self, case, m1, seed):
        dataset, partition, _, m2 = case
        d, d_f = hfm_distances(dataset, partition, "approx", ApproxParams(m1, m2, seed))
        for got, source, tag in ((d, TRUE, "D"), (d_f, PRED, "Df")):
            params = ApproxParams(m1, m2, derived_seed(seed, tag))
            want = approx_set_distance(dataset, partition, source, params)
            assert got.value.hex() == want.value.hex()
            assert (got.label_source, got.m1, got.m2, got.seed) == (
                source, m1, want.m2, want.seed,
            )


class TestDefaultM2:
    def test_log10_arithmetic(self):
        assert default_m2(1000) == 6
        assert default_m2(10) == 2

    def test_clamped_at_one(self):
        assert default_m2(1) == 1

    def test_invalid(self):
        with pytest.raises(InvalidArgument):
            default_m2(0)


def _counting_reference(dataset, partition, source, w, m2):
    """Distance evaluations performed by the windowed scan, counted on the
    pure-Python route."""
    values = dataset.values_for(source).astype(float)
    projected = [
        float(w.weights[0] * values[i] + w.weights[1:] @ dataset.features[i])
        for i in range(dataset.n)
    ]
    order = sorted(range(dataset.n), key=lambda i: (projected[i], i))
    in_group1 = set(int(i) for i in partition.group1)
    evaluations = 0
    for position, row in enumerate(order):
        mine = row in in_group1
        for step in (range(position - 1, -1, -1), range(position + 1, dataset.n)):
            found = 0
            for q in step:
                if (order[q] in in_group1) != mine:
                    evaluations += 1
                    found += 1
                    if found == m2:
                        break
    return evaluations
