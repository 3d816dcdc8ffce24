import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdist import (
    GroupPartition,
    LabeledDataset,
    LabelSource,
    exact_set_distance,
    partition_by_attribute,
)
from fairdist import exact as exact_module
from fairdist.errors import EmptyGroup, InvalidArgument, MissingPredictions
from fairdist.exact import tree_set_distance

from conftest import (
    PRED,
    TRUE,
    make_dataset,
    naive_point_distance,
    naive_set_distance_of,
    random_grouped_dataset,
    sweep_datasets,
    two_group_dataset,
)


class TestPointDistance:
    # the point metric, on the naive oracle the exact tests compare against
    def test_identical_points(self):
        assert naive_point_distance(np.array([0.3, 0.7]), 2, np.array([0.3, 0.7]), 2) == 0.0

    def test_label_difference_only(self):
        # same features, labels 1 vs 2: the distance is the label gap
        assert naive_point_distance(np.array([0.3, 0.7]), 1, np.array([0.3, 0.7]), 2) == 1.0

    def test_three_four_five(self):
        got = naive_point_distance(np.array([0.0, 0.0]), 1, np.array([0.3, 0.4]), 1)
        assert got == pytest.approx(0.5, abs=1e-15)


class TestExactSetDistance:
    def test_identical_groups_distance_zero(self):
        ds, part = two_group_dataset([[0.2], [0.8]], [1, 2], [[0.2], [0.8]], [1, 2])
        assert exact_set_distance(ds, part, TRUE).value == 0.0

    def test_same_set_is_zero(self):
        # one point set, listed in another order in each group
        ds, part = two_group_dataset([[0.1], [0.9]], [1, 2], [[0.9], [0.1]], [2, 1])
        assert exact_set_distance(ds, part, TRUE).value == 0.0

    def test_nested_loop_by_hand(self):
        # {0.0, 0.2} to {1.0}, all labels equal: directed terms max(1.0, 0.8)
        # = 1.0 and 0.8, so the symmetric distance is 1.0
        ds, part = two_group_dataset([[0.0], [0.2]], [1, 1], [[1.0]], [1])
        assert exact_set_distance(ds, part, TRUE).value == pytest.approx(1.0, abs=1e-15)
        # {0.2} to {1.0, 0.0}: 0.2 one way, max(0.8, 0.2) = 0.8 the other,
        # so the larger directed term comes from group 1 here
        ds, part = two_group_dataset([[0.2]], [1], [[1.0], [0.0]], [1, 1])
        assert exact_set_distance(ds, part, TRUE).value == pytest.approx(0.8, abs=1e-15)

    def test_singletons_three_four_five(self):
        ds, part = two_group_dataset([[0.0, 0.0]], [1], [[0.3, 0.4]], [1])
        assert exact_set_distance(ds, part, TRUE).value == pytest.approx(0.5, abs=1e-15)

    def test_six_row_fixture(self, six_row_dataset):
        ds, part = six_row_dataset
        assert exact_set_distance(ds, part, TRUE).value == pytest.approx(1.0, abs=1e-15)

    def test_symmetry_under_group_swap(self, six_row_dataset):
        ds, part = six_row_dataset
        swapped = GroupPartition(
            attr_indices=part.attr_indices, group0=part.group1, group1=part.group0, n=part.n
        )
        assert exact_set_distance(ds, part, TRUE).value == exact_set_distance(
            ds, swapped, TRUE
        ).value

    def test_against_naive_oracle(self, rng):
        for _ in range(40):
            ds = random_grouped_dataset(rng, n_lo=4, n_hi=30)
            part = _partition(ds)
            for source in (TRUE, PRED):
                expected = naive_set_distance_of(ds, part, source)
                got = exact_set_distance(ds, part, source).value
                assert got == pytest.approx(expected, abs=1e-12)

    def test_naive_oracle_cost_is_2_n0_n1(self, rng):
        ds = random_grouped_dataset(rng, n_lo=10, n_hi=20)
        part = _partition(ds)
        counter = [0]
        naive_set_distance_of(ds, part, TRUE, counter)
        n0, n1 = part.sizes
        assert counter[0] == 2 * n0 * n1

    def test_zero_iff_equal_point_sets(self):
        # same points with different multiplicities still count as equal sets
        ds, part = two_group_dataset(
            [[0.1], [0.1], [0.6]], [1, 1, 2], [[0.1], [0.6], [0.6]], [1, 2, 2]
        )
        assert exact_set_distance(ds, part, TRUE).value == 0.0
        ds2, part2 = two_group_dataset([[0.1]], [1], [[0.1]], [2])
        assert exact_set_distance(ds2, part2, TRUE).value > 0.0

    def test_shared_features_bounded_by_label_gap(self, rng):
        # both groups on one feature grid: distance <= max label disagreement
        points = rng.uniform(size=(8, 2))
        labels0 = rng.integers(1, 4, size=8)
        labels1 = rng.integers(1, 4, size=8)
        ds, part = two_group_dataset(points, labels0, points, labels1)
        bound = np.abs(labels0 - labels1).max()
        assert exact_set_distance(ds, part, TRUE).value <= bound + 1e-12

    def test_triangle_inequality_sampled(self, rng):
        for _ in range(30):
            sizes = rng.integers(1, 6, size=3)
            sets = [
                (rng.uniform(size=(s, 2)), rng.integers(1, 3, size=s)) for s in sizes
            ]
            dist = {}
            for i, j in ((0, 1), (1, 2), (0, 2)):
                ds, part = two_group_dataset(sets[i][0], sets[i][1], sets[j][0], sets[j][1])
                dist[i, j] = exact_set_distance(ds, part, TRUE).value
            assert dist[0, 2] <= dist[0, 1] + dist[1, 2] + 1e-9

    def test_empty_group_rejected(self):
        ds = make_dataset([[0.1], [0.2]], [1, 1], [1, 2])
        part = GroupPartition(
            attr_indices=(0,), group0=np.array([], dtype=int), group1=np.array([0, 1]), n=2
        )
        with pytest.raises(EmptyGroup):
            exact_set_distance(ds, part, TRUE)

    def test_empty_side(self):
        # the privileged side empty: rejected like an empty group0
        ds = make_dataset([[0.1]], [0], [1])
        part = GroupPartition(
            attr_indices=(0,), group0=np.array([0]), group1=np.array([], dtype=int), n=1
        )
        with pytest.raises(EmptyGroup):
            exact_set_distance(ds, part, TRUE)

    def test_predictions_source_requires_predictions(self, six_row_dataset):
        ds, part = six_row_dataset
        with pytest.raises(MissingPredictions):
            exact_set_distance(ds, part, LabelSource.PREDICTIONS)

    def test_result_provenance(self, six_row_dataset):
        ds, part = six_row_dataset
        result = exact_set_distance(ds, part, TRUE)
        assert result.method == "exact"
        assert (result.m1, result.m2, result.seed) == (None, None, None)
        assert result.elapsed_ns > 0

    def test_result_params_invariant(self):
        from fairdist import DistanceResult

        with pytest.raises(InvalidArgument):
            DistanceResult(value=1.0, method="approx", label_source=TRUE, elapsed_ns=1)
        with pytest.raises(InvalidArgument):
            DistanceResult(
                value=1.0, method="exact", label_source=TRUE, elapsed_ns=1, m1=5, m2=2, seed=0
            )
        with pytest.raises(InvalidArgument):
            DistanceResult(value=-0.5, method="exact", label_source=TRUE, elapsed_ns=1)


def _partition(ds):
    return partition_by_attribute(ds, 0)


@st.composite
def tree_cases(draw):
    """A small dataset with two nonempty groups and a label source.

    Labels take one to three values, not always consecutive. Features lie
    on the grid {0, 0.5, 1} half the time, so tied distances, duplicate
    rows and distances of exactly 1 occur; either group may be a
    singleton, and a dataset may have no features at all."""
    n = draw(st.integers(2, 40))
    nx = draw(st.integers(0, 4))
    n1 = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    label_values = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    sensitive = np.zeros((n, 1), dtype=int)
    sensitive[rng.permutation(n)[:n1]] = 1
    features = rng.uniform(0.0, 1.0, size=(n, nx))
    if draw(st.booleans()):
        features = np.round(features * 2) / 2
    labels = rng.choice(label_values, size=n)
    predictions = rng.choice(label_values, size=n)
    dataset = LabeledDataset(features, sensitive, labels, predictions)
    return dataset, _partition(dataset), draw(st.sampled_from([TRUE, PRED]))


# derandomized: the examples are the same on every run
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class _RoundingTree:
    """A k-d tree whose distances are one rounding step off the true
    ones, up on odd query rows and down on even ones."""

    def __init__(self, data):
        from scipy.spatial import cKDTree

        self._tree = cKDTree(data)

    def query(self, x):
        distance, index = self._tree.query(x)
        toward = np.where(np.arange(len(distance)) % 2, np.inf, 0.0)
        return np.nextafter(distance, toward), index


def _rounding_trees():
    _, cdist = exact_module._scipy_spatial()
    return mock.patch.object(exact_module, "_scipy_spatial", lambda: (_RoundingTree, cdist))


def _hex_of(result_or_value):
    return float(getattr(result_or_value, "value", result_or_value)).hex()


class TestTreeSetDistance:
    """The label-stratified tree route must return brute force's value
    bit for bit, whatever rounding its tree queries make."""

    @PROPERTY
    @given(tree_cases())
    def test_hex_equal_to_brute_force_and_naive(self, case):
        dataset, partition, source = case
        got = tree_set_distance(dataset, partition, source)
        assert _hex_of(got) == _hex_of(exact_set_distance(dataset, partition, source))
        assert _hex_of(got) == _hex_of(naive_set_distance_of(dataset, partition, source))

    @PROPERTY
    @given(tree_cases())
    def test_tree_rounding_does_not_reach_the_value(self, case):
        # the tied anchors are recomputed by the pair kernel, so a tree
        # that rounds differently from it cannot change a bit
        dataset, partition, source = case
        with _rounding_trees():
            got = tree_set_distance(dataset, partition, source)
        assert _hex_of(got) == _hex_of(exact_set_distance(dataset, partition, source))

    def test_no_same_label_row_falls_back(self):
        # group 0 predicts only class 1 and group 1 only class 2, so no
        # anchor has a same-label tree to query
        points0, points1 = [[0.1, 0.2], [0.9, 0.4]], [[0.3, 0.3], [0.5, 1.0], [0.0, 0.0]]
        features = np.array(points0 + points1)
        sensitive = np.array([[0], [0], [1], [1], [1]])
        ds = LabeledDataset(features, sensitive, [1, 2, 2, 1, 2], [1, 1, 2, 2, 2])
        part = _partition(ds)
        for source in (TRUE, PRED):
            got = tree_set_distance(ds, part, source)
            assert _hex_of(got) == _hex_of(exact_set_distance(ds, part, source))
            assert _hex_of(got) == _hex_of(naive_set_distance_of(ds, part, source))
        assert tree_set_distance(ds, part, PRED).value > 1.0

    def test_same_label_row_farther_than_one_falls_back(self):
        # the anchors (0, 0) and (0, 0.1) with label 1 have their only
        # same-label opposite row at (1, 1), more than 1 away, and an
        # opposite row with label 2 at (0, 0), 1 and sqrt(1.01) away.
        # Every other row has a copy opposite, so the second anchor sets
        # the distance; the first one's same-label sqrt(2) must not hide it
        ds, part = two_group_dataset(
            [[0.0, 0.0], [0.0, 0.1], [1.0, 1.0], [0.0, 0.0]],
            [1, 1, 1, 2],
            [[1.0, 1.0], [0.0, 0.0]],
            [1, 2],
        )
        got = tree_set_distance(ds, part, TRUE)
        assert got.value == pytest.approx(np.sqrt(1.01), abs=1e-15)
        assert _hex_of(got) == _hex_of(exact_set_distance(ds, part, TRUE))

    @PROPERTY
    @given(tree_cases())
    def test_recompute_never_costs_more_than_brute_force(self, case):
        dataset, partition, source = case
        pairs = [0]
        kernel = exact_module._pair_minima

        def counted(za, zb, cdist):
            pairs[0] += len(za) * len(zb)
            return kernel(za, zb, cdist)

        with mock.patch.object(exact_module, "_pair_minima", counted):
            tree_set_distance(dataset, partition, source)
        n0, n1 = partition.sizes
        assert pairs[0] <= n0 * n1

    def test_same_points_in_both_groups(self):
        # every anchor ties at 0, so the recompute is one brute-force pass
        points = np.random.Generator(np.random.PCG64(3)).uniform(size=(50, 2))
        labels = np.arange(50) % 3 + 1
        ds, part = two_group_dataset(points, labels, points[::-1], labels[::-1])
        assert tree_set_distance(ds, part, TRUE).value == 0.0

    def test_criterion_sweeps_hex_equal(self):
        # the datasets of acceptance criteria 1 and 2, on both sources
        for i, ds in enumerate(sweep_datasets()):
            part = _partition(ds)
            for source in (TRUE, PRED):
                got = tree_set_distance(ds, part, source)
                assert _hex_of(got) == _hex_of(exact_set_distance(ds, part, source)), (i, source)

    def test_memory_bounded_in_n(self, rng):
        # the full pair matrix of these 20,000 rows would take 760 MB; the
        # pair kernel's blocks and their minima take 17 MiB at most
        ds = random_grouped_dataset(rng, n_lo=20_000, n_hi=20_000, nx_hi=3)
        part = _partition(ds)
        exact_module._scipy_spatial()  # the first import allocates too
        tracemalloc.start()
        try:
            tree_set_distance(ds, part, TRUE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_result_and_rejections_match_brute_force(self, six_row_dataset):
        ds, part = six_row_dataset
        result = tree_set_distance(ds, part, TRUE)
        assert (result.method, result.label_source) == ("exact", TRUE)
        assert (result.m1, result.m2, result.seed) == (None, None, None)
        assert result.elapsed_ns > 0
        with pytest.raises(MissingPredictions):
            tree_set_distance(ds, part, PRED)
        one_sided = GroupPartition(
            attr_indices=(0,), group0=np.arange(ds.n), group1=np.array([], dtype=int), n=ds.n
        )
        with pytest.raises(EmptyGroup):
            tree_set_distance(ds, one_sided, TRUE)
