import numpy as np
import pytest

from fairdist import GroupPartition, LabelSource, exact_set_distance
from fairdist.errors import EmptyGroup, InvalidArgument, MissingPredictions

from conftest import (
    PRED,
    TRUE,
    make_dataset,
    naive_point_distance,
    naive_set_distance_of,
    random_grouped_dataset,
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
    from fairdist import partition_by_attribute

    return partition_by_attribute(ds, 0)
