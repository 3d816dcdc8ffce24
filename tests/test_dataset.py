import numpy as np
import pytest

from fairdist import LabeledDataset, joint_partition, partition_by_attribute
from fairdist.errors import DimensionError, InvalidArgument, UnsupportedAttributeArity

from conftest import make_dataset


class TestPartitionByAttribute:
    def test_four_rows(self):
        ds = make_dataset([[0.1], [0.2], [0.3], [0.4]], [0, 1, 1, 0], [1, 1, 1, 1])
        part = partition_by_attribute(ds, 0)
        assert part.group0.tolist() == [0, 3]
        assert part.group1.tolist() == [1, 2]

    def test_all_privileged_gives_empty_group0(self):
        ds = make_dataset([[0.1], [0.2]], [1, 1], [1, 1])
        part = partition_by_attribute(ds, 0)
        assert part.group0.tolist() == []
        assert part.has_empty_group

    def test_six_row_counts(self):
        # attr pattern 1,0,1,0,0,1 splits 3 / 3 by hand count
        ds = make_dataset(np.linspace(0, 1, 6), [1, 0, 1, 0, 0, 1], [1] * 6)
        part = partition_by_attribute(ds, 0)
        assert part.sizes == (3, 3)

    def test_non_binary_column_rejected(self):
        ds = make_dataset([[0.1], [0.2]], [0, 2], [1, 1])
        with pytest.raises(UnsupportedAttributeArity):
            partition_by_attribute(ds, 0)

    def test_out_of_range_index(self):
        ds = make_dataset([[0.1]], [0], [1])
        with pytest.raises(InvalidArgument):
            partition_by_attribute(ds, 3)

    def test_is_true_partition_on_random_data(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            ds = make_dataset(
                rng.uniform(size=(n, 2)), rng.integers(0, 2, size=n), rng.integers(1, 4, size=n)
            )
            part = partition_by_attribute(ds, 0)
            combined = np.concatenate([part.group0, part.group1])
            assert sorted(combined.tolist()) == list(range(n))
            assert not set(part.group0) & set(part.group1)


class TestJointPartition:
    def test_and_of_indicators(self):
        ds = make_dataset([[0.1], [0.2], [0.3]], [[1, 1], [1, 0], [0, 1]], [1, 1, 1])
        part = joint_partition(ds, [0, 1])
        assert part.group1.tolist() == [0]
        assert part.group0.tolist() == [1, 2]

    def test_single_attribute_reduces(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 20))
            ds = make_dataset(
                rng.uniform(size=(n, 1)),
                rng.integers(0, 2, size=(n, 2)),
                rng.integers(1, 3, size=n),
            )
            joint = joint_partition(ds, [1])
            single = partition_by_attribute(ds, 1)
            assert joint.group0.tolist() == single.group0.tolist()
            assert joint.group1.tolist() == single.group1.tolist()

    def test_hand_counted_fixture(self):
        # rows privileged in both attrs: 2 of 5
        ds = make_dataset(
            np.linspace(0, 1, 5),
            [[1, 1], [1, 1], [1, 0], [0, 1], [0, 0]],
            [1] * 5,
        )
        part = joint_partition(ds, [0, 1])
        assert len(part.group1) == 2

    def test_empty_index_list(self):
        ds = make_dataset([[0.1]], [1], [1])
        with pytest.raises(InvalidArgument):
            joint_partition(ds, [])


class TestValidation:
    def test_features_out_of_range(self):
        with pytest.raises(InvalidArgument):
            make_dataset([[1.5]], [0], [1])

    def test_nan_features(self):
        with pytest.raises(InvalidArgument):
            make_dataset([[np.nan]], [0], [1])

    def test_nonpositive_labels(self):
        with pytest.raises(InvalidArgument):
            make_dataset([[0.5]], [0], [0])

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionError):
            LabeledDataset(np.zeros((2, 1)), np.zeros((3, 1), dtype=int), np.array([1, 1]))

    def test_empty_dataset(self):
        with pytest.raises(InvalidArgument):
            LabeledDataset(np.zeros((0, 1)), np.zeros((0, 1), dtype=int), np.array([], dtype=int))

    @pytest.mark.parametrize("name", ["predictions", "predictions_flipped"])
    def test_prediction_vectors_checked(self, name):
        base = (np.zeros((2, 1)), np.zeros((2, 1), dtype=int), np.array([1, 1]))
        with pytest.raises(DimensionError):
            LabeledDataset(*base, **{name: np.array([1])})
        with pytest.raises(InvalidArgument):
            LabeledDataset(*base, **{name: np.array([1, 0])})
        ds = LabeledDataset(*base, **{name: np.array([2, 1])})
        with pytest.raises(ValueError):
            getattr(ds, name)[0] = 1

    def test_arrays_immutable(self):
        ds = make_dataset([[0.5]], [0], [1])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 0.7

    def test_predictions_required_for_source(self):
        from fairdist import LabelSource
        from fairdist.errors import MissingPredictions

        ds = make_dataset([[0.5]], [0], [1])
        with pytest.raises(MissingPredictions):
            ds.values_for(LabelSource.PREDICTIONS)
