import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace
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
from fairdist.exact import early_break_set_distance, tree_set_distance

from conftest import (
    PRED,
    TRUE,
    column_order_squares,
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
    on the grid {0, 0.5, 1} or are binary two times in three, so tied
    distances, duplicate rows and distances of exactly 1 occur; either
    group may be a singleton, and a dataset may have no features at all."""
    n = draw(st.integers(2, 40))
    nx = draw(st.integers(0, 4))
    n1 = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    label_values = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    sensitive = np.zeros((n, 1), dtype=int)
    sensitive[rng.permutation(n)[:n1]] = 1
    features = rng.uniform(0.0, 1.0, size=(n, nx))
    steps = draw(st.sampled_from([None, 2, 1]))
    if steps:
        features = np.round(features * steps) / steps
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
    return mock.patch.object(exact_module, "_scipy_spatial", lambda: _RoundingTree)


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
        lower = exact_module._PairKernel.lower

        def counted(kernel, nearest, anchors, opponents, theirs=None):
            pairs[0] += anchors.shape[1] * opponents.shape[1]
            return lower(kernel, nearest, anchors, opponents, theirs)

        with mock.patch.object(exact_module._PairKernel, "lower", counted):
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
        # pair kernel's two block buffers take 1 MiB, the trees and minima O(n)
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


def _kernel_minima(anchors, opponents):
    """The pair kernel's distances on rows of points: each anchor's to its
    nearest opponent from a one-sided call, then each anchor's and each
    opponent's from one two-sided call."""
    kernel = exact_module._PairKernel()
    columns = np.ascontiguousarray(anchors.T), np.ascontiguousarray(opponents.T)
    one_sided = np.full(len(anchors), np.inf)
    kernel.lower(one_sided, *columns)
    nearest, theirs = np.full(len(anchors), np.inf), np.full(len(opponents), np.inf)
    kernel.lower(nearest, *columns, theirs=theirs)
    return np.sqrt(one_sided), np.sqrt(nearest), np.sqrt(theirs)


def _hexes(values):
    return [float(x).hex() for x in values]


class TestPairKernel:
    """The one pair kernel must sum every pair's squared differences in
    column order, whichever side runs along its inner axis and over
    however many blocks, or the three exact routes would not agree."""

    @pytest.mark.parametrize("d", range(1, 17))
    def test_row_minima_hex_equal_cdist(self, d):
        rng = np.random.Generator(np.random.PCG64(d))
        scales = 10.0 ** rng.integers(-6, 7, size=d)
        grid = np.round(rng.uniform(size=(700, d)) * 2) / 2
        # the first three cases hold 120,000 pairs: two row blocks of the
        # kernel, the second partial
        cases = {
            "uniform": (rng.uniform(size=(300, d)), rng.uniform(size=(400, d))),
            "mixed scales": (rng.normal(size=(300, d)) * scales, rng.normal(size=(400, d)) * scales),
            # many rows repeat, so many distances tie
            "ties": (grid[:300], grid[300:]),
            # more opponents than one kernel block holds
            "long": (rng.uniform(size=(2, d)), rng.uniform(size=(70_000, d))),
        }
        for name, (a, b) in cases.items():
            pairs = np.sqrt(column_order_squares(a, b))
            # the frozen reference against the per-pair one, on a corner
            naive = [
                [naive_point_distance(p[1:], p[0], q[1:], q[0]) for q in b[:20]] for p in a[:2]
            ]
            assert _hexes(pairs[:2, :20].ravel()) == _hexes(np.ravel(naive)), name
            # both orders: the kernel puts the longer side on the inner axis
            for (anchors, opponents), axis in (((a, b), 1), ((b, a), 0)):
                mine, theirs = pairs.min(axis=axis), pairs.min(axis=1 - axis)
                one_sided, nearest, their_nearest = _kernel_minima(anchors, opponents)
                assert _hexes(one_sided) == _hexes(mine), name
                assert _hexes(nearest) == _hexes(mine), name
                assert _hexes(their_nearest) == _hexes(theirs), name

    def test_one_side_empty(self):
        # the tree's recompute passes no anchors of a group without ties:
        # the other side's minima stay infinite
        points = np.random.Generator(np.random.PCG64(1)).uniform(size=(5, 3))
        for anchors, opponents in ((points, points[:0]), (points[:0], points)):
            _, nearest, theirs = _kernel_minima(anchors, opponents)
            assert (len(nearest), len(theirs)) == (len(anchors), len(opponents))
            assert np.isinf(nearest).all() and np.isinf(theirs).all()
        assert len(exact_module._nearest(points[:0], points)) == 0
        assert np.isinf(exact_module._nearest(points, points[:0])).all()


# The early-break route's constants set so that each of its endings is
# taken on the small cases of `tree_cases`. With FAR_FINISH every anchor
# that meets no opponent within the maximum among its first 4 is
# finished on its own
FAR_FINISH = {"_FIRST_BATCH": 2, "_LAST_BATCH": 8, "_FIRST_SPAN": 1, "_FAR_BUDGET": 4}
SCAN_PATHS = {
    "early finish": {},
    "far finish": FAR_FINISH,
    # the first round already scans more than -1 opponents per anchor
    "tree": {"_FIRST_BATCH": 2, "_COUNTED_BATCH": 2, "_MEAN_CAP": -1},
    # the first far anchor is one more than the cap allows
    "far cap": {**FAR_FINISH, "_FAR_CAP": 0},
}


@contextmanager
def _recorded(path):
    """The scans and tree calls of the early-break calls made inside it,
    with the constants of SCAN_PATHS[path]."""
    record = SimpleNamespace(scans=[], tree_calls=0)
    tree = exact_module._tree

    class Scan(exact_module._EarlyBreak):
        def __init__(self):
            super().__init__()
            record.scans.append(self)

    def counted_tree(*args):
        record.tree_calls += 1
        return tree(*args)

    with mock.patch.multiple(
        exact_module, _EarlyBreak=Scan, _tree=counted_tree, **SCAN_PATHS[path]
    ):
        yield record


class TestEarlyBreakSetDistance:
    """The early-break route must return brute force's value bit for bit
    on each of its paths; the scan order may change only its cost."""

    @pytest.mark.parametrize("path", SCAN_PATHS)
    @PROPERTY
    @given(tree_cases())
    def test_hex_equal_to_brute_force_and_naive(self, path, case):
        dataset, partition, source = case
        with _recorded(path):
            got = early_break_set_distance(dataset, partition, source)
        assert _hex_of(got) == _hex_of(exact_set_distance(dataset, partition, source))
        assert _hex_of(got) == _hex_of(naive_set_distance_of(dataset, partition, source))

    @pytest.mark.parametrize("path", SCAN_PATHS)
    def test_each_path_is_taken(self, path, rng):
        ds = random_grouped_dataset(rng, n_lo=40, n_hi=40, nx_hi=3)
        part = _partition(ds)
        with _recorded(path) as recorded:
            got = early_break_set_distance(ds, part, TRUE)
        assert _hex_of(got) == _hex_of(exact_set_distance(ds, part, TRUE))
        (scan,) = recorded.scans
        assert recorded.tree_calls == (path in ("tree", "far cap"))
        assert (scan.far > 0) == (path in ("far finish", "far cap"))

    def test_criterion_sweeps_hex_equal(self):
        # the datasets of acceptance criteria 1 and 2, on both sources
        for i, ds in enumerate(sweep_datasets()):
            part = _partition(ds)
            for source in (TRUE, PRED):
                got = early_break_set_distance(ds, part, source)
                assert _hex_of(got) == _hex_of(exact_set_distance(ds, part, source)), (i, source)

    def test_memory_bounded_in_n(self, rng):
        # the scan runs to its end here: the kernel's two blocks take
        # 1 MiB, the reordered points and one batch's minima O(n)
        ds = random_grouped_dataset(rng, n_lo=20_000, n_hi=20_000, nx_hi=3)
        part = _partition(ds)
        caps = {"_FAR_CAP": ds.n, "_MEAN_CAP": ds.n}
        with _recorded("early finish") as recorded, mock.patch.multiple(exact_module, **caps):
            tracemalloc.start()
            try:
                early_break_set_distance(ds, part, TRUE)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert recorded.tree_calls == 0
        assert peak < 24 * 2**20

    @pytest.mark.parametrize("route", [exact_set_distance, early_break_set_distance])
    def test_groups_gathered_once(self, route, rng):
        # a call holds the frame's rows, each group gathered once into the
        # kernel's layout, and O(batch) scratch besides the kernel's 1 MiB.
        # In copies of the rows that measured 2.38 for brute force and
        # 2.42 for the scan; one more copy of every group adds 1 (3.38 and
        # 3.51), so the bound of 2.9 leaves about half a copy each way
        n, d = 20_000, 3
        sensitive = np.zeros(n, dtype=int)
        sensitive[rng.permutation(n)[: n // 2]] = 1
        labels, predictions = rng.integers(1, 3, size=(2, n))
        ds = make_dataset(rng.uniform(size=(n, d)), sensitive, labels, predictions)
        part = _partition(ds)
        caps = {"_FAR_CAP": n, "_MEAN_CAP": n}
        with _recorded("early finish") as recorded, mock.patch.multiple(exact_module, **caps):
            tracemalloc.start()
            try:
                route(ds, part, TRUE)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert recorded.tree_calls == 0
        assert (peak - 2**20) / (n * (d + 1) * 8) < 2.9

    def test_result_and_rejections_match_brute_force(self, six_row_dataset):
        ds, part = six_row_dataset
        result = early_break_set_distance(ds, part, TRUE)
        assert (result.method, result.label_source) == ("exact", TRUE)
        assert (result.m1, result.m2, result.seed) == (None, None, None)
        assert result.elapsed_ns > 0
        with pytest.raises(MissingPredictions):
            early_break_set_distance(ds, part, PRED)
        one_sided = GroupPartition(
            attr_indices=(0,), group0=np.arange(ds.n), group1=np.array([], dtype=int), n=ds.n
        )
        with pytest.raises(EmptyGroup):
            early_break_set_distance(ds, one_sided, TRUE)
