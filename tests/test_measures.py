import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from fairdist import (
    ApproxParams,
    LabeledDataset,
    approx_set_distance,
    demographic_parity,
    discriminative_risk,
    equal_opportunity,
    exact_set_distance,
    hfm,
    hfm_distances,
    partition_by_attribute,
    predictive_quality_parity,
)
from fairdist.errors import (
    DimensionError,
    EmptyGroup,
    InvalidArgument,
    MissingPredictions,
    UndefinedRate,
)
from fairdist import measures
from fairdist.approx import derived_seed
from fairdist.measures import set_distance

from conftest import PRED, TRUE, make_dataset, random_grouped_dataset


def hfm_of(dataset, partition, method="exact", params=None):
    d, d_f = hfm_distances(dataset, partition, method, params)
    return hfm(d_f.value, d.value)


class TestHfm:
    def test_equal_distances_mean_no_added_bias(self):
        assert hfm(0.7, 0.7) == 0.0

    def test_zero_over_zero_is_zero(self):
        assert hfm(0.0, 0.0) == 0.0

    def test_ratio_arithmetic(self):
        assert hfm(0.5, 0.25) == pytest.approx(1.0, abs=1e-15)

    def test_positive_over_zero_is_infinite(self):
        assert hfm(0.3, 0.0) == math.inf

    def test_negative_when_classifier_reduces_bias(self):
        assert hfm(0.1, 0.4) < 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(InvalidArgument):
            hfm(-0.1, 0.2)
        with pytest.raises(InvalidArgument):
            hfm(0.1, -0.2)

    @pytest.mark.parametrize("d_f, d", [(1.0, math.nan), (math.nan, 1.0), (math.nan, 0.0)])
    def test_nan_inputs_rejected(self, d_f, d):
        with pytest.raises(InvalidArgument):
            hfm(d_f, d)

    def test_scale_consistency(self, rng):
        for _ in range(50):
            d_f, d = rng.uniform(0.01, 2.0, size=2)
            c = float(rng.uniform(0.1, 10.0))
            assert hfm(c * d_f, c * d) == pytest.approx(hfm(d_f, d), rel=1e-12)

    def test_sign_tracks_distance_ordering(self, rng):
        for _ in range(50):
            d_f, d = rng.uniform(0.0, 1.0, size=2)
            value = hfm(d_f, d if d > 0 else 0.5)
            assert (value >= 0) == (d_f >= (d if d > 0 else 0.5))


class TestHfmEndToEnd:
    def test_predictions_equal_labels_give_zero(self, rng):
        ds = random_grouped_dataset(rng, with_predictions=False)
        ds = LabeledDataset(ds.features, ds.sensitive, ds.labels, ds.labels)
        part = partition_by_attribute(ds, 0)
        assert hfm_of(ds, part) == 0.0

    def test_constant_predictor_fixture(self):
        # 6-row fixture: groups share the feature grid and differ only in
        # labels. Nested loop on (x, y): each point's nearest opposite is
        # its feature twin with the other label, so D = 1.0. A constant
        # predictor collapses the label slot, the (x, yhat) sets coincide,
        # D_f = 0, and hfm = 0/1 - 1 = -1.
        features = [[0.1], [0.5], [0.9], [0.1], [0.5], [0.9]]
        sensitive = [0, 0, 0, 1, 1, 1]
        labels = [1, 1, 1, 2, 2, 2]
        predictions = np.array([1, 1, 1, 1, 1, 1])
        ds = make_dataset(features, sensitive, labels, predictions)
        part = partition_by_attribute(ds, 0)
        assert exact_set_distance(ds, part, TRUE).value == pytest.approx(1.0, abs=1e-15)
        assert exact_set_distance(ds, part, PRED).value == 0.0
        assert hfm_of(ds, part) == pytest.approx(-1.0, abs=1e-15)

    def test_missing_predictions(self, rng):
        ds = random_grouped_dataset(rng, with_predictions=False)
        part = partition_by_attribute(ds, 0)
        with pytest.raises(MissingPredictions):
            hfm_distances(ds, part)
        with pytest.raises(MissingPredictions):
            hfm_distances(ds, part, "approx")

    def test_unknown_method(self, six_row_dataset):
        ds, part = six_row_dataset
        ds = LabeledDataset(ds.features, ds.sensitive, ds.labels, ds.labels)
        with pytest.raises(InvalidArgument):
            hfm_distances(ds, part, "tree")
        with pytest.raises(InvalidArgument):
            set_distance(ds, part, TRUE, "tree", ApproxParams())

    def test_set_distance_is_the_direct_call(self, rng):
        # the switch adds nothing: exact gives brute force's value and
        # approx its function's, bit for bit, on both label sources
        for i in range(20):
            ds = random_grouped_dataset(rng)
            part = partition_by_attribute(ds, 0)
            params = ApproxParams(m1=3, m2=2, seed=i)
            for source in (TRUE, PRED):
                exact = exact_set_distance(ds, part, source)
                approx = approx_set_distance(ds, part, source, params)
                got = set_distance(ds, part, source, "exact", params)
                assert (got.value.hex(), got.method) == (exact.value.hex(), "exact")
                got = set_distance(ds, part, source, "approx", params)
                assert (got.value.hex(), got.method) == (approx.value.hex(), "approx")
                assert (got.m1, got.m2, got.seed) == (approx.m1, approx.m2, approx.seed)

    def test_approx_within_propagated_error(self, rng):
        # both approximate distances overestimate, so the approximate HFM
        # must land between Df/D_hat - 1 and Df_hat/D - 1
        from fairdist.approx import derived_seed

        checked = 0
        for i in range(50):
            ds = random_grouped_dataset(rng, n_lo=10, n_hi=40)
            part = partition_by_attribute(ds, 0)
            d = exact_set_distance(ds, part, TRUE).value
            d_f = exact_set_distance(ds, part, PRED).value
            if d == 0.0:
                continue
            params = ApproxParams(m1=5, m2=3, seed=i)
            d_hat = approx_set_distance(
                ds, part, TRUE, ApproxParams(5, 3, derived_seed(i, "D"))
            ).value
            d_f_hat = approx_set_distance(
                ds, part, PRED, ApproxParams(5, 3, derived_seed(i, "Df"))
            ).value
            got = hfm_of(ds, part, "approx", params)
            assert d_f / d_hat - 1 - 1e-9 <= got <= d_f_hat / d - 1 + 1e-9
            checked += 1
        assert checked >= 30


class TestHfmDistancesThreads:
    """hfm_distances computes d_f on a worker thread while the caller
    computes d; the results, errors and thread count must be those of two
    sequential set_distance calls."""

    @pytest.mark.parametrize("method", ["exact", "approx"])
    def test_equal_to_sequential_calls(self, rng, method):
        for i in range(15):
            ds = random_grouped_dataset(rng, n_lo=10, n_hi=300)
            part = partition_by_attribute(ds, 0)
            params = ApproxParams(m1=4, m2=1 + i % 3, seed=i)
            d, d_f = hfm_distances(ds, part, method, params)
            for got, source, tag in ((d, TRUE, "D"), (d_f, PRED, "Df")):
                seeded = replace(params, seed=derived_seed(i, tag))
                want = set_distance(ds, part, source, method, seeded)
                assert got.value.hex() == want.value.hex(), (i, tag)
                assert (got.method, got.label_source, got.m1, got.m2, got.seed) == (
                    want.method, source, want.m1, want.m2, want.seed,
                )

    def failing(self, monkeypatch, raising):
        """Patch set_distance so that the calls for the sources in
        `raising` raise an InvalidArgument naming their source; D's call
        raises only after Df's has."""
        real = measures.set_distance
        df_done = threading.Event()

        def fake(dataset, partition, source, method, params):
            try:
                if source == TRUE:
                    assert df_done.wait(10)
                if source in raising:
                    raise InvalidArgument(source.name)
                return real(dataset, partition, source, method, params)
            finally:
                if source == PRED:
                    df_done.set()

        monkeypatch.setattr(measures, "set_distance", fake)

    @pytest.mark.parametrize(
        "raising, winner",
        [((PRED,), PRED.name), ((TRUE, PRED), TRUE.name)],
        ids=["df-raises", "both-raise"],
    )
    @pytest.mark.parametrize("method", ["exact", "approx"])
    def test_errors_reach_the_caller(self, monkeypatch, rng, method, raising, winner):
        ds = random_grouped_dataset(rng)
        part = partition_by_attribute(ds, 0)
        self.failing(monkeypatch, raising)
        threads = threading.active_count()
        with pytest.raises(InvalidArgument) as exc:
            hfm_distances(ds, part, method, ApproxParams(m1=3))
        assert str(exc.value) == winner
        assert threading.active_count() == threads

    def test_no_thread_left_after_a_result(self, rng):
        ds = random_grouped_dataset(rng)
        part = partition_by_attribute(ds, 0)
        threads = threading.active_count()
        for method in ("exact", "approx"):
            hfm_distances(ds, part, method, ApproxParams(m1=3))
            assert threading.active_count() == threads

    def test_the_two_distances_overlap(self, monkeypatch, rng):
        # each call waits at a two-party barrier: sequential calls would
        # leave the first one waiting alone until its timeout
        barrier = threading.Barrier(2, timeout=10)
        real = measures.set_distance

        def meeting(*args):
            barrier.wait()
            return real(*args)

        monkeypatch.setattr(measures, "set_distance", meeting)
        ds = random_grouped_dataset(rng)
        hfm_distances(ds, partition_by_attribute(ds, 0), "approx", ApproxParams(m1=3))


class TestGroupMeasures:
    def fixture(self, predictions=(2, 2, 2, 1, 2, 1, 2, 1)):
        # 8 rows, positive label 2:
        # group1 predicted-positive 3/4, group0 2/4 -> DP = 0.25
        sensitive = [1, 1, 1, 1, 0, 0, 0, 0]
        labels = [2, 2, 1, 1, 2, 2, 1, 1]
        features = np.linspace(0, 1, 8)
        return make_dataset(features, sensitive, labels, np.array(predictions))

    def test_demographic_parity_hand_count(self):
        ds = self.fixture()
        part = partition_by_attribute(ds, 0)
        assert demographic_parity(ds, part, 2) == pytest.approx(0.25, abs=1e-15)

    def test_demographic_parity_identical_distributions(self):
        ds = make_dataset(
            np.linspace(0, 1, 4), [1, 1, 0, 0], [2, 1, 2, 1], np.array([2, 1, 2, 1])
        )
        part = partition_by_attribute(ds, 0)
        assert demographic_parity(ds, part, 2) == 0.0

    def test_demographic_parity_extremes(self):
        ds = make_dataset(
            np.linspace(0, 1, 4), [1, 1, 0, 0], [2, 2, 1, 1], np.array([2, 2, 1, 1])
        )
        part = partition_by_attribute(ds, 0)
        assert demographic_parity(ds, part, 2) == 1.0

    def test_equal_opportunity_perfect_classifier(self):
        ds = self.fixture((2, 2, 1, 1, 2, 2, 1, 1))
        part = partition_by_attribute(ds, 0)
        assert equal_opportunity(ds, part, 2) == 0.0

    def test_equal_opportunity_hand_count(self):
        # TPRs 2/3 vs 1/3 -> gap 1/3
        sensitive = [1, 1, 1, 0, 0, 0]
        labels = [2, 2, 2, 2, 2, 2]
        predictions = np.array([2, 2, 1, 2, 1, 1])
        ds = make_dataset(np.linspace(0, 1, 6), sensitive, labels, predictions)
        part = partition_by_attribute(ds, 0)
        assert equal_opportunity(ds, part, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_equal_opportunity_undefined(self):
        # no positive-label rows in group0
        ds = make_dataset(np.linspace(0, 1, 4), [1, 1, 0, 0], [2, 2, 1, 1], np.array([2] * 4))
        part = partition_by_attribute(ds, 0)
        with pytest.raises(UndefinedRate):
            equal_opportunity(ds, part, 2)

    def test_pqp_equal_precision(self):
        ds = self.fixture((2, 2, 1, 1, 2, 2, 1, 1))
        part = partition_by_attribute(ds, 0)
        assert predictive_quality_parity(ds, part, 2) == 0.0

    def test_pqp_hand_count(self):
        # precisions 1.0 vs 0.5 -> gap 0.5
        sensitive = [1, 1, 0, 0]
        labels = [2, 2, 2, 1]
        predictions = np.array([2, 2, 2, 2])
        ds = make_dataset(np.linspace(0, 1, 4), sensitive, labels, predictions)
        part = partition_by_attribute(ds, 0)
        assert predictive_quality_parity(ds, part, 2) == pytest.approx(0.5, abs=1e-15)

    def test_pqp_undefined(self):
        ds = make_dataset(
            np.linspace(0, 1, 4), [1, 1, 0, 0], [2, 1, 2, 1], np.array([2, 2, 1, 1])
        )
        part = partition_by_attribute(ds, 0)
        with pytest.raises(UndefinedRate):
            predictive_quality_parity(ds, part, 2)

    def test_swap_invariance(self, rng):
        from fairdist import GroupPartition

        for _ in range(20):
            ds = random_grouped_dataset(rng, n_lo=8, n_hi=30)
            part = partition_by_attribute(ds, 0)
            swapped = GroupPartition(
                attr_indices=part.attr_indices, group0=part.group1, group1=part.group0, n=part.n
            )
            for measure in (demographic_parity, equal_opportunity, predictive_quality_parity):
                try:
                    a = measure(ds, part, 2)
                except UndefinedRate:
                    continue
                assert a == pytest.approx(measure(ds, swapped, 2), abs=1e-15)

    def test_empty_group(self):
        ds = make_dataset([[0.1], [0.2]], [1, 1], [1, 2], np.array([1, 2]))
        part = partition_by_attribute(ds, 0)
        with pytest.raises(EmptyGroup):
            demographic_parity(ds, part, 2)

    def test_group_gaps_against_rates_counted_row_by_row(self, rng):
        # the three gaps of one group_gaps call, as group-metrics reports
        # them, each against its two rates counted in plain Python
        def rate(hits, given):
            events = sum(given)
            return sum(h and g for h, g in zip(hits, given)) / events if events else None

        undefined = 0
        for _ in range(40):
            ds = random_grouped_dataset(rng, n_lo=4, n_hi=12)
            part = partition_by_attribute(ds, 0)
            rates = []
            for group in (part.group0, part.group1):
                y = [int(ds.labels[i]) == 2 for i in group]
                p = [int(ds.predictions[i]) == 2 for i in group]
                rates.append((rate(p, [True] * len(p)), rate(p, y), rate(y, p)))
            want = {}
            for k, key in enumerate(
                ["demographic_parity", "equal_opportunity", "predictive_quality_parity"]
            ):
                r0, r1 = rates[0][k], rates[1][k]
                want[key] = None if r0 is None or r1 is None else abs(r1 - r0)
            undefined += None in want.values()
            assert measures.group_gaps(ds, part, 2) == want
        assert undefined

    def test_group_gaps_with_an_empty_group(self):
        ds = make_dataset([[0.1], [0.2]], [1, 1], [1, 2], np.array([1, 2]))
        part = partition_by_attribute(ds, 0)
        with pytest.raises(EmptyGroup, match="^demographic parity needs two nonempty groups$"):
            measures.group_gaps(ds, part, 2)

    def test_group_rates_fields(self):
        # group1: positive rate 3/4, TPR 2/2, precision 2/3;
        # group0: positive rate 2/4, TPR 1/2, precision 1/2
        ds = self.fixture()
        part = partition_by_attribute(ds, 0)
        gaps = measures.group_gaps(ds, part, 2)
        assert list(gaps) == [
            "demographic_parity",
            "equal_opportunity",
            "predictive_quality_parity",
        ]
        assert list(gaps.values()) == pytest.approx([0.25, 0.5, 1.0 / 6.0], abs=1e-15)

    @pytest.mark.parametrize(
        "measure, name",
        [
            (measures.group_gaps, "demographic parity"),
            (demographic_parity, "demographic parity"),
            (equal_opportunity, "equal opportunity"),
            (predictive_quality_parity, "predictive quality parity"),
        ],
    )
    def test_empty_group_before_missing_predictions(self, measure, name):
        ds = make_dataset(np.linspace(0, 1, 4), [1, 1, 0, 0], [2, 1, 2, 1])
        with pytest.raises(MissingPredictions, match="^group rates need a prediction column$"):
            measure(ds, partition_by_attribute(ds, 0), 2)
        one_group = make_dataset(np.linspace(0, 1, 4), [1, 1, 1, 1], [2, 1, 2, 1])
        with pytest.raises(EmptyGroup, match=f"^{name} needs two nonempty groups$"):
            measure(one_group, partition_by_attribute(one_group, 0), 2)


class TestDiscriminativeRisk:
    def test_identical_vectors(self):
        assert discriminative_risk(np.array([1, 2, 1]), np.array([1, 2, 1])) == 0.0

    def test_complementary_vectors(self):
        assert discriminative_risk(np.array([1, 2, 1]), np.array([2, 1, 2])) == 1.0

    def test_two_in_ten(self):
        raw = np.array([1, 1, 1, 1, 1, 2, 2, 2, 2, 2])
        flipped = np.array([1, 1, 1, 1, 2, 1, 2, 2, 2, 2])
        assert discriminative_risk(raw, flipped) == pytest.approx(0.2, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            discriminative_risk(np.array([1, 2]), np.array([1]))

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument):
            discriminative_risk(np.array([], dtype=int), np.array([], dtype=int))

    def test_pseudometric_triangle(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 20))
            a, b, c = (rng.integers(1, 4, size=n) for _ in range(3))
            assert discriminative_risk(a, c) <= (
                discriminative_risk(a, b) + discriminative_risk(b, c) + 1e-15
            )
