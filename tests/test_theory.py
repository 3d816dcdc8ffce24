import math
import tracemalloc

import numpy as np
import pytest

from fairdist.errors import InvalidArgument
from fairdist.theory import (
    approximation_success_bound,
    estimate_scaled_density,
    failure_exponent,
    monte_carlo_projection_probability,
    projection_dominance_bounds,
    suggest_m2,
)

from conftest import dense_scaled_density


def random_pair(rng, dim):
    while True:
        v1 = rng.standard_normal(dim)
        v2 = rng.standard_normal(dim)
        if np.linalg.norm(v1) > np.linalg.norm(v2):
            v1, v2 = v2, v1
        if np.linalg.norm(v1) > 1e-9:
            return v1, v2


class TestProjectionDominanceBounds:
    def test_equal_lengths_give_one_half(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 8))
            v1 = rng.standard_normal(dim)
            # rotate within a random 2-plane to keep the norm but change angle
            v2 = rng.standard_normal(dim)
            v2 *= np.linalg.norm(v1) / np.linalg.norm(v2)
            bound = projection_dominance_bounds(v1, v2)
            assert bound.exact == pytest.approx(0.5, abs=1e-12)

    def test_derived_right_angle_case(self):
        # v1=(1,0), v2=(0,2): sin^2(theta) = 16/25, exact = asin(4/5)/pi
        bound = projection_dominance_bounds(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        assert bound.exact == pytest.approx(0.29516723530086653, abs=1e-15)
        assert bound.lower == pytest.approx(0.5 / math.pi, abs=1e-15)
        assert bound.upper == pytest.approx((1 + 0.25) ** -0.5 * 0.5, abs=1e-15)

    def test_vanishing_ratio_limit(self):
        v2 = np.array([0.0, 2.0])
        for eps in (1e-3, 1e-6):
            bound = projection_dominance_bounds(np.array([eps, 0.0]), v2)
            assert bound.lower <= eps
            assert bound.upper <= eps

    def test_sandwich_on_random_pairs(self, rng):
        for _ in range(500):
            dim = int(rng.integers(2, 11))
            v1, v2 = random_pair(rng, dim)
            bound = projection_dominance_bounds(v1, v2)
            assert bound.lower <= bound.exact <= bound.upper
            assert 0.0 <= bound.lower and bound.upper <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidArgument):
            projection_dominance_bounds(np.zeros(2), np.array([1.0, 0.0]))

    def test_wrong_order_rejected(self):
        with pytest.raises(InvalidArgument):
            projection_dominance_bounds(np.array([2.0, 0.0]), np.array([1.0, 0.0]))

    def test_degenerate_collinear_equal_rejected(self):
        with pytest.raises(InvalidArgument):
            projection_dominance_bounds(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(InvalidArgument):
            projection_dominance_bounds(np.array([1.0, 1.0]), np.array([-1.0, -1.0]))


class TestMonteCarlo:
    def test_identical_vectors_always_dominate(self):
        v = np.array([0.3, 0.7, 0.1])
        estimate, stderr = monte_carlo_projection_probability(v, v, 2000, seed=0)
        assert estimate == 1.0
        assert stderr == 0.0

    def test_right_angle_equal_norm(self):
        estimate, stderr = monte_carlo_projection_probability(
            np.array([1.0, 0.0]), np.array([0.0, 1.0]), 100_000, seed=1
        )
        assert abs(estimate - 0.5) <= 3 * stderr

    def test_against_closed_form(self):
        v1, v2 = np.array([1.0, 0.0]), np.array([0.0, 2.0])
        bound = projection_dominance_bounds(v1, v2)
        estimate, stderr = monte_carlo_projection_probability(v1, v2, 100_000, seed=2)
        assert abs(estimate - bound.exact) <= 3 * stderr

    def test_invalid_inputs(self):
        with pytest.raises(InvalidArgument):
            monte_carlo_projection_probability(np.zeros(2), np.ones(2), 100, seed=0)
        with pytest.raises(InvalidArgument):
            monte_carlo_projection_probability(np.ones(2), np.ones(2), 0, seed=0)


class TestSuccessBound:
    def test_frozen_high_precision_value(self):
        # independent high-precision evaluation (50-digit arithmetic) of the
        # closed forms at n=1e4, k=3, mu=1, alpha=1, m1=25, m2=9
        bound = approximation_success_bound(10_000, 3, 1.0, 1.0, 25, 9)
        assert bound.prob_main == pytest.approx(0.9999874886362105, abs=1e-15)
        assert bound.prob_appendix == pytest.approx(0.9999955470886811, abs=1e-15)

    def test_large_window_drives_probability_to_one(self):
        bound = approximation_success_bound(10_000, 3, 1.0, 1.0, 25, 10_000_000)
        assert bound.prob_main == pytest.approx(1.0, abs=1e-12)
        assert bound.prob_appendix == pytest.approx(1.0, abs=1e-12)

    def test_bracket_clamp_gives_exactly_one(self):
        # alpha beyond the growth term zeroes the bracket
        bound = approximation_success_bound(10_000, 3, 1.0, 50.0, 25, 9)
        assert bound.prob_main == 1.0

    def test_monotone_in_m2_and_m1(self):
        probs_m2 = [
            approximation_success_bound(10_000, 3, 1.0, 1.0, 25, m2).prob_main
            for m2 in (9, 12, 20, 40)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(probs_m2, probs_m2[1:]))
        probs_m1 = [
            approximation_success_bound(10_000, 3, 1.0, 1.0, m1, 9).prob_main
            for m1 in (1, 5, 25)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(probs_m1, probs_m1[1:]))

    def test_raw_values_retained(self):
        # m1 = m2 = 1 makes both forms vacuous: each clamps to exactly 0
        bound = approximation_success_bound(10_000, 3, 1.0, 1.0, 1, 1)
        assert (bound.prob_main, bound.prob_appendix) == (0.0, 0.0)

    def test_vacuous_power_does_not_overflow(self):
        # (factor * bracket) ** m1 is about 1.6e4 ** 100 here, past the
        # float maximum; the bound is vacuous, so 0
        bound = approximation_success_bound(10**9, 1, 1e12, 1.0, 100, 31_623)
        assert (bound.prob_main, bound.prob_appendix) == (0.0, 0.0)

    def test_domain_validation(self):
        with pytest.raises(InvalidArgument):
            approximation_success_bound(0, 3, 1.0, 1.0, 25, 9)
        with pytest.raises(InvalidArgument):
            approximation_success_bound(10, 3, -1.0, 1.0, 25, 9)
        with pytest.raises(InvalidArgument):
            approximation_success_bound(10, 3, 1.0, 0.5, 25, 9)
        with pytest.raises(InvalidArgument):
            approximation_success_bound(10, 3, 1.0, float("nan"), 25, 9)
        with pytest.raises(InvalidArgument):
            approximation_success_bound(10, 3, float("nan"), 1.0, 25, 9)

    @pytest.mark.parametrize("mu", [math.inf, 1e308, 1e-310])
    def test_mu_that_overflows_the_bound_rejected(self, mu):
        # a float overflows in the bound: pi * mu at inf and 1e308, n / mu
        # at 1e-310; clamped, inf * 0 = NaN would read as probability 0
        with pytest.raises(InvalidArgument, match="mu"):
            approximation_success_bound(1000, 3, mu, 1.0, 25, 9)


class TestFailureExponent:
    def test_zero_at_balance_point(self):
        # m2 = n^(1/(k+1)) zeroes the bracket
        assert failure_exponent(10_000, 3, 25, 10) == pytest.approx(0.0, abs=1e-12)

    def test_direct_arithmetic(self):
        got = failure_exponent(10_000, 3, 25, 20)
        assert got == pytest.approx(7.525749891599531, abs=1e-12)

    def test_linear_in_m1(self):
        one = failure_exponent(10_000, 3, 10, 20)
        two = failure_exponent(10_000, 3, 20, 20)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_monotonicities(self):
        assert failure_exponent(10_000, 3, 25, 30) > failure_exponent(10_000, 3, 25, 20)
        assert failure_exponent(100_000, 3, 25, 20) < failure_exponent(10_000, 3, 25, 20)


class TestSuggestM2:
    def test_zero_target_boundary(self):
        assert suggest_m2(10_000, 3, 25, 0.0) == 10

    def test_derived_inversion(self):
        assert suggest_m2(10_000, 3, 25, 7.5) == 20

    def test_result_reaches_target_minimally(self):
        m2 = suggest_m2(5000, 4, 10, 3.0)
        assert failure_exponent(5000, 4, 10, m2) >= 3.0
        assert m2 == 1 or failure_exponent(5000, 4, 10, m2 - 1) < 3.0

    def test_monotone_in_target(self):
        values = [suggest_m2(10_000, 3, 25, t) for t in (0.0, 2.0, 5.0, 9.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, -0.5, 1e6])
    def test_out_of_range_target_rejected(self, target):
        with pytest.raises(InvalidArgument, match="target_lambda"):
            suggest_m2(10_000, 3, 25, target)

    def test_overflow_limit_depends_on_m1(self):
        # 10 ** (1e4 / 25 + 1) overflows a float, 10 ** (1e4 / 1e4 + 1) does not
        with pytest.raises(InvalidArgument, match="overflow"):
            suggest_m2(10_000, 3, 25, 1e4)
        assert suggest_m2(10_000, 3, 10_000, 1e4) == 100


class TestScaledDensity:
    def test_uniform_grid_sanity(self):
        # a unit grid has about one point per unit ball volume
        xs, ys = np.meshgrid(np.arange(6.0), np.arange(6.0))
        points = np.column_stack([xs.ravel(), ys.ravel()])
        mu = estimate_scaled_density(points, d=1.0)
        assert mu > 0.0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidArgument):
            estimate_scaled_density(np.zeros((2, 2)), d=0.0)
        with pytest.raises(InvalidArgument):
            estimate_scaled_density(np.zeros((2, 2)), d=1.0, radii=np.array([0.5, 0.0]))

    def test_matches_dense_formula(self, rng):
        # up to n = 1,100 rows, so the larger clouds span several row
        # blocks and end in a partial one
        for n in (1, 2, 7, 60, 600, 1100):
            for dim in (1, 2, 4):
                # rounding to a grid puts pairs exactly on the radius
                points = np.round(rng.uniform(size=(n, dim)), 1)
                d = float(rng.uniform(0.05, 0.5))
                radii = np.concatenate([rng.uniform(0.01, 1.0, size=5), [0.1, 0.2]])
                for r in (None, radii):
                    got = estimate_scaled_density(points, d, r)
                    assert got.hex() == dense_scaled_density(points, d, r).hex()

    def test_memory_bounded_in_n(self, rng):
        # the dense formula's n x n x 4 tensor alone is 128 MB at n = 2,000
        points = rng.uniform(size=(2000, 4))
        tracemalloc.start()
        try:
            estimate_scaled_density(points, d=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
