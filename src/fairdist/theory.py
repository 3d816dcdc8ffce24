"""Validation tooling for the probabilistic guarantees behind the
projection trick.

The key geometric fact: for two vectors v1, v2 with |v1| <= |v2| and a
uniformly random unit direction w, the probability that v1's projection
dominates (|<w,v1>| >= |<w,v2>|) equals theta/pi, where theta is the
acute angle between v2-v1 and v1+v2. That probability is sandwiched by

    sin(phi)/pi * r1/r2  <=  theta/pi  <=  (1 + r1^2/r2^2)^(-1/2) * r1/r2

with phi the angle between v1 and v2. This module evaluates the exact
value and both bounds in closed form, estimates the probability by Monte
Carlo, and turns the resulting success bound for the sorted-scan
approximation into a (m1, m2) parameter calculator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument

_MC_CHUNK = 65536


@dataclass(frozen=True, kw_only=True)
class ProjectionBound:
    """Closed-form sandwich for the projection dominance probability.

    The field order is the column order of the verify-theory report.
    """

    r1: float
    r2: float
    phi: float
    lower: float
    exact: float
    upper: float


@dataclass(frozen=True)
class SuccessBound:
    """Lower bounds on the probability that the approximation stays within
    a factor alpha of the exact distance, in the main form and the
    integral (appendix) form, plus the failure exponent lambda.

    prob_* are clamped to [0, 1], so a vacuous (negative) bound reports 0.
    The field order is the column order of the verify-theory report.
    """

    n: int
    k: int
    mu: float
    alpha: float
    m1: int
    m2: int
    prob_main: float
    prob_appendix: float
    failure_exponent: float


def _check_pair(v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    if v1.shape != v2.shape or v1.ndim != 1:
        raise InvalidArgument("vectors must be 1-D and of equal dimension")
    if len(v1) < 2:
        raise InvalidArgument("vectors must have dimension >= 2")
    r1 = float(np.linalg.norm(v1))
    r2 = float(np.linalg.norm(v2))
    if r1 == 0.0 or r2 == 0.0:
        raise InvalidArgument("vectors must be nonzero")
    return v1, v2, r1, r2


def projection_dominance_bounds(v1: np.ndarray, v2: np.ndarray) -> ProjectionBound:
    """Exact dominance probability theta/pi with its lower and upper
    bounds. Requires |v1| <= |v2|; the collinear equal-length pair is
    rejected because the dominance event degenerates to certainty there
    and the sandwich no longer applies.

    theta satisfies sin^2 = A/(A+B), cos^2 = B/(A+B) with
    A = 4(|v1|^2 |v2|^2 - <v1,v2>^2) and B = (|v1|^2 - |v2|^2)^2; it is
    evaluated as atan2(sqrt(A), sqrt(B)), which stays fully accurate even
    when theta approaches pi/2 (equal lengths).
    """
    v1, v2, r1, r2 = _check_pair(v1, v2)
    r1sq = float(v1 @ v1)
    r2sq = float(v2 @ v2)
    inner = float(v1 @ v2)
    if r1sq > r2sq * (1 + 1e-12):
        raise InvalidArgument("requires |v1| <= |v2|")
    cos_phi = min(1.0, max(-1.0, inner / math.sqrt(r1sq * r2sq)))
    phi = math.acos(cos_phi)

    sin_part = max(0.0, 4.0 * (r1sq * r2sq - inner * inner))
    cos_part = (r1sq - r2sq) ** 2
    if sin_part + cos_part <= 1e-30 * (r1sq + r2sq) ** 2:
        raise InvalidArgument("vectors are collinear with equal length; probability degenerates")
    theta = math.atan2(math.sqrt(sin_part), math.sqrt(cos_part))  # acute
    exact = theta / math.pi

    ratio = math.sqrt(r1sq / r2sq)
    lower = math.sin(phi) / math.pi * ratio
    upper = (1.0 + ratio * ratio) ** -0.5 * ratio
    return ProjectionBound(r1=r1, r2=r2, phi=phi, lower=lower, exact=exact, upper=upper)


def monte_carlo_projection_probability(
    v1: np.ndarray, v2: np.ndarray, trials: int, seed: int
) -> tuple[float, float]:
    """Empirical frequency of |<w,v1>| >= |<w,v2>| over uniform unit
    directions w (Gaussian draws, normalized), with the binomial standard
    error of the estimate."""
    v1, v2, _, _ = _check_pair(v1, v2)
    if trials < 1:
        raise InvalidArgument("trials must be a positive integer")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    hits = 0
    done = 0
    while done < trials:
        batch = min(_MC_CHUNK, trials - done)
        w = rng.standard_normal((batch, len(v1)))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        hits += int((np.abs(w @ v1) >= np.abs(w @ v2)).sum())
        done += batch
    estimate = hits / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr


def _unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def approximation_success_bound(
    n: int, k: int, mu: float, alpha: float, m1: int, m2: int
) -> SuccessBound:
    """Success-probability lower bounds for reaching a result within a
    factor alpha of the exact distance, for a dataset of n points with
    k+1 coordinates and scaled density mu.

    The inner bracket is clamped at 0 before raising to the m1-th power,
    so an alpha past the break-even point reports probability exactly 1;
    the power's base is clamped at 1, where the bound is already vacuous,
    so the power cannot overflow.
    """
    exponent = failure_exponent(n, k, m1, m2)
    # written so that NaN fails them too
    if not 0.0 < mu < math.inf:
        raise InvalidArgument("mu must be a finite positive number")
    if not alpha >= 1.0:
        raise InvalidArgument("alpha must be >= 1")
    volume = _unit_ball_volume(k + 1)
    factor = math.pi * mu / (m2 * volume)
    growth = (1.0 + n / mu) ** (1.0 / (k + 1))
    # pi * mu overflows for mu near the float maximum, and n / mu for a
    # subnormal mu: past either, floats cannot evaluate the bound
    if math.isinf(factor) or math.isinf(growth):
        raise InvalidArgument(f"mu {mu} is out of range: the bound overflows a float")
    bracket_main = max(0.0, growth - alpha)
    bracket_appendix = max(
        0.0,
        math.sqrt((1.0 + n / mu) ** (2.0 / (k + 1)) + 1.0) - math.sqrt(alpha * alpha + 1.0),
    )
    return SuccessBound(
        n=n,
        k=k,
        mu=mu,
        alpha=alpha,
        m1=m1,
        m2=m2,
        prob_main=1.0 - min(1.0, factor * bracket_main) ** m1,
        prob_appendix=1.0 - min(1.0, factor * bracket_appendix) ** m1,
        failure_exponent=exponent,
    )


def failure_exponent(n: int, k: int, m1: int, m2: int) -> float:
    """lambda = -m1 * (log10(n)/(k+1) - log10(m2)); the failure
    probability of the approximation scales like 10**(-lambda)."""
    if n < 1 or k < 1 or m1 < 1 or m2 < 1:
        raise InvalidArgument("n, k, m1 and m2 must be positive integers")
    return -m1 * (math.log10(n) / (k + 1) - math.log10(m2))


def suggest_m2(n: int, k: int, m1: int, target_lambda: float) -> int:
    """Smallest neighbor window m2 whose failure exponent reaches
    target_lambda."""
    # written so that NaN fails it too
    if not 0.0 <= target_lambda < math.inf:
        raise InvalidArgument("target_lambda must be a finite nonnegative number")
    if n < 1 or k < 1 or m1 < 1:
        raise InvalidArgument("n, k and m1 must be positive integers")
    # closed-form inverse, then nudge for float error
    try:
        closed_form = 10.0 ** (target_lambda / m1 + math.log10(n) / (k + 1))
    except OverflowError:
        raise InvalidArgument(
            f"target_lambda {target_lambda} is too large for m1={m1}: m2 would overflow"
        ) from None
    candidate = max(1, math.ceil(closed_form))
    while candidate > 1 and failure_exponent(n, k, m1, candidate - 1) >= target_lambda:
        candidate -= 1
    while failure_exponent(n, k, m1, candidate) < target_lambda:
        candidate += 1
    return candidate


def estimate_scaled_density(
    points: np.ndarray, d: float, radii: np.ndarray | None = None
) -> float:
    """Empirical scaled density of a point cloud at reference radius d.

    For each trial radius r the sparsest ball centered at a data point is
    found (count / volume); the best radius gives the density, which is
    then normalized by the volume of a ball of radius d. The radius grid
    defaults to a geometric sweep of [d/4, 4d].
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(points) < 1:
        raise InvalidArgument("points must form a nonempty 2-D matrix")
    if d <= 0.0:
        raise InvalidArgument("d must be positive")
    if radii is None:
        radii = d * np.geomspace(0.25, 4.0, 9)
    radii = np.asarray(radii, dtype=np.float64)
    if (radii <= 0.0).any():
        raise InvalidArgument("radii must be positive")
    n, dim = points.shape
    # neighbour counts per radius, one block of rows at a time: the pair
    # differences of a block hold at most about 2^20 floats
    counts = np.empty((len(radii), n), dtype=np.int64)
    rows = max(1, (1 << 20) // (n * max(dim, 1)))
    for i in range(0, n, rows):
        diff = points[i : i + rows, None, :] - points[None, :, :]
        pairwise = np.sqrt((diff * diff).sum(axis=2))
        for j, r in enumerate(radii):
            counts[j, i : i + rows] = (pairwise <= r).sum(axis=1)
    best = 0.0
    for r, count in zip(radii, counts):
        density = count.min() / _unit_ball_volume(dim) / r**dim
        best = max(best, float(density))
    return best * _unit_ball_volume(dim) * d**dim
