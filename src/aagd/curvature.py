"""Bregman divergence and local inverse-curvature estimators.

Two estimators are available for a pair of evaluated points: a secant
ratio of norms (option 1) and a Bregman-based ratio (option 2). Both
return ``+inf`` when the gradients at the two points coincide up to a
floating-point guard; without that guard the stepsize rule would
collapse to zero on converged iterates.

The guard scales read the squared norms that each
:class:`~aagd.oracle.OracleResult` carries, so a result evaluated once
serves every estimate it enters (up to four in the solver) without its
gradient or point being squared again. Only the differences between the
two points are formed here.
"""
from __future__ import annotations

import math

import numpy as np

from .oracle import DimensionMismatchError, OracleResult, sq_norm

# Guard threshold on the squared gradient-difference norm, relative to
# max(1, squared gradient magnitudes). Chosen at 1e2 * eps^2 so that
# equal-up-to-roundoff gradients take the +inf branch.
GRAD_GUARD = 100.0 * float(np.finfo(np.float64).eps) ** 2

# A Bregman value below -CONVEXITY_TOL * (1 + |f(x)| + |f(z)|) means the
# oracle is materially nonconvex, not merely noisy.
CONVEXITY_TOL = 1e-8

# The Bregman numerator is a difference of rounded objective values, so
# its absolute noise floor is a few ulps of the objective magnitude. A
# computed value below 1e10 eps * (1 + |f(x)| + |f(z)|) carries fewer
# than ten reliable digits; the Bregman ratio is then substituted by the
# cancellation-free secant ratio, which keeps the estimate's relative
# error near machine precision in the regime where the two points are
# close. Above the floor the Bregman ratio is accurate to ~1e-10.
BREG_NOISE_REL = 1e10 * float(np.finfo(np.float64).eps)


class NonConvexOracleError(Exception):
    pass


def bregman(a: OracleResult, b: OracleResult) -> float:
    """B(a; b) = f(a) - f(b) - <grad f(b), a - b>. Nonnegative for convex f."""
    if a.x.shape != b.x.shape:
        raise DimensionMismatchError(
            f"bregman arguments have shapes {a.x.shape} and {b.x.shape}"
        )
    return float(a.value - b.value - b.grad @ (a.x - b.x))


def _grad_gap_sq(a: OracleResult, b: OracleResult, guard: float):
    """Squared gradient-difference norm and whether the guard fires.

    The guard fires when the gradients coincide up to roundoff, and also
    when the points themselves do: two points equal to machine precision
    carry no curvature information even if their computed gradients
    differ through internal rounding. Both tests are symmetric in the
    two arguments.
    """
    gap2 = sq_norm(a.grad - b.grad)
    if gap2 <= guard * max(1.0, a.grad_sq, b.grad_sq):
        return gap2, True
    return gap2, sq_norm(a.x - b.x) <= guard * max(1.0, a.x_sq, b.x_sq)


def lambda_option1(a: OracleResult, b: OracleResult, guard: float = GRAD_GUARD) -> float:
    """Secant estimate ||a - b|| / ||grad f(a) - grad f(b)||, or +inf."""
    if guard < 0.0:
        raise ValueError("guard must be nonnegative")
    gap2, coincide = _grad_gap_sq(a, b, guard)
    if coincide:
        return math.inf
    return math.sqrt(sq_norm(a.x - b.x)) / math.sqrt(gap2)


def lambda_option2(
    a: OracleResult,
    b: OracleResult,
    guard: float = GRAD_GUARD,
    strict: bool = False,
) -> float:
    """Bregman estimate 2 B(a; b) / ||grad f(a) - grad f(b)||^2, or +inf.

    A negative Bregman value is clamped to zero before the ratio; since
    convexity guarantees the analytic value is nonnegative, a clamp with
    a nonzero gradient difference means the value was cancellation noise.
    Lenient mode (the default) substitutes the cancellation-free option-1
    estimate whenever the computed Bregman value sits at or below its
    floating-point noise floor (which covers the clamped case); strict
    mode never substitutes and instead raises on any nonpositive value,
    with a dedicated error for a materially negative one.
    """
    if guard < 0.0:
        raise ValueError("guard must be nonnegative")
    gap2, coincide = _grad_gap_sq(a, b, guard)
    if coincide:
        return math.inf
    breg = bregman(a, b)
    scale = 1.0 + abs(a.value) + abs(b.value)
    if strict:
        if breg < -CONVEXITY_TOL * scale:
            raise NonConvexOracleError(
                f"Bregman divergence {breg:.3e} is materially negative; oracle not convex"
            )
        if breg <= 0.0:
            raise NonConvexOracleError(
                "clamped Bregman divergence with a nonzero gradient difference"
            )
        return 2.0 * breg / gap2
    if breg <= BREG_NOISE_REL * scale:
        return lambda_option1(a, b, guard)
    return 2.0 * breg / gap2


def local_curvature(
    bar_next: OracleResult,
    tilde_cur: OracleResult,
    tilde_next: OracleResult,
    guard: float = GRAD_GUARD,
    strict: bool = False,
) -> float:
    """Composite estimator: min of the two Bregman estimates anchored at
    the new averaged point, against the current and the new lookahead
    points. Works on cached results only; performs no oracle calls.
    """
    return min(
        lambda_option2(bar_next, tilde_cur, guard=guard, strict=strict),
        lambda_option2(bar_next, tilde_next, guard=guard, strict=strict),
    )
