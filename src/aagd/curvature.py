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
two points are formed here, each once per estimate: the guards, the
Bregman inner product and the secant fallback of option 2 all reuse
them. :func:`lambda_option2_rows` is option 2 with its Bregman value
over many pairs at once, for the certificate replay; the solver keeps
the scalar estimator.
"""
from __future__ import annotations

import math

import numpy as np

from .oracle import DimensionMismatchError, OracleResult, sq_norm

# Guard threshold on the squared gradient-difference norm, relative to
# max(1, squared gradient magnitudes). Chosen at 1e2 * eps^2 so that
# equal-up-to-roundoff gradients take the +inf branch.
GRAD_GUARD = 100.0 * float(np.finfo(np.float64).eps) ** 2

# The Bregman numerator is a difference of rounded objective values, so
# its absolute noise floor is a few ulps of the objective magnitude. A
# computed value below 1e10 eps * (1 + |f(x)| + |f(z)|) carries fewer
# than ten reliable digits; the Bregman ratio is then substituted by the
# cancellation-free secant ratio, which keeps the estimate's relative
# error near machine precision in the regime where the two points are
# close. Above the floor the Bregman ratio is accurate to ~1e-10.
BREG_NOISE_REL = 1e10 * float(np.finfo(np.float64).eps)


def bregman(a: OracleResult, b: OracleResult) -> float:
    """B(a; b) = f(a) - f(b) - <grad f(b), a - b>. Nonnegative for convex f."""
    if a.x.shape != b.x.shape:
        raise DimensionMismatchError(f"bregman arguments have shapes {a.x.shape} and {b.x.shape}")
    return _bregman(a, b, a.x - b.x)


def _bregman(a: OracleResult, b: OracleResult, dx: np.ndarray) -> float:
    return float(a.value - b.value - b.grad @ dx)


def _secant(dx2: float, gap2: float) -> float:
    return math.sqrt(dx2) / math.sqrt(gap2)


def _gaps(a: OracleResult, b: OracleResult, guard: float):
    """``(gap2, dx, dx2, fired)``: the squared gradient-difference norm,
    the point difference ``a.x - b.x`` and its squared norm (both None if
    the gradient test fires), and whether the guard fires.

    The guard fires when the gradients coincide up to roundoff, and also
    when the points themselves do: two points equal to machine precision
    carry no curvature information even if their computed gradients
    differ through internal rounding. Both tests are symmetric in the
    two arguments.
    """
    if a.x.shape != b.x.shape:
        raise DimensionMismatchError(f"curvature pair has shapes {a.x.shape} and {b.x.shape}")
    gap2 = sq_norm(a.grad - b.grad)
    if gap2 <= guard * max(1.0, a.grad_sq, b.grad_sq):
        return gap2, None, None, True
    dx = a.x - b.x
    dx2 = sq_norm(dx)
    return gap2, dx, dx2, dx2 <= guard * max(1.0, a.x_sq, b.x_sq)


def lambda_option1(a: OracleResult, b: OracleResult) -> float:
    """Secant estimate ||a - b|| / ||grad f(a) - grad f(b)||, or +inf."""
    gap2, _, dx2, coincide = _gaps(a, b, GRAD_GUARD)
    return math.inf if coincide else _secant(dx2, gap2)


def lambda_option2(a: OracleResult, b: OracleResult) -> float:
    """Bregman estimate 2 B(a; b) / ||grad f(a) - grad f(b)||^2, or +inf.

    Convexity makes the analytic Bregman value nonnegative, so a computed
    value at or below its floating-point noise floor (a negative one
    included) is cancellation noise; the cancellation-free option-1
    estimate is substituted for it.
    """
    gap2, dx, dx2, coincide = _gaps(a, b, GRAD_GUARD)
    if coincide:
        return math.inf
    breg = _bregman(a, b, dx)
    if breg <= BREG_NOISE_REL * (1.0 + abs(a.value) + abs(b.value)):
        return _secant(dx2, gap2)
    return 2.0 * breg / gap2


def lambda_option2_rows(a: OracleResult, b: OracleResult) -> tuple[np.ndarray, np.ndarray]:
    """:func:`lambda_option2` and :func:`bregman` of n pairs at once.

    ``a`` and ``b`` are results whose fields stack n results along axis
    0: (n,) values and squared norms, (n, d) gradients and points.
    Returns ``(lam, breg)``; row r holds ``lambda_option2(a_r, b_r)`` and
    ``bregman(a_r, b_r)`` bit for bit. Every branch is computed on every
    row and the guards pick among them. The arithmetic that the scalar
    estimator does on Python floats, and the squared norms, which
    :func:`~aagd.oracle.sq_norm` forms silently, raise no warnings here.
    """
    if a.x.shape != b.x.shape:
        raise DimensionMismatchError(f"curvature pairs have shapes {a.x.shape} and {b.x.shape}")
    g, dx = a.grad - b.grad, a.x - b.x
    breg = a.value - b.value - np.vecdot(b.grad, dx)
    with np.errstate(all="ignore"):
        gap2, dx2 = np.vecdot(g, g), np.vecdot(dx, dx)
        coincide = ((gap2 <= GRAD_GUARD * np.maximum(np.maximum(1.0, a.grad_sq), b.grad_sq))
                    | (dx2 <= GRAD_GUARD * np.maximum(np.maximum(1.0, a.x_sq), b.x_sq)))
        noise = breg <= BREG_NOISE_REL * (1.0 + np.abs(a.value) + np.abs(b.value))
        lam = np.where(noise, np.sqrt(dx2) / np.sqrt(gap2), 2.0 * breg / gap2)
    return np.where(coincide, np.inf, lam), breg


def local_curvature(bar_next: OracleResult, tilde_cur: OracleResult,
                    tilde_next: OracleResult) -> float:
    """Composite estimator: min of the two Bregman estimates anchored at
    the new averaged point, against the current and the new lookahead
    points. Works on cached results only; performs no oracle calls.
    """
    return min(lambda_option2(bar_next, tilde_cur), lambda_option2(bar_next, tilde_next))
