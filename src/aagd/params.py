"""Solver parameter feasibility and rate constants.

The solver needs constants (theta, gamma, nu) tied together by one
equality and one inequality:

    4 nu theta (1+gamma)^2 = gamma
    1 + 2 gamma + gamma theta^2/(1+theta)^2 <= theta/(1+theta) + theta^2/(1+theta)^2

With t = theta/(1+theta) the inequality solves in closed form for the
largest admissible growth rate, gamma_max = (t + t^2 - 1) / (2 + t^2),
which is positive only for theta above the golden ratio. That threshold
is a derived consequence of the inequality, not an assumption.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

DEFAULT_THETA = 2.0
DEFAULT_GAMMA = 1.0 / 22.0  # gamma_max at theta = 2


class InfeasibleThetaError(ValueError):
    """No positive growth rate exists for this extrapolation parameter."""


@dataclass(frozen=True)
class SolverParams:
    """Constants of the adaptive accelerated solver.

    gamma is a free knob below gamma_max(theta); nu is always derived
    from the equality, never set independently.
    """

    theta: float
    gamma: float
    nu: float
    eta0: float


@dataclass(frozen=True)
class RateConstants:
    c: float
    m: int


@dataclass(frozen=True)
class ParamReport:
    """Per-condition feasibility report. A report, not an exception."""

    positive_ok: bool
    equality_residual: float  # |4 nu theta (1+gamma)^2 - gamma| / gamma
    equality_ok: bool
    inequality_lhs: float
    inequality_rhs: float
    inequality_slack: float  # rhs - lhs
    inequality_ok: bool

    @property
    def passed(self) -> bool:
        return self.positive_ok and self.equality_ok and self.inequality_ok

    def lines(self) -> list[str]:
        out = [
            f"positivity            {'pass' if self.positive_ok else 'FAIL'}",
            f"equality residual     {self.equality_residual:.3e}  "
            f"{'pass' if self.equality_ok else 'FAIL'}",
            f"inequality lhs/rhs    {self.inequality_lhs:.15g} / {self.inequality_rhs:.15g}",
            f"inequality slack      {self.inequality_slack:.3e}  "
            f"{'pass' if self.inequality_ok else 'FAIL'}",
        ]
        return out


def max_gamma(theta: float) -> float:
    """Largest growth rate admitted by the inequality, in closed form.

    Raises :class:`InfeasibleThetaError` when theta is at or below the
    golden ratio, where no positive gamma exists.
    """
    if not theta > 0.0:
        raise ValueError("theta must be positive")
    t = theta / (1.0 + theta)
    num = t + t * t - 1.0
    if num <= 0.0:
        raise InfeasibleThetaError(
            f"theta={theta:g} is infeasible: need theta > (1+sqrt(5))/2 ~ {GOLDEN_RATIO:.6f}"
        )
    return num / (2.0 + t * t)


def nu_from(theta: float, gamma: float) -> float:
    """Curvature safety factor from the equality: gamma / (4 theta (1+gamma)^2)."""
    if not (theta > 0.0 and gamma > 0.0):
        raise ValueError("theta and gamma must be positive")
    return gamma / (4.0 * theta * (1.0 + gamma) ** 2)


def make_params(theta: float = DEFAULT_THETA, gamma: float | None = None, eta0: float = 1.0) -> SolverParams:
    """Build feasible parameters: gamma defaults to gamma_max(theta)."""
    if not eta0 > 0.0:
        raise ValueError("eta0 must be positive")
    gmax = max_gamma(theta)
    if gamma is None:
        gamma = gmax
    elif not 0.0 < gamma <= gmax * (1.0 + 1e-12):
        raise ValueError(f"gamma={gamma:g} outside (0, gamma_max(theta)={gmax:g}]")
    return SolverParams(theta=theta, gamma=gamma, nu=nu_from(theta, gamma), eta0=eta0)


def default_params(eta0: float = 1.0) -> SolverParams:
    """Default choice theta=2: gamma_max is exactly 1/22 and nu is 11/2116."""
    return SolverParams(
        theta=DEFAULT_THETA,
        gamma=DEFAULT_GAMMA,
        nu=nu_from(DEFAULT_THETA, DEFAULT_GAMMA),
        eta0=eta0,
    )


def validate(params: SolverParams, rel_tol: float = 1e-12) -> ParamReport:
    """Check both parameter relations, reporting residuals."""
    th, ga, nu = params.theta, params.gamma, params.nu
    positive_ok = th > 0.0 and ga > 0.0 and nu > 0.0 and params.eta0 > 0.0
    if positive_ok:
        eq_resid = abs(4.0 * nu * th * (1.0 + ga) ** 2 - ga) / ga
        lhs = 1.0 + 2.0 * ga + ga * th**2 / (1.0 + th) ** 2
        rhs = th / (1.0 + th) + th**2 / (1.0 + th) ** 2
    else:
        eq_resid = math.inf
        lhs, rhs = math.inf, 0.0
    slack = rhs - lhs
    return ParamReport(
        positive_ok=positive_ok,
        equality_residual=eq_resid,
        equality_ok=eq_resid <= rel_tol,
        inequality_lhs=lhs,
        inequality_rhs=rhs,
        inequality_slack=slack,
        inequality_ok=lhs <= rhs + rel_tol,
    )


def rate_constants(params: SolverParams, L: float) -> RateConstants:
    """Constants (c, m) of the stepsize-sum lower bound sqrt(H_k) >= (c/sqrt(L))(k - m)."""
    if not L > 0.0:
        raise ValueError("L must be positive")
    ga, nu, eta0 = params.gamma, params.nu, params.eta0
    c1 = math.sqrt(nu) / (3.0 * (2.0 + ga))
    c2 = math.sqrt(nu) * ga / (16.0 * (ga * (1.0 + ga) ** 5 * (2.0 + ga) ** 3) ** 0.25)
    c = min(c1, c2)
    arg = 4.0 * c * c / (ga * eta0 * L)
    m = math.ceil(max(2.0, math.log(arg) / math.log1p(ga)))
    return RateConstants(c=c, m=int(m))
