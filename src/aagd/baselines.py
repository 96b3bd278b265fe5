"""Comparison methods sharing the oracle and trace infrastructure.

Fixed-step gradient descent, Nesterov's accelerated method, and plain
gradient descent driven by four stepsize rules: adaptive secant-based
growth, scalar adagrad normalization, the two-point secant ratio, and
the optimal-value ratio. Trace columns that do not apply to a method
are left as nan and serialize to empty cells.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .curvature import lambda_option1
from .oracle import Oracle, OracleResult, _evaluate, evaluate
from .solver import StopRule, Trace, _drive


@dataclass(frozen=True)
class BaselineMethod:
    """A baseline kind plus its hyperparameters.

    gd/agd need a stepsize ``eta`` (typically 1/L); adagrad uses ``eta``
    as its scale. adgd and bb start from ``eta0``; adgd runs the rule of
    Malitsky and Mishchenko (arXiv:1910.09529) with its fixed constants:
    the stepsize after eta_k grows by at most sqrt(1 + eta_k/eta_{k-1})
    and is capped at half the secant estimate. polyak needs the optimal
    value.
    """

    kind: str
    eta: float | None = None
    eta0: float | None = None
    f_star: float | None = None

    def __post_init__(self):
        if self.kind not in _METHODS:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if self.kind in ("gd", "agd", "adagrad") and not 0.0 < (self.eta or 0.0) < math.inf:
            raise ValueError(f"{self.kind} requires a positive stepsize eta (0 < eta < inf)")
        if self.kind in ("adgd", "bb") and not 0.0 < (self.eta0 or 0.0) < math.inf:
            raise ValueError(f"{self.kind} requires a positive initial stepsize eta0 "
                             "(0 < eta0 < inf)")
        if self.kind == "polyak" and self.f_star is None:
            raise ValueError("polyak requires f_star")


def run_baseline(method: BaselineMethod, oracle: Oracle, x0, stop: StopRule) -> Trace:
    """Run a baseline and record a trace in the shared scalar schema.

    f_bar holds the objective at the method's solution estimate, and
    grad_norm_tilde the gradient norm at that estimate. The stepsize
    column holds the stepsize applied at that iteration.
    """
    notes: list = []

    def start(oracle):
        return _METHODS[method.kind](method, oracle, notes, evaluate(oracle, x0))

    return _drive(oracle, start, _row, stop, notes=notes)


class _State(NamedTuple):
    """A baseline at iteration k: the oracle result at its solution
    estimate, the stepsize applied from it, the curvature estimate (adgd
    only) and one method-specific carry: the previous stepsize (adgd),
    the sum of squared gradient norms (adagrad) or the z sequence (agd).
    """

    k: int
    bar_res: OracleResult
    eta: float
    lam: float = math.nan
    carry: object = None


def _row(s: _State) -> tuple:
    return (s.k, s.eta, math.nan, math.nan, math.nan, s.lam,
            s.bar_res.value, math.nan, s.bar_res)


# gd, adgd, adagrad, bb and polyak are stepsize rules: rule(method, notes, k,
# s, res) is the state at k from the state s at k-1 (None at k = 0, res at x0)
# and the result res of the gradient step from s. The run loop ends at a zero
# step (adagrad's and polyak's at an optimum); under its np.errstate, an
# overflowing step ends in _evaluate's point check as a divergence, unwarned.

def _descent(rule):
    def start(method, oracle, notes, res):
        def advance(s):
            nxt = _evaluate(oracle, s.bar_res.x - s.eta * s.bar_res.grad)
            return rule(method, notes, s.k + 1, s, nxt)

        return rule(method, notes, 0, None, res), advance

    return start


def _gd(method, notes, k, s, res):
    return _State(k, res, method.eta)


def _adagrad(method, notes, k, s, res):
    sq_sum = res.grad_sq if s is None else s.carry + res.grad_sq
    # eta / sqrt(sum of squared gradient norms); a zero sum means converged
    return _State(k, res, 0.0 if sq_sum == 0.0 else method.eta / math.sqrt(sq_sum),
                  carry=sq_sum)


def _polyak(method, notes, k, s, res):
    gap = res.value - method.f_star
    return _State(k, res, 0.0 if res.grad_sq == 0.0 or gap <= 0.0 else gap / res.grad_sq)


def _bb(method, notes, k, s, res):
    if s is None:
        return _State(k, res, method.eta0)
    # secant ratio <dx, dg> / ||dg||^2, undefined for a vanishing dg
    dg = res.grad - s.bar_res.grad
    dg2 = float(dg.dot(dg))
    cand = float((res.x - s.bar_res.x).dot(dg)) / dg2 if dg2 > 0.0 else -1.0
    if cand > 0.0:
        return _State(k, res, cand)
    notes.append((k, "bb stepsize undefined or nonpositive, kept previous"))
    return _State(k, res, s.eta)


def _adgd(method, notes, k, s, res):
    if s is None:
        return _State(k, res, method.eta0, carry=method.eta0)
    lam = lambda_option1(res, s.bar_res)
    # the gated growth branch, capped by the curvature branch (which an
    # infinite estimate leaves inactive)
    eta = min(s.eta * math.sqrt(1.0 + s.eta / s.carry), 0.5 * lam)
    return _State(k, res, eta, lam, carry=s.eta)


def _agd(method, oracle, notes, res):
    """Nesterov acceleration in the three-sequence form with weights 2/(k+2).

    Imported external scheme; per iteration it spends one evaluation at
    the query point and one at the new solution estimate for the trace.
    """
    eta = method.eta

    def advance(s):
        tau = 2.0 / (s.k + 2.0)
        y = (1.0 - tau) * s.bar_res.x + tau * s.carry
        gy = _evaluate(oracle, y)
        x = y - eta * gy.grad
        z = s.carry - (eta / tau) * gy.grad
        return _State(s.k + 1, _evaluate(oracle, x), eta, carry=z)

    return _State(0, res, eta, carry=res.x), advance


_METHODS = {"gd": _descent(_gd), "agd": _agd, "adgd": _descent(_adgd),
            "adagrad": _descent(_adagrad), "bb": _descent(_bb), "polyak": _descent(_polyak)}
