"""Adaptive accelerated gradient solver: state machine and run loop.

The run loop (stop rule, divergence capture, evaluation counting and
trace recording) is shared with the baselines, which supply their own
state and step function.

One iteration performs, in order: the mixing weight update, the gradient
step, the averaging (coupling) step, the extrapolation step, the
lookahead combination, the local curvature estimate, the stepsize and
stepsize-sum update, and the coupling weight update. Exactly two new
oracle evaluations happen per iteration (at the new averaged point and
at the new lookahead point); the result at the current lookahead point
is reused from the previous iteration's cache.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .curvature import local_curvature
from .oracle import (EvalCounter, NonFiniteError, Oracle, OracleResult, _evaluate, all_finite,
                     evaluate, sq_norm)
from .params import SolverParams, validate


class InvalidParamsError(ValueError):
    pass


class DivergenceError(RuntimeError):
    """A non-finite iterate appeared; the run loop records this instead of crashing."""

    def __init__(self, k: int):
        super().__init__(f"non-finite iterate at step {k}")
        self.k = k


@dataclass(frozen=True)
class StopRule:
    """Stopping rules; the iteration cap is always active.

    ``grad_tol`` stops when the gradient norm at the averaged iterate
    falls to the tolerance; ``gap_tol`` stops on the objective gap and
    requires ``f_star``.
    """

    max_iters: int
    grad_tol: float = 0.0
    gap_tol: float | None = None
    f_star: float | None = None

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.grad_tol < 0.0:
            raise ValueError("grad_tol must be nonnegative")
        if self.gap_tol is not None:
            if self.gap_tol < 0.0:
                raise ValueError("gap_tol must be nonnegative")
            if self.f_star is None:
                raise ValueError("gap_tol requires f_star")


@dataclass(frozen=True, eq=False)
class IterState:
    """All per-iteration quantities at index k.

    ``lam`` is nan at k=0 (no curvature estimate exists yet).
    """

    k: int
    x: np.ndarray
    x_bar: np.ndarray
    x_tilde: np.ndarray
    x_hat: np.ndarray
    eta: float
    eta_prev: float
    H: float
    H_prev: float
    alpha: float
    beta: float
    lam: float
    tilde_res: OracleResult
    bar_res: OracleResult


@dataclass
class Trace:
    """Recorded scalars (always) and iterates (optional) of one run.

    The lam column stores nan both at k=0 (undefined) and where the
    curvature estimate took its infinite branch; the two serialize
    identically and no check distinguishes them.
    """

    k: np.ndarray
    eta: np.ndarray
    H: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    lam: np.ndarray
    f_bar: np.ndarray
    f_tilde: np.ndarray
    grad_norm_tilde: np.ndarray
    evals_cum: np.ndarray
    x: np.ndarray | None = None
    x_bar: np.ndarray | None = None
    x_tilde: np.ndarray | None = None
    params: SolverParams | None = None
    method: str = ""
    problem: dict = field(default_factory=dict)
    diverged: bool = False
    notes: list = field(default_factory=list)

    @property
    def n_iters(self) -> int:
        return len(self.k) - 1

    @property
    def has_iterates(self) -> bool:
        return self.x is not None


def init(x0, params: SolverParams, oracle: Oracle,
         counter: EvalCounter | None = None, check_params: bool = True) -> IterState:
    """State at k=0: unit weights, sums seeded with eta0, all points at x0.

    Performs one oracle evaluation at x0, cached as both the lookahead
    and the averaged result.
    """
    if check_params:
        report = validate(params)
        if not report.passed:
            raise InvalidParamsError(
                "invalid solver parameters:\n" + "\n".join(report.lines())
            )
    x0 = np.asarray(x0, dtype=np.float64)
    res = evaluate(oracle, x0, counter)
    eta0 = params.eta0
    # the extrapolated point x_hat is first formed at k=1
    return IterState(k=0, x=x0, x_bar=x0, x_tilde=x0, x_hat=x0,
                     eta=eta0, eta_prev=eta0, H=eta0, H_prev=eta0, alpha=1.0, beta=1.0,
                     lam=math.nan, tilde_res=res, bar_res=res)


def step(state: IterState, oracle: Oracle, params: SolverParams,
         counter: EvalCounter | None = None, growth_cap: bool = False) -> IterState:
    """One transition k -> k+1, exactly two new oracle evaluations.

    With ``growth_cap`` the geometric growth branch (1+gamma) eta_k is
    replaced by (1+1/k) eta_k for k >= 1; the first step keeps the
    geometric branch since the cap is undefined at k=0.
    """
    th, ga, nu = params.theta, params.gamma, params.nu
    grow = (1.0 + ga) * state.eta
    alpha_next = grow / (state.H + grow)

    # each new point is squared once; the evaluations reuse the squares
    with np.errstate(over="ignore", invalid="ignore"):
        x_next, xbar_next, xhat_next, xt_next = kernels.step_update(
            state.x, state.x_bar, state.x_tilde, state.tilde_res.grad,
            state.eta, state.beta, th, alpha_next,
        )
        bar_sq, tilde_sq = sq_norm(xbar_next), sq_norm(xt_next)
        if not (all_finite(x_next, sq_norm(x_next)) and all_finite(xbar_next, bar_sq)
                and all_finite(xt_next, tilde_sq)):
            raise DivergenceError(state.k + 1)
        bar_res = _evaluate(oracle, xbar_next, bar_sq, counter)
        tilde_res = _evaluate(oracle, xt_next, tilde_sq, counter)
    lam_next = local_curvature(bar_res, state.tilde_res, tilde_res)

    if growth_cap and state.k >= 1:
        grow = (state.k + 1.0) / state.k * state.eta
    eta_next = min(grow, nu * state.H_prev * lam_next / state.eta_prev)
    H_next = state.H + eta_next
    beta_next = eta_next / (alpha_next * H_next)
    if beta_next > 1.0:
        # analytically beta <= 1 always, with equality on the growth
        # branch; rounding can overshoot by ulps
        beta_next = 1.0

    return IterState(k=state.k + 1, x=x_next, x_bar=xbar_next, x_tilde=xt_next, x_hat=xhat_next,
                     eta=eta_next, eta_prev=state.eta, H=H_next, H_prev=state.H,
                     alpha=alpha_next, beta=beta_next, lam=lam_next,
                     tilde_res=tilde_res, bar_res=bar_res)


def run(oracle: Oracle, x0, params: SolverParams, stop: StopRule,
        growth_cap: bool = False, store_iterates: bool = False,
        problem_meta: dict | None = None, check_params: bool = True) -> Trace:
    """Run the solver until the first satisfied stop rule.

    The reported solution is the averaged iterate of the last recorded
    state. A non-finite iterate (or an oracle overflow) terminates the
    run with ``trace.diverged`` set instead of raising, so parameter
    sweeps survive bad configurations.
    """
    counter = EvalCounter()
    state = init(x0, params, oracle, counter, check_params=check_params)
    return _drive(
        state, lambda st: step(st, oracle, params, counter, growth_cap=growth_cap),
        _row, stop, counter, notes=[], store_iterates=store_iterates,
        params=params,
        method="aagd" + ("+cap" if growth_cap else ""),
        problem=dict(problem_meta or {}),
    )


def _row(st: IterState) -> tuple:
    return (st.k, st.eta, st.H, st.alpha, st.beta, st.lam,
            st.bar_res.value, st.tilde_res.value, st.tilde_res)


_COLUMNS = ("k", "eta", "H", "alpha", "beta", "lam", "f_bar", "f_tilde",
            "grad_norm_tilde", "evals_cum")


def _grad_norm(res: OracleResult) -> float:
    """Gradient norm from the result's squared norm; the gradient is rescaled
    by its largest entry only if that square overflowed.

    While the square is finite the result equals ``np.linalg.norm`` bit
    for bit.
    """
    if math.isfinite(res.grad_sq):
        return math.sqrt(res.grad_sq)
    top = float(np.max(np.abs(res.grad)))
    return top * math.sqrt(sq_norm(res.grad / top))


def _drive(state, advance, row, stop: StopRule, counter: EvalCounter, notes: list,
           store_iterates: bool = False, **fields) -> Trace:
    """The run loop of the solver and of every baseline.

    ``state`` is a method's state after its first evaluation; it carries
    the iteration ``k`` and ``bar_res``, the oracle result at the
    solution estimate that the stop rule tests. ``advance`` returns the
    next state, or None when the method cannot move (a zero stepsize).
    ``row`` gives a state's scalar columns up to ``f_tilde`` and then the
    oracle result whose gradient norm is recorded; the driver adds that
    norm and the evaluation count. A non-finite iterate or oracle output
    ends the run with ``diverged`` set and a note instead of raising.
    """
    rows, iterates = [], []
    diverged = False
    while True:
        *scalars, recorded = row(state)
        rows.append((*scalars, _grad_norm(recorded), counter.n_value_grad))
        if store_iterates:
            iterates.append((state.x, state.x_bar, state.x_tilde))
        res = state.bar_res
        if (state.k >= stop.max_iters or _grad_norm(res) <= stop.grad_tol
                or (stop.gap_tol is not None and res.value - stop.f_star <= stop.gap_tol)):
            break
        try:
            nxt = advance(state)
        except (DivergenceError, NonFiniteError) as exc:
            diverged = True
            notes.append((state.k + 1, f"divergence: {exc}"))
            break
        if nxt is None:
            break
        state = nxt

    cols = {name: np.asarray(vals, dtype=np.int64 if name in ("k", "evals_cum") else np.float64)
            for name, vals in zip(_COLUMNS, zip(*rows))}
    # an infinite curvature estimate is stored as nan, like the undefined one at k=0
    cols["lam"][np.isinf(cols["lam"])] = math.nan
    if store_iterates:
        cols["x"], cols["x_bar"], cols["x_tilde"] = (np.asarray(v) for v in zip(*iterates))
    return Trace(**cols, **fields, diverged=diverged, notes=notes)
