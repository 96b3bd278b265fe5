"""Adaptive accelerated gradient solver: state machine and run loop.

The run loop (stop rule, divergence capture, oracle call counting, the
float error state and trace recording) is shared with the baselines,
which supply their own state and step function.

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
from .curvature import lambda_option2, local_curvature
from .oracle import NonFiniteError, Oracle, OracleResult, _evaluate, evaluate, sq_norm
from .params import SolverParams, check_valid


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
        if not self.grad_tol >= 0.0:
            raise ValueError("grad_tol must be nonnegative")
        if self.gap_tol is not None:
            if not self.gap_tol >= 0.0:
                raise ValueError("gap_tol must be nonnegative")
            if self.f_star is None:
                raise ValueError("gap_tol requires f_star")
        if self.f_star is not None and not math.isfinite(self.f_star):
            raise ValueError("f_star must be finite")


@dataclass(eq=False, slots=True)
class IterState:
    """All per-iteration quantities at index k.

    ``lam`` is nan at k=0 (no estimate yet) and +inf where the guard fired.
    Slotted, not frozen, as frozen fields cost four times as much to set;
    the package never assigns to a state.
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

    The lam column holds each curvature estimate as the estimator
    returned it: nan at k=0 and in baselines that form none, +inf where
    its guard fired. A run's x, x_bar and x_tilde are the strided views
    ``buf[:, 0]``, ``buf[:, 1]`` and ``buf[:, 2]`` of one (K+1, 3, d) buffer.
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
    diverged: bool = False
    notes: list = field(default_factory=list)

    @property
    def n_iters(self) -> int:
        return len(self.k) - 1

    @property
    def has_iterates(self) -> bool:
        return self.x is not None


def init(x0, params: SolverParams, oracle: Oracle) -> IterState:
    """State at k=0: unit weights, sums seeded with eta0, all points at x0.

    Performs one oracle evaluation at x0, cached as both the lookahead
    and the averaged result. Raises :class:`~aagd.params.InvalidParamsError` if
    ``params`` fail :func:`~aagd.params.validate`.
    """
    check_valid(params)
    x0 = np.asarray(x0, dtype=np.float64)
    res = evaluate(oracle, x0)
    eta0 = params.eta0
    # the extrapolated point x_hat is first formed at k=1
    return IterState(k=0, x=x0, x_bar=x0, x_tilde=x0, x_hat=x0,
                     eta=eta0, eta_prev=eta0, H=eta0, H_prev=eta0, alpha=1.0, beta=1.0,
                     lam=math.nan, tilde_res=res, bar_res=res)


def step(state: IterState, oracle: Oracle, params: SolverParams,
         growth_cap: bool = False) -> IterState:
    """One transition k -> k+1, exactly two new oracle evaluations.

    With ``growth_cap`` the geometric growth branch (1+gamma) eta_k is
    replaced by (1+1/k) eta_k for k >= 1 (k=0 keeps the geometric branch,
    where the cap is undefined). Below k = 1/gamma the cap outgrows that
    branch and beta is clamped: these traces lie outside the certificates'
    hypotheses, and ``aagd run`` reports eta_coupling and eta_growth FAILs.
    It raises no float warning: it is :func:`_step` inside the
    ``np.errstate`` that :func:`run` enters once per run instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _step(state, oracle, params, growth_cap)


def _step(state: IterState, oracle: Oracle, params: SolverParams,
          growth_cap: bool) -> IterState:
    """:func:`step` inside the caller's ``np.errstate``."""
    th, ga, nu = params.theta, params.gamma, params.nu
    grow = (1.0 + ga) * state.eta
    alpha_next = grow / (state.H + grow)

    x_next, xbar_next, xhat_next, xt_next = kernels.step_update(
        state.x, state.x_bar, state.x_tilde, state.tilde_res.grad,
        state.eta, state.beta, th, alpha_next,
    )
    # the evaluations check the two query points; a non-finite x_next
    # makes x_hat (theta > 0) and then xt_next non-finite too
    bar_res = _evaluate(oracle, xbar_next)
    tilde_res = _evaluate(oracle, xt_next)
    # at beta = 1, xbar_next is x_tilde entry by entry (x_bar is finite), so the
    # first estimate is +inf: min(inf, lam2) is local_curvature's result, nan too
    lam_next = (min(math.inf, lambda_option2(bar_res, tilde_res)) if state.beta == 1.0
                else local_curvature(bar_res, state.tilde_res, tilde_res))

    if growth_cap and state.k >= 1:
        grow = (state.k + 1.0) / state.k * state.eta
    eta_next = min(grow, nu * state.H_prev * lam_next / state.eta_prev)
    H_next = state.H + eta_next
    # analytically beta <= 1 always, with equality on the growth branch;
    # rounding can overshoot by ulps (min keeps a nan)
    beta_next = min(eta_next / (alpha_next * H_next), 1.0)

    # positional, in field order: keywords cost about 1 µs more per step
    return IterState(state.k + 1, x_next, xbar_next, xt_next, xhat_next, eta_next, state.eta,
                     H_next, state.H, alpha_next, beta_next, lam_next, tilde_res, bar_res)


def run(oracle: Oracle, x0, params: SolverParams, stop: StopRule, growth_cap: bool = False,
        store_iterates: bool = False) -> Trace:
    """Run the solver until the first satisfied stop rule.

    The reported solution is the averaged iterate of the last recorded
    state. A non-finite query point (or an oracle overflow) terminates
    the run with ``trace.diverged`` set instead of raising, so parameter
    sweeps survive bad configurations.
    """
    def start(oracle):
        return init(x0, params, oracle), lambda st: _step(st, oracle, params, growth_cap)

    return _drive(oracle, start, _row, stop, notes=[], store_iterates=store_iterates,
                  params=params)


def _row(st: IterState) -> tuple:
    return (st.k, st.eta, st.H, st.alpha, st.beta, st.lam,
            st.bar_res.value, st.tilde_res.value, st.tilde_res)


# the scalar columns of a trace, in recorded (and CSV) order
_COLUMNS = ("k", "eta", "H", "alpha", "beta", "lam", "f_bar", "f_tilde",
            "grad_norm_tilde", "evals_cum")
_INT_COLUMNS = ("k", "evals_cum")


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


def _drive(oracle: Oracle, start, row, stop: StopRule, notes: list,
           store_iterates: bool = False, params: SolverParams | None = None) -> Trace:
    """The run loop of the solver and of every baseline; the one place
    that counts oracle calls.

    ``start`` takes a copy of ``oracle`` whose ``fn`` counts its calls
    and returns a method's state after its first evaluation and
    ``advance``, which returns the next state. A state has the iteration
    ``k``, the stepsize ``eta`` and ``bar_res``, the oracle result at the
    solution estimate that the stop rules test; after them a zero
    stepsize ends the run, as no method moves from it. ``row`` gives a
    state's scalar columns up to ``f_tilde`` and then the oracle result
    whose gradient norm is recorded; the driver adds that norm and the
    calls made so far. Every baseline records ``bar_res``, whose norm is
    then formed once per row. The :class:`NonFiniteError` of a non-finite
    query point or oracle output ends the run with ``diverged`` set and
    a note instead of raising, before a row could count the rejected call.

    The loop enters the one ``np.errstate`` of the run, so an overflowing
    step of any method ends as ``diverged`` without a warning. With
    ``store_iterates`` it copies each row's x, x_bar and x_tilde into a
    (capacity, 3, d) buffer of min(max_iters + 1, 64) rows that doubles in
    place up to max_iters + 1 and is cut to K+1 rows at the end.
    """
    fn, calls = oracle.fn, 0

    def counted(x):
        nonlocal calls
        calls += 1
        return fn(x)

    rows, diverged = [], False
    buf = np.empty((min(stop.max_iters + 1, 64), 3, oracle.dim)) if store_iterates else None
    with np.errstate(over="ignore", invalid="ignore"):
        state, advance = start(Oracle(counted, oracle.dim, oracle.label))
        while True:
            *scalars, recorded = row(state)
            res = state.bar_res
            norm = _grad_norm(res)
            rows.append((*scalars, norm if recorded is res else _grad_norm(recorded), calls))
            if store_iterates:
                if len(rows) > len(buf):  # no view of buf exists before the final resize
                    buf.resize((min(2 * len(buf), stop.max_iters + 1), 3, oracle.dim),
                               refcheck=False)
                buf[len(rows) - 1] = state.x, state.x_bar, state.x_tilde
            if (state.k >= stop.max_iters or norm <= stop.grad_tol
                    or (stop.gap_tol is not None and res.value - stop.f_star <= stop.gap_tol)
                    or state.eta == 0.0):
                break
            try:
                state = advance(state)
            except NonFiniteError as exc:
                diverged = True
                notes.append((state.k + 1, f"divergence: {exc}"))
                break

    cols = {name: np.asarray(vals, dtype=np.int64 if name in _INT_COLUMNS else np.float64)
            for name, vals in zip(_COLUMNS, zip(*rows))}
    if store_iterates:
        buf.resize((len(rows), 3, oracle.dim), refcheck=False)  # the columns are its first views
        cols["x"], cols["x_bar"], cols["x_tilde"] = buf.transpose(1, 0, 2)
    return Trace(**cols, params=params, diverged=diverged, notes=notes)
