"""Certificate checks along solver traces.

A trace from a run with valid parameters must satisfy, in exact
arithmetic: a nonincreasing Lyapunov sequence, an endpoint bound tying
every iterate to the starting point, a lower envelope on the stepsize
sum, and a family of per-iteration identities and inequalities. All of
these are checked here numerically, with relative 1e-10 and absolute
1e-12 floors unless a check states its own slack. The decay, endpoint and
Bregman checks use stored iterates and fresh oracle calls, never
solver-internal caches, so they validate the solver independently; the
envelope and the other lemmas read the stored scalar columns.

The fresh calls of one trace are its reference points, then one forward
sweep over k that evaluates x_bar[k] and x_tilde[k] in order, in blocks
of B = max(1, ROW_BLOCK // d) values of k. On a growth step x_bar[k] is
often bit-equal to x_tilde[k-1], and the oracle is a function of x, so
that point's result is reused. A block lays its points out in call order
behind a look-back row (x[0] for the first block, which x_bar[0] repeats
in a solver trace), and one call of :func:`_evaluate_rows` evaluates its
distinct points, in one stacked call of an oracle that declares ``rows``,
and squares them and their checked outputs row-wise, under the sweep's
``np.errstate``, into one stacked result whose adjacent rows are the
curvature pairs; their Bregman values, curvature estimates, momentum
terms and distances are formed row-wise, with the bits of the per-k
formulas. So the sweep
holds O(B d) floats per temporary plus O(K) scalars, never the trace's
fresh gradients. It builds the per-k arrays that the decay series, the
endpoint bound (whose right side reads the gradient at x[0]) and the
lemma suite read. Each check reports its largest violation at the first k
that attains it; a positive or NaN one fails it, so a pass shows its
margin, and a check with no rows to compare passes as not applicable. The
sweep's gate, before any oracle call, is its only check of stored points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .curvature import lambda_option2_rows
from .oracle import (DimensionMismatchError, NonFiniteError, Oracle, OracleResult, _call,
                     _call_rows, evaluate)
from .params import SolverParams, rate_constants
from .solver import Trace

# the checks that run_certificates knows by name, in report order
CHECKS = ("psi", "corollary", "h_envelope", "lemmas", "evals")

REL_TOL = 1e-10
ABS_TOL = 1e-12
# doubles per row of a replay block: a block holds max(1, ROW_BLOCK // d) rows
ROW_BLOCK = 8192


class MissingIteratesError(ValueError):
    """The requested check needs stored iterates (store_iterates required)."""

    def __init__(self):
        super().__init__("store_iterates required for this check")


class ConvergedWindowError(ValueError):
    """All or part of the fit window has nonpositive gaps."""


@dataclass(frozen=True)
class CertificateEntry:
    name: str
    passed: bool
    worst_violation: float
    worst_k: int
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (f"{self.name:<28} {status}  worst {self.worst_violation:.3e}"
                f" at k={self.worst_k}{extra}")


@dataclass
class CertificateReport:
    entries: list[CertificateEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def lines(self) -> list[str]:
        return [e.line() for e in self.entries]


@dataclass(frozen=True)
class LyapunovSeries:
    """Values of the decay certificate at k = 1..K for one reference point.

    The total is the sum of a squared-distance term, a weighted gap
    term, a weighted Bregman carry-over term, and a momentum term.
    """

    k: np.ndarray
    total: np.ndarray
    dist_term: np.ndarray
    gap_term: np.ndarray
    bregman_term: np.ndarray
    momentum_term: np.ndarray


def _sweep(name: str, ks, viol, detail: str = "") -> CertificateEntry:
    """Entry for the violations ``viol`` at iterations ``ks``: the worst one
    (NaN first) at the first k attaining it, which fails the entry if it is
    positive or NaN, so a pass reports its margin (zero or negative); no
    violations at all (no rows to compare) pass at k = 0 as not applicable.
    """
    viol = np.asarray(viol, dtype=np.float64)
    if not len(viol):
        return CertificateEntry(name, True, 0.0, 0, "not applicable: no rows to compare")
    i = int(np.argmax(viol))  # the first NaN if any, else the first maximum
    return CertificateEntry(name, bool(viol[i] <= 0.0), float(viol[i]), int(ks[i]), detail)


def _params(trace: Trace, params: SolverParams | None) -> SolverParams:
    params = params or trace.params
    if params is None:
        raise ValueError("solver parameters required (trace carries none)")
    return params


class _Pass(NamedTuple):  # the per-k arrays of one forward sweep over a trace
    f_bar: np.ndarray  # fresh f(x_bar[k]), k = 0..K
    carry: np.ndarray  # B(x_bar[k-1]; x_tilde[k-1]), k = 1..K
    ahead: np.ndarray  # B(x_bar[k]; x_tilde[k-1]), k = 1..K
    series: list       # one LyapunovSeries per reference point
    rhs: np.ndarray    # the endpoint bound's right side, one per reference point


def _rows(res: OracleResult, rows: slice) -> OracleResult:
    """The ``rows`` of a stacked result."""
    return OracleResult(*(f[rows] for f in res))


def _evaluate_rows(oracle: Oracle, points: np.ndarray,
                   before: OracleResult | None = None) -> OracleResult:
    """:func:`~aagd.oracle.evaluate` at each row of the (n, d) ``points``,
    taken in call order, as one stacked result: (n,) values and squared
    norms, (n, d) gradients and points.

    The rows are float64, finite and ``oracle.dim`` wide, and the caller
    holds the ``np.errstate``: :func:`_replay` has checked its stored
    iterates before its first call, and nothing else calls this. So only
    the outputs are checked, with the bits of :func:`evaluate`. ``oracle.fn``
    is called only at a row that is not bit-equal to the point before it,
    which for the first row is the last row of the stacked result
    ``before``, if given; a repeated row gets the value and gradient of
    that point. This assumes what every kernel promises: ``fn`` is a
    function of x, so equal bits in give equal bits out. An oracle that
    declares ``rows`` is called once, at the stack of the distinct rows;
    any other once per distinct row, in order. An output of the wrong
    shape raises at its call, a non-finite one after the last call.
    """
    values, grads = np.empty(len(points)), np.empty_like(points)
    # each row against the point of the call before it, as int64 bits: -0.0 differs from +0.0
    bits = points.view(np.int64)
    repeat = np.zeros(len(points), dtype=bool)
    repeat[1:] = (bits[1:] == bits[:-1]).all(axis=1)
    if before is not None and np.array_equal(bits[0], before.x[-1].view(np.int64)):
        repeat[0] = True
        values[0], grads[0] = before.value[-1], before.grad[-1]
    new = ~repeat
    if not oracle.rows:
        for i in np.flatnonzero(new):
            values[i], grads[i] = _call(oracle, points[i])
    elif new.any():
        values[new], grads[new] = _call_rows(oracle, points[new])
    # a repeat takes the output of the last row called before it, or of row 0
    src = np.maximum.accumulate(np.where(new, np.arange(len(points)), 0))[repeat]
    values[repeat], grads[repeat] = values[src], grads[src]
    grad_sq = np.vecdot(grads, grads)
    # a finite square settles a row (all_finite); a finite row may still square to inf
    if not (np.isfinite(values).all() and np.isfinite(grads[~np.isfinite(grad_sq)]).all()):
        raise NonFiniteError(f"oracle {oracle.label!r} returned non-finite output")
    return tuple.__new__(OracleResult, (values, grads, points, grad_sq,
                                        np.vecdot(points, points)))


@np.errstate(all="ignore")
def _replay(trace: Trace, oracle: Oracle, params: SolverParams, x_refs=()) -> _Pass:
    """Evaluate the reference points ``x_refs``, then x[0], x_bar[k] and
    x_tilde[k], k = 0..K in order, once per distinct point, in blocks of
    B = max(1, ROW_BLOCK // d) values of k.

    First, before any call, it raises MissingIteratesError without stored
    iterates, DimensionMismatchError for a width other than ``oracle.dim``,
    and NonFiniteError naming the block and first k of a non-finite entry.

    A block over k0 <= k < k1 evaluates, in call order, the look-back
    point x_tilde[k0-1], which repeats the last point evaluated and costs
    no call (x[0] for the first block, whose gradient gives the endpoint
    bound's right sides ``rhs``), then x_bar[k] and x_tilde[k]. So the
    calls do not depend on B, and both pair families are adjacent rows:
    (x_bar[k], x_tilde[k]) gives the carry-over and the second curvature
    estimate, (x_bar[k], x_tilde[k-1]) the look-ahead Bregman value and
    the first. The per-k arrays span k = 0..K and are sliced after the
    sweep (the k = 0 look-back pair goes unread); the decay terms are then
    formed from O(K) scalars.
    """
    tr, th, ga, K = trace, params.theta, params.gamma, trace.n_iters
    if not tr.has_iterates:
        raise MissingIteratesError()
    if tr.x.shape[1] != oracle.dim:
        raise DimensionMismatchError(f"the trace stores iterates of dimension {tr.x.shape[1]}, "
                                     f"the oracle has dim = {oracle.dim}")
    # row squares, as all_finite: np.vdot would copy a strided block whole
    if not all(np.isfinite(np.vecdot(v, v)).all() or np.isfinite(v).all()
               for v in (tr.x, tr.x_bar, tr.x_tilde)):
        bad = ~np.isfinite([tr.x, tr.x_bar, tr.x_tilde]).all(axis=2)  # (block, k)
        k = int(bad.any(axis=0).argmax())
        raise NonFiniteError(f"{('x', 'x_bar', 'x_tilde')[bad[:, k].argmax()]} at k = {k} has "
                             "a non-finite entry; the solver stores only finite iterates")
    refs = [evaluate(oracle, x) for x in x_refs]  # each point as floats, with its value
    B = max(1, ROW_BLOCK // oracle.dim)
    f_bar, f_til, lam_same, lam_ahead, carry, ahead, mom = np.empty((7, K + 1))
    dist = np.empty((len(refs), K + 1))
    res = None  # the previous block's stacked result, which ends at x_tilde[k0-1]
    for k0 in range(0, K + 1, B):
        k1 = min(k0 + B, K + 1)
        rows = np.empty((2 * (k1 - k0) + 1, oracle.dim))
        rows[0] = tr.x_tilde[k0 - 1] if k0 else tr.x[0]
        rows[1::2], rows[2::2] = tr.x_bar[k0:k1], tr.x_tilde[k0:k1]
        res = _evaluate_rows(oracle, rows, before=res)
        bar = _rows(res, slice(1, None, 2))
        f_bar[k0:k1], f_til[k0:k1] = bar.value, res.value[2::2]
        lam_same[k0:k1], carry[k0:k1] = lambda_option2_rows(bar, _rows(res, slice(2, None, 2)))
        lam_ahead[k0:k1], ahead[k0:k1] = lambda_option2_rows(bar, _rows(res, slice(0, -1, 2)))
        if refs:  # the decay terms serve only the series
            dk = np.diff(tr.x[max(k0 - 1, 0):k1], axis=0)  # x[k] - x[k-1] for k >= max(k0, 1)
            mom[k1 - len(dk):k1] = 0.5 * ga * th * np.vecdot(dk, dk)
            for j, ref in enumerate(refs):
                dx = tr.x[k0:k1] - ref.x
                dist[j, k0:k1] = 0.5 * np.vecdot(dx, dx)
        if not k0:  # the endpoint bound's right side, from |grad f(x[0])|^2
            rhs = dist[:, 0] + 0.5 * (1.0 + ga * th) * tr.eta[0]**2 * res.grad_sq[0]
    carry, ahead, mom, dist = carry[:-1], ahead[1:], mom[1:], dist[:, 1:]
    if not refs:
        return _Pass(f_bar, carry, ahead, [], rhs)
    lam = np.where(lam_same < lam_ahead, lam_same, lam_ahead)[1:]  # Python's min, NaN included
    scale = 1.0 + np.abs(f_bar[:-1]) + np.abs(f_til[:-1])
    # an infinite estimate zeroes the term; a carry-over that does not vanish makes it NaN
    breg = np.where(np.abs(carry) <= 1e-9 * scale, 0.0, math.nan)
    f = ~np.isinf(lam)
    breg[f] = th * tr.eta[1:][f] * tr.eta[:-1][f] / lam[f] * carry[f]
    gaps = [tr.H[:-1] * (f_bar[1:] - ref.value) for ref in refs]
    series = [LyapunovSeries(np.arange(1, K + 1), d + g + breg + mom, d, g, breg, mom)
              for d, g in zip(dist, gaps)]
    return _Pass(f_bar, carry, ahead, series, rhs)


@np.errstate(all="ignore")
def _corollary(series: LyapunovSeries, rhs: float, name: str) -> CertificateEntry:
    """Endpoint bound at k = 1..K: the series' distance and gap terms against ``rhs``."""
    lhs = series.dist_term + series.gap_term
    e = _sweep(name, series.k, lhs - (rhs * (1.0 + REL_TOL) + ABS_TOL))
    return replace(e, detail=f"lhs={lhs[e.worst_k - 1]:.6e} rhs={rhs:.6e}") if len(lhs) else e


def lyapunov_series(trace: Trace, x_ref, oracle: Oracle,
                    params: SolverParams | None = None) -> LyapunovSeries:
    """Evaluate the decay certificate along a trace at a reference point.

    Bregman values and curvature estimates are recomputed from the
    stored iterates with fresh calls of ``oracle``, which no trace counts.
    Where the curvature estimate is infinite its term is zero by
    convention; if the Bregman carry-over does not vanish there, the
    term is NaN and the decay check fails at that k.
    """
    return _replay(trace, oracle, _params(trace, params), [x_ref]).series[0]


@np.errstate(all="ignore")
def check_monotone_psi(series: LyapunovSeries, name: str = "psi_monotone") -> CertificateEntry:
    """Pass iff each value is below its predecessor up to the slacks:
    relative 1e-10 and absolute 1e-12 * (1 + |first value|).
    """
    psi = series.total
    abs_floor = ABS_TOL * (1.0 + abs(float(psi[0]))) if len(psi) else ABS_TOL
    return _sweep(name, series.k[1:], psi[1:] - (psi[:-1] * (1.0 + REL_TOL) + abs_floor))


def check_corollary_bound(trace: Trace, x_ref, oracle: Oracle,
                          params: SolverParams | None = None,
                          name: str = "corollary_bound") -> CertificateEntry:
    """Endpoint bound at every k = 1..K for any reference point, from a full replay."""
    fresh = _replay(trace, oracle, _params(trace, params), [x_ref])
    return _corollary(fresh.series[0], fresh.rhs[0], name)


def _check_L(L: float | None, checks) -> None:
    """Raise unless 0 < L < inf, naming the ``checks`` that read L; elsewhere they say nothing."""
    if L is None or not 0.0 < L < math.inf:
        raise ValueError("a positive smoothness constant L is required by "
                         f"{', '.join('check ' + c for c in checks)}; got L = {L}")


def check_inputs(checks, L: float | None, x_refs, has_iterates: bool) -> None:
    """Raise what :func:`run_certificates` raises, before any oracle call, for an
    input the ``checks`` lack: h_envelope and lemmas (lambda_floor) read ``L``,
    which must be None or in (0, inf), and psi and corollary replay stored
    iterates at ``x_refs``."""
    readers = [c for c in ("h_envelope", "lemmas") if c in checks]
    if readers and L is not None:
        _check_L(L, readers)
    if x_refs and not has_iterates and {"psi", "corollary"} & set(checks):
        raise MissingIteratesError()


@np.errstate(all="ignore")
def check_h_envelope(trace: Trace, params: SolverParams | None, L: float,
                     name: str = "h_envelope") -> CertificateEntry:
    """sqrt of the stepsize sum stays above the linear envelope (c/sqrt(L))(k-m)."""
    _check_L(L, ("h_envelope",))
    rc = rate_constants(replace(_params(trace, params), eta0=float(trace.eta[0])), L)
    ks = np.arange(trace.n_iters + 1)
    # m as a float: a tiny gamma and eta0 give an m beyond int64 (exact below 2**53)
    return _sweep(name, ks, rc.c / math.sqrt(L) * (ks - float(rc.m)) - np.sqrt(trace.H) - ABS_TOL,
                  f"c={rc.c:.4e} m={rc.m}")


def lemma_suite(trace: Trace, params: SolverParams | None = None,
                L: float | None = None, oracle: Oracle | None = None) -> list[CertificateEntry]:
    """Per-iteration identities and inequalities along a trace.

    Runs from a (possibly deserialized) trace alone: scalar checks need
    only the scalar columns; the Bregman decay check additionally needs
    stored iterates and an oracle and is skipped when either is absent.
    """
    params = _params(trace, params)
    check_inputs(("lemmas",), L, None, trace.has_iterates)
    fresh = _replay(trace, oracle, params) if oracle is not None and trace.has_iterates else None
    return _lemmas(trace, params, L, fresh)


@np.errstate(all="ignore")
def _lemmas(trace: Trace, params: SolverParams, L: float | None,
            fresh: _Pass | None) -> list[CertificateEntry]:
    ga = params.gamma
    ks = np.arange(trace.n_iters + 1)
    a, b, eta, H, f_bar = trace.alpha, trace.beta, trace.eta, trace.H, trace.f_bar
    entries = [
        _sweep("alpha_beta_range", ks, np.maximum.reduce(
            [0.0 - np.minimum(a, b) + np.finfo(float).tiny, a - 1.0, b - 1.0])),
        _sweep("eta_coupling", ks, np.abs(eta - a * b * H) - 1e-12 * eta),
        _sweep("eta_growth", ks[:-1], eta[1:] - (1.0 + ga) * eta[:-1] * (1.0 + 1e-12)),
        _sweep("h_growth", ks[1:], np.maximum(
            H[:-1] - H[1:], H[1:] - (2.0 + ga) * H[:-1] * (1.0 + REL_TOL))),
    ]
    if L is not None:
        floor = 1.0 / L - 1e-9
        entries.append(_sweep("lambda_floor", ks[1:],
                              np.where(np.isnan(trace.lam[1:]), 0.0, floor - trace.lam[1:]),
                              f"floor=1/L-1e-9, L={L:g}"))

    # value-decrement inequality tied to the averaging weight, k = 1..K-1
    inner = ks[1:-1]
    slack = 1e-9 * (1.0 + np.abs(f_bar[inner]))
    entries.append(_sweep("beta_f_value", inner, (f_bar[inner] - trace.f_tilde[inner])
                          - (f_bar[inner] - f_bar[inner + 1]) / b[inner] - slack))
    if fresh is not None:
        n = len(inner)
        entries.append(_sweep("beta_f_bregman", inner, fresh.ahead[:n] - fresh.carry[:n] - slack))
    return entries


def check_eval_schedule(trace: Trace, name: str = "eval_schedule") -> CertificateEntry:
    """One evaluation at setup, exactly two per iteration afterwards."""
    return _sweep(name, trace.k, np.abs(trace.evals_cum - (1 + 2 * trace.k)))


def fit_rate(trace: Trace, k_lo: int, k_hi: int, gap_fn) -> float:
    """Least-squares slope of log(gap) against log(k) over [k_lo, k_hi].

    ``gap_fn(trace, k)`` supplies the gap at iteration k. Raises
    :class:`ConvergedWindowError` when the window holds nonpositive
    gaps, meaning the run already converged there.
    """
    if not (1 <= k_lo < k_hi <= trace.n_iters):
        raise ValueError(f"bad window [{k_lo}, {k_hi}] for a {trace.n_iters}-iteration trace")
    ks = np.arange(k_lo, k_hi + 1)
    gaps = np.array([gap_fn(trace, int(k)) for k in ks], dtype=np.float64)
    if np.any(gaps <= 0.0):
        raise ConvergedWindowError(
            f"nonpositive gap inside [{k_lo}, {k_hi}]: run already converged"
        )
    slope = np.polyfit(np.log(ks), np.log(gaps), 1)[0]
    return float(slope)


def run_certificates(trace: Trace, oracle: Oracle, params: SolverParams | None,
                     L: float | None = None, x_refs: dict | None = None,
                     checks: tuple = CHECKS) -> CertificateReport:
    """Assemble the full certificate report for one trace.

    ``x_refs`` maps reference-point names to points for the decay and
    endpoint checks; each enabled check appears exactly once per name.
    All checks share one forward sweep of fresh oracle calls. ``params``
    default to the trace's own; only the ``evals`` check runs without any.
    Without ``L`` the checks that read it, h_envelope and lambda_floor, are skipped.
    It raises no float warning: an overflow's inf or NaN fails its check.
    A missing input raises (see :func:`check_inputs`) before any oracle call.
    """
    params = _params(trace, params) if set(checks) - {"evals"} else None
    check_inputs(checks, L, x_refs, trace.has_iterates)
    report = CertificateReport()
    refs = (x_refs or {}) if {"psi", "corollary"} & set(checks) else {}
    fresh = (_replay(trace, oracle, params, list(refs.values()))
             if refs or ("lemmas" in checks and trace.has_iterates) else None)
    if "psi" in checks and refs:
        report.entries += [check_monotone_psi(s, name=f"psi_monotone[{r}]")
                           for r, s in zip(refs, fresh.series)]
    if "corollary" in checks and refs:
        report.entries += [_corollary(s, rhs, f"corollary_bound[{r}]")
                           for r, s, rhs in zip(refs, fresh.series, fresh.rhs)]
    if "h_envelope" in checks and L is not None:
        report.entries.append(check_h_envelope(trace, params, L))
    if "lemmas" in checks:
        report.entries.extend(_lemmas(trace, params, L, fresh))
    if "evals" in checks:
        report.entries.append(check_eval_schedule(trace))
    return report

