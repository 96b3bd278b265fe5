"""Certificate checks along solver traces.

A trace from a run with valid parameters must satisfy, in exact
arithmetic: a nonincreasing Lyapunov sequence, an endpoint bound tying
the final averaged iterate to the starting point, a lower envelope on
the stepsize sum, and a family of per-iteration identities and
inequalities. All of these are checked here numerically, with relative
1e-10 and absolute 1e-12 floors unless a check states its own slack.
Everything is recomputed from stored iterates and fresh oracle calls,
never from solver-internal caches, so the checks validate the solver
independently.

The fresh calls of one trace form one forward sweep over k: x_bar[k] and
x_tilde[k] are evaluated once each, in order, in blocks of B = max(1,
ROW_BLOCK // d) rows. One call of :func:`~aagd.oracle.evaluate_rows` per
block checks and squares the block's points and outputs row-wise, under
one ``np.errstate``, and stacks its results into one result per point
family; its Bregman values, curvature estimates, momentum terms and
distances are then formed row-wise, with the bits of the per-k
formulas. So the sweep holds O(B d) floats per temporary plus O(K)
scalars, never the trace's fresh gradients. It builds the per-k arrays
that the decay series at every reference point, the endpoint bound and
the lemma suite read; the endpoint bound alone evaluates only x_bar[K],
x[0] and the reference point. Each check sweeps an array of violations;
a positive or NaN one fails it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .curvature import lambda_option2_rows
from .oracle import Oracle, OracleResult, evaluate, evaluate_rows
from .params import SolverParams, rate_constants
from .solver import Trace

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


def _sweep(name: str, ks, viol, detail: str = "", pass_k: int = 0) -> CertificateEntry:
    """Entry for the violations ``viol`` at iterations ``ks``: fails on a
    positive or NaN one and reports the worst (NaN first) at the first k
    attaining it; a pass reports 0 at ``pass_k``.
    """
    viol = np.asarray(viol, dtype=np.float64)
    if len(viol):
        i = int(np.argmax(viol))  # the first NaN if any, else the first maximum
        if not viol[i] <= 0.0:
            return CertificateEntry(name, False, float(viol[i]), int(ks[i]), detail)
    return CertificateEntry(name, True, 0.0, pass_k, detail)


def _params(trace: Trace, params: SolverParams | None) -> SolverParams:
    params = params or trace.params
    if params is None:
        raise ValueError("solver parameters required (trace carries none)")
    return params


def _reference(trace: Trace, oracle: Oracle, x_ref) -> tuple[np.ndarray, float]:
    """A reference point as floats with its fresh objective value."""
    if not trace.has_iterates:
        raise MissingIteratesError()
    if trace.n_iters < 1:
        raise ValueError("trace has no iterations")
    x_ref = np.asarray(x_ref, dtype=np.float64)
    return x_ref, evaluate(oracle, x_ref).value


class _Pass(NamedTuple):  # the per-k arrays of one forward sweep over a trace
    f_bar: np.ndarray  # fresh f(x_bar[k]), k = 0..K
    carry: np.ndarray  # B(x_bar[k-1]; x_tilde[k-1]), k = 1..K
    ahead: np.ndarray  # B(x_bar[k]; x_tilde[k-1]), k = 1..K
    series: list       # one LyapunovSeries per reference point


def _rows(res: OracleResult, rows: slice) -> OracleResult:
    """The ``rows`` of a stacked result."""
    return OracleResult(*(f[rows] for f in res))


def _replay(trace: Trace, oracle: Oracle, params: SolverParams, refs=()) -> _Pass:
    """Evaluate x_bar[k] and x_tilde[k] once each, k = 0..K in order, in
    blocks of B = max(1, ROW_BLOCK // d) rows; ``refs`` holds (x_ref,
    f_ref) pairs.

    A block's stacked results give two pair families row-wise:
    (x_bar[k], x_tilde[k]) the carry-over and the second curvature
    estimate, (x_bar[k], x_tilde[k-1]) the look-ahead Bregman value and
    the first. Only the result at x_tilde[k0-1] outlives its block; the
    decay terms are formed from O(K) scalars after the sweep.
    """
    tr, th, ga, K = trace, params.theta, params.gamma, trace.n_iters
    B = max(1, ROW_BLOCK // oracle.dim)
    x_bar, x_til = (np.asarray(p, dtype=np.float64) for p in (tr.x_bar, tr.x_tilde))
    f_bar, f_til, lam_same = np.empty((3, K + 1))  # at k = 0..K, the rest at k = 1..K
    carry, ahead, lam_ahead, mom = np.empty((4, K))
    dist = np.empty((len(refs), K))
    behind = None  # the result at x_tilde[k0-1]; the first block has none
    for k0 in range(0, K + 1, B):
        k1 = min(k0 + B, K + 1)
        bar, til = evaluate_rows(oracle, x_bar[k0:k1], x_til[k0:k1])
        f_bar[k0:k1], f_til[k0:k1] = bar.value, til.value
        lam_same[k0:k1], breg = lambda_option2_rows(bar, til)
        carry[k0:k1] = breg[:K - k0]
        a = max(k0, 1)  # the block's first k that pairs with x_tilde[k-1]
        if a < k1:  # a one-row first block (K = 0 or B = 1) has no such pair
            if behind is not None:  # x_tilde[a-1..k1-1]
                til = OracleResult(*map(np.concatenate, zip(behind, til)))
            lam_ahead[a - 1:k1 - 1], ahead[a - 1:k1 - 1] = lambda_option2_rows(
                _rows(bar, slice(a - k0, None)), _rows(til, slice(None, -1)))
        if refs:  # the decay terms serve only the series
            dk = tr.x[a:k1] - tr.x[a - 1:k1 - 1]
            mom[a - 1:k1 - 1] = 0.5 * ga * th * np.vecdot(dk, dk)
            for j, (x_ref, _) in enumerate(refs):
                dx = tr.x[a:k1] - x_ref
                dist[j, a - 1:k1 - 1] = 0.5 * np.vecdot(dx, dx)
        behind = _rows(til, slice(-1, None))
    if not refs:
        return _Pass(f_bar, carry, ahead, [])
    lam = np.where(lam_same[1:] < lam_ahead, lam_same[1:], lam_ahead)  # Python's min, NaN included
    with np.errstate(over="ignore"):  # Python floats in the per-k formula
        scale = 1.0 + np.abs(f_bar[:-1]) + np.abs(f_til[:-1])
    # an infinite estimate zeroes the term; a carry-over that does not vanish makes it NaN
    breg = np.where(np.abs(carry) <= 1e-9 * scale, 0.0, math.nan)
    f = ~np.isinf(lam)
    breg[f] = th * tr.eta[1:][f] * tr.eta[:-1][f] / lam[f] * carry[f]
    gaps = [tr.H[:-1] * (f_bar[1:] - f_ref) for _, f_ref in refs]
    series = [LyapunovSeries(np.arange(1, K + 1), d + g + breg + mom, d, g, breg, mom)
              for d, g in zip(dist, gaps)]
    return _Pass(f_bar, carry, ahead, series)


def _corollary(trace: Trace, p: SolverParams, x_ref: np.ndarray, f_ref: float,
               f_bar_K: float, grad0_sq: float, name: str) -> CertificateEntry:
    """Endpoint bound from the fresh f(x_bar[K]) and ||grad f(x[0])||^2."""
    K = trace.n_iters
    dK, d0 = trace.x[K] - x_ref, trace.x[0] - x_ref
    lhs = 0.5 * float(dK @ dK) + trace.H[K - 1] * (f_bar_K - f_ref)
    rhs = 0.5 * float(d0 @ d0) + 0.5 * (1.0 + p.gamma * p.theta) * trace.eta[0]**2 * grad0_sq
    viol = lhs - (rhs * (1.0 + REL_TOL) + ABS_TOL)
    return _sweep(name, [K], [viol], f"lhs={lhs:.6e} rhs={rhs:.6e}", pass_k=K)


def lyapunov_series(trace: Trace, x_ref, oracle: Oracle,
                    params: SolverParams | None = None) -> LyapunovSeries:
    """Evaluate the decay certificate along a trace at a reference point.

    Bregman values and curvature estimates are recomputed from the
    stored iterates with fresh calls of ``oracle``, which no trace counts.
    Where the curvature estimate is infinite its term is zero by
    convention; if the Bregman carry-over does not vanish there, the
    term is NaN and the decay check fails at that k.
    """
    ref = _reference(trace, oracle, x_ref)
    return _replay(trace, oracle, _params(trace, params), [ref]).series[0]


def check_monotone_psi(series: LyapunovSeries, name: str = "psi_monotone") -> CertificateEntry:
    """Pass iff each value is below its predecessor up to the slacks:
    relative 1e-10 and absolute 1e-12 * (1 + |first value|).
    """
    psi = series.total
    abs_floor = ABS_TOL * (1.0 + abs(float(psi[0]))) if len(psi) else ABS_TOL
    return _sweep(name, series.k[1:], psi[1:] - (psi[:-1] * (1.0 + REL_TOL) + abs_floor),
                  pass_k=int(series.k[0]) if len(psi) else 0)


def check_corollary_bound(trace: Trace, x_ref, oracle: Oracle,
                          params: SolverParams | None = None,
                          name: str = "corollary_bound") -> CertificateEntry:
    """Endpoint bound at the final iterate, valid for any reference point."""
    x_ref, f_ref = _reference(trace, oracle, x_ref)
    return _corollary(trace, _params(trace, params), x_ref, f_ref,
                      evaluate(oracle, trace.x_bar[trace.n_iters]).value,
                      evaluate(oracle, trace.x[0]).grad_sq, name)


def _check_L(L: float | None) -> None:
    """Raise unless 0 < L < inf; at any other L h_envelope and lambda_floor say nothing."""
    if L is None or not 0.0 < L < math.inf:
        raise ValueError("a positive smoothness constant L is required")


def check_h_envelope(trace: Trace, params: SolverParams | None, L: float,
                     name: str = "h_envelope") -> CertificateEntry:
    """sqrt of the stepsize sum stays above the linear envelope (c/sqrt(L))(k-m)."""
    _check_L(L)
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
    fresh = _replay(trace, oracle, params) if oracle is not None and trace.has_iterates else None
    return _lemmas(trace, params, L, fresh)


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
        _check_L(L)
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
                     checks: tuple = ("psi", "corollary", "h_envelope", "lemmas", "evals"),
                     ) -> CertificateReport:
    """Assemble the full certificate report for one trace.

    ``x_refs`` maps reference-point names to points for the decay and
    endpoint checks; each enabled check appears exactly once per name.
    All checks share one forward sweep of fresh oracle calls. ``params``
    default to the trace's own; only the ``evals`` check runs without any.
    Without ``L`` the checks that read it, h_envelope and lambda_floor, are skipped.
    """
    params = _params(trace, params) if set(checks) - {"evals"} else None
    report = CertificateReport()
    psi_refs, cor_refs = ((x_refs or {}) if c in checks else {} for c in ("psi", "corollary"))
    # both reference checks compare iterates at k >= 1; a run that stopped
    # at its start point (already optimal) has none, so they do not apply
    if trace.n_iters == 0:
        why = "not applicable: trace has no iterations"
        report.entries += [CertificateEntry(f"psi_monotone[{r}]", True, 0.0, 0, why)
                           for r in psi_refs]
        report.entries += [CertificateEntry(f"corollary_bound[{r}]", True, 0.0, 0, why)
                           for r in cor_refs]
        psi_refs = cor_refs = {}
    refs = {r: _reference(trace, oracle, x) for r, x in {**psi_refs, **cor_refs}.items()}
    fresh = (_replay(trace, oracle, params, [refs[r] for r in psi_refs])
             if psi_refs or ("lemmas" in checks and trace.has_iterates) else None)
    for j, r in enumerate(psi_refs):
        report.entries.append(check_monotone_psi(fresh.series[j], name=f"psi_monotone[{r}]"))
    if cor_refs:
        f_bar_K = fresh.f_bar[-1] if fresh else evaluate(oracle, trace.x_bar[trace.n_iters]).value
        grad0_sq = evaluate(oracle, trace.x[0]).grad_sq
        report.entries += [_corollary(trace, params, *refs[r], f_bar_K, grad0_sq,
                                      f"corollary_bound[{r}]") for r in cor_refs]
    if "h_envelope" in checks and L is not None:
        report.entries.append(check_h_envelope(trace, params, L))
    if "lemmas" in checks:
        report.entries.extend(_lemmas(trace, params, L, fresh))
    if "evals" in checks:
        report.entries.append(check_eval_schedule(trace))
    return report

