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

The fresh calls of one trace form one pass: each stored point and each
reference point is evaluated at most once, and the reference-free terms
(curvature estimates, Bregman carry-over) are shared by the decay check
at every reference point, the endpoint bound and the lemma suite. Each
check sweeps an array of violations; a positive or NaN one fails it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .curvature import bregman, local_curvature
from .oracle import Oracle, OracleResult, evaluate
from .params import SolverParams, rate_constants
from .solver import Trace

REL_TOL = 1e-10
ABS_TOL = 1e-12


class MissingIteratesError(ValueError):
    """The requested check needs stored iterates (store_iterates required)."""


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

    def entry(self, name: str) -> CertificateEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

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


class _Fresh:
    """Fresh oracle results along one trace, each computed at most once, with
    the preconditions and reference-free terms of the checks on iterates.
    """

    def __init__(self, trace: Trace, oracle: Oracle, params: SolverParams | None):
        if not trace.has_iterates:
            raise MissingIteratesError("store_iterates required for this check")
        self.trace, self.oracle = trace, oracle
        self.params = _params(trace, params)
        self._results: dict = {}

    def at(self, column: str, k: int) -> OracleResult:
        """Result at ``trace.<column>[k]``, evaluated on first use."""
        key = (column, k)
        if key not in self._results:
            self._results[key] = evaluate(self.oracle, getattr(self.trace, column)[k])
        return self._results[key]

    def reference(self, x_ref) -> tuple[np.ndarray, float]:
        """A reference point as floats with its fresh objective value."""
        if self.trace.n_iters < 1:
            raise ValueError("trace has no iterations")
        x_ref = np.asarray(x_ref, dtype=np.float64)
        return x_ref, evaluate(self.oracle, x_ref).value

    @cached_property
    def carry(self) -> np.ndarray:
        """Bregman carry-over B(x_bar[k-1]; x_tilde[k-1]) for k = 1..K."""
        return np.array([bregman(self.at("x_bar", k), self.at("x_tilde", k))
                         for k in range(self.trace.n_iters)])

    @cached_property
    def decay_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Bregman and momentum terms of the decay certificate, k = 1..K.

        Where the curvature estimate is infinite the Bregman term is
        zero by convention, which holds only if the carry-over vanishes;
        otherwise the term is undefined and stored as NaN.
        """
        tr, th, ga = self.trace, self.params.theta, self.params.gamma
        breg, mom = np.empty(tr.n_iters), np.empty(tr.n_iters)
        for i, b_prev in enumerate(self.carry):
            k = i + 1
            lam_k = local_curvature(self.at("x_bar", k), self.at("x_tilde", k - 1),
                                    self.at("x_tilde", k))
            if math.isinf(lam_k):
                scale = (1.0 + abs(self.at("x_bar", k - 1).value)
                         + abs(self.at("x_tilde", k - 1).value))
                breg[i] = 0.0 if abs(b_prev) <= 1e-9 * scale else math.nan
            else:
                breg[i] = th * tr.eta[k] * tr.eta[k - 1] / lam_k * b_prev
            dk = tr.x[k] - tr.x[k - 1]
            mom[i] = 0.5 * ga * th * float(dk @ dk)
        return breg, mom

    def series(self, x_ref: np.ndarray, f_ref: float) -> LyapunovSeries:
        tr = self.trace
        ks = np.arange(1, tr.n_iters + 1)
        dist = np.empty(len(ks))
        for i, k in enumerate(ks):
            dx = tr.x[k] - x_ref
            dist[i] = 0.5 * float(dx @ dx)
        f_bar = np.array([self.at("x_bar", k).value for k in ks])
        gap = tr.H[:-1] * (f_bar - f_ref)
        breg, mom = self.decay_terms
        return LyapunovSeries(k=ks, total=dist + gap + breg + mom, dist_term=dist,
                              gap_term=gap, bregman_term=breg, momentum_term=mom)

    def corollary(self, x_ref: np.ndarray, f_ref: float, name: str) -> CertificateEntry:
        tr, p, K = self.trace, self.params, self.trace.n_iters
        dK = tr.x[K] - x_ref
        d0 = tr.x[0] - x_ref
        lhs = 0.5 * float(dK @ dK) + tr.H[K - 1] * (self.at("x_bar", K).value - f_ref)
        rhs = (0.5 * float(d0 @ d0)
               + 0.5 * (1.0 + p.gamma * p.theta) * tr.eta[0]**2 * self.at("x", 0).grad_sq)
        viol = lhs - (rhs * (1.0 + REL_TOL) + ABS_TOL)
        return _sweep(name, [K], [viol], f"lhs={lhs:.6e} rhs={rhs:.6e}", pass_k=K)


def lyapunov_series(trace: Trace, x_ref, oracle: Oracle,
                    params: SolverParams | None = None) -> LyapunovSeries:
    """Evaluate the decay certificate along a trace at a reference point.

    Bregman values and curvature estimates are recomputed from the
    stored iterates with fresh oracle calls, outside any solver counter.
    Where the curvature estimate is infinite its term is zero by
    convention; if the Bregman carry-over does not vanish there, the
    term is NaN and the decay check fails at that k.
    """
    fresh = _Fresh(trace, oracle, params)
    return fresh.series(*fresh.reference(x_ref))


def check_monotone_psi(series: LyapunovSeries, rel: float = REL_TOL,
                       abs_floor: float | None = None,
                       name: str = "psi_monotone") -> CertificateEntry:
    """Pass iff each value is below its predecessor up to the slacks.

    The absolute floor defaults to 1e-12 * (1 + |first value|).
    """
    psi = series.total
    if abs_floor is None:
        abs_floor = ABS_TOL * (1.0 + abs(float(psi[0]))) if len(psi) else ABS_TOL
    return _sweep(name, series.k[1:], psi[1:] - (psi[:-1] * (1.0 + rel) + abs_floor),
                  pass_k=int(series.k[0]) if len(psi) else 0)


def check_corollary_bound(trace: Trace, x_ref, oracle: Oracle,
                          params: SolverParams | None = None,
                          name: str = "corollary_bound") -> CertificateEntry:
    """Endpoint bound at the final iterate, valid for any reference point."""
    fresh = _Fresh(trace, oracle, params)
    return fresh.corollary(*fresh.reference(x_ref), name)


def check_h_envelope(trace: Trace, params: SolverParams, L: float,
                     name: str = "h_envelope") -> CertificateEntry:
    """sqrt of the stepsize sum stays above the linear envelope (c/sqrt(L))(k-m)."""
    if L is None or not L > 0.0:
        raise ValueError("a positive smoothness constant L is required")
    rc = rate_constants(replace(params, eta0=float(trace.eta[0])), L)
    ks = np.arange(trace.n_iters + 1)
    return _sweep(name, ks, rc.c / math.sqrt(L) * (ks - rc.m) - np.sqrt(trace.H) - ABS_TOL,
                  f"c={rc.c:.4e} m={rc.m}")


def lemma_suite(trace: Trace, params: SolverParams | None = None,
                L: float | None = None, oracle: Oracle | None = None) -> list[CertificateEntry]:
    """Per-iteration identities and inequalities along a trace.

    Runs from a (possibly deserialized) trace alone: scalar checks need
    only the scalar columns; the Bregman decay check additionally needs
    stored iterates and an oracle and is skipped when either is absent.
    """
    fresh = _Fresh(trace, oracle, params) if oracle is not None and trace.has_iterates else None
    return _lemmas(trace, _params(trace, params), L, fresh)


def _lemmas(trace: Trace, params: SolverParams, L: float | None,
            fresh: _Fresh | None) -> list[CertificateEntry]:
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
        nxt = np.array([bregman(fresh.at("x_bar", k), fresh.at("x_tilde", k - 1)) for k in inner])
        entries.append(_sweep("beta_f_bregman", inner, nxt - fresh.carry[:len(inner)] - slack))
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


def run_certificates(trace: Trace, oracle: Oracle, params: SolverParams,
                     L: float | None = None, x_refs: dict | None = None,
                     checks: tuple = ("psi", "corollary", "h_envelope", "lemmas", "evals"),
                     ) -> CertificateReport:
    """Assemble the full certificate report for one trace.

    ``x_refs`` maps reference-point names to points for the decay and
    endpoint checks; each enabled check appears exactly once per name.
    All checks share one pass of fresh oracle calls.
    """
    report = CertificateReport()
    x_refs = x_refs or {}
    # both reference checks compare iterates at k >= 1; a run that stopped
    # at its start point (already optimal) has none, so they do not apply
    use_refs = trace.n_iters > 0 and bool(x_refs) and ("psi" in checks or "corollary" in checks)
    fresh = (_Fresh(trace, oracle, params)
             if use_refs or ("lemmas" in checks and trace.has_iterates) else None)
    refs = {rname: fresh.reference(point) for rname, point in x_refs.items()} if use_refs else {}
    for rname in x_refs if "psi" in checks else ():
        name = f"psi_monotone[{rname}]"
        report.entries.append(check_monotone_psi(fresh.series(*refs[rname]), name=name)
                              if use_refs else _not_applicable(name))
    for rname in x_refs if "corollary" in checks else ():
        name = f"corollary_bound[{rname}]"
        report.entries.append(fresh.corollary(*refs[rname], name) if use_refs
                              else _not_applicable(name))
    if "h_envelope" in checks and L is not None:
        report.entries.append(check_h_envelope(trace, params, L))
    if "lemmas" in checks:
        report.entries.extend(_lemmas(trace, _params(trace, params), L, fresh))
    if "evals" in checks:
        report.entries.append(check_eval_schedule(trace))
    return report


def _not_applicable(name: str) -> CertificateEntry:
    return CertificateEntry(name, True, 0.0, 0, detail="not applicable: trace has no iterations")
