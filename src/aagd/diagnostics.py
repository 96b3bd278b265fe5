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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curvature import bregman, local_curvature
from .oracle import Oracle, evaluate
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


def _require_iterates(trace: Trace):
    if not trace.has_iterates:
        raise MissingIteratesError("store_iterates required for this check")


def _fresh_evals(trace: Trace, oracle: Oracle):
    K = trace.n_iters
    bar = [evaluate(oracle, trace.x_bar[k]) for k in range(K + 1)]
    til = [evaluate(oracle, trace.x_tilde[k]) for k in range(K + 1)]
    return bar, til


def lyapunov_series(trace: Trace, x_ref, oracle: Oracle,
                    params: SolverParams | None = None) -> LyapunovSeries:
    """Evaluate the decay certificate along a trace at a reference point.

    Bregman values and curvature estimates are recomputed from the
    stored iterates with fresh oracle calls, outside any solver counter.
    Where the curvature estimate is infinite its term is zero by
    convention, and the Bregman numerator is checked to vanish in
    exactly that case.
    """
    _require_iterates(trace)
    params = params or trace.params
    if params is None:
        raise ValueError("solver parameters required (trace carries none)")
    K = trace.n_iters
    if K < 1:
        raise ValueError("trace has no iterations")
    th, ga = params.theta, params.gamma
    bar, til = _fresh_evals(trace, oracle)
    f_ref = evaluate(oracle, np.asarray(x_ref, dtype=np.float64)).value
    x_ref = np.asarray(x_ref, dtype=np.float64)

    ks = np.arange(1, K + 1)
    dist = np.empty(K)
    gap = np.empty(K)
    breg = np.empty(K)
    mom = np.empty(K)
    for i, k in enumerate(ks):
        dx = trace.x[k] - x_ref
        dist[i] = 0.5 * float(dx @ dx)
        gap[i] = trace.H[k - 1] * (bar[k].value - f_ref)
        lam_k = local_curvature(bar[k], til[k - 1], til[k])
        b_prev = bregman(bar[k - 1], til[k - 1])
        if math.isinf(lam_k):
            scale = 1.0 + abs(bar[k - 1].value) + abs(til[k - 1].value)
            if not abs(b_prev) <= 1e-9 * scale:
                raise AssertionError(
                    f"infinite curvature estimate at k={k} with nonzero "
                    f"Bregman carry-over {b_prev:.3e}"
                )
            breg[i] = 0.0
        else:
            breg[i] = th * trace.eta[k] * trace.eta[k - 1] / lam_k * b_prev
        dk = trace.x[k] - trace.x[k - 1]
        mom[i] = 0.5 * ga * th * float(dk @ dk)
    return LyapunovSeries(
        k=ks, total=dist + gap + breg + mom,
        dist_term=dist, gap_term=gap, bregman_term=breg, momentum_term=mom,
    )


def check_monotone_psi(series: LyapunovSeries, rel: float = REL_TOL,
                       abs_floor: float | None = None,
                       name: str = "psi_monotone") -> CertificateEntry:
    """Pass iff each value is below its predecessor up to the slacks.

    The absolute floor defaults to 1e-12 * (1 + |first value|).
    """
    psi = series.total
    if abs_floor is None:
        abs_floor = ABS_TOL * (1.0 + abs(float(psi[0]))) if len(psi) else ABS_TOL
    worst = 0.0
    worst_k = int(series.k[0]) if len(psi) else 0
    ok = True
    for i in range(len(psi) - 1):
        bound = psi[i] * (1.0 + rel) + abs_floor
        viol = psi[i + 1] - bound
        if viol > worst:
            worst = viol
            worst_k = int(series.k[i + 1])
        if viol > 0.0:
            ok = False
    return CertificateEntry(name, ok, worst, worst_k)


def check_corollary_bound(trace: Trace, x_ref, oracle: Oracle,
                          params: SolverParams | None = None,
                          name: str = "corollary_bound") -> CertificateEntry:
    """Endpoint bound at the final iterate, valid for any reference point."""
    _require_iterates(trace)
    params = params or trace.params
    if params is None:
        raise ValueError("solver parameters required (trace carries none)")
    K = trace.n_iters
    if K < 1:
        raise ValueError("trace has no iterations")
    x_ref = np.asarray(x_ref, dtype=np.float64)
    f_ref = evaluate(oracle, x_ref).value
    f_bar_K = evaluate(oracle, trace.x_bar[K]).value
    g0 = evaluate(oracle, trace.x[0]).grad
    eta0 = trace.eta[0]
    dK = trace.x[K] - x_ref
    d0 = trace.x[0] - x_ref
    lhs = 0.5 * float(dK @ dK) + trace.H[K - 1] * (f_bar_K - f_ref)
    rhs = (0.5 * float(d0 @ d0)
           + 0.5 * (1.0 + params.gamma * params.theta) * eta0**2 * float(g0 @ g0))
    viol = lhs - (rhs * (1.0 + REL_TOL) + ABS_TOL)
    return CertificateEntry(name, viol <= 0.0, max(viol, 0.0), K,
                            detail=f"lhs={lhs:.6e} rhs={rhs:.6e}")


def check_h_envelope(trace: Trace, params: SolverParams, L: float,
                     name: str = "h_envelope") -> CertificateEntry:
    """sqrt of the stepsize sum stays above the linear envelope (c/sqrt(L))(k-m)."""
    if L is None or not L > 0.0:
        raise ValueError("a positive smoothness constant L is required")
    rc = rate_constants(replace(params, eta0=float(trace.eta[0])), L)
    slope = rc.c / math.sqrt(L)
    worst = 0.0
    worst_k = 0
    ok = True
    for k in range(trace.n_iters + 1):
        envelope = slope * (k - rc.m)
        viol = envelope - math.sqrt(trace.H[k]) - ABS_TOL
        if viol > worst:
            worst = viol
            worst_k = k
        if viol > 0.0:
            ok = False
    return CertificateEntry(name, ok, worst, worst_k,
                            detail=f"c={rc.c:.4e} m={rc.m}")


def lemma_suite(trace: Trace, params: SolverParams | None = None,
                L: float | None = None, oracle: Oracle | None = None) -> list[CertificateEntry]:
    """Per-iteration identities and inequalities along a trace.

    Runs from a (possibly deserialized) trace alone: scalar checks need
    only the scalar columns; the Bregman decay check additionally needs
    stored iterates and an oracle and is skipped when either is absent.
    """
    params = params or trace.params
    if params is None:
        raise ValueError("solver parameters required (trace carries none)")
    ga = params.gamma
    K = trace.n_iters
    entries = []

    def sweep(name, ks, viol_fn, detail=""):
        worst, worst_k, ok = 0.0, 0, True
        for k in ks:
            v = viol_fn(k)
            if v > worst:
                worst, worst_k = v, k
            if v > 0.0:
                ok = False
        entries.append(CertificateEntry(name, ok, worst, worst_k, detail))

    sweep("alpha_beta_range", range(K + 1), lambda k: max(
        0.0 - min(trace.alpha[k], trace.beta[k]) + np.finfo(float).tiny,
        trace.alpha[k] - 1.0,
        trace.beta[k] - 1.0,
    ))
    sweep("eta_coupling", range(K + 1), lambda k: abs(
        trace.eta[k] - trace.alpha[k] * trace.beta[k] * trace.H[k]
    ) - 1e-12 * trace.eta[k])
    sweep("eta_growth", range(K), lambda k: trace.eta[k + 1]
          - (1.0 + ga) * trace.eta[k] * (1.0 + 1e-12))
    sweep("h_growth", range(1, K + 1), lambda k: max(
        trace.H[k - 1] - trace.H[k],
        trace.H[k] - (2.0 + ga) * trace.H[k - 1] * (1.0 + REL_TOL),
    ))
    if L is not None:
        floor = 1.0 / L - 1e-9
        sweep("lambda_floor", range(1, K + 1), lambda k: (
            0.0 if math.isnan(trace.lam[k]) else floor - trace.lam[k]
        ), detail=f"floor=1/L-1e-9, L={L:g}")

    def slack(k):
        return 1e-9 * (1.0 + abs(trace.f_bar[k]))

    # value-decrement inequality tied to the averaging weight, k = 1..K-1
    sweep("beta_f_value", range(1, K), lambda k: (
        (trace.f_bar[k] - trace.f_tilde[k])
        - (trace.f_bar[k] - trace.f_bar[k + 1]) / trace.beta[k]
        - slack(k)
    ))

    if oracle is not None and trace.has_iterates:
        bar, til = _fresh_evals(trace, oracle)
        sweep("beta_f_bregman", range(1, K), lambda k: (
            bregman(bar[k], til[k - 1]) - bregman(bar[k - 1], til[k - 1]) - slack(k)
        ))
    return entries


def check_eval_schedule(trace: Trace, name: str = "eval_schedule") -> CertificateEntry:
    """One evaluation at setup, exactly two per iteration afterwards."""
    expected = trace.evals_cum[0] + 2 * trace.k
    ok = trace.evals_cum[0] == 1 and bool(np.all(trace.evals_cum == expected))
    bad = np.nonzero(trace.evals_cum != expected)[0]
    worst_k = int(bad[0]) if len(bad) else 0
    worst = float(abs(trace.evals_cum - expected).max()) if len(trace.k) else 0.0
    return CertificateEntry(name, ok, worst, worst_k)


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
    """
    report = CertificateReport()
    x_refs = x_refs or {}
    # both checks compare iterates at k >= 1; a run that stopped at its
    # start point (already optimal) has none, so they do not apply
    vacuous = trace.n_iters == 0
    if "psi" in checks:
        for rname, point in x_refs.items():
            name = f"psi_monotone[{rname}]"
            report.entries.append(_not_applicable(name) if vacuous else check_monotone_psi(
                lyapunov_series(trace, point, oracle, params), name=name))
    if "corollary" in checks:
        for rname, point in x_refs.items():
            name = f"corollary_bound[{rname}]"
            report.entries.append(_not_applicable(name) if vacuous else check_corollary_bound(
                trace, point, oracle, params, name=name))
    if "h_envelope" in checks and L is not None:
        report.entries.append(check_h_envelope(trace, params, L))
    if "lemmas" in checks:
        report.entries.extend(lemma_suite(trace, params, L=L, oracle=oracle))
    if "evals" in checks:
        report.entries.append(check_eval_schedule(trace))
    return report


def _not_applicable(name: str) -> CertificateEntry:
    return CertificateEntry(name, True, 0.0, 0, detail="not applicable: trace has no iterations")
