"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
run matrix (four problems, three initial stepsizes, 2000 iterations,
iterates stored) is built once per session and shared by the
certificate criteria.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

import aagd
from aagd import StopRule, default_params, rate_constants
from aagd.diagnostics import (check_corollary_bound, check_eval_schedule,
                              check_h_envelope, fit_rate, lemma_suite,
                              lyapunov_series)

K_MATRIX = 2000


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2} {name:<26} {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _reference_minimum(problem, x0):
    """High-accuracy minimizer estimate for problems without a closed form."""
    from scipy.optimize import minimize

    res = minimize(lambda x: problem.oracle.fn(x), x0, jac=True, method="L-BFGS-B",
                   options={"gtol": 1e-12, "maxiter": 5000})
    return res.x


@pytest.fixture(scope="module")
def matrix():
    """(problem, x0, x_refs) x eta0 -> trace, with iterates stored."""
    cells = []
    specs = [
        (aagd.identity_quadratic(10), np.ones(10)),
        (aagd.make_quadratic(7, 100, 1e4), np.zeros(100)),
        (aagd.logistic_problem(
            aagd.make_classification_dataset(11, 200, 20), reg=1e-3), np.zeros(20)),
        (aagd.logsumexp_problem(3, 20, 50, 0.1), np.zeros(20)),
    ]
    for idx, (problem, x0) in enumerate(specs):
        x_star = problem.x_star
        if x_star is None:
            x_star = _reference_minimum(problem, x0)
        x_refs = {
            "x_star": x_star,
            "x0": x0,
            "random": np.random.default_rng(500 + idx).standard_normal(problem.dim),
        }
        for eta0 in (1e-12, 1e-4, 1.0 / problem.L):
            params = default_params(eta0=eta0)
            trace = aagd.run(problem.oracle, x0, params,
                             StopRule(max_iters=K_MATRIX), store_iterates=True)
            assert not trace.diverged
            cells.append((problem, x0, x_refs, eta0, params, trace))
    return cells


def test_criterion_1_parameter_feasibility():
    report = aagd.validate(aagd.SolverParams(2.0, 1.0 / 22.0, 11.0 / 2116.0, eta0=1.0))
    eq_ok = report.equality_residual <= 1e-14
    slack_ok = report.inequality_slack >= 0.0
    # exact rational verification of the canonical triple
    t, g, n = Fraction(2), Fraction(1, 22), Fraction(11, 2116)
    exact_eq = 4 * n * t * (1 + g) ** 2 - g
    exact_slack = (t / (1 + t) + t**2 / (1 + t) ** 2
                   - (1 + 2 * g + g * t**2 / (1 + t) ** 2))
    infeasible_ok = False
    try:
        aagd.max_gamma(1.5)
    except aagd.InfeasibleThetaError:
        infeasible_ok = True
    ok = eq_ok and slack_ok and exact_eq == 0 and exact_slack == 0 and infeasible_ok
    _report(1, "parameter-feasibility", ok,
            f"resid={report.equality_residual:.2e} slack={report.inequality_slack:.2e} "
            f"exact_eq={exact_eq} theta=1.5 infeasible={infeasible_ok}")


def test_criterion_2_golden_trace():
    theta, gamma = 2.0, 1.0 / 22.0
    nu = gamma / (4.0 * theta * (1.0 + gamma) ** 2)
    eta0, x0, h0 = 0.1, 1.0, 0.1
    alpha1 = (1.0 + gamma) * eta0 / (h0 + (1.0 + gamma) * eta0)
    x1 = x0 - eta0 * x0
    xbar1 = 1.0 * x0 + 0.0 * x0
    xhat1 = x1 + theta * (x1 - x0)
    xtilde1 = alpha1 * xhat1 + (1.0 - alpha1) * xbar1
    lam1 = 1.0
    eta1 = min((1.0 + gamma) * eta0, nu * h0 * lam1 / eta0)
    h1 = h0 + eta1
    beta1 = eta1 / (alpha1 * h1)

    p = aagd.identity_quadratic(1)
    params = default_params(eta0=0.1)
    st = aagd.step(aagd.init(np.array([1.0]), params, p.oracle), p.oracle, params)
    got = dict(alpha=st.alpha, x=st.x[0], xbar=st.x_bar[0], xhat=st.x_hat[0],
               xtilde=st.x_tilde[0], lam=st.lam, eta=st.eta, H=st.H, beta=st.beta)
    want = dict(alpha=alpha1, x=x1, xbar=xbar1, xhat=xhat1, xtilde=xtilde1,
                lam=lam1, eta=eta1, H=h1, beta=beta1)
    worst = max(abs(got[k] - want[k]) for k in want)
    _report(2, "golden-trace", worst <= 1e-12, f"worst |err|={worst:.2e}")


def test_criterion_3_lyapunov_certificate(matrix):
    worst = -math.inf
    where = ""
    for problem, x0, x_refs, eta0, params, trace in matrix:
        for rname, ref in x_refs.items():
            s = lyapunov_series(trace, ref, problem.oracle, params)
            viol = s.total[1:] - (s.total[:-1] * (1.0 + 1e-10) + 1e-12)
            v = float(viol.max())
            if v > worst:
                worst = v
                where = f"{problem.label} eta0={eta0:g} {rname}"
    _report(3, "lyapunov-certificate", worst <= 0.0,
            f"worst violation {worst:.2e} ({where})")


def test_criterion_4_corollary_bound(matrix):
    ok = True
    detail = ""
    for problem, x0, x_refs, eta0, params, trace in matrix:
        for rname, ref in x_refs.items():
            entry = check_corollary_bound(trace, ref, problem.oracle, params)
            if not entry.passed:
                ok = False
                detail = f"{problem.label} eta0={eta0:g} {rname}: {entry.line()}"
    _report(4, "corollary-bound", ok, detail or "all cells hold at k = 1..K")


def test_criterion_5_h_envelope():
    ok = True
    details = []
    for problem, x0 in [(aagd.identity_quadratic(10), np.ones(10)),
                        (aagd.make_quadratic(7, 100, 1e4), np.zeros(100))]:
        for eta0 in (1e-12, 1.0 / problem.L):
            params = default_params(eta0=eta0)
            trace = aagd.run(problem.oracle, x0, params, StopRule(max_iters=5000))
            entry = check_h_envelope(trace, params, problem.L)
            details.append(f"{problem.label[:12]}/eta0={eta0:g}: {entry.detail}")
            ok = ok and entry.passed
    _report(5, "h-envelope", ok, "; ".join(details))


def test_criterion_6_lemma_suite(matrix):
    ok = True
    detail = "zero violations"
    for problem, x0, x_refs, eta0, params, trace in matrix:
        entries = lemma_suite(trace, params, L=problem.L, oracle=problem.oracle)
        for e in entries:
            if not e.passed:
                ok = False
                detail = f"{problem.label} eta0={eta0:g}: {e.line()}"
    _report(6, "lemma-suite", ok, detail)


def test_criterion_7_tiny_stepsize_recovery():
    problem = aagd.identity_quadratic(10)
    x0 = np.ones(10)

    def iters_to_gap(eta0, budget):
        trace = aagd.run(problem.oracle, x0, default_params(eta0=eta0),
                         StopRule(max_iters=budget))
        hit = np.nonzero(trace.f_bar - problem.f_star <= 1e-6)[0]
        return int(hit[0]) if len(hit) else None

    k_base = iters_to_gap(1.0 / problem.L, 5000)
    m = rate_constants(default_params(eta0=1e-12), problem.L).m
    budget = k_base + 3 * m
    k_tiny = iters_to_gap(1e-12, budget + 10)
    ok = k_tiny is not None and k_tiny <= budget
    _report(7, "tiny-stepsize-recovery", ok,
            f"K_base={k_base} m={m} budget={budget} K_tiny={k_tiny}")


def test_criterion_8_growth_cap_ablation():
    problem = aagd.identity_quadratic(10)
    x0 = np.ones(10)
    params = default_params(eta0=1e-10)
    censor = 10_000

    def first_k_at(trace, thresh=1e-2):
        hit = np.nonzero(trace.eta >= thresh)[0]
        return int(hit[0]) if len(hit) else None

    plain = aagd.run(problem.oracle, x0, params, StopRule(max_iters=1000))
    k_plain = first_k_at(plain)
    capped = aagd.run(problem.oracle, x0, params, StopRule(max_iters=censor),
                      growth_cap=True)
    k_capped = first_k_at(capped)
    # the capped run grows only linearly, so it cannot reach the threshold
    # inside the censoring budget; the budget itself certifies the factor
    ok = (k_plain is not None and k_capped is None and censor >= 5 * k_plain)
    _report(8, "growth-cap-ablation", ok,
            f"default={k_plain} capped>{censor} factor>={censor / k_plain:.0f}x")


def test_criterion_9_acceleration_evidence():
    problem = aagd.make_quadratic(7, 100, 1e4)
    x0 = np.zeros(100)
    stop = StopRule(max_iters=1000)
    gap = lambda tr, k: tr.f_bar[k] - problem.f_star

    accel = aagd.run(problem.oracle, x0, default_params(eta0=1.0 / problem.L), stop)
    slope_accel = fit_rate(accel, 100, 1000, gap)
    gd = aagd.run_baseline(aagd.BaselineMethod(kind="gd", eta=1.0 / problem.L),
                           problem.oracle, x0, stop)
    slope_gd = fit_rate(gd, 100, 1000, gap)
    ok = slope_accel <= -1.5 and slope_gd >= -1.3
    _report(9, "acceleration-evidence", ok,
            f"accel slope={slope_accel:.2f} (<=-1.5), gd slope={slope_gd:.2f} (>=-1.3)")


def test_criterion_10_oracle_economy():
    problem = aagd.identity_quadratic(10)
    trace = aagd.run(problem.oracle, np.ones(10), default_params(eta0=1e-4),
                     StopRule(max_iters=1000))
    entry = check_eval_schedule(trace)
    ok = entry.passed and trace.n_iters == 1000 and trace.evals_cum[-1] == 2001
    _report(10, "oracle-economy", ok,
            f"evals after 1000 iterations: {trace.evals_cum[-1]} (expected 2001)")


def test_criterion_11_infrastructure(matrix, tmp_path):
    # gradient checks on every problem
    fd_ok = True
    seen = set()
    for problem, x0, x_refs, eta0, params, trace in matrix:
        if problem.label in seen:
            continue
        seen.add(problem.label)
        rng = np.random.default_rng(2718)
        for _ in range(20):
            if aagd.finite_diff_check(problem.oracle, rng.standard_normal(problem.dim)) > 1e-5:
                fd_ok = False

    # bit-exact CSV round trip on a trace with iterates
    problem, x0, x_refs, eta0, params, trace = matrix[0]
    path = tmp_path / "roundtrip.csv"
    aagd.write_csv(trace, path)
    back = aagd.read_csv(path)
    rt_ok = all(
        np.array_equal(getattr(back, n), getattr(trace, n), equal_nan=True)
        for n in ("eta", "H", "alpha", "beta", "lam", "f_bar", "f_tilde",
                  "grad_norm_tilde", "x", "x_bar", "x_tilde")
    ) and np.array_equal(back.k, trace.k) and np.array_equal(back.evals_cum,
                                                             trace.evals_cum)

    # byte-identical rerun of a seeded cell
    p2 = aagd.make_quadratic(7, 30, 100.0)
    t_a = aagd.run(p2.oracle, np.zeros(30), default_params(eta0=1e-3),
                   StopRule(max_iters=200), store_iterates=True)
    t_b = aagd.run(p2.oracle, np.zeros(30), default_params(eta0=1e-3),
                   StopRule(max_iters=200), store_iterates=True)
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    aagd.write_csv(t_a, fa)
    aagd.write_csv(t_b, fb)
    rerun_ok = fa.read_bytes() == fb.read_bytes()

    ok = fd_ok and rt_ok and rerun_ok
    _report(11, "infrastructure", ok,
            f"finite-diff<=1e-5: {fd_ok}, csv round-trip: {rt_ok}, "
            f"seeded rerun identical: {rerun_ok}")
