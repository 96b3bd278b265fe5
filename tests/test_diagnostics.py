import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import aagd
from aagd import (BaselineMethod, ConvergedWindowError, DimensionMismatchError,
                  MissingIteratesError, NonFiniteError, Oracle, StopRule, Trace, bregman,
                  check_corollary_bound, check_eval_schedule, check_h_envelope,
                  check_monotone_psi, default_params, evaluate, fit_rate, identity_quadratic,
                  lemma_suite, local_curvature, logistic_problem, logsumexp_problem,
                  lyapunov_series, make_classification_dataset, make_params, make_quadratic,
                  read_csv, run, run_baseline, run_certificates, write_csv)
from aagd import diagnostics
from aagd.diagnostics import ROW_BLOCK, CertificateEntry, LyapunovSeries, _Pass, _replay
from aagd.oracle import sq_norm
from aagd.params import GOLDEN_RATIO, SolverParams
from aagd.solver import run as solver_run


@pytest.fixture(scope="module")
def golden_run():
    p = identity_quadratic(1)
    params = default_params(eta0=0.1)
    tr = run(p.oracle, np.array([1.0]), params, StopRule(max_iters=1),
             store_iterates=True)
    return p, params, tr


@pytest.fixture(scope="module")
def identity_run():
    p = identity_quadratic(10)
    params = default_params(eta0=0.1)
    tr = run(p.oracle, np.ones(10), params, StopRule(max_iters=400),
             store_iterates=True)
    return p, params, tr


def test_lyapunov_value_at_k1_matches_hand_evaluation(golden_run):
    p, params, tr = golden_run
    series = lyapunov_series(tr, np.array([0.0]), p.oracle)
    # hand evaluation on the golden first step, reference point 0:
    # 0.5 * 0.9^2 + 0.1 * (0.5 - 0) + 0 + (gamma*theta/2) * 0.1^2
    expected = 0.5 * 0.81 + 0.1 * 0.5 + 0.0 + (1.0 / 22.0) * 0.01
    assert expected == pytest.approx(0.455 + 1.0 / 2200.0, abs=1e-16)
    assert series.total[0] == pytest.approx(expected, abs=1e-12)
    assert series.bregman_term[0] == 0.0


def test_lyapunov_components_sum_to_total(identity_run):
    p, params, tr = identity_run
    series = lyapunov_series(tr, np.zeros(10), p.oracle)
    total = (series.dist_term + series.gap_term + series.bregman_term
             + series.momentum_term)
    assert np.allclose(total, series.total, rtol=1e-14, atol=0.0)


def test_lyapunov_components_nonnegative_at_optimum(identity_run):
    p, params, tr = identity_run
    series = lyapunov_series(tr, p.x_star, p.oracle)
    floor = -1e-12 * (1.0 + np.abs(series.total))
    for comp in (series.dist_term, series.gap_term, series.bregman_term,
                 series.momentum_term):
        assert np.all(comp >= floor)


def test_monotone_psi_passes_on_valid_run(identity_run):
    p, params, tr = identity_run
    for ref in (p.x_star, np.ones(10), np.random.default_rng(0).standard_normal(10)):
        series = lyapunov_series(tr, ref, p.oracle)
        entry = check_monotone_psi(series)
        assert entry.passed, entry.line()


def test_monotone_psi_single_entry_vacuous():
    series = LyapunovSeries(k=np.array([1]), total=np.array([3.0]),
                            dist_term=np.array([3.0]), gap_term=np.zeros(1),
                            bregman_term=np.zeros(1), momentum_term=np.zeros(1))
    assert check_monotone_psi(series).passed


def test_monotone_psi_detects_increase():
    series = LyapunovSeries(k=np.array([1, 2, 3]), total=np.array([1.0, 0.5, 0.7]),
                            dist_term=np.zeros(3), gap_term=np.zeros(3),
                            bregman_term=np.zeros(3), momentum_term=np.zeros(3))
    entry = check_monotone_psi(series)
    assert not entry.passed
    assert entry.worst_k == 3


def test_violated_parameters_probe(identity_run):
    # checking against parameters that break the equality (nu x10) voids
    # the guarantee; the checker must still run and report. The solver
    # itself rejects such parameters, so the trace comes from valid ones.
    # The observed outcome is not a theorem either way, so only the
    # mechanics are asserted.
    p = make_quadratic(7, 30, 1e3)
    good = default_params(eta0=1e-3)
    bad = SolverParams(good.theta, good.gamma, good.nu * 10.0, eta0=1e-3)
    tr = solver_run(p.oracle, np.zeros(30), good, StopRule(max_iters=300),
                    store_iterates=True)
    series = lyapunov_series(tr, p.x_star, p.oracle, params=bad)
    entry = check_monotone_psi(series)
    assert entry.name == "psi_monotone"
    assert math.isfinite(entry.worst_violation)


def test_corollary_bound_k1_hand_check(golden_run):
    p, params, tr = golden_run
    entry = check_corollary_bound(tr, np.array([0.0]), p.oracle)
    assert entry.passed
    # by hand at the reference point 0: lhs = 0.5*0.81 + 0.1*0.5,
    # rhs = 0.5 + (1 + gamma*theta)*0.01/2
    lhs = 0.5 * 0.81 + 0.1 * 0.5
    rhs = 0.5 + (1.0 + 2.0 / 22.0) * 0.01 / 2.0
    assert lhs <= rhs


def test_corollary_bound_arbitrary_reference(identity_run):
    p, params, tr = identity_run
    rng = np.random.default_rng(8)
    for _ in range(5):
        entry = check_corollary_bound(tr, rng.standard_normal(10), p.oracle)
        assert entry.passed, entry.line()


def test_corollary_bound_fails_at_an_interior_iterate(identity_run):
    # the bound holds at every k, so one far iterate fails it there and not at K
    p, params, tr = identity_run
    x = tr.x.copy()
    x[200] += 100.0
    entry = check_corollary_bound(dataclasses.replace(tr, x=x), p.x_star, p.oracle)
    assert not entry.passed and entry.worst_k == 200, entry.line()
    lhs = 0.5 * float(x[200] @ x[200]) + tr.H[199] * evaluate(p.oracle, tr.x_bar[200]).value
    assert entry.detail.startswith(f"lhs={lhs:.6e} rhs=")


def test_h_envelope_passes(identity_run):
    p, params, tr = identity_run
    assert check_h_envelope(tr, params, p.L).passed


def test_h_envelope_holds_with_upper_bound_smoothness():
    # the envelope is valid for any admissible Lipschitz constant, so it
    # must hold when only an upper bound on L is recorded
    from aagd import logistic_problem, logsumexp_problem, make_classification_dataset

    for problem in (logistic_problem(make_classification_dataset(11, 100, 12), reg=1e-3),
                    logsumexp_problem(3, 10, 25, 0.1)):
        params = default_params(eta0=1e-4)
        tr = run(problem.oracle, np.zeros(problem.dim), params, StopRule(max_iters=500))
        assert check_h_envelope(tr, params, problem.L).passed


def test_h_envelope_vacuous_below_m():
    p = identity_quadratic(4)
    params = default_params(eta0=1e-12)  # m is large here
    tr = run(p.oracle, np.ones(4), params, StopRule(max_iters=2))
    entry = check_h_envelope(tr, params, p.L)
    # the envelope (c/sqrt(L))(k - m) lies below zero for every k <= K < m
    rc = aagd.rate_constants(dataclasses.replace(params, eta0=float(tr.eta[0])), p.L)
    ks = np.arange(tr.n_iters + 1)
    viol = rc.c / math.sqrt(p.L) * (ks - float(rc.m)) - np.sqrt(tr.H) - 1e-12
    assert rc.m > tr.n_iters and viol.max() < 0.0
    assert entry.passed
    assert (entry.worst_violation, entry.worst_k) == (viol.max(), int(np.argmax(viol)))


@pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf])
def test_checks_that_read_L_reject_it_outside_zero_to_inf(identity_run, L):
    # a vacuous floor or envelope would pass, and L = 0 divided by zero
    p, params, tr = identity_run
    need = pytest.raises(ValueError, match="a positive smoothness constant L is required")
    for checks in (("h_envelope",), ("lemmas",)):
        with need:
            run_certificates(tr, p.oracle, params, L=L, checks=checks)
    with need:
        lemma_suite(tr, params, L=L)
    with need:
        lemma_suite(tr, params, L=L, oracle=p.oracle)
    with need:
        check_h_envelope(tr, params, L)
    # every check at every reference point: refused before the first call
    oracle, calls = _counting(p.oracle)
    with need:
        run_certificates(tr, oracle, params, L=L, x_refs={"xstar": p.x_star, "x0": tr.x[0]})
    assert calls == [0]
    # the evaluation count reads no L, so any L leaves it running
    assert run_certificates(tr, p.oracle, params, L=L, checks=("evals",)).entries == [
        check_eval_schedule(tr)]


def test_checks_that_read_L_are_skipped_without_it(identity_run):
    p, params, tr = identity_run
    names = {e.name for e in run_certificates(tr, p.oracle, params, L=None).entries}
    assert "h_envelope" not in names and "lambda_floor" not in names
    assert "lambda_floor" not in {e.name for e in lemma_suite(tr, params)}
    assert "lambda_floor" in {e.name for e in lemma_suite(tr, params, L=p.L)}


def _synthetic_trace(gaps, f_star=0.0):
    n = len(gaps)
    z = np.zeros(n)
    return Trace(k=np.arange(n), eta=z + 1.0, H=np.cumsum(z + 1.0), alpha=z + 0.5,
                 beta=z + 0.5, lam=z + 1.0, f_bar=np.asarray(gaps) + f_star,
                 f_tilde=z, grad_norm_tilde=z, evals_cum=1 + 2 * np.arange(n))


def test_fit_rate_exact_power_laws():
    ks = np.arange(0, 101, dtype=float)
    ks[0] = 1.0
    tr2 = _synthetic_trace(ks**-2.0)
    tr1 = _synthetic_trace(2.0 * ks**-1.0)
    gap = lambda tr, k: tr.f_bar[k]
    assert fit_rate(tr2, 1, 100, gap) == pytest.approx(-2.0, abs=1e-9)
    assert fit_rate(tr1, 1, 100, gap) == pytest.approx(-1.0, abs=1e-9)


def test_fit_rate_reports_convergence():
    gaps = np.ones(50)
    gaps[30] = 0.0
    tr = _synthetic_trace(gaps)
    with pytest.raises(ConvergedWindowError):
        fit_rate(tr, 10, 40, lambda t, k: t.f_bar[k])


def test_fit_rate_window_validation():
    tr = _synthetic_trace(np.ones(10))
    with pytest.raises(ValueError):
        fit_rate(tr, 5, 5, lambda t, k: t.f_bar[k])


def test_lemma_suite_all_pass(identity_run):
    p, params, tr = identity_run
    entries = lemma_suite(tr, params, L=p.L, oracle=p.oracle)
    names = {e.name for e in entries}
    assert {"alpha_beta_range", "eta_coupling", "eta_growth", "h_growth",
            "lambda_floor", "beta_f_value", "beta_f_bregman"} <= names
    for e in entries:
        assert e.passed, e.line()


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 21: every exact curvature estimate of a constant-curvature "
    "quadratic is 1/L, the computed one falls up to about 3e-5 relative below it, "
    "and lambda_floor's slack is a fixed absolute 1e-9"))
def test_lambda_floor_on_a_quadratic_of_constant_curvature():
    # d = 1, L = 10: a step of 1e-12, or iterates near x*, give a gradient
    # difference that carries rounding of order eps * |b|; the entry reads
    # FAIL worst 1.449e-06 at k=2, as in `aagd run` of the same problem
    p = make_quadratic(0, 1, 10.0)
    tr = run(p.oracle, np.ones(1), default_params(eta0=1e-12), StopRule(max_iters=2000))
    entry = {e.name: e for e in lemma_suite(tr, L=p.L)}["lambda_floor"]
    assert entry.passed, entry.line()


def test_lemma_suite_rerunnable_from_serialized_trace(identity_run, tmp_path):
    p, params, tr = identity_run
    path = tmp_path / "trace.csv"
    write_csv(tr, path)
    parsed = read_csv(path)
    entries = lemma_suite(parsed, params, L=p.L, oracle=p.oracle)
    for e in entries:
        assert e.passed, e.line()
    series = lyapunov_series(parsed, p.x_star, p.oracle, params=params)
    assert check_monotone_psi(series).passed


def test_corrupted_eta_detected_at_right_iteration(identity_run):
    p, params, tr = identity_run
    eta = tr.eta.copy()
    eta[5] *= 1.001
    broken = Trace(k=tr.k, eta=eta, H=tr.H, alpha=tr.alpha, beta=tr.beta,
                   lam=tr.lam, f_bar=tr.f_bar, f_tilde=tr.f_tilde,
                   grad_norm_tilde=tr.grad_norm_tilde, evals_cum=tr.evals_cum)
    entries = {e.name: e for e in lemma_suite(broken, params)}
    assert not entries["eta_coupling"].passed
    assert entries["eta_coupling"].worst_k == 5


def test_eval_schedule(identity_run):
    p, params, tr = identity_run
    assert check_eval_schedule(tr).passed
    wrong = Trace(k=tr.k, eta=tr.eta, H=tr.H, alpha=tr.alpha, beta=tr.beta,
                  lam=tr.lam, f_bar=tr.f_bar, f_tilde=tr.f_tilde,
                  grad_norm_tilde=tr.grad_norm_tilde,
                  evals_cum=tr.evals_cum + np.arange(len(tr.k)))
    assert not check_eval_schedule(wrong).passed


def _lemma_trace(eta, H, beta=None, **iterates):
    """A trace whose lemmas hold while eta grows by at most 1 + gamma and H is
    nondecreasing by at most 2 + gamma: beta = 1 (unless given), alpha = eta / H,
    constant values, the curvature at the floor 1/L for L = 1 and two evaluations
    per step."""
    k = np.arange(len(eta))
    z = np.zeros(len(eta))
    beta = z + 1.0 if beta is None else beta
    return Trace(k=k, eta=eta, H=H, alpha=eta / H, beta=beta, lam=np.where(k, 1.0, np.nan),
                 f_bar=z, f_tilde=z, grad_norm_tilde=z, evals_cum=1 + 2 * k,
                 params=default_params(eta0=float(eta[0])), **iterates)


def _geometric(K, ratio, eta0=1.0):
    """Stepsizes eta0 * ratio**k, k = 0..K, and their running sums H."""
    eta = eta0 * ratio ** np.arange(K + 1.0)
    return eta, np.cumsum(eta)


@pytest.mark.parametrize("planted", [True, False], ids=["planted", "twin"])
@pytest.mark.parametrize("case", ["h_growth", "alpha_beta_range", "h_envelope", "bregman_carry"])
def test_a_boundary_row_fails_only_outside_its_slack(case, planted):
    # one row just outside a bound fails its check alone (at L = 1); its twin,
    # on the bound, passes every check
    ga = default_params().gamma
    if case == "bregman_carry":
        # f(x) = x with a bump at x_bar[0] = 1: the gradient is constant, so both
        # curvature estimates are infinite and the carry's term is 0 while the
        # carry B(x_bar[0]; x_tilde[0]) stays within 1e-9 (1 + |f(1)| + |f(-1)|)
        bump = (2.0 if planted else 0.5) * 1e-9 * 3.0
        oracle = Oracle(lambda x: (x[0] + (bump if x[0] == 1.0 else 0.0), np.ones(1)), 1)
        x_bar = np.arange(1.0, 5.0)[:, None]
        tr = _lemma_trace(*_geometric(3, 1.0 + ga), x=x_bar, x_bar=x_bar, x_tilde=-x_bar)
        breg = lyapunov_series(tr, np.zeros(1), oracle).bregman_term
        assert np.array_equal(breg, [math.nan if planted else 0.0, 0.0, 0.0], equal_nan=True)
        return
    beta = None
    if case == "h_growth":  # H[5] = (2.5 + gamma) H[4], its twin (2 + gamma) H[4]
        eta, H = _geometric(8, 1.0 + ga)
        H[5:] *= ((2.5 if planted else 2.0) + ga) * H[4] / H[5]
        k = 5
    elif case == "alpha_beta_range":  # beta[4] one ulp above 1, its twin at 1
        eta, H = _geometric(8, 1.0 + ga)
        beta = np.ones(9)
        beta[4] = np.nextafter(1.0, 2.0) if planted else 1.0
        k = 4
    else:  # sqrt(H[17]) at 0.95 times the envelope c (k - m), its twin on it
        c = aagd.rate_constants(default_params(), 1.0).c
        eta, H = _geometric(17, 0.5, eta0=100.0 * c * c)  # m = 2: H[16] = (14.14 c)^2
        H[17] = ((0.95 if planted else 1.0) * c * (17 - 2)) ** 2
        k = 17
    tr = _lemma_trace(eta, H, beta)
    assert aagd.rate_constants(tr.params, 1.0).m == 2
    entries = [check_h_envelope(tr, None, 1.0), *lemma_suite(tr, None, L=1.0)]
    assert [(e.name, e.worst_k) for e in entries if not e.passed] == ([(case, k)] if planted
                                                                      else [])


def test_missing_iterates_raises(identity_run):
    p, params, _ = identity_run
    tr = run(p.oracle, np.ones(10), params, StopRule(max_iters=5))
    with pytest.raises(MissingIteratesError):
        lyapunov_series(tr, np.zeros(10), p.oracle)
    with pytest.raises(MissingIteratesError):
        check_corollary_bound(tr, np.zeros(10), p.oracle)


# the library paths into the replay, each given one reference point where it takes one
REPLAYS = {
    "lemma_suite": lambda tr, oracle, x_ref: lemma_suite(tr, oracle=oracle),
    "lyapunov_series": lambda tr, oracle, x_ref: lyapunov_series(tr, x_ref, oracle),
    "check_corollary_bound": lambda tr, oracle, x_ref: check_corollary_bound(tr, x_ref, oracle),
    "run_certificates": lambda tr, oracle, x_ref: run_certificates(tr, oracle, None,
                                                                   x_refs={"xstar": x_ref}),
}


@pytest.mark.parametrize("entry", REPLAYS)
@pytest.mark.parametrize("dim, field, k, bad, raised, message", [
    (6, "x", 3, None, DimensionMismatchError,
     "the trace stores iterates of dimension 5, the oracle has dim = 6"),
    (5, "x", 3, math.nan, NonFiniteError,
     "x at k = 3 has a non-finite entry; the solver stores only finite iterates"),
    *[(5, field, 7, bad, NonFiniteError,
       f"{field} at k = 7 has a non-finite entry; the solver stores only finite iterates")
      for field in ("x_bar", "x_tilde") for bad in (math.nan, math.inf)],
], ids=["width", "non_finite", "x_bar_nan", "x_bar_inf", "x_tilde_nan", "x_tilde_inf"])
def test_replay_refuses_stored_iterates_before_any_oracle_call(monkeypatch, entry, dim, field, k,
                                                               bad, raised, message):
    # the gate is the only check of the points that the replay evaluates;
    # at d = 5, blocks of 2 put k = 7 in the fourth block, not the first
    monkeypatch.setattr(diagnostics, "ROW_BLOCK", 10)
    p = make_quadratic(3, 5, 1e2)
    tr = run(p.oracle, np.ones(5), default_params(eta0=1e-2), StopRule(max_iters=10),
             store_iterates=True)
    if bad is not None:
        stored = getattr(tr, field).copy()
        stored[k, 0] = bad
        tr = dataclasses.replace(tr, **{field: stored})
    q = make_quadratic(3, dim, 1e2)
    calls = []
    oracle = Oracle(lambda x: calls.append(x) or q.oracle.fn(x), dim)
    with pytest.raises(raised) as caught:
        REPLAYS[entry](tr, oracle, q.x_star)
    assert str(caught.value) == message
    assert calls == []


NOT_APPLICABLE = "not applicable: no rows to compare"
# the entries that compare no rows on a trace of K iterations: the corollary,
# eta_growth, h_growth and lambda_floor read K rows, the beta_f entries K - 1,
# and psi pairs the K values of its series, so K - 1 pairs
UNCOMPARED = {
    0: {"psi_monotone[x0]", "psi_monotone[xstar]", "corollary_bound[x0]",
        "corollary_bound[xstar]", "eta_growth", "h_growth", "lambda_floor", "beta_f_value",
        "beta_f_bregman"},
    1: {"psi_monotone[x0]", "psi_monotone[xstar]", "beta_f_value", "beta_f_bregman"},
    2: set(),
}


def test_reference_checks_on_a_trace_without_iterations():
    p = identity_quadratic(3)
    tr = run(p.oracle, np.ones(3), default_params(eta0=0.1), StopRule(max_iters=0),
             store_iterates=True)
    assert tr.n_iters == 0
    series = lyapunov_series(tr, np.zeros(3), p.oracle)
    assert all(len(a) == 0 for a in dataclasses.astuple(series))
    public = [check_monotone_psi(series, name="psi_monotone[xstar]"),
              check_corollary_bound(tr, np.zeros(3), p.oracle, name="corollary_bound[xstar]")]
    report = run_certificates(tr, p.oracle, None, x_refs={"xstar": np.zeros(3)},
                              checks=("psi", "corollary"))
    assert report.entries == public == [
        CertificateEntry(name, True, 0.0, 0, NOT_APPLICABLE)
        for name in ("psi_monotone[xstar]", "corollary_bound[xstar]")]


@pytest.mark.parametrize("K", sorted(UNCOMPARED))
def test_entries_that_compare_no_rows_say_so(K):
    # run_certificates and the public checks give the same entries, without
    # a warning; each one that compares nothing passes at k = 0 and says so
    p = make_quadratic(7, 30, 1e2)
    x0 = np.zeros(30)
    tr = run(p.oracle, x0, default_params(eta0=1e-2), StopRule(max_iters=K), store_iterates=True)
    assert tr.n_iters == K
    refs = {"x0": x0, "xstar": p.x_star}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_certificates(tr, p.oracle, None, L=p.L, x_refs=refs)
        public = [check_monotone_psi(lyapunov_series(tr, x, p.oracle), name=f"psi_monotone[{r}]")
                  for r, x in refs.items()]
        public += [check_corollary_bound(tr, x, p.oracle, name=f"corollary_bound[{r}]")
                   for r, x in refs.items()]
        public += [check_h_envelope(tr, None, p.L), *lemma_suite(tr, L=p.L, oracle=p.oracle),
                   check_eval_schedule(tr)]
    assert report.entries == public
    assert report.passed
    vacuous = [e for e in report.entries if e.detail == NOT_APPLICABLE]
    assert {e.name for e in vacuous} == UNCOMPARED[K]
    assert {(e.worst_violation, e.worst_k) for e in vacuous} <= {(0.0, 0)}


def _constant_gradient(dim):
    g = np.linspace(1.0, 2.0, dim)
    return Oracle(lambda x: (float(g.dot(x)), g.copy()), dim, label="linear")


@pytest.mark.parametrize("K", [0, 1, 40])
@pytest.mark.parametrize("eta0", [5e-324, 1e300])
@pytest.mark.parametrize("theta", [2.0, math.nextafter(GOLDEN_RATIO, 2.0)], ids=["2", "phi+"])
@pytest.mark.parametrize("problem", ["quadratic_d1", "constant_gradient"])
def test_degenerate_inputs_certify_without_an_exception_or_warning(problem, theta, eta0, K):
    # a FAIL stays a FAIL (the linear runs from eta0 = 1e300 overflow their
    # squared distances); the public entries are run_certificates' entries
    oracle, L = ((make_quadratic(3, 1, 1e2).oracle, 1e2) if problem == "quadratic_d1"
                 else (_constant_gradient(3), 1.0))
    x0 = np.ones(oracle.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = run(oracle, x0, make_params(theta=theta, eta0=eta0), StopRule(max_iters=K),
                 store_iterates=True)
        report = run_certificates(tr, oracle, None, L=L, x_refs={"x0": x0})
        public = [
            check_monotone_psi(lyapunov_series(tr, x0, oracle), name="psi_monotone[x0]"),
            check_corollary_bound(tr, x0, oracle, name="corollary_bound[x0]"),
            *lemma_suite(tr, L=L, oracle=oracle),
        ]
    assert {e.line() for e in public} <= set(report.lines())


def _counting(oracle):
    calls = [0]

    def fn(x):
        calls[0] += 1
        return oracle.fn(x)

    return Oracle(fn, oracle.dim, oracle.label), calls


def _swept_points(trace):
    """The distinct points of the sweep in call order: each point of
    (x[0], x_bar[0], x_tilde[0], ..., x_bar[K], x_tilde[K]) that is not
    bit-equal to the point before it."""
    pairs = np.stack([trace.x_bar, trace.x_tilde], axis=1).reshape(-1, trace.x_bar.shape[1])
    points = np.concatenate([trace.x[:1], pairs])
    bits = points.view(np.int64)
    return points[np.concatenate([[True], (bits[1:] != bits[:-1]).any(axis=1)])]


def test_run_certificates_makes_one_pass(identity_run):
    # every distinct stored point once and each reference once
    p, params, tr = identity_run
    refs = {"xstar": p.x_star, "x0": np.ones(10),
            "random": np.random.default_rng(1).standard_normal(10)}
    oracle, calls = _counting(p.oracle)
    report = run_certificates(tr, oracle, params, L=p.L, x_refs=refs)
    swept = len(_swept_points(tr))
    assert swept < 2 * (tr.n_iters + 1)  # x_bar[k] repeats x_tilde[k-1] on growth steps
    assert calls[0] == swept + len(refs)
    one_by_one = [check_monotone_psi(lyapunov_series(tr, ref, p.oracle, params),
                                     name=f"psi_monotone[{r}]") for r, ref in refs.items()]
    one_by_one += [check_corollary_bound(tr, ref, p.oracle, params, name=f"corollary_bound[{r}]")
                   for r, ref in refs.items()]
    one_by_one += [check_h_envelope(tr, params, p.L),
                   *lemma_suite(tr, params, L=p.L, oracle=p.oracle), check_eval_schedule(tr)]
    assert report.entries == one_by_one


def test_corollary_only_checks_share_the_sweep(identity_run):
    # without psi the endpoint bound still reads the decay series of one sweep
    p, params, tr = identity_run
    refs = {"xstar": p.x_star, "x0": np.ones(10)}
    oracle, calls = _counting(p.oracle)
    report = run_certificates(tr, oracle, params, L=p.L, x_refs=refs, checks=("corollary",))
    assert calls[0] == len(_swept_points(tr)) + len(refs)
    full = run_certificates(tr, p.oracle, params, L=p.L, x_refs=refs)
    assert report.entries == [e for e in full.entries if e.name.startswith("corollary_bound[")]
    # each reports its margin at the first k = 1..K of the largest swept violation
    fresh = _replay(tr, p.oracle, params, list(refs.values()))
    worst = [1 + int(np.argmax(s.dist_term + s.gap_term - (rhs * (1.0 + 1e-10) + 1e-12)))
             for s, rhs in zip(fresh.series, fresh.rhs)]
    assert [(e.passed, e.worst_k) for e in report.entries] == [(True, k) for k in worst]


GRID_PROBLEMS = {
    "quadratic": lambda seed: make_quadratic(seed, 8, 1e3),
    "logsumexp": lambda seed: logsumexp_problem(seed, 6, 12, 0.1),
    "logistic": lambda seed: logistic_problem(make_classification_dataset(seed, 30, 5),
                                              reg=1e-3),
}


@pytest.mark.parametrize("name", sorted(GRID_PROBLEMS))
def test_reference_certificates_hold_across_a_seeded_grid(name):
    # K = 300 from a standard normal start, at eta0 from far below 1/L to far
    # above it, against the start, the optimum where known and a random point
    for seed in (1, 2):
        p = GRID_PROBLEMS[name](seed)
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(p.dim)
        refs = {"x0": x0, "random": 3.0 * rng.standard_normal(p.dim)}
        if p.x_star is not None:
            refs["xstar"] = p.x_star
        for eta0 in (1e-12, 1e-6, 1.0 / p.L, 100.0 / p.L):
            tr = run(p.oracle, x0, default_params(eta0=eta0), StopRule(max_iters=300),
                     store_iterates=True)
            report = run_certificates(tr, p.oracle, None, x_refs=refs,
                                      checks=("psi", "corollary"))
            assert len(report.entries) == 2 * len(refs)
            assert report.passed, (seed, eta0, [e.line() for e in report.entries])


# sha256 of the report lines, recorded before the checks shared one pass and
# re-recorded when a passing entry came to report its margin
REPORT_SHA256 = {
    "identity": "372c243268c966cb8cba2c2e7791c1cdddfa3163527089e4fb2a7e240a50046a",
    "quadratic": "715d273bd289401b1a299ba657c537f588fbac0698e7aae3d586cf768dea11a8",
}


def test_report_lines_pinned(identity_run):
    p, params, tr = identity_run
    reports = {"identity": run_certificates(tr, p.oracle, params, L=p.L,
                                            x_refs={"xstar": p.x_star, "x0": np.ones(10)})}
    q, qp = make_quadratic(7, 30, 1e3), default_params(eta0=1e-3)
    tq = run(q.oracle, np.zeros(30), qp, StopRule(max_iters=300), store_iterates=True)
    reports["quadratic"] = run_certificates(tq, q.oracle, qp, L=q.L, x_refs={
        "xstar": q.x_star, "x0": np.zeros(30),
        "random": np.random.default_rng(3).standard_normal(30)})
    for name, report in reports.items():
        digest = hashlib.sha256("\n".join(report.lines()).encode()).hexdigest()
        assert digest == REPORT_SHA256[name], name


OVERFLOW_PROBLEMS = {
    "logsumexp": lambda: logsumexp_problem(0, 3, 4, 0.1),
    "logistic": lambda: logistic_problem(make_classification_dataset(7, 20, 3)),
    "quadratic": lambda: make_quadratic(1, 5, 10),
}
# sha256 of the report lines of K = 50 steps from x0 = 0 with x_refs {"x0": x0},
# recorded before run_certificates entered an np.errstate, with warnings ignored;
# from eta0 = 1e200 the logsumexp and logistic traces overflow in the replay, and
# their corollary_bound[x0] FAILs at k=1, the first NaN of the swept bound; the logistic
# entries were re-recorded when the dataset generator became a vectorized draw; its
# beta_f_value FAILs at k=1 at eta0 = 1e150, as before, and now at 1e20 too (two terms
# of 5.8e18 differ by one ulp against a slack scaled by |f_bar[1]| = 0.69); from
# eta0 = 1e200 the quadratic run stops at x0, and the entries that compare no rows
# were re-recorded when they came to read "not applicable: no rows to compare";
# all were re-recorded when a passing entry came to report its margin (the FAIL
# lines stayed byte-identical)
OVERFLOW_SHA256 = {
    ("logsumexp", 1e20): "989f858f6b19fa1339242271247eddf92335d24cf0dd7ab02e9dfb909c7a3a2f",
    ("logsumexp", 1e150): "c5490a8ee595b06d80f5f3b6412a78d711e996620ab780e8d8e0a7a4f75ec8a5",
    ("logsumexp", 1e200): "beeb910e21e0ca506bd22a7d12bf2bb243580d3a08243abfff9729a02a730275",
    ("logsumexp", 1e300): "8101a5a076f6a160ada26c9d791f6bb8689aac413940cd7660db4a4842ecf187",
    ("logistic", 1e20): "67ad16236adf1a395c493f866b849d225a7d7d4212a07e92c0141d9ce30cc9ed",
    ("logistic", 1e150): "9e1dab7e766f5d7300533084098a998ab17d990a5caec7396cc9e2bfdd2aecff",
    ("logistic", 1e200): "17c4abddcf4fa198acdbff15104ce33f3f982f19a8173befeac3bc207432d27c",
    ("logistic", 1e300): "3a855d8d0c67fcb4960bc376c94a58da8f25a04bfb7e639b6d52f7d5894606f8",
    ("quadratic", 1e20): "9ed95d69357189f533d690733eb1acf91bb14376a187871dbc067e6c2c4f3840",
    ("quadratic", 1e150): "e63e9bb392fccbec69cf62d780411a2447e767ed1f15e676f1b98a29f494bf2c",
    ("quadratic", 1e200): "156fa2e97987b11412f48da101485b04f52678f97d4584a42729a91dc025ebe7",
    ("quadratic", 1e300): "eecb0face3d64fe38825cfa69a769c9983c605d59b558b2ce05f1fdd1bf0fe01",
}


@pytest.mark.parametrize("name, eta0", sorted(OVERFLOW_SHA256),
                         ids=[f"{n}-{e:g}" for n, e in sorted(OVERFLOW_SHA256)])
def test_certificates_at_huge_eta0_raise_no_warning(name, eta0):
    # the public reference checks too, with run_certificates' entries (a FAIL
    # stays a FAIL; lines, because a NaN worst violation is not equal to itself)
    p = OVERFLOW_PROBLEMS[name]()
    x0 = np.zeros(p.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = run(p.oracle, x0, default_params(eta0=eta0), StopRule(max_iters=50),
                 store_iterates=True)
        report = run_certificates(tr, p.oracle, None, L=p.L, x_refs={"x0": x0})
        public = [  # also where the run stops at its start point (quadratic from 1e200)
            check_monotone_psi(lyapunov_series(tr, x0, p.oracle), name="psi_monotone[x0]"),
            check_corollary_bound(tr, x0, p.oracle, name="corollary_bound[x0]"),
        ]
    digest = hashlib.sha256("\n".join(report.lines()).encode()).hexdigest()
    assert digest == OVERFLOW_SHA256[name, eta0]
    assert {e.line() for e in public} <= set(report.lines())


def test_lemma_suite_at_the_largest_eta0_raises_no_warning():
    # H[1] overflows to inf, so the h_growth bound (2 + gamma) H[k-1] does too
    p = OVERFLOW_PROBLEMS["logistic"]()
    x0 = np.zeros(p.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = run(p.oracle, x0, default_params(eta0=1.7e308), StopRule(max_iters=5),
                 store_iterates=True)
        lemmas = lemma_suite(tr, None, p.L, p.oracle)
        report = run_certificates(tr, p.oracle, None, L=p.L, checks=("lemmas",))
    assert math.isinf(tr.H[-1])
    assert [e.line() for e in lemmas] == report.lines()


def test_run_certificates_defaults_to_the_trace_parameters():
    p = identity_quadratic(3)
    tr = run(p.oracle, np.ones(3), default_params(eta0=0.1), StopRule(max_iters=40),
             store_iterates=True)
    refs = {"xstar": p.x_star}
    given = run_certificates(tr, p.oracle, tr.params, L=p.L, x_refs=refs)
    assert len(given.entries) > 3
    assert run_certificates(tr, p.oracle, None, L=p.L, x_refs=refs).lines() == given.lines()
    assert check_h_envelope(tr, None, p.L) == check_h_envelope(tr, tr.params, p.L)


def test_run_certificates_counts_evaluations_of_a_baseline_without_parameters():
    p = make_quadratic(7, 20, 100.0)
    gd = run_baseline(BaselineMethod(kind="gd", eta=1.0 / p.L), p.oracle, np.ones(20),
                      StopRule(max_iters=50))
    assert gd.params is None
    report = run_certificates(gd, p.oracle, None, L=p.L, checks=("evals",))
    assert report.entries == [check_eval_schedule(gd)]
    with pytest.raises(ValueError, match="solver parameters required"):
        run_certificates(gd, p.oracle, None, L=p.L, checks=("h_envelope", "evals"))


def test_nan_columns_of_a_baseline_trace_fail():
    # gd records no stepsize sum or averaging weights: their checks are undefined, not passed
    p, params = make_quadratic(7, 20, 100.0), default_params(eta0=1e-3)
    gd = run_baseline(BaselineMethod(kind="gd", eta=1.0 / p.L), p.oracle, np.ones(20),
                      StopRule(max_iters=50))
    entries = {e.name: e for e in lemma_suite(gd, params, L=p.L)}
    entries["h_envelope"] = check_h_envelope(gd, params, p.L)
    for name, k in (("alpha_beta_range", 0), ("eta_coupling", 0), ("h_growth", 1),
                    ("beta_f_value", 1), ("h_envelope", 0)):
        e = entries[name]
        assert not e.passed and math.isnan(e.worst_violation) and e.worst_k == k, e.line()
    # a constant stepsize meets the growth bound; nan lambda means no estimate
    assert entries["eta_growth"].passed and entries["lambda_floor"].passed


def test_nan_stepsize_sum_fails_at_its_iteration(identity_run):
    p, params, tr = identity_run
    H = tr.H.copy()
    H[10] = math.nan
    broken = dataclasses.replace(tr, H=H)
    entries = {e.name: e for e in lemma_suite(broken, params, L=p.L, oracle=p.oracle)}
    entries["h_envelope"] = check_h_envelope(broken, params, p.L)
    for name, e in entries.items():
        if name in ("eta_coupling", "h_growth", "h_envelope"):
            assert not e.passed and math.isnan(e.worst_violation) and e.worst_k == 10, e.line()
        else:
            assert e.passed, e.line()


def test_fresh_call_counts_pinned(identity_run):
    # one forward sweep evaluates each distinct point of x[0], x_bar[0], x_tilde[0],
    # ..., x_bar[K], x_tilde[K]; the endpoint bound reads the start gradient from it
    p, params, tr = identity_run
    swept = len(_swept_points(tr))
    oracle, calls = _counting(p.oracle)
    lyapunov_series(tr, p.x_star, oracle, params)
    assert calls[0] == swept + 1
    calls[0] = 0
    check_corollary_bound(tr, p.x_star, oracle, params)
    assert calls[0] == swept + 1
    calls[0] = 0
    lemma_suite(tr, params, L=p.L, oracle=oracle)
    assert calls[0] == swept
    calls[0] = 0
    run_certificates(tr, oracle, params, L=p.L, x_refs={"xstar": p.x_star, "x0": np.ones(10)})
    assert calls[0] == swept + 2


def test_pass_calls_the_oracle_once_per_point_in_order(identity_run):
    p, params, tr = identity_run
    seen = []

    def recording(x):
        seen.append(x.copy())
        return p.oracle.fn(x)

    refs = {"xstar": p.x_star, "x0": np.ones(10)}
    run_certificates(tr, Oracle(recording, 10), params, L=p.L, x_refs=refs)
    swept = _swept_points(tr)
    assert len(seen) == len(swept) + len(refs)
    # the references first, then the distinct points of x[0], x_bar[0],
    # x_tilde[0], x_bar[1], ... in order
    assert np.array_equal(np.array(seen[:len(refs)]), np.array(list(refs.values())))
    assert np.array_equal(np.array(seen[len(refs):]), swept)


def test_quad_certified_call_count_pinned():
    # the benchmark's dense quadratic: 2 * 2001 stored points, of which x_bar[k]
    # repeats x_tilde[k-1] at 1905 of the 2000 k >= 1 and x[0] = x_bar[0] = x_tilde[0]
    # (4005 calls when every stored point was evaluated). make_quadratic builds
    # other bits under one BLAS thread (ROADMAP item 17), and there 1901 repeat,
    # so each thread count runs in its own process with its own pin
    script = """
import numpy as np
import aagd
p, params = aagd.make_quadratic(1, 100, 1e4), aagd.default_params(eta0=1e-6)
tr = aagd.run(p.oracle, np.zeros(100), params, aagd.StopRule(max_iters=2000),
              store_iterates=True)
calls = [0]
def fn(x):
    calls[0] += 1
    return p.oracle.fn(x)
aagd.run_certificates(tr, aagd.Oracle(fn, 100), params, L=p.L,
                      x_refs={"xstar": p.x_star, "x0": np.zeros(100)})
print(calls[0])
"""
    src = str(Path(aagd.__file__).resolve().parents[1])
    for threads, pinned in {"1": 2102, "2": 2098}.items():
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert int(out.stdout) == pinned, threads


def test_certificate_memory_does_not_hold_the_trace_results():
    # the sweep holds one block's fresh results and their row stacks (about
    # 8192 floats per stacked gradient) and O(K) scalars: the peak stays
    # below one stored iterate block (K * d floats), where caching every
    # fresh gradient took about 2 (K + 1) * d floats
    p, params = make_quadratic(9137, 100, 1e4), default_params(eta0=1e-6)
    K = 2000
    tr = run(p.oracle, np.zeros(100), params, StopRule(max_iters=K), store_iterates=True)
    assert tr.n_iters == K
    refs = {"xstar": p.x_star, "x0": np.zeros(100)}
    tracemalloc.start()
    try:
        report = run_certificates(tr, p.oracle, params, L=p.L, x_refs=refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < K * 100 * 8

def test_quad_certified_stacked_replay_calls_once_per_block():
    # the benchmark's dense quadratic: the references one point at a time,
    # then one stacked call per block, whose rows are the distinct swept points
    p, params = make_quadratic(1, 100, 1e4), default_params(eta0=1e-6)
    tr = run(p.oracle, np.zeros(100), params, StopRule(max_iters=2000), store_iterates=True)
    seen = []

    def recording(x):
        seen.append(x.copy())
        return p.oracle.fn(x)

    refs = {"xstar": p.x_star, "x0": np.zeros(100)}
    report = run_certificates(tr, Oracle(recording, 100, rows=True), params, L=p.L, x_refs=refs)
    assert report.lines() == run_certificates(tr, p.oracle, params, L=p.L, x_refs=refs).lines()
    assert [x.ndim for x in seen] == [1, 1] + [2] * -(-(tr.n_iters + 1) // B100)
    assert np.array_equal(np.concatenate(seen[2:]), _swept_points(tr))


def test_stacked_replay_memory_does_not_grow_with_the_terms():
    # logsumexp's stacked exponents are (rows, terms): at 5000 terms and d = 2
    # a block of 4096 k stacks up to 8193 rows, 330 MB of exponents at once;
    # the kernel takes max(1, TERM_BLOCK // terms) rows at a time
    p, params = logsumexp_problem(1, 2, 5000, 0.1), default_params(eta0=1e-3)
    tr = run(p.oracle, np.zeros(2), params, StopRule(max_iters=2000), store_iterates=True)
    assert tr.n_iters == 2000
    refs = {"x0": np.zeros(2), "random": np.random.default_rng(1).standard_normal(2)}
    tracemalloc.start()
    try:
        report = run_certificates(tr, p.oracle, params, L=p.L, x_refs=refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2e6



def _reference(oracle, x_ref):
    """A reference point as floats with its fresh objective value, the
    form in which _replay_reference takes its reference points."""
    x_ref = np.asarray(x_ref, dtype=np.float64)
    return x_ref, evaluate(oracle, x_ref).value


def _replay_reference(trace, oracle, params, refs=()):
    """The per-k sweep that the block sweep replaced, kept verbatim as its
    reference: evaluate x_bar[k] and x_tilde[k] once each, k = 0..K in
    order, holding only the results at k-1 and k; then the endpoint
    bound's right side per reference point, from a separate call at x[0]."""
    tr, th, ga, K = trace, params.theta, params.gamma, trace.n_iters
    f_bar = np.empty(K + 1)
    carry, ahead, breg, mom = np.empty((4, K))
    dist = np.empty((len(refs), K))
    for k in range(K + 1):
        bar, til = evaluate(oracle, tr.x_bar[k]), evaluate(oracle, tr.x_tilde[k])
        f_bar[k] = bar.value
        if k:
            i = k - 1
            carry[i], ahead[i] = bregman(bar_prev, til_prev), bregman(bar, til_prev)
        if k and refs:  # the decay terms serve only the series
            lam_k = local_curvature(bar, til_prev, til)
            if math.isinf(lam_k):
                scale = 1.0 + abs(bar_prev.value) + abs(til_prev.value)
                breg[i] = 0.0 if abs(carry[i]) <= 1e-9 * scale else math.nan
            else:
                breg[i] = th * tr.eta[k] * tr.eta[i] / lam_k * carry[i]
            dk = tr.x[k] - tr.x[i]
            mom[i] = 0.5 * ga * th * float(dk @ dk)
            for j, (x_ref, _) in enumerate(refs):
                dx = tr.x[k] - x_ref
                dist[j, i] = 0.5 * float(dx @ dx)
        bar_prev, til_prev = bar, til
    gaps = [tr.H[:-1] * (f_bar[1:] - f_ref) for _, f_ref in refs]
    series = [LyapunovSeries(np.arange(1, K + 1), d + g + breg + mom, d, g, breg, mom)
              for d, g in zip(dist, gaps)]
    grad0_sq = evaluate(oracle, tr.x[0]).grad_sq
    rhs = np.array([0.5 * sq_norm(tr.x[0] - x_ref)
                    + 0.5 * (1.0 + ga * th) * tr.eta[0]**2 * grad0_sq for x_ref, _ in refs])
    return _Pass(f_bar, carry, ahead, series, rhs)


def _pass_bytes(fresh):
    arrays = {"f_bar": fresh.f_bar, "carry": fresh.carry, "ahead": fresh.ahead,
              "rhs": fresh.rhs}
    for j, s in enumerate(fresh.series):
        arrays |= {f"series[{j}].{f.name}": getattr(s, f.name) for f in dataclasses.fields(s)}
    return {name: (a.dtype, a.shape, a.tobytes()) for name, a in arrays.items()}


B100 = ROW_BLOCK // 100  # rows per replay block at d = 100


def _classification(seed):
    return logistic_problem(make_classification_dataset(seed, 20, 3))


# (problem, eta0, theta, K): block edges at d = 100 (K + 1 in {B - 1, B,
# B + 1, 2B}), one iteration, d = 1, one row per block (d > ROW_BLOCK), no
# iterations (no pair looks back), a theta other than 2 (whose products
# round), and the large-eta0 runs whose psi reads NaN or whose
# beta_f_value fails; at eta0 = 1e200 both sweeps overflow
REPLAY_CASES = [
    pytest.param(lambda: make_quadratic(5, 100, 1e3), 1e-3, 2.0, B100 - 2, id="rows_B-1"),
    pytest.param(lambda: make_quadratic(5, 100, 1e3), 1e-3, 2.0, B100 - 1, id="rows_B"),
    pytest.param(lambda: make_quadratic(5, 100, 1e3), 1e-3, 3.0, B100, id="rows_B+1"),
    pytest.param(lambda: make_quadratic(6, 100, 1e4), 1e-6, 2.0, 2 * B100 - 1, id="rows_2B"),
    pytest.param(lambda: make_quadratic(7, 30, 1e2), 1e-2, 2.0, 1, id="one_iteration"),
    pytest.param(lambda: identity_quadratic(1), 0.1, 2.0, 60, id="dim_one"),
    pytest.param(lambda: make_quadratic(3, 1, 1e2), 1e-4, 1.7, 40, id="dim_one_quadratic"),
    pytest.param(lambda: identity_quadratic(ROW_BLOCK + 808), 0.1, 2.0, 5, id="one_row_blocks"),
    pytest.param(lambda: make_quadratic(5, 100, 1e3), 1e-3, 2.0, 0, id="no_iterations"),
    pytest.param(lambda: identity_quadratic(ROW_BLOCK + 808), 0.1, 2.0, 0,
                 id="no_iterations_one_row_blocks"),
    pytest.param(lambda: logsumexp_problem(0, 3, 4, 0.1), 1e6, 2.0, 50, id="logsumexp_eta0_1e6"),
    pytest.param(lambda: logsumexp_problem(0, 3, 4, 0.1), 1e12, 2.0, 50,
                 id="logsumexp_eta0_1e12"),
    pytest.param(lambda: _classification(7), 1e150, 2.0, 50, id="logistic_eta0_1e150"),
    pytest.param(lambda: _classification(5), 1e20, 2.0, 50, id="logistic_eta0_1e20"),
    pytest.param(lambda: logsumexp_problem(0, 3, 4, 0.1), 1e200, 2.0, 50,
                 id="logsumexp_eta0_1e200",
                 marks=[pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
                        pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")]),
]


def _assert_replays_match(tr, oracle, params, points):
    refs = [_reference(oracle, x) for x in points]
    for n in (0, 1, len(points)):
        assert _pass_bytes(_replay(tr, oracle, params, points[:n])) == _pass_bytes(
            _replay_reference(tr, oracle, params, refs[:n]))


@pytest.mark.parametrize("make, eta0, theta, K", REPLAY_CASES)
def test_block_replay_matches_the_per_k_reference_bits(make, eta0, theta, K):
    p = make()
    # start away from the minimizer
    x0 = np.ones(p.dim) if p.x_star is not None and not p.x_star.any() else np.zeros(p.dim)
    params = make_params(theta=theta, eta0=eta0)
    tr = run(p.oracle, x0, params, StopRule(max_iters=K), store_iterates=True)
    assert tr.n_iters == K
    points = [x0, np.random.default_rng(K).standard_normal(p.dim)]
    points += [p.x_star] if p.x_star is not None else []
    _assert_replays_match(tr, p.oracle, params, points)


@pytest.mark.parametrize("make, eta0, theta, K",
                         [c for c in REPLAY_CASES if not c.id.startswith("logistic")])
def test_stacked_replay_is_the_per_point_replay(make, eta0, theta, K):
    # the oracle's one call per block against a copy without rows, which the
    # sweep calls once per distinct point
    p = make()
    assert p.oracle.rows
    x0 = np.ones(p.dim) if p.x_star is not None and not p.x_star.any() else np.zeros(p.dim)
    params = make_params(theta=theta, eta0=eta0)
    tr = run(p.oracle, x0, params, StopRule(max_iters=K), store_iterates=True)
    points = [x0, np.random.default_rng(K).standard_normal(p.dim)]
    per_point = Oracle(p.oracle.fn, p.dim)
    assert _pass_bytes(_replay(tr, p.oracle, params, points)) == _pass_bytes(
        _replay(tr, per_point, params, points))
    refs = dict(zip(("x0", "random"), points))
    assert run_certificates(tr, p.oracle, params, L=p.L, x_refs=refs).lines() == \
        run_certificates(tr, per_point, params, L=p.L, x_refs=refs).lines()


@pytest.mark.parametrize("rows", [1, 2, 7, None], ids=["B1", "B2", "B7", "default"])
def test_sweep_calls_and_bits_do_not_depend_on_the_block_size(monkeypatch, rows):
    # x_bar[k] repeats x_tilde[k-1] at all k = 1..170 but 8, 25, 26 and 152,
    # so at every block size some block starts with a repeat of the block before;
    # a copy with x_bar[0] = 0.5 sets x_bar[0] apart from the first block's
    # look-back point x[0] and from x_tilde[0], which costs one call more
    p, params = make_quadratic(1, 100, 1e4), default_params(eta0=1e-6)
    tr = run(p.oracle, np.zeros(100), params, StopRule(max_iters=170), store_iterates=True)
    x_bar = tr.x_bar.copy()
    x_bar[0] = 0.5
    traces = [tr, dataclasses.replace(tr, x_bar=x_bar)]
    points = [p.x_star, np.zeros(100)]
    refs = [_reference(p.oracle, x) for x in points]
    wants = [_pass_bytes(_replay_reference(t, p.oracle, params, refs)) for t in traces]
    if rows is not None:
        monkeypatch.setattr(diagnostics, "ROW_BLOCK", rows * 100)
    B = diagnostics.ROW_BLOCK // 100
    starts = np.arange(B, 171, B)  # the first k of every block but the first
    assert (tr.x_bar[starts].view(np.int64) == tr.x_tilde[starts - 1].view(np.int64)).all(
        axis=1).any()
    seen = []

    def recording(x):
        seen.append(x.copy())
        return p.oracle.fn(x)

    for t, want, calls in zip(traces, wants, (177, 179)):
        seen.clear()
        assert _pass_bytes(_replay(t, Oracle(recording, 100), params, points)) == want
        # the two reference points come first, then the sweep
        assert np.array_equal(np.array(seen), np.concatenate([points, _swept_points(t)]))
        assert len(seen) == calls


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_block_replay_matches_the_reference_on_a_tampered_trace():
    # points near 1e154 across a block edge: the pair (x_bar[B], x_tilde[B-1])
    # squares past the float range, so its estimate is inf / inf = NaN while
    # (x_bar[B], x_tilde[B]) gives a number; the min must keep the NaN
    p, params = identity_quadratic(100), default_params(eta0=0.1)
    tr = run(p.oracle, np.ones(100), params, StopRule(max_iters=B100 + 2), store_iterates=True)
    x_bar, x_tilde, e0 = tr.x_bar.copy(), tr.x_tilde.copy(), np.eye(100)[0]
    x_bar[B100] = 1e154 * e0
    x_tilde[B100 - 1] = -1e154 * e0
    x_tilde[B100] = 1e154 * e0 + np.eye(100)[1]
    tampered = dataclasses.replace(tr, x_bar=x_bar, x_tilde=x_tilde)
    _assert_replays_match(tampered, p.oracle, params, [np.ones(100), p.x_star])
    fresh = _replay(tampered, p.oracle, params, [p.x_star])
    assert math.isnan(fresh.series[0].bregman_term[B100 - 1])


# the failures that evaluate raises, at a point inside the second replay block
FAILED_OUTPUTS = [
    pytest.param(lambda v, g: (math.nan, g), NonFiniteError,
                 "oracle 'f' returned non-finite output", id="value"),
    pytest.param(lambda v, g: (v, np.append(g[:-1], math.inf)), NonFiniteError,
                 "oracle 'f' returned non-finite output", id="grad"),
    pytest.param(lambda v, g: (v, g[:-1]), DimensionMismatchError,
                 "oracle returned gradient of shape (99,) for point of shape (100,)",
                 id="grad_shape"),
    pytest.param(lambda v, g: (np.array([v]), g), DimensionMismatchError,
                 "oracle returned a value of shape (1,), not a scalar", id="value_shape"),
]


@pytest.mark.parametrize("output, raised, message", FAILED_OUTPUTS)
def test_replay_failure_in_the_second_block_raises_as_evaluate(output, raised, message):
    p, params = identity_quadratic(100), default_params(eta0=0.1)
    tr = run(p.oracle, np.ones(100), params, StopRule(max_iters=2 * B100), store_iterates=True)
    target = tr.x_tilde[B100 + 3]

    def fn(x):
        v, g = p.oracle.fn(x)
        return output(v, g) if np.array_equal(x, target) else (v, g)

    for replay in (_replay, _replay_reference):
        with pytest.raises(raised) as caught:
            replay(tr, Oracle(fn, 100), params)
        assert str(caught.value) == message


# the failures of FAILED_OUTPUTS for an oracle that declares rows, at the rows
# of a stacked call that are bit-equal to ``hit``
STACKED_FAILURES = [
    pytest.param(lambda v, g, hit: (np.where(hit, math.nan, v), g), NonFiniteError,
                 "oracle 'f' returned non-finite output", id="value"),
    pytest.param(lambda v, g, hit: (v, np.where(hit[:, None] & (np.arange(g.shape[1]) == 3),
                                                math.inf, g)), NonFiniteError,
                 "oracle 'f' returned non-finite output", id="grad"),
    pytest.param(lambda v, g, hit: (v, g[:, :-1]), DimensionMismatchError,
                 "oracle returned gradients of shape ({m}, 99) for points of shape ({m}, 100)",
                 id="grad_shape"),
    pytest.param(lambda v, g, hit: (v[:, None], g), DimensionMismatchError,
                 "oracle returned values of shape ({m}, 1) for points of shape ({m}, 100)",
                 id="value_shape"),
]


@pytest.mark.parametrize("output, raised, message", STACKED_FAILURES)
def test_stacked_replay_failure_raises_as_evaluate(output, raised, message):
    # one call per block: the second block's call is the last, and raises
    # its shape error at the call, its non-finite output after it
    p, params = identity_quadratic(100), default_params(eta0=0.1)
    tr = run(p.oracle, np.ones(100), params, StopRule(max_iters=2 * B100), store_iterates=True)
    target = tr.x_tilde[B100 + 3].view(np.int64)
    shapes = []

    def fn(X):
        shapes.append(X.shape)
        v, g = p.oracle.fn(X)
        hit = (X.view(np.int64) == target).all(axis=1)
        return output(v, g, hit) if hit.any() else (v, g)

    with pytest.raises(raised) as caught:
        _replay(tr, Oracle(fn, 100, rows=True), params)
    assert len(shapes) == 2 and shapes[-1][1] == 100
    assert str(caught.value) == message.format(m=shapes[-1][0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_stored_point_raises_from_run_certificates(identity_run, bad):
    # the library path: the replay screens the stored iterates, not cmd_check
    p, params, tr = identity_run
    x_tilde = tr.x_tilde.copy()
    x_tilde[7, 3] = bad
    broken = dataclasses.replace(tr, x_tilde=x_tilde)
    with pytest.raises(NonFiniteError, match="^x_tilde at k = 7 has a non-finite entry"):
        run_certificates(broken, p.oracle, params, L=p.L, x_refs={"xstar": p.x_star})
    with pytest.raises(NonFiniteError, match="query point contains non-finite entries"):
        _replay_reference(broken, p.oracle, params)
    # x[3], which the sweep never evaluates but the decay terms read
    x = tr.x.copy()
    x[3, 0] = bad
    with pytest.raises(NonFiniteError, match="^x at k = 3 has a non-finite entry; "
                                             "the solver stores only finite iterates$"):
        run_certificates(dataclasses.replace(tr, x=x), p.oracle, params, L=p.L,
                         x_refs={"xstar": p.x_star})


def test_replay_accepts_a_stored_point_whose_square_overflows():
    # no warning, under the suite's filterwarnings = error: the row norms
    # of 1.5e154 overflow inside the block's errstate, as sq_norm does silently
    p = _classification(7)
    params = default_params(eta0=1.0)
    tr = run(p.oracle, np.zeros(3), params, StopRule(max_iters=30), store_iterates=True)
    x_bar = tr.x_bar.copy()
    x_bar[12] = [1.5e154, -1.5e154, 1.0]
    tampered = dataclasses.replace(tr, x_bar=x_bar)
    _assert_replays_match(tampered, p.oracle, params, [np.zeros(3), np.ones(3)])
    run_certificates(tampered, p.oracle, params, x_refs={"x0": np.zeros(3)})
