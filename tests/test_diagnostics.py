import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from aagd import (BaselineMethod, ConvergedWindowError, DimensionMismatchError,
                  MissingIteratesError, NonFiniteError, Oracle, StopRule, Trace, bregman,
                  check_corollary_bound, check_eval_schedule, check_h_envelope,
                  check_monotone_psi, default_params, evaluate, fit_rate, identity_quadratic,
                  lemma_suite, local_curvature, logistic_problem, logsumexp_problem,
                  lyapunov_series, make_classification_dataset, make_params, make_quadratic,
                  read_csv, run, run_baseline, run_certificates, write_csv)
from aagd.diagnostics import ROW_BLOCK, LyapunovSeries, _Pass, _reference, _replay
from aagd.params import SolverParams
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
    assert entry.passed
    assert entry.worst_violation == 0.0


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


def test_missing_iterates_raises(identity_run):
    p, params, _ = identity_run
    tr = run(p.oracle, np.ones(10), params, StopRule(max_iters=5))
    with pytest.raises(MissingIteratesError):
        lyapunov_series(tr, np.zeros(10), p.oracle)
    with pytest.raises(MissingIteratesError):
        check_corollary_bound(tr, np.zeros(10), p.oracle)


def _counting(oracle):
    calls = [0]

    def fn(x):
        calls[0] += 1
        return oracle.fn(x)

    return Oracle(fn, oracle.dim, oracle.label), calls


def test_run_certificates_makes_one_pass(identity_run):
    # every stored point once, each reference once, and the start gradient
    p, params, tr = identity_run
    refs = {"xstar": p.x_star, "x0": np.ones(10),
            "random": np.random.default_rng(1).standard_normal(10)}
    oracle, calls = _counting(p.oracle)
    report = run_certificates(tr, oracle, params, L=p.L, x_refs=refs)
    assert calls[0] == 2 * (tr.n_iters + 1) + len(refs) + 1
    one_by_one = [check_monotone_psi(lyapunov_series(tr, ref, p.oracle, params),
                                     name=f"psi_monotone[{r}]") for r, ref in refs.items()]
    one_by_one += [check_corollary_bound(tr, ref, p.oracle, params, name=f"corollary_bound[{r}]")
                   for r, ref in refs.items()]
    one_by_one += [check_h_envelope(tr, params, p.L),
                   *lemma_suite(tr, params, L=p.L, oracle=p.oracle), check_eval_schedule(tr)]
    assert report.entries == one_by_one


# sha256 of the report lines, recorded before the checks shared one pass
REPORT_SHA256 = {
    "identity": "97b82ab25b9cb64b6d27d1ca505c67c21e207e37e63b1df9f71727449e791d2f",
    "quadratic": "a557e767b9a7f42f546717ef4d56f6e6349277e2ea113ccdc5ae9a36c298d7cb",
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
    # one forward sweep evaluates x_bar[k] and x_tilde[k] for k = 0..K; the
    # endpoint bound alone evaluates x_bar[K], x[0] and the reference point
    p, params, tr = identity_run
    K = tr.n_iters
    oracle, calls = _counting(p.oracle)
    lyapunov_series(tr, p.x_star, oracle, params)
    assert calls[0] == 2 * (K + 1) + 1
    calls[0] = 0
    check_corollary_bound(tr, p.x_star, oracle, params)
    assert calls[0] == 3
    calls[0] = 0
    lemma_suite(tr, params, L=p.L, oracle=oracle)
    assert calls[0] == 2 * (K + 1)
    calls[0] = 0
    run_certificates(tr, oracle, params, L=p.L, x_refs={"xstar": p.x_star, "x0": np.ones(10)})
    assert calls[0] == 2 * (K + 1) + 2 + 1


def test_pass_calls_the_oracle_once_per_point_in_order(identity_run):
    p, params, tr = identity_run
    seen = []

    def recording(x):
        seen.append(x.copy())
        return p.oracle.fn(x)

    refs = {"xstar": p.x_star, "x0": np.ones(10)}
    run_certificates(tr, Oracle(recording, 10), params, L=p.L, x_refs=refs)
    assert len(seen) == 2 * (tr.n_iters + 1) + len(refs) + 1
    # the references first, then x_bar[0], x_tilde[0], x_bar[1], ... in order
    assert np.array_equal(np.array(seen[:len(refs)]), np.array(list(refs.values())))
    swept = np.stack([tr.x_bar, tr.x_tilde], axis=1).reshape(-1, 10)
    assert np.array_equal(np.array(seen[len(refs):len(refs) + len(swept)]), swept)
    assert np.array_equal(seen[-1], tr.x[0])  # the endpoint bound's start gradient


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


def _replay_reference(trace, oracle, params, refs=()):
    """The per-k sweep that the block sweep replaced, kept verbatim as its
    reference: evaluate x_bar[k] and x_tilde[k] once each, k = 0..K in
    order, holding only the results at k-1 and k."""
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
    return _Pass(f_bar, carry, ahead, series)


def _pass_bytes(fresh):
    arrays = {"f_bar": fresh.f_bar, "carry": fresh.carry, "ahead": fresh.ahead}
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
    # a trace without iterations has no reference pass (_reference rejects it)
    refs = [_reference(tr, oracle, x) for x in points] if tr.n_iters else []
    for r in ([], refs[:1], refs):
        assert _pass_bytes(_replay(tr, oracle, params, r)) == _pass_bytes(
            _replay_reference(tr, oracle, params, r))


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
    fresh = _replay(tampered, p.oracle, params, [_reference(tampered, p.oracle, p.x_star)])
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_stored_point_raises_from_run_certificates(identity_run, bad):
    # the library path: no cmd_check pre-check screens the trace
    p, params, tr = identity_run
    x_tilde = tr.x_tilde.copy()
    x_tilde[7, 3] = bad
    broken = dataclasses.replace(tr, x_tilde=x_tilde)
    message = "query point contains non-finite entries"
    with pytest.raises(NonFiniteError, match=message):
        run_certificates(broken, p.oracle, params, L=p.L, x_refs={"xstar": p.x_star})
    with pytest.raises(NonFiniteError, match=message):
        _replay_reference(broken, p.oracle, params)


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
