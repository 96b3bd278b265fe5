import dataclasses
import math
import warnings

import numpy as np
import pytest

from aagd import (BaselineMethod, InvalidParamsError, NonFiniteError, Oracle, StopRule,
                  default_params, evaluate, identity_quadratic, init, lambda_option2,
                  lemma_suite, local_curvature, logistic_problem, logsumexp_problem,
                  make_classification_dataset, make_quadratic, run, run_baseline, step)
from aagd.params import SolverParams


def golden_expected():
    """Hand-executed first step on f(x) = x^2/2, x0 = 1, eta0 = 0.1.

    Plain float arithmetic, independent of the solver code path.
    """
    theta, gamma = 2.0, 1.0 / 22.0
    nu = gamma / (4.0 * theta * (1.0 + gamma) ** 2)
    eta0, x0, h0 = 0.1, 1.0, 0.1
    alpha1 = (1.0 + gamma) * eta0 / (h0 + (1.0 + gamma) * eta0)
    x1 = x0 - eta0 * x0
    xbar1 = 1.0 * x0 + 0.0 * x0
    xhat1 = x1 + theta * (x1 - x0)
    xtilde1 = alpha1 * xhat1 + (1.0 - alpha1) * xbar1
    lam1 = 1.0  # first branch infinite, second is exactly 1 on this quadratic
    eta1 = min((1.0 + gamma) * eta0, nu * h0 * lam1 / eta0)
    h1 = h0 + eta1
    beta1 = eta1 / (alpha1 * h1)
    return dict(alpha1=alpha1, x1=x1, xbar1=xbar1, xhat1=xhat1, xtilde1=xtilde1,
                lam1=lam1, eta1=eta1, h1=h1, beta1=beta1)


def counting(oracle):
    """A copy of ``oracle`` and the list of the points its ``fn`` is called at."""
    calls = []

    def fn(x):
        calls.append(x)
        return oracle.fn(x)

    return Oracle(fn, oracle.dim), calls


def test_init_assignments():
    oracle, calls = counting(identity_quadratic(3).oracle)
    params = default_params(eta0=0.1)
    st = init(np.ones(3), params, oracle)
    assert st.alpha == 1.0 and st.beta == 1.0
    assert st.eta == st.eta_prev == st.H == st.H_prev == 0.1
    assert np.array_equal(st.x_tilde, st.x)
    assert np.array_equal(st.x_bar, st.x)
    assert math.isnan(st.lam)
    assert len(calls) == 1


def test_init_rejects_invalid_params():
    p = identity_quadratic(2)
    bad = SolverParams(1.0, 1.0, 1.0 / 16.0, eta0=0.1)
    with pytest.raises(InvalidParamsError):
        init(np.ones(2), bad, p.oracle)


def test_golden_first_step():
    p = identity_quadratic(1)
    params = default_params(eta0=0.1)
    st = step(init(np.array([1.0]), params, p.oracle), p.oracle, params)
    exp = golden_expected()
    tol = 1e-12
    assert st.alpha == pytest.approx(exp["alpha1"], abs=tol)
    assert st.x[0] == pytest.approx(exp["x1"], abs=tol)
    assert st.x_bar[0] == pytest.approx(exp["xbar1"], abs=tol)
    assert st.x_hat[0] == pytest.approx(exp["xhat1"], abs=tol)
    assert st.x_tilde[0] == pytest.approx(exp["xtilde1"], abs=tol)
    assert st.lam == pytest.approx(exp["lam1"], abs=tol)
    assert st.eta == pytest.approx(exp["eta1"], abs=tol)
    assert st.H == pytest.approx(exp["h1"], abs=tol)
    assert st.beta == pytest.approx(exp["beta1"], abs=tol)


def test_two_evaluations_per_step():
    oracle, calls = counting(identity_quadratic(4).oracle)
    params = default_params(eta0=0.05)
    st = init(np.ones(4), params, oracle)
    for k in range(5):
        st = step(st, oracle, params)
        assert len(calls) == 1 + 2 * (k + 1)


COUNTED = make_quadratic(1, 5, 10.0)
# aagd, aagd with growth_cap and each baseline, with its oracle calls per iteration
COUNTED_METHODS = [pytest.param("aagd", 2, id="aagd"),
                   pytest.param("growth_cap", 2, id="aagd_growth_cap")] + [
    pytest.param(m, per, id=m.kind) for m, per in [
        (BaselineMethod("gd", eta=1.0 / COUNTED.L), 1),
        (BaselineMethod("agd", eta=1.0 / COUNTED.L), 2),
        (BaselineMethod("adgd", eta0=1e-3), 1),
        (BaselineMethod("adagrad", eta=1.0), 1),
        (BaselineMethod("bb", eta0=1e-3), 1),
        (BaselineMethod("polyak", f_star=COUNTED.f_star), 1)]]


def solve_counted(method, oracle):
    """Ten iterations of ``method`` from x0 = ones through ``oracle``."""
    x0, stop = np.ones(COUNTED.dim), StopRule(max_iters=10)
    if isinstance(method, BaselineMethod):
        return run_baseline(method, oracle, x0, stop)
    return run(oracle, x0, default_params(eta0=1e-3), stop, growth_cap=method == "growth_cap")


@pytest.mark.parametrize("method,per_iter", COUNTED_METHODS)
def test_evals_cum_counts_the_oracle_calls(method, per_iter):
    oracle, calls = counting(COUNTED.oracle)
    tr = solve_counted(method, oracle)
    assert tr.n_iters == 10 and not tr.diverged
    assert tr.evals_cum[-1] == len(calls)
    assert np.array_equal(tr.evals_cum, 1 + per_iter * tr.k)


@pytest.mark.parametrize("method,per_iter", COUNTED_METHODS)
def test_evals_cum_stops_at_the_last_recorded_row(method, per_iter):
    # from its 7th call on the oracle's value is nan: the iteration that
    # makes that call records no row
    oracle, calls = counting(COUNTED.oracle)

    def fn(x):
        value, grad = oracle.fn(x)
        return (math.nan if len(calls) >= 7 else value), grad

    tr = solve_counted(method, Oracle(fn, COUNTED.dim))
    assert tr.diverged and len(calls) == 7
    assert tr.evals_cum[-1] == len(calls) - per_iter
    assert np.array_equal(tr.evals_cum, 1 + per_iter * tr.k)


def test_constant_gradient_triggers_geometric_growth():
    # a linear objective has a constant gradient, so every curvature
    # estimate is infinite and the growth branch always binds
    lin = Oracle(lambda x: (float(x @ [1.0, -2.0]), np.array([1.0, -2.0])), 2)
    params = default_params(eta0=0.1)
    st = init(np.zeros(2), params, lin)
    for k in range(3):
        st = step(st, lin, params)
        assert math.isinf(st.lam)
        assert st.eta == pytest.approx(0.1 * (1.0 + params.gamma) ** (k + 1), rel=1e-14)


def test_run_identity_converges_and_matches_endpoint_bound():
    p = identity_quadratic(10)
    params = default_params(eta0=1.0)
    x0 = np.ones(10)
    tr = run(p.oracle, x0, params, StopRule(max_iters=2000), store_iterates=True)
    K = tr.n_iters
    gap = tr.f_bar[-1] - p.f_star
    assert gap <= 1e-10
    # endpoint bound: gap <= (0.5 ||x0 - x*||^2 + (1+gamma theta) eta0^2 ||g0||^2 / 2) / H_{K-1}
    g0 = x0
    bound = (0.5 * float(x0 @ x0)
             + 0.5 * (1.0 + params.gamma * params.theta) * params.eta0 ** 2 * float(g0 @ g0))
    assert gap <= bound / tr.H[K - 1] * (1.0 + 1e-10) + 1e-12


def test_run_zero_iterations():
    p = identity_quadratic(5)
    tr = run(p.oracle, np.ones(5), default_params(eta0=0.1), StopRule(max_iters=0),
             store_iterates=True)
    assert tr.n_iters == 0
    assert np.array_equal(tr.x_bar[0], np.ones(5))
    assert tr.evals_cum[0] == 1


def test_growth_cap_slows_stepsize_recovery():
    p = identity_quadratic(10)
    x0 = np.ones(10)
    params = default_params(eta0=1e-10)

    def first_k_reaching(trace, thresh):
        hit = np.nonzero(trace.eta >= thresh)[0]
        return int(hit[0]) if len(hit) else None

    plain = run(p.oracle, x0, params, StopRule(max_iters=1000))
    capped = run(p.oracle, x0, params, StopRule(max_iters=1000), growth_cap=True)
    k_plain = first_k_reaching(plain, 1e-2)
    k_capped = first_k_reaching(capped, 1e-2)
    assert k_plain is not None
    assert k_capped is None or k_capped > k_plain


def test_growth_cap_first_step_uses_geometric_branch():
    p = identity_quadratic(3)
    params = default_params(eta0=1e-8)
    st = init(np.ones(3), params, p.oracle)
    st = step(st, p.oracle, params, growth_cap=True)
    assert st.eta == pytest.approx((1.0 + params.gamma) * 1e-8, rel=1e-14)
    st2 = step(st, p.oracle, params, growth_cap=True)
    assert st2.eta == pytest.approx(2.0 * st.eta, rel=1e-14)  # (k+1)/k at k=1


@pytest.mark.parametrize("problem, x0", [
    (identity_quadratic(10), np.ones(10)),
    (make_quadratic(7, 100, 1e4), np.zeros(100)),
    (logistic_problem(make_classification_dataset(11, 200, 20), reg=1e-3), np.zeros(20)),
    (logsumexp_problem(3, 20, 50, 0.1), np.zeros(20)),
], ids=["identity", "quadratic", "logistic", "logsumexp"])
def test_growth_phase_lasts_log_of_the_initial_stepsize(problem, x0):
    # the log(1/eta0) term on the acceptance matrix's problems: eta grows by
    # (1 + gamma) per step until the curvature cap binds, so each factor of
    # 100 in eta0 moves the first capped step by ln(100)/ln(1 + gamma) = 103.6
    firsts = []
    for scale in (1e-12, 1e-10, 1e-8, 1e-6):
        params = default_params(eta0=scale / problem.L)
        eta = run(problem.oracle, x0, params, StopRule(max_iters=800)).eta
        capped = np.flatnonzero(eta[1:] < (1.0 + params.gamma) * eta[:-1])
        assert len(capped), f"eta0 = {scale:g}/L: no capped step in 800 iterations"
        firsts.append(int(capped[0]))
    shift = math.log(100.0) / math.log(1.0 + params.gamma)
    assert np.all(np.abs(-np.diff(firsts) - shift) <= 2.0), (firsts, shift)


def test_trace_invariants_via_lemma_suite():
    from aagd import logsumexp_problem

    for problem, x0 in [(identity_quadratic(10), np.ones(10)),
                        (logsumexp_problem(3, 8, 20, 0.2), np.ones(8))]:
        params = default_params(eta0=1e-4)
        tr = run(problem.oracle, x0, params, StopRule(max_iters=500), store_iterates=True)
        entries = lemma_suite(tr, params, L=problem.L, oracle=problem.oracle)
        for e in entries:
            assert e.passed, e.line()


def test_stop_on_gradient_tolerance():
    p = identity_quadratic(6)
    tr = run(p.oracle, np.ones(6), default_params(eta0=0.5),
             StopRule(max_iters=5000, grad_tol=1e-6))
    assert tr.n_iters < 5000
    assert tr.grad_norm_tilde[-1] <= 1e-3  # the bar gradient stopped us; tilde is close


def test_stop_on_gap_tolerance():
    p = identity_quadratic(6)
    tr = run(p.oracle, np.ones(6), default_params(eta0=0.5),
             StopRule(max_iters=5000, gap_tol=1e-8, f_star=p.f_star))
    assert tr.n_iters < 5000
    assert tr.f_bar[-1] - p.f_star <= 1e-8


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule(max_iters=-1)
    with pytest.raises(ValueError):
        StopRule(max_iters=10, gap_tol=1e-3)  # needs f_star
    with pytest.raises(ValueError):
        StopRule(max_iters=10, grad_tol=-1.0)


@pytest.mark.parametrize("rule", [dict(grad_tol=math.nan), dict(gap_tol=math.nan, f_star=0.0),
                                  dict(gap_tol=1e-3, f_star=math.nan),
                                  dict(gap_tol=1e-3, f_star=-math.inf)])
def test_stop_rule_rejects_nan_tolerances_and_non_finite_optimum(rule):
    with pytest.raises(ValueError):
        StopRule(max_iters=10, **rule)


def test_divergence_recorded_not_raised():
    # a steep scaling with a huge initial stepsize overflows the first
    # gradient step; curvature adaptation never gets a chance to react
    steep = Oracle(lambda x: (0.5e160 * float(x @ x), 1e160 * x), 2)
    tr = run(steep, np.ones(2), default_params(eta0=1e160), StopRule(max_iters=100))
    assert tr.diverged
    assert tr.notes
    assert tr.n_iters == 0
    assert np.all(np.isfinite(tr.f_bar))


def test_quartic_overshoot_recovers_via_curvature():
    # outside the smooth-quadratic regime the estimator still reins the
    # stepsize back in after a massive overshoot instead of diverging
    quartic = Oracle(lambda x: (0.25 * float(x @ x) ** 2, float(x @ x) * x), 2)
    tr = run(quartic, np.array([10.0, 10.0]), default_params(eta0=10.0),
             StopRule(max_iters=100))
    assert not tr.diverged
    assert tr.f_bar[-1] < tr.f_bar[1]


def test_record_count_is_iterations_plus_one():
    p = identity_quadratic(4)
    tr = run(p.oracle, np.ones(4), default_params(eta0=0.1), StopRule(max_iters=37))
    assert len(tr.k) == tr.n_iters + 1 == 38
    assert np.all(np.diff(tr.evals_cum) > 0)


LINEAR = Oracle(lambda x: (float(np.sum(x)), np.ones_like(x)), 3, label="linear")


def test_step_accepts_finite_iterates_with_overflowing_square():
    params = default_params(eta0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = step(init(np.full(3, 1e200), params, LINEAR), LINEAR, params)
    assert st.k == 1 and st.bar_res.x_sq == math.inf
    assert np.all(np.isfinite(st.x)) and np.all(np.isfinite(st.x_tilde))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_step_rejects_non_finite_iterate(bad):
    params = default_params(eta0=1.0)
    st = init(np.full(3, 1e200), params, LINEAR)
    x = st.x.copy()
    x[2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="query point contains non-finite entries"):
            step(dataclasses.replace(st, x=x), LINEAR, params)


def bits(res):
    return (res.value.hex(), [v.hex() for v in res.grad], [v.hex() for v in res.x],
            res.grad_sq.hex(), res.x_sq.hex())


@pytest.mark.parametrize("problem", [make_quadratic(3, 20, 1e3), logsumexp_problem(4, 20, 50, 0.1)],
                         ids=lambda p: p.label)
def test_step_results_equal_public_evaluate(problem):
    # the step evaluates its new points through oracle._evaluate; every
    # field must be what the public evaluate gives there
    params = default_params(eta0=1e-3)
    st = init(np.linspace(-1.0, 1.0, 20), params, problem.oracle)
    for _ in range(30):
        st = step(st, problem.oracle, params)
        for res, point in [(st.bar_res, st.x_bar), (st.tilde_res, st.x_tilde)]:
            assert res.x is point
            assert bits(res) == bits(evaluate(problem.oracle, point))


@pytest.mark.parametrize("field", ["x_bar", "x_tilde"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_step_rejects_non_finite_point_before_oracle_call(field, bad):
    calls = []

    def fn(x):
        calls.append(x)
        return 0.5 * float(x @ x), x

    oracle = Oracle(fn, 3, label="counted")
    params = default_params(eta0=0.1)
    st = init(np.ones(3), params, oracle)
    point = getattr(st, field).copy()
    point[1] = bad
    with pytest.raises(NonFiniteError, match="query point contains non-finite entries"):
        step(dataclasses.replace(st, **{field: point}), oracle, params)
    assert len(calls) == 1  # the call made by init


def test_vdot_calls_per_step_pinned(monkeypatch):
    # 2 squares of the new query points and 2 of the new gradients, all
    # taken by the evaluations, and per estimate 1 for the gradient gap
    # plus 1 for the point gap unless the gradient guard fired; on the
    # growth branch (beta = 1) the new averaged point is the old lookahead
    # point, so the first estimate is +inf and is skipped: 6 calls
    p = make_quadratic(3, 20, 1e3)
    params = default_params(eta0=1e-3)
    st = init(np.ones(20), params, p.oracle)
    calls = [0]
    vdot = np.vdot

    def counting(a, b):
        calls[0] += 1
        return vdot(a, b)

    monkeypatch.setattr(np, "vdot", counting)
    counts = []
    for _ in range(40):
        calls[0] = 0
        st = step(st, p.oracle, params)
        counts.append(calls[0])
    assert counts == [6, 8, 8] + [6] * 37


def nan_estimate_oracle():
    """From x0 = 0 with eta0 = 0.25, the first step's lookahead point lies
    about 4e153 below 0 in the first coordinate, where value and gradient
    flip sign. The Bregman value of the second estimate and its squared
    gradient gap then both overflow to +inf, and the estimate is nan."""
    def fn(x):
        if x[0] >= 0.0:
            return 1e308, np.array([1e154, 0.0])
        return -0.7e308, np.array([-1e154, 0.0])

    return Oracle(fn, 2, label="nan_estimate")


def lam_cases():
    """(oracle, x0, eta0, growth_cap, steps) per case."""
    data = make_classification_dataset(2, 200, 30, density=0.2)
    rng = np.random.default_rng(1)
    return {
        "quadratic": (make_quadratic(7, 100, 1e4).oracle, rng.standard_normal(100), 1e-6,
                      False, 300),
        "logistic": (logistic_problem(data, reg=1e-3).oracle, rng.standard_normal(30), 1e-3,
                     False, 300),
        "logsumexp": (logsumexp_problem(1, 40, 100, 0.1).oracle, rng.standard_normal(40), 1e-6,
                      False, 300),
        "growth_cap": (make_quadratic(3, 20, 1e3).oracle, rng.standard_normal(20), 1e-3,
                       True, 300),
        "nan_estimate": (nan_estimate_oracle(), np.zeros(2), 0.25, False, 1),
    }


@pytest.mark.parametrize("case", sorted(lam_cases()))
def test_recorded_lam_is_local_curvature_of_the_full_triple(case):
    # the step skips the first estimate when beta = 1; the full min must agree
    oracle, x0, eta0, cap, steps = lam_cases()[case]
    params = default_params(eta0=eta0)
    st = init(x0, params, oracle)
    unit = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            nxt = step(st, oracle, params, growth_cap=cap)
            want = local_curvature(nxt.bar_res, st.tilde_res, nxt.tilde_res)
            assert nxt.lam.hex() == want.hex()
            unit.append(st.beta == 1.0)
            st = nxt
        second = lambda_option2(st.bar_res, st.tilde_res)
    if case == "nan_estimate":
        assert math.isnan(second) and st.lam == math.inf
    else:
        assert any(unit) and not all(unit)


def test_unit_beta_step_survives_signed_zeros():
    # 1.0 * (-0.0) + 0.0 * 1.0 is +0.0: the new averaged point differs from
    # the old lookahead point in a zero's sign, and this oracle's gradient
    # tells the two apart, so only the point guard makes the first estimate +inf
    oracle = Oracle(lambda x: (0.5 * float(x @ x) + 1e3 * float(np.signbit(x).sum()),
                               x + 1e3 * np.signbit(x)), 2)
    params = default_params(eta0=1e-3)
    st = init(np.ones(2), params, oracle)
    x_tilde = np.array([-0.0, 1.0])
    st = dataclasses.replace(st, x_tilde=x_tilde, tilde_res=evaluate(oracle, x_tilde))
    nxt = step(st, oracle, params)
    assert st.beta == 1.0 and not np.signbit(nxt.x_bar[0])
    assert not np.array_equal(nxt.bar_res.grad, st.tilde_res.grad)
    assert lambda_option2(nxt.bar_res, st.tilde_res) == math.inf
    assert nxt.lam.hex() == local_curvature(nxt.bar_res, st.tilde_res, nxt.tilde_res).hex()


def test_divergence_notes_unchanged():
    half = Oracle(lambda x: (0.5 * float(x @ x), x if x[0] > 0.5 else np.full_like(x, np.nan)),
                  2, label="half")
    steep = Oracle(lambda x: (0.5e160 * float(x @ x), 1e160 * x), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nan_grad = run(half, np.ones(2), default_params(eta0=0.1), StopRule(max_iters=1000))
        overflow = run(steep, np.ones(2), default_params(eta0=1e160), StopRule(max_iters=100))
    assert nan_grad.diverged and nan_grad.n_iters == 53
    assert nan_grad.notes == [(54, "divergence: oracle 'half' returned non-finite output")]
    assert overflow.diverged
    assert overflow.notes == [(1, "divergence: query point contains non-finite entries")]


# Degenerate inputs: each run ends with a defined outcome, never a traceback.

def run_quietly(oracle, x0, eta0, max_iters):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = run(oracle, x0, default_params(eta0=eta0), StopRule(max_iters=max_iters))
    assert isinstance(tr.diverged, bool) and len(tr.k) == tr.n_iters + 1
    return tr


@pytest.mark.parametrize("problem", [identity_quadratic(1), make_quadratic(2, 1, 1.0),
                                     logsumexp_problem(1, 1, 5, 0.1)],
                         ids=lambda p: p.label)
def test_dimension_one(problem):
    tr = run_quietly(problem.oracle, np.ones(1), 1e-3, 300)
    assert not tr.diverged and tr.n_iters == 300
    assert tr.f_bar[-1] < tr.f_bar[0]


def test_constant_gradient_takes_infinite_guard_every_step():
    params = default_params(eta0=1e-3)
    tr = run_quietly(LINEAR, np.zeros(3), 1e-3, 200)
    assert not tr.diverged and tr.n_iters == 200
    # no estimate at k=0, then the guard's +inf as the estimator returned it
    assert np.isnan(tr.lam[0]) and np.all(tr.lam[1:] == math.inf)
    assert np.array_equal(tr.eta[1:], (1.0 + params.gamma) * tr.eta[:-1])
    # from a huge stepsize the iterates overflow the objective: a recorded divergence
    tr = run_quietly(LINEAR, np.zeros(3), 1e300, 1000)
    assert tr.diverged and tr.n_iters == 346
    assert tr.notes == [(347, "divergence: oracle 'linear' returned non-finite output")]


@pytest.mark.parametrize("eta0", [1e-12, 1e4])
def test_extreme_initial_stepsize(eta0):
    p = make_quadratic(1, 10, 100.0)
    tr = run_quietly(p.oracle, np.ones(10), eta0, 300)
    assert not tr.diverged and tr.n_iters == 300
    assert np.all(np.isfinite(tr.f_bar)) and np.all(tr.eta > 0.0)


def test_start_at_the_minimizer():
    p = make_quadratic(1, 10, 100.0)
    tr = run_quietly(p.oracle, p.x_star, 1e-3, 50)
    assert not tr.diverged and tr.n_iters == 50
    assert abs(tr.f_bar[-1] - p.f_star) <= 1e-15 * (1.0 + abs(p.f_star))
    exact = run_quietly(identity_quadratic(2).oracle, np.zeros(2), 1e-3, 50)
    assert not exact.diverged and exact.n_iters == 0  # zero gradient meets grad_tol = 0
