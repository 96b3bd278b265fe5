
import numpy as np
import pytest

from aagd import (BaselineMethod, Oracle, StopRule, default_params, identity_quadratic,
                  logsumexp_problem, make_quadratic, run, run_baseline)
from aagd.diagnostics import ABS_TOL, REL_TOL


def test_method_validation():
    with pytest.raises(ValueError):
        BaselineMethod(kind="nope")
    with pytest.raises(ValueError):
        BaselineMethod(kind="gd")  # needs eta
    with pytest.raises(ValueError):
        BaselineMethod(kind="polyak")  # needs f_star


def test_gd_one_step_convergence_at_inverse_L():
    p = identity_quadratic(1)
    tr = run_baseline(BaselineMethod(kind="gd", eta=1.0), p.oracle,
                      np.array([1.0]), StopRule(max_iters=1))
    assert tr.f_bar[1] == 0.0


def test_gd_classical_gap_bound():
    # gap_k <= L ||x0 - x*||^2 / (2k) for the 1/L stepsize
    p = make_quadratic(5, 20, 100.0)
    x0 = np.zeros(20)
    tr = run_baseline(BaselineMethod(kind="gd", eta=1.0 / p.L), p.oracle, x0,
                      StopRule(max_iters=300))
    r2 = float((x0 - p.x_star) @ (x0 - p.x_star))
    for k in range(1, tr.n_iters + 1):
        gap = tr.f_bar[k] - p.f_star
        assert gap <= p.L * r2 / (2.0 * k) * (1.0 + 1e-10) + 1e-12


def test_polyak_stepsize_value():
    p = identity_quadratic(1)
    tr = run_baseline(BaselineMethod(kind="polyak", f_star=0.0), p.oracle,
                      np.array([1.0]), StopRule(max_iters=3))
    assert tr.eta[0] == pytest.approx(0.5, abs=1e-15)


def test_polyak_stops_at_start_when_f_star_above_value():
    p = identity_quadratic(1)
    tr = run_baseline(BaselineMethod(kind="polyak", f_star=1.0), p.oracle,
                      np.array([1.0]), StopRule(max_iters=3))
    assert tr.n_iters == 0
    assert tr.eta[0] == 0.0
    assert tr.evals_cum[-1] == 1


def test_adgd_stepsizes_bounded_on_identity():
    # each step is at most the growth gate, and at most half of a finite
    # secant estimate (1 on the identity); near x* the curvature guard makes
    # the estimate +inf and the gate alone bounds the step
    p = identity_quadratic(5)
    for eta0 in (1e-3, 1.0):
        tr = run_baseline(BaselineMethod(kind="adgd", eta0=eta0),
                          p.oracle, np.ones(5), StopRule(max_iters=100))
        eta, lam = tr.eta, tr.lam
        prev = np.concatenate(([eta0], eta[:-2]))
        assert np.all(eta[1:] <= eta[:-1] * np.sqrt(1.0 + eta[:-1] / prev))
        assert np.all(eta[np.isfinite(lam)] <= 0.5 * lam[np.isfinite(lam)])
        assert np.any(np.isfinite(lam[1:]))


def test_adagrad_stepsizes_nonincreasing():
    p = make_quadratic(2, 10, 30.0)
    tr = run_baseline(BaselineMethod(kind="adagrad", eta=1.0), p.oracle,
                      np.zeros(10), StopRule(max_iters=200))
    etas = tr.eta[np.isfinite(tr.eta)]
    assert np.all(np.diff(etas) <= 0.0)


def test_bb_run_stays_in_rayleigh_range():
    p = make_quadratic(9, 15, 50.0)
    tr = run_baseline(BaselineMethod(kind="bb", eta0=1e-3), p.oracle,
                      np.ones(15), StopRule(max_iters=60))
    # each secant step is an inverse Rayleigh quotient of A, inside [1/cond, 1]
    assert np.all(tr.eta[1:] <= 1.0 + 1e-10)
    assert np.all(tr.eta[1:] >= 1.0 / 50.0 - 1e-10)


def test_bb_fallback_on_constant_gradient():
    lin = Oracle(lambda x: (float(x @ [1.0, 1.0]), np.array([1.0, 1.0])), 2)
    tr = run_baseline(BaselineMethod(kind="bb", eta0=0.5), lin, np.zeros(2),
                      StopRule(max_iters=5))
    assert np.all(tr.eta == 0.5)
    assert any("bb stepsize" in note for _, note in tr.notes)


def test_bb_stepsizes_match_the_matmul_formula_bit_for_bit():
    # bb's inner products are ndarray.dot; the loop below writes them with @
    p = make_quadratic(9, 40, 1e3)
    x, eta, etas = np.ones(40), 1e-3, []
    tr = run_baseline(BaselineMethod(kind="bb", eta0=eta), p.oracle, x, StopRule(max_iters=60))
    g = p.oracle.fn(x)[1]
    for _ in range(60):
        etas.append(eta)
        x_next = x - eta * g
        g_next = p.oracle.fn(x_next)[1]
        dg = g_next - g
        cand = float((x_next - x) @ dg) / float(dg @ dg)
        eta = cand if cand > 0.0 else eta
        x, g = x_next, g_next
    etas.append(eta)
    assert [v.hex() for v in etas] == [float(v).hex() for v in tr.eta]


def test_agd_beats_gd_at_200_iterations():
    p = make_quadratic(12, 30, 1000.0)
    x0 = np.zeros(30)
    stop = StopRule(max_iters=200)
    gd = run_baseline(BaselineMethod(kind="gd", eta=1.0 / p.L), p.oracle, x0, stop)
    agd = run_baseline(BaselineMethod(kind="agd", eta=1.0 / p.L), p.oracle, x0, stop)
    assert agd.f_bar[200] - p.f_star < gd.f_bar[200] - p.f_star


def test_baseline_trace_schema():
    p = identity_quadratic(3)
    tr = run_baseline(BaselineMethod(kind="gd", eta=0.5), p.oracle, np.ones(3),
                      StopRule(max_iters=10))
    assert np.all(np.isnan(tr.H))
    assert np.all(np.isnan(tr.alpha))
    assert np.all(np.isnan(tr.f_tilde))
    assert len(tr.k) == 11
    assert tr.evals_cum[-1] == 11


def test_baseline_stop_rules():
    p = identity_quadratic(4)
    tr = run_baseline(BaselineMethod(kind="gd", eta=0.9), p.oracle, np.ones(4),
                      StopRule(max_iters=10000, gap_tol=1e-10, f_star=0.0))
    assert tr.n_iters < 10000
    assert tr.f_bar[-1] <= 1e-10


def test_baseline_divergence_flagged():
    p = identity_quadratic(2)
    tr = run_baseline(BaselineMethod(kind="gd", eta=1e155), p.oracle,
                      np.ones(2), StopRule(max_iters=50))
    assert tr.diverged


def _nesterov_worst_case(N, L):
    """Nesterov (2004), Thm 2.1.7, with n = 2N + 1: f(x) = (L/4)(x'Ax/2 - x_1) for the
    tridiagonal A = tridiag(-1, 2, -1), minimized at x*_i = 1 - i/(n+1)."""
    n = 2 * N + 1

    def fn(x):
        d = np.diff(x)
        grad = 2.0 * x
        grad[0] -= 1.0
        grad[:-1] -= x[1:]
        grad[1:] -= x[:-1]
        return 0.25 * L * (0.5 * (x[0] ** 2 + d.dot(d) + x[-1] ** 2) - x[0]), 0.25 * L * grad

    return Oracle(fn, n, label="nesterov"), 1.0 - np.arange(1, n + 1) / (n + 1)


@pytest.mark.parametrize("N", [3, 10, 25, 101, 401, 801])
def test_no_method_beats_the_lower_bound_on_nesterovs_worst_case(N):
    # f(x) - f* >= 3 L ||x0 - x*||^2 / (32 (N+1)^2) at any point of x0 plus the span of N
    # gradients, and evals_cum charges every call: a method below it used uncounted calls
    L = 1.0
    oracle, x_star = _nesterov_worst_case(N, L)
    f_star, grad = oracle.fn(x_star)
    assert f_star == pytest.approx(L / 8 * (1.0 / (2 * N + 2) - 1.0), rel=1e-12)
    assert np.abs(grad).max() <= 1e-15
    x0, stop = np.zeros(oracle.dim), StopRule(max_iters=N)
    traces = {kind: run_baseline(BaselineMethod(kind=kind, **kw), oracle, x0, stop)
              for kind, kw in [("gd", {"eta": 1 / L}), ("agd", {"eta": 1 / L}),
                               ("adgd", {"eta0": 1 / L}), ("adagrad", {"eta": 1 / L}),
                               ("bb", {"eta0": 1 / L}), ("polyak", {"f_star": f_star})]}
    for eta0 in (1e-6 / L, 1 / L, 1e3 / L):
        traces[f"aagd eta0={eta0:g}"] = run(oracle, x0, default_params(eta0=eta0), stop)
    for name, tr in traces.items():
        k = np.flatnonzero(tr.evals_cum <= N)[-1]
        ratio = (tr.f_bar[k] - f_star) * (N + 1) ** 2 / (L * x_star.dot(x_star))
        assert ratio >= 3 / 32, f"{name}: {ratio:.4f} at k={k}"


def _lbfgs_minimum(problem, x0):
    from scipy.optimize import minimize

    return minimize(lambda x: problem.oracle.fn(x), x0, jac=True, method="L-BFGS-B",
                    options={"gtol": 1e-12, "maxiter": 5000}).x


@pytest.mark.parametrize("problem", [make_quadratic(7, 100, 1e4),
                                     logsumexp_problem(3, 20, 50, 0.1)],
                         ids=["quadratic", "logsumexp"])
def test_gd_potential_is_nonincreasing(problem):
    # for eta <= 1/L, k eta (f(x_k) - f*) + |x_k - x*|^2 / 2 does not grow
    x0 = np.zeros(problem.dim)
    x_star = problem.x_star if problem.x_star is not None else _lbfgs_minimum(problem, x0)
    f_star = problem.oracle.fn(x_star)[0]
    points, values = [], []

    def recording(x):
        value, grad = problem.oracle.fn(x)
        points.append(x.copy())
        values.append(value)
        return value, grad

    eta = 1.0 / problem.L
    tr = run_baseline(BaselineMethod(kind="gd", eta=eta), Oracle(recording, problem.dim), x0,
                      StopRule(max_iters=2000))
    assert len(points) == tr.n_iters + 1 == 2001  # the calls are x_0, ..., x_K
    dist = np.asarray(points) - x_star
    phi = np.arange(len(values)) * eta * (np.asarray(values) - f_star) + 0.5 * np.vecdot(
        dist, dist)
    viol = phi[1:] - (phi[:-1] * (1.0 + REL_TOL) + ABS_TOL * (1.0 + abs(phi[0])))
    assert viol.max() <= 0.0, f"grows at k={int(viol.argmax()) + 1}"


@pytest.mark.parametrize("problem", [make_quadratic(7, 100, 1e4),
                                     logsumexp_problem(3, 20, 50, 0.1)],
                         ids=["quadratic", "logsumexp"])
def test_agd_potential_is_nonincreasing(problem):
    # for eta <= 1/L and tau_k = 2/(k+2), eta (k+1)^2 / 4 (f(x_k) - f*) + |z_k - x*|^2 / 2
    # does not grow from |x_0 - x*|^2 / 2 (Bansal & Gupta, Theory of Computing, 2019)
    x0 = np.zeros(problem.dim)
    x_star = problem.x_star if problem.x_star is not None else _lbfgs_minimum(problem, x0)
    f_star = problem.oracle.fn(x_star)[0]
    calls = []

    def recording(x):
        value, grad = problem.oracle.fn(x)
        calls.append((value, grad.copy()))
        return value, grad

    eta = 1.0 / problem.L
    tr = run_baseline(BaselineMethod(kind="agd", eta=eta), Oracle(recording, problem.dim), x0,
                      StopRule(max_iters=2000))
    assert len(calls) == 2 * tr.n_iters + 1 == 4001  # the calls are x_0, then y_k and x_{k+1}
    z, phi = x0, [0.5 * float((x0 - x_star).dot(x0 - x_star))]
    for k in range(tr.n_iters):
        z = z - (eta / (2.0 / (k + 2.0))) * calls[1 + 2 * k][1]  # agd's own z recursion
        phi.append(eta * (k + 2) ** 2 / 4 * (calls[2 + 2 * k][0] - f_star)
                   + 0.5 * float((z - x_star).dot(z - x_star)))
    phi = np.asarray(phi)
    viol = phi[1:] - (phi[:-1] * (1.0 + REL_TOL) + ABS_TOL * (1.0 + abs(phi[0])))
    assert viol.max() <= 0.0, f"grows at k={int(viol.argmax()) + 1}"
