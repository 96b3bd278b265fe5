
import numpy as np
import pytest

from aagd import (BaselineMethod, Oracle, StopRule, identity_quadratic, make_quadratic,
                  run_baseline)


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
