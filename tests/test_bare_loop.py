"""A plain aagd loop with the package's guards, against ``aagd.run``.

The loop below uses only numpy and the problem's ``oracle.fn``: the same
arithmetic as the solver step and the curvature estimator, in the same
order, with no result objects, counters or trace. Its scalars must
equal the recorded trace bit for bit. Timing the two side by side
measures what the package's structure costs per iteration:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_bare_loop as t; t.time_ratio()"
"""
import math
import time

import numpy as np
import pytest

from aagd import StopRule, default_params, logsumexp_problem, make_quadratic, run

EPS = float(np.finfo(np.float64).eps)
GUARD = 100.0 * EPS ** 2
NOISE = 1e10 * EPS


def sq(v):
    return float(np.vdot(v, v))


def query(fn, x, x_sq):
    value, grad = fn(x)
    value, grad_sq = float(value), sq(grad)
    if not (math.isfinite(value) and math.isfinite(grad_sq)):
        raise FloatingPointError("non-finite oracle output")
    return value, grad, x, grad_sq, x_sq


def estimate(a, b):
    """Bregman ratio of a against b, +inf at either guard, secant below the noise floor."""
    fa, ga, xa, ga2, xa2 = a
    fb, gb, xb, gb2, xb2 = b
    gap2 = sq(ga - gb)
    if gap2 <= GUARD * max(1.0, ga2, gb2):
        return math.inf
    dx = xa - xb
    dx2 = sq(dx)
    if dx2 <= GUARD * max(1.0, xa2, xb2):
        return math.inf
    breg = float(fa - fb - gb @ dx)
    if breg <= NOISE * (1.0 + abs(fa) + abs(fb)):
        return math.sqrt(dx2) / math.sqrt(gap2)
    return 2.0 * breg / gap2


def bare_aagd(fn, x0, iters, theta, gamma, nu, eta0):
    """Rows (eta, H, alpha, beta, lam, f_bar, f_tilde) for k = 0..iters."""
    x = x_bar = x_tilde = x0
    tilde = bar = query(fn, x0, sq(x0))
    eta = eta_prev = H = H_prev = eta0
    alpha = beta = 1.0
    rows = [(eta, H, alpha, beta, math.nan, bar[0], tilde[0])]
    for _ in range(iters):
        grow = (1.0 + gamma) * eta
        alpha = grow / (H + grow)
        x_next = x - eta * tilde[1]
        x_bar = beta * x_tilde + (1.0 - beta) * x_bar
        x_hat = x_next + theta * (x_next - x)
        x_tilde = alpha * x_hat + (1.0 - alpha) * x_bar
        x = x_next
        bar_sq, tilde_sq = sq(x_bar), sq(x_tilde)
        if not (math.isfinite(sq(x)) and math.isfinite(bar_sq) and math.isfinite(tilde_sq)):
            raise FloatingPointError("non-finite iterate")
        bar, new = query(fn, x_bar, bar_sq), query(fn, x_tilde, tilde_sq)
        lam = min(estimate(bar, tilde), estimate(bar, new))
        tilde = new
        eta_next = min(grow, nu * H_prev * lam / eta_prev)
        eta_prev, H_prev = eta, H
        eta, H = eta_next, H + eta_next
        beta = min(1.0, eta / (alpha * H))
        rows.append((eta, H, alpha, beta, math.nan if math.isinf(lam) else lam,
                     bar[0], tilde[0]))
    return rows


COLUMNS = ("eta", "H", "alpha", "beta", "lam", "f_bar", "f_tilde")
ITERS = 300


def cases():
    return [make_quadratic(7, 100, 1e4), logsumexp_problem(8, 40, 100, 0.1)]


@pytest.mark.parametrize("problem", cases(), ids=lambda p: p.label)
def test_bare_loop_matches_run_bit_for_bit(problem):
    params = default_params(eta0=1e-6)
    x0 = np.random.default_rng(1).standard_normal(problem.dim)
    tr = run(problem.oracle, x0, params, StopRule(max_iters=ITERS))
    rows = bare_aagd(problem.oracle.fn, x0, ITERS, params.theta, params.gamma, params.nu,
                     params.eta0)
    assert not tr.diverged and tr.n_iters == ITERS
    for name, col in zip(COLUMNS, zip(*rows)):
        assert [v.hex() for v in col] == [float(v).hex() for v in getattr(tr, name)], name


def time_ratio(iters=2000, rounds=7):
    """Print best-of-``rounds`` µs per iteration of ``run`` and of the bare loop."""
    params = default_params(eta0=1e-6)
    for problem in cases():
        x0 = np.random.default_rng(1).standard_normal(problem.dim)
        best = {"run": math.inf, "bare": math.inf}
        for _ in range(rounds):
            for name, go in [
                ("run", lambda: run(problem.oracle, x0, params, StopRule(max_iters=iters))),
                ("bare", lambda: bare_aagd(problem.oracle.fn, x0, iters, params.theta,
                                           params.gamma, params.nu, params.eta0)),
            ]:
                start = time.perf_counter()
                go()
                best[name] = min(best[name], time.perf_counter() - start)
        run_us, bare_us = (1e6 * best[n] / iters for n in ("run", "bare"))
        print(f"{problem.label}: run {run_us:.1f} us/iter, bare {bare_us:.1f} us/iter, "
              f"ratio {run_us / bare_us:.2f}")
