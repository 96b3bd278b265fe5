"""The run loop shared by the solver and the baselines.

The pinned digests fix every scalar column, the notes and the divergence
flag of one run per method on one seeded quadratic, of aagd and adgd
on one seeded smoothed max, and of aagd, gd and adgd on one seeded
sparse logistic problem with a bias column. They were recorded with
numpy 2.4 and its bundled OpenBLAS on x86-64; another BLAS may
round the matrix-vector products differently and change them.
"""
import hashlib
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from aagd import (BaselineMethod, NonFiniteError, Oracle, SparseDataset, StopRule,
                  default_params, identity_quadratic, init, logistic_problem,
                  logsumexp_problem, make_classification_dataset, make_quadratic, run,
                  run_baseline, step)

COLUMNS = ("k", "eta", "H", "alpha", "beta", "lam", "f_bar", "f_tilde",
           "grad_norm_tilde", "evals_cum")

PINNED = {
    "aagd":
        "1d65453849cbc481ee860310811119c214c35e3270b7936dbcea11e301cc0be7",
    "aagd+cap":
        "f2641281e0c6fe17ab2b4fd25ebe0976efa76029052979810a83b2aeb5fb364d",
    "gd":
        "14b09e56d6036f82b3a96e4d7d77e3e138120f26f0b510f5a9644a610fd92cb7",
    "agd":
        "8679f88e130f2b0766ae35c57ba788d354c31e01a20a7652199aa7fd1cf95c2c",
    "adgd":
        "f030599052cc32e2c906bc679d432249090efeca7e13c0e91765ad23408e86af",
    "adagrad":
        "7dc89d327c3835b8eda85a24588fea4c6b436dd98b0592a50ffe82efc5bc518c",
    "bb":
        "30057cf5dee91105ac97634ef7171f89d17d6c35b49020966f25380d07adf3c0",
    "polyak":
        "91ef74b031931d7a1a7cbcd6b67e9af9a7efefb7402745032a06de09d221b639",
}


def digest(trace):
    h = hashlib.sha256()
    for name in COLUMNS:
        col = getattr(trace, name)
        h.update(name.encode() + str(col.dtype).encode() + col.tobytes())
    h.update(repr((trace.notes, trace.diverged)).encode())
    return h.hexdigest()


def pinned_trace(name, max_iters=100):
    p = make_quadratic(3, 20, 100.0)
    x0 = np.ones(20)
    stop = StopRule(max_iters=max_iters)
    if name.startswith("aagd"):
        return run(p.oracle, x0, default_params(eta0=1e-3), stop,
                   growth_cap=name == "aagd+cap")
    method = {
        "gd": BaselineMethod(kind="gd", eta=1.0 / p.L),
        "agd": BaselineMethod(kind="agd", eta=1.0 / p.L),
        "adgd": BaselineMethod(kind="adgd", eta0=1e-3),
        "adagrad": BaselineMethod(kind="adagrad", eta=1.0),
        "bb": BaselineMethod(kind="bb", eta0=1e-3),
        "polyak": BaselineMethod(kind="polyak", f_star=p.f_star),
    }[name]
    return run_baseline(method, p.oracle, x0, stop)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_trace(name):
    assert digest(pinned_trace(name)) == PINNED[name]


PINNED_LOGSUMEXP = {
    "aagd":
        "79e3cc14aac63b8907f0013490e8beb9229ce7f1060a6a837d35a70193447db8",
    "adgd":
        "3b09abc48a79e8d267b58ab9c5c0862732a2ad0aea659984dfb4b67c050a80c1",
}


@pytest.mark.parametrize("name", sorted(PINNED_LOGSUMEXP))
def test_pinned_trace_logsumexp(name):
    p = logsumexp_problem(1, 40, 100, 0.1)
    x0 = np.ones(40)
    stop = StopRule(max_iters=300)
    if name == "aagd":
        tr = run(p.oracle, x0, default_params(eta0=1e-6), stop)
    else:
        tr = run_baseline(BaselineMethod(kind="adgd", eta0=1e-6), p.oracle, x0, stop)
    assert digest(tr) == PINNED_LOGSUMEXP[name]


PINNED_LOGISTIC = {
    # recorded once the loss shared the sigmoid's exp(-|t|) (log1p(e) + max(-t, 0));
    # gd's stepsize is 1/L, so its entry was re-recorded with the eigsh estimate of L;
    # all three and L re-recorded when the dataset generator became a vectorized draw
    "aagd":
        "dde96d2b9be51e2102bd1e52941230e651ec1b65e3a58b529dd2a147fa592263",
    "gd":
        "c31875fe7a763678d46ed2548ec9d34f9916bca5a711efed08c281195548ca8a",
    "adgd":
        "4e724ab7edcfc160d4ec8b00a9a3ca1c07665ac87c79b4cb720c6df0d82dae10",
}


@pytest.mark.parametrize("name", sorted(PINNED_LOGISTIC))
def test_pinned_trace_logistic(name):
    base = make_classification_dataset(7, 400, 60, density=0.1)
    # a bias feature makes one column present in every row
    n, d, ends = base.n_samples, base.n_features, base.indptr[1:]
    data = SparseDataset(base.indptr + np.arange(n + 1), np.insert(base.indices, ends, d),
                         np.insert(base.data, ends, 1.0), base.labels, d + 1)
    p = logistic_problem(data, reg=1e-3)
    assert p.L.hex() == "0x1.03f23b9134061p-2"
    x0 = np.zeros(p.dim)
    stop = StopRule(max_iters=200)
    if name == "aagd":
        tr = run(p.oracle, x0, default_params(eta0=1e-6), stop)
    else:
        method = {"gd": BaselineMethod(kind="gd", eta=1.0 / p.L),
                  "adgd": BaselineMethod(kind="adgd", eta0=1e-6)}[name]
        tr = run_baseline(method, p.oracle, x0, stop)
    assert digest(tr) == PINNED_LOGISTIC[name]


STEEP = Oracle(lambda x: (0.5e160 * float(x @ x), 1e160 * x), 2)


def test_overflowing_gradient_norm_recorded_finite():
    # the squared norm 2e320 overflows; the norm itself, sqrt(2) 1e160, does not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        aagd_tr = run(STEEP, np.ones(2), default_params(eta0=1e160), StopRule(max_iters=100))
        gd_tr = run_baseline(BaselineMethod(kind="gd", eta=1e-161), STEEP, np.ones(2),
                             StopRule(max_iters=2))
    assert aagd_tr.grad_norm_tilde[0] == pytest.approx(math.sqrt(2.0) * 1e160, rel=1e-15)
    assert gd_tr.grad_norm_tilde == pytest.approx(
        math.sqrt(2.0) * 1e160 * np.array([1.0, 0.9, 0.81]), rel=1e-14)


@pytest.mark.parametrize("kind, key", [("gd", "eta"), ("agd", "eta"), ("adgd", "eta0"),
                                       ("bb", "eta0")])
def test_overflowing_baseline_step_diverges_without_warning(kind, key):
    # the first step from x0 overflows; the run loop's errstate keeps it silent,
    # and the evaluation's point check ends the run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = run_baseline(BaselineMethod(kind=kind, **{key: 1e200}), STEEP, np.ones(2),
                          StopRule(max_iters=50))
    assert tr.diverged and tr.n_iters == 0
    assert tr.notes == [(1, "divergence: query point contains non-finite entries")]


@pytest.mark.parametrize("max_iters", [1, 40])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_one_errstate_per_run(monkeypatch, name, max_iters):
    # the run loop enters np.errstate once around the whole run; every
    # method's start adds the one of the public evaluate at x0, and no step
    # adds any
    calls = [0]
    errstate = np.errstate

    def counting(**kwargs):
        calls[0] += 1
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counting)
    tr = pinned_trace(name, max_iters)
    assert tr.n_iters == max_iters and calls == [2]


def test_grad_tol_sees_overflowing_norm():
    tr = run(STEEP, np.ones(2), default_params(eta0=1e-170),
             StopRule(max_iters=5, grad_tol=1e161))
    assert tr.n_iters == 0


# Stored iterates, which the run loop copies into one buffer that doubles.

LINEAR = Oracle(lambda x: (float(np.sum(x)), np.ones_like(x)), 3, label="linear")

# (oracle, x0, eta0, stop rule, growth_cap, K): runs that end at the start
# point, on a non-finite point, and at max_iters past the first doubling
BUFFER_RUNS = {
    "zero_gradient_at_x0": (identity_quadratic(2).oracle, np.zeros(2), 1e-3,
                            StopRule(max_iters=50), False, 0),
    "max_iters_0": (identity_quadratic(2).oracle, np.ones(2), 1e-3,
                    StopRule(max_iters=0), False, 0),
    "diverged": (LINEAR, np.zeros(3), 1e300, StopRule(max_iters=1000), False, 346),
    "growth_cap": (make_quadratic(3, 20, 100.0).oracle, np.ones(20), 1e-3,
                   StopRule(max_iters=100), True, 100),
}


@pytest.mark.parametrize("name", sorted(BUFFER_RUNS))
def test_stored_iterates_are_the_states_of_a_run_by_hand(name):
    oracle, x0, eta0, stop, cap, K = BUFFER_RUNS[name]
    params = default_params(eta0=eta0)
    tr = run(oracle, x0, params, stop, growth_cap=cap, store_iterates=True)
    assert tr.n_iters == K and tr.diverged == (name == "diverged")
    states = [init(x0, params, oracle)]
    for _ in range(K):
        states.append(step(states[-1], oracle, params, growth_cap=cap))
    if tr.diverged:
        with pytest.raises(NonFiniteError):
            step(states[-1], oracle, params, growth_cap=cap)
    for block in ("x", "x_bar", "x_tilde"):
        got, want = getattr(tr, block), np.array([getattr(st, block) for st in states])
        assert got.shape == (K + 1, len(x0)) and got.tobytes() == want.tobytes(), block


# (problem, eta0, stop rule, K, bound): the tracemalloc peak of the run over
# its iterate bytes stays within the bound. The list of scalar rows is the
# excess at d = 100. The grad_tol stops lie far below max_iters; at K = 2166
# the 2167 rows have just passed a doubling, the worst case, so the buffer's
# 4096 rows approach twice the iterates.
MEMORY_CASES = {
    "logsumexp d=2000 K=500": (lambda: logsumexp_problem(1, 2000, 100, 0.1), 1e-6,
                               StopRule(max_iters=500), 500, 1.1),
    "logsumexp d=100 K=2000": (lambda: logsumexp_problem(1, 100, 100, 0.1), 1e-6,
                               StopRule(max_iters=2000), 2000, 1.3),
    "identity d=1000 grad_tol": (lambda: identity_quadratic(1000), 1e-3,
                                 StopRule(max_iters=10**9, grad_tol=1e-8), 2040, 1.1),
    "identity d=1000 past a doubling": (lambda: identity_quadratic(1000), 1.0,
                                        StopRule(max_iters=10**9, grad_tol=1e-8), 2166, 2.0),
}


def _run_peak(problem, eta0, stop):
    """The trace of a run from ones with stored iterates, and its tracemalloc peak."""
    x0 = np.ones(problem.dim)
    tracemalloc.start()
    try:
        tr = run(problem.oracle, x0, default_params(eta0=eta0), stop, store_iterates=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return tr, peak


@pytest.mark.parametrize("name", sorted(MEMORY_CASES))
def test_stored_iterates_peak_memory(name):
    problem, eta0, stop, K, bound = MEMORY_CASES[name]
    tr, peak = _run_peak(problem(), eta0, stop)
    assert tr.n_iters == K
    assert peak <= bound * 3 * tr.x.nbytes


def test_stored_iterates_under_a_python_tracer():
    # a tracer holds references to the run loop's locals, the buffer among
    # them; the resizes, the doublings and the cut of a stop short of the
    # capacity, must still go through and give the untraced run's bits
    problem = make_quadratic(1, 5, 10.0)

    def go():
        return run(problem.oracle, np.zeros(5), default_params(eta0=1e-3),
                   StopRule(max_iters=1000, grad_tol=1e-3), store_iterates=True)

    events = []

    def recorder(frame, event, arg):
        if frame.f_code.co_filename.endswith("solver.py"):
            events.append(event)
            return recorder
        return None

    untraced = go()
    assert 256 < untraced.n_iters + 1 < 512  # 64 rows doubled three times, then cut
    previous = sys.gettrace()
    sys.settrace(recorder)
    try:
        traced = go()
    finally:
        sys.settrace(previous)
    assert "line" in events
    for name in (*COLUMNS, "x", "x_bar", "x_tilde"):
        assert getattr(traced, name).tobytes() == getattr(untraced, name).tobytes(), name


def peak_memory():
    """Print the tracemalloc peak of each memory case's run and its ratio to
    the iterate bytes.

        PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
            import test_driver as t; t.peak_memory()"
    """
    for name, (problem, eta0, stop, _, bound) in MEMORY_CASES.items():
        tr, peak = _run_peak(problem(), eta0, stop)
        iterates = 3 * tr.x.nbytes
        print(f"{name}: K = {tr.n_iters}, peak {peak / 1e6:.2f} MB for {iterates / 1e6:.2f} MB "
              f"of iterates ({peak / iterates:.3f}x, bound {bound}x)")
