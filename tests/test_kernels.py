import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import aagd
from aagd import kernels, load_libsvm, make_classification_dataset
from aagd.problems import SparseDataset, _gram_spectral_norm


def _quad_case():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 30))
    A = A @ A.T + 30.0 * np.eye(30)
    return A, rng.standard_normal(30), rng.standard_normal(30)


def test_step_update_exact_at_unit_beta():
    # beta = 1 must reproduce the lookahead point bit for bit
    rng = np.random.default_rng(4)
    x, xb, xt, g = (rng.standard_normal(20) for _ in range(4))
    _, xbar_next, _, _ = kernels.step_update(x, xb, xt, g, 0.1, 1.0, 2.0, 0.5)
    assert np.array_equal(xbar_next, xt)


def _logsumexp_value_grad_reference(A, b, mu, x):
    # the kernel as it read with np.max/np.sum, kept verbatim as the reference
    z = (A @ x - b) / mu
    m = float(np.max(z))
    p = np.exp(z - m)
    s = float(np.sum(p))
    value = mu * (m + np.log(s))
    return value, (p / s) @ A


def test_logsumexp_kernel_bit_identical_to_reference():
    rng = np.random.default_rng(11)
    for terms, d, mu in [(100, 40, 0.1), (7, 3, 2.0), (1, 5, 1e-3)]:
        A = rng.standard_normal((terms, d))
        b = rng.standard_normal(terms)
        for scale in (1e-8, 1.0, 1e3):
            for _ in range(200):
                x = scale * rng.standard_normal(d)
                value, grad = kernels.logsumexp_value_grad(A, b, mu, x)
                want_value, want_grad = _logsumexp_value_grad_reference(A, b, mu, x)
                assert float(value).hex() == float(want_value).hex()
                assert type(value) is type(want_value)
                assert grad.tobytes() == want_grad.tobytes()


def _logistic_value_grad_reference(row, indices, data, y, reg, w):
    # the bincount kernel as it read before the segment-sum layout, kept verbatim
    n = y.shape[0]
    d = w.shape[0]
    margins = np.bincount(row, weights=data * w[indices], minlength=n)
    t = y * margins
    loss = float(np.mean(np.logaddexp(0.0, -t)))
    # coef_i = -y_i * sigmoid(-t_i) / n, computed branch-wise for stability
    sig = np.empty(n)
    pos = t >= 0.0
    e = np.exp(-t[pos])
    sig[pos] = e / (1.0 + e)
    e = np.exp(t[~pos])
    sig[~pos] = 1.0 / (1.0 + e)
    coef = -y * sig / n
    g = np.bincount(indices, weights=data * coef[row], minlength=d)
    if reg != 0.0:
        loss += 0.5 * reg * float(w @ w)
        g = g + reg * w
    return loss, g


def _gram_matvec_reference(dataset, v):
    # the Gram product of the spectral-norm estimate as it read with bincount
    n, d = dataset.n_samples, dataset.n_features
    row = np.repeat(np.arange(n), np.diff(dataset.indptr))
    cols, vals = dataset.indices, dataset.data
    av = np.bincount(row, weights=vals * v[cols], minlength=n)
    return np.bincount(cols, weights=vals * av[row], minlength=d)


def with_bias(dataset):
    """``dataset`` with one more feature, 1.0 in every row: a lone, full column."""
    n, d = dataset.n_samples, dataset.n_features
    ends = dataset.indptr[1:]
    return SparseDataset(dataset.indptr + np.arange(n + 1), np.insert(dataset.indices, ends, d),
                         np.insert(dataset.data, ends, 1.0), dataset.labels, d + 1)


def power_law(seed, n, d):
    """Column c present in a row with probability 2/(c+2): lengths from n down to 2n/(d+1)."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, d)) < 2.0 / np.arange(2, d + 2)
    cols = np.nonzero(mask)[1]
    return SparseDataset(np.concatenate([[0], np.cumsum(mask.sum(axis=1))]), cols,
                         rng.standard_normal(cols.size),
                         np.where(rng.random(n) < 0.5, -1.0, 1.0), d)


def _gaps(tmp_path):
    # label-only lines give empty rows; features 3 and 7 are never stored
    path = tmp_path / "gaps.svm"
    path.write_text("1 1:0.5 2:-1.5\n-1\n1 4:2.0 5:0.25 6:-3.0\n-1\n"
                    "-1 1:1.0 2:1.0 4:-0.5 5:0.75 6:1.25 8:2.5\n1 2:-0.125\n")
    return load_libsvm(path, n_features=8)


DATASETS = {
    "logistic_sparse": lambda tmp: make_classification_dataset(9137, 5000, 500, density=0.05),
    "full_density": lambda tmp: make_classification_dataset(12, 200, 20),
    "gaps": _gaps,
    "bias_column": lambda tmp: with_bias(make_classification_dataset(8, 300, 40, density=0.1)),
    "power_law": lambda tmp: power_law(3, 600, 80),
    "all_zero": lambda tmp: SparseDataset(np.array([0, 2, 2, 5]), np.array([0, 3, 1, 2, 3]),
                                          np.zeros(5), np.array([1.0, -1.0, 1.0]), 4),
}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_logistic_kernel_bit_identical_to_reference(name, tmp_path):
    data = DATASETS[name](tmp_path)
    row = np.repeat(np.arange(data.n_samples), np.diff(data.indptr))
    rng = np.random.default_rng(5)
    d = data.n_features
    # scale 0 gives margins of +-0.0; 1e4 pushes |t| past 750, where exp(-|t|) is 0
    points = [np.zeros(d)] + [s * rng.standard_normal(d) for s in (1e-3, 1.0, 1e4)]
    if name != "logistic_sparse":
        points += [rng.standard_normal(d) for _ in range(20)]
    for reg in (0.0, 1e-3):
        for w in points:
            value, grad = kernels.logistic_value_grad(data.layout, data.labels, reg, w)
            want_value, want_grad = _logistic_value_grad_reference(
                row, data.indices, data.data, data.labels, reg, w)
            assert float(value).hex() == float(want_value).hex()
            assert grad.tobytes() == want_grad.tobytes()
    A, AT = data.layout
    for v in points:
        gram = AT @ (A @ v)
        assert gram.tobytes() == _gram_matvec_reference(data, v).tobytes()


# margins of a one-sample dataset, from +-0.0 to past where exp(-|t|) underflows (~745.1)
ONE_SAMPLE_MARGINS = [s * t for t in (0.0, 1e-300, 1e-3, 1.0, 36.0, 745.0, 800.0, 1e4)
                      for s in (1.0, -1.0)]


@pytest.mark.parametrize("t", ONE_SAMPLE_MARGINS)
def test_logistic_loss_of_one_margin(t):
    # one feature with value t, label 1 and w = [1]: the margin is exactly t
    data = SparseDataset(np.array([0, 1]), np.array([0]), np.array([t]), np.array([1.0]), 1)
    w = np.ones(1)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        value, grad = kernels.logistic_value_grad(data.layout, data.labels, 0.0, w)
    want = float(np.logaddexp(0.0, -t))
    assert abs(value - want) <= 2.0 * np.spacing(want)
    if t == 0.0:
        assert value == math.log(2.0)
    if np.exp(-abs(t)) == 0.0:
        assert value == max(-t, 0.0)
    _, want_grad = _logistic_value_grad_reference(np.zeros(1, dtype=np.int64), data.indices,
                                                  data.data, data.labels, 0.0, w)
    assert grad.tobytes() == want_grad.tobytes()


def time_kernel(calls=200, rounds=7):
    """Print best-of-``rounds`` µs per ``logistic_value_grad`` call on the logistic-sparse shape.

        PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
            import test_kernels as t; t.time_kernel()"
    """
    data = DATASETS["logistic_sparse"](None)
    layout, y = data.layout, data.labels
    w = np.random.default_rng(1).standard_normal(data.n_features)
    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            kernels.logistic_value_grad(layout, y, 1e-3, w)
        best = min(best, time.perf_counter() - start)
    print(f"logistic-sparse kernel: {1e6 * best / calls:.1f} us/call")


PINNED_DATASETS = {
    "full_density": lambda: make_classification_dataset(4, 200, 20),
    "bias_column": lambda: with_bias(make_classification_dataset(8, 2000, 200, density=0.05)),
    "power_law": lambda: power_law(3, 1500, 120),
}


@pytest.mark.parametrize("name", ["bias_column", "power_law"])
def test_layout_stores_at_most_twice_nnz(name):
    data = PINNED_DATASETS[name]()
    assert sum(m.data.size for m in data.layout) <= 2 * data.nnz


SPECTRAL_NORM_HEX = {
    # recorded with scipy's eigsh (ARPACK Lanczos) on the CSR Gram product;
    # full_density and bias_column re-recorded when the dataset generator became
    # a vectorized draw
    "full_density": "0x1.30b66edb277fep+8",
    "bias_column": "0x1.f6a5d0e11d7c3p+10",
    "power_law": "0x1.74d78e42a6913p+10",
}


@pytest.mark.parametrize("name", sorted(SPECTRAL_NORM_HEX))
def test_spectral_norm_pinned(name):
    assert _gram_spectral_norm(PINNED_DATASETS[name]()).hex() == SPECTRAL_NORM_HEX[name]


def test_kernels_deterministic():
    A, b, x = _quad_case()
    r1 = kernels.quad_value_grad(A, b, x)
    r2 = kernels.quad_value_grad(A, b, x)
    assert r1[0] == r2[0]
    assert np.array_equal(r1[1], r2[1])


def test_backend_reported():
    assert kernels.BACKEND == "numpy"


def test_import_emits_no_warning():
    # nor does importing the package or running dense problems load scipy
    script = """
import sys
import numpy as np
import aagd
import aagd.cli
for problem in (aagd.make_quadratic(1, 5, 10.0), aagd.logsumexp_problem(1, 4, 6, 0.5)):
    aagd.run(problem.oracle, np.zeros(problem.dim), aagd.default_params(eta0=1e-3),
             aagd.StopRule(max_iters=5))
assert 'scipy' not in sys.modules
"""
    src = str(Path(aagd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def _bits(v):
    """The bytes of a float or an array, so -0.0 and +0.0 differ."""
    return np.float64(v).tobytes() if np.ndim(v) == 0 else np.asarray(v).tobytes()


def _query_points(rng, d):
    """A contiguous x, a strided view, one with -0.0 entries, and one that
    overflows the products."""
    x = rng.standard_normal(d)
    signed = x.copy()
    signed[::3] = -0.0
    return [x, rng.standard_normal(3 * d)[::3], signed, np.full(d, -0.0), 1e200 * x]


@pytest.mark.parametrize("d", [1, 40, 100, 500])
def test_dot_kernels_match_the_matmul_formulas_bit_for_bit(d):
    # the kernels call ndarray.dot; the formulas below are the same products with @
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d))
    A = A @ A.T + d * np.eye(d)
    b = rng.standard_normal(d)
    signed_b = b.copy()
    signed_b[1::2] = -0.0
    terms = rng.standard_normal((2 * d + 1, d))
    t_b = rng.standard_normal(2 * d + 1)
    fn = aagd.identity_quadratic(d).oracle.fn
    with np.errstate(over="ignore", invalid="ignore"):
        for x in _query_points(rng, d):
            for bb in (b, signed_b):
                Ax = A @ x
                value, grad = kernels.quad_value_grad(A, bb, x)
                assert _bits(value) == _bits(0.5 * float(x @ Ax) - float(bb @ x))
                assert _bits(grad) == _bits(Ax - bb)
            for mu in (0.1, 3.0):
                z = (terms @ x - t_b) / mu
                m = float(z.max())
                p = np.exp(z - m)
                s = float(p.sum())
                value, grad = kernels.logsumexp_value_grad(terms, t_b, mu, x)
                assert _bits(value) == _bits(mu * (m + np.log(s)))
                assert _bits(grad) == _bits((p / s) @ terms)
            value, grad = fn(x)
            assert _bits(value) == _bits(0.5 * float(x @ x)) and grad is x


def test_logistic_regularizer_matches_the_matmul_formula_bit_for_bit():
    data = make_classification_dataset(3, 60, 40, density=0.2)
    layout, y = data.layout, data.labels
    rng = np.random.default_rng(5)
    for w in (rng.standard_normal(40), rng.standard_normal(120)[::3], np.full(40, -0.0)):
        loss, grad = kernels.logistic_value_grad(layout, y, 1e-3, w)
        bare, bare_grad = kernels.logistic_value_grad(layout, y, 0.0, w)
        assert _bits(loss) == _bits(bare + 0.5 * 1e-3 * float(w @ w))
        assert _bits(grad) == _bits(bare_grad + 1e-3 * w)


def test_stacked_rows_equal_point_calls_bit_for_bit():
    # each dense oracle that declares rows, at stacks of 1, 2, 7 and 163 rows
    # holding +-0.0 rows, a row with -0.0 entries and rows scaled by 1e-300 and
    # 1e150; at 5000 terms a 163-row stack crosses logsumexp's row chunks. The
    # stack path runs gemv once per row, so each thread count runs in its own
    # process, as BLAS may split a product differently
    script = """
import numpy as np
import aagd
from aagd import kernels
problems = [aagd.make_quadratic(3, d, 1e3) for d in (1, 2, 3, 17, 100, 333)]
problems += [aagd.logsumexp_problem(4, d, t, 0.1) for d in (1, 2, 40) for t in (2, 100, 5000)]
problems += [aagd.identity_quadratic(d) for d in (1, 17, 100)]
assert kernels.TERM_BLOCK // 5000 < 163
checked = 0
for p in problems:
    assert p.oracle.rows, p.label
    rng = np.random.default_rng(p.dim)
    x = rng.standard_normal(p.dim)
    signed = x.copy()
    signed[::2] = -0.0
    special = np.array([np.zeros(p.dim), np.full(p.dim, -0.0), signed, 1e-300 * x, 1e150 * x])
    for n in (1, 2, 7, 163):
        X = rng.standard_normal((n, p.dim))
        at = np.linspace(0, n - 1, min(n, len(special))).astype(int)
        X[at] = special[:len(at)]
        values, grads = p.oracle.fn(X)
        assert values.shape == (n,) and grads.shape == (n, p.dim), p.label
        for r in range(n):
            value, grad = p.oracle.fn(X[r].copy())
            assert np.float64(value).tobytes() == values[r].tobytes(), (p.label, n, r)
            assert grad.tobytes() == grads[r].tobytes(), (p.label, n, r)
            checked += 1
print(checked)
"""
    src = str(Path(aagd.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, (threads, out.stderr)
        assert int(out.stdout) == 18 * (1 + 2 + 7 + 163), threads
