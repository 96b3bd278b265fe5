import math
import tracemalloc

import numpy as np
import pytest

from aagd import (DatasetFormatError, evaluate, finite_diff_check,
                  identity_quadratic, load_libsvm, logistic_problem,
                  logsumexp_problem, make_classification_dataset, make_quadratic,
                  save_libsvm)
from aagd.kernels import logsumexp_value_grad
from aagd.problems import SparseDataset, _gram_spectral_norm

ALL_PROBLEMS = [
    identity_quadratic(10),
    make_quadratic(7, 40, 1e4),
    logistic_problem(make_classification_dataset(11, 150, 15), reg=1e-3),
    logsumexp_problem(3, 12, 30, 0.1),
]
IDS = ["identity", "quadratic", "logistic", "logsumexp"]


def test_quadratic_cond_one_is_identity_matrix():
    p = make_quadratic(0, 6, 1.0)
    x = np.random.default_rng(1).standard_normal(6)
    b = -evaluate(p.oracle, np.zeros(6)).grad
    assert np.array_equal(evaluate(p.oracle, x).grad, x - b)
    assert p.L == 1.0


@pytest.mark.parametrize("cond", [1.0, 100.0, 1e8])
@pytest.mark.parametrize("dim", [1, 2, 40])
def test_quadratic_L_is_the_top_eigenvalue_of_its_hessian(dim, cond):
    # the Hessian, one column per unit vector, from differences of gradients at 0 and e_j
    p = make_quadratic(0, dim, cond)
    g0 = evaluate(p.oracle, np.zeros(dim)).grad
    H = np.column_stack([evaluate(p.oracle, e).grad - g0 for e in np.eye(dim)])
    assert np.linalg.eigvalsh(0.5 * (H + H.T))[-1] == pytest.approx(p.L, rel=1e-9)


def test_quadratic_deterministic_across_constructions():
    p1 = make_quadratic(42, 25, 300.0)
    p2 = make_quadratic(42, 25, 300.0)
    x = np.random.default_rng(3).standard_normal(25)
    r1, r2 = evaluate(p1.oracle, x), evaluate(p2.oracle, x)
    assert r1.value == r2.value
    assert np.array_equal(r1.grad, r2.grad)
    assert np.array_equal(p1.x_star, p2.x_star)


def test_quadratic_rejects_bad_cond():
    with pytest.raises(ValueError):
        make_quadratic(0, 5, 0.5)


@pytest.mark.parametrize("cond", [1.0 / np.finfo(np.float64).eps, 1e17, 1e20, 1e50])
def test_quadratic_rejects_numerically_singular_cond(cond):
    # the rounding of A, about cond*eps, swamps its unit eigenvalue from cond = 1/eps on
    with pytest.raises(ValueError, match=r"^cond must be finite, >= 1 and < 1/eps = 2\*\*52 "
                                         r"\(about 4\.5e15\)$"):
        make_quadratic(0, 5, cond)


def test_quadratic_just_below_the_cond_bound_keeps_f_star_below_f0():
    # f(0) = 0, so a minimum above it is a wrong solve; above the bound some
    # of these gave f_star > 0 or a singular solve
    for dim in (1, 2, 5, 20, 100):
        for seed in range(10):
            assert make_quadratic(seed, dim, 4e15).f_star <= 0.0, (dim, seed)


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=IDS)
def test_lipschitz_pairs(problem):
    rng = np.random.default_rng(123)
    L = problem.L
    for _ in range(1000):
        x = rng.standard_normal(problem.dim)
        z = rng.standard_normal(problem.dim)
        gx = evaluate(problem.oracle, x).grad
        gz = evaluate(problem.oracle, z).grad
        assert np.linalg.norm(gx - gz) <= L * (1.0 + 1e-9) * np.linalg.norm(x - z)


@pytest.mark.parametrize("problem", [p for p in ALL_PROBLEMS if p.x_star is not None],
                         ids=["identity", "quadratic"])
def test_x_star_is_stationary(problem):
    g = evaluate(problem.oracle, problem.x_star).grad
    assert np.linalg.norm(g) <= 1e-8 * (1.0 + problem.L)


def test_quadratic_gap_two_ways_agree():
    p = make_quadratic(7, 40, 1e4)
    g_star = evaluate(p.oracle, p.x_star).grad
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.standard_normal(40)
        gap_direct = evaluate(p.oracle, x).value - p.f_star
        d = x - p.x_star
        gap_quadform = 0.5 * float(d @ (evaluate(p.oracle, x).grad - g_star))
        assert gap_quadform == pytest.approx(gap_direct, rel=1e-10)


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=IDS)
def test_finite_diff_twenty_points(problem):
    rng = np.random.default_rng(77)
    for _ in range(20):
        assert finite_diff_check(problem.oracle, rng.standard_normal(problem.dim)) <= 1e-5


# ---------------------------------------------------------------------------
# LIBSVM parsing
# ---------------------------------------------------------------------------

def test_load_libsvm_basic(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("1 1:0.5 3:2.0\n-1 2:1e-3\n")
    data = load_libsvm(f)
    assert data.n_samples == 2
    assert list(data.labels) == [1.0, -1.0]
    assert data.n_features == 3
    dense = data.to_dense()
    assert np.array_equal(dense[0], [0.5, 0.0, 2.0])
    assert np.array_equal(dense[1], [0.0, 1e-3, 0.0])


def test_load_libsvm_label_mapping_and_comments(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("# header comment\n0 1:1.0\n\n+1 1:2.0  # trailing\n-1 1:3.0\n")
    data = load_libsvm(f)
    assert list(data.labels) == [-1.0, 1.0, -1.0]


def test_load_libsvm_nonincreasing_indices(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("1 3:1 2:1\n")
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_libsvm(f)


def test_load_libsvm_bad_label(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("1 1:1.0\n7 1:1.0\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_libsvm(f)


def test_load_libsvm_bad_token(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("1 1:abc\n")
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_libsvm(f)


@pytest.mark.parametrize("token", ["1:nan", "1:inf", "1:1e999"])
def test_load_libsvm_non_finite_value_names_its_line(tmp_path, token):
    f = tmp_path / "d.txt"
    f.write_text(f"1 1:1.0\n-1 {token}\n")
    with pytest.raises(DatasetFormatError, match=f"^line 2: non-finite value '{token}'$"):
        load_libsvm(f)


@pytest.mark.parametrize("text, n_features, message", [
    ("1 1:1\n1 2:1 5:1\n", 3, "line 2: feature index 5 exceeds n_features=3"),
    ("abc 1:1\n", None, "line 1: non-numeric label 'abc'"),
    ("1 1:1\n-1 0:1\n", None, "line 2: feature index 0 below 1"),
], ids=["above_n_features", "non_numeric_label", "index_zero"])
def test_load_libsvm_error_names_its_line(tmp_path, text, n_features, message):
    f = tmp_path / "d.txt"
    f.write_text(text)
    with pytest.raises(DatasetFormatError) as info:
        load_libsvm(f, n_features=n_features)
    assert str(info.value) == message


def test_libsvm_round_trip(tmp_path):
    data = make_classification_dataset(13, 80, 12, density=0.4)
    path = tmp_path / "rt.txt"
    save_libsvm(data, path)
    back = load_libsvm(path, n_features=12)
    assert np.array_equal(back.indptr, data.indptr)
    assert np.array_equal(back.indices, data.indices)
    assert np.array_equal(back.data, data.data)
    assert np.array_equal(back.labels, data.labels)


def test_sparse_dataset_validation():
    with pytest.raises(ValueError):
        SparseDataset(np.array([0, 2]), np.array([1, 0]), np.ones(2),
                      np.array([1.0]), 2)  # decreasing indices in a row
    with pytest.raises(ValueError):
        SparseDataset(np.array([0, 1]), np.array([0]), np.ones(1),
                      np.array([2.0]), 1)  # bad label
    with pytest.raises(ValueError):
        SparseDataset(np.array([0, 1]), np.array([5]), np.ones(1),
                      np.array([1.0]), 2)  # index out of range


def test_sparse_dataset_rejects_zero_features():
    with pytest.raises(ValueError, match="^n_features must be >= 1$"):
        SparseDataset(np.array([0]), np.array([], dtype=np.int64), np.array([]),
                      np.array([]), 0)


def test_sparse_dataset_names_first_unsorted_row():
    with pytest.raises(ValueError, match="^row 1: feature indices not strictly increasing$"):
        SparseDataset(np.array([0, 2, 4, 6]), np.array([0, 3, 2, 2, 1, 0]), np.ones(6),
                      np.ones(3), 4)


@pytest.mark.parametrize("indptr,message", [
    pytest.param([0, 2, 1, 3], "nondecreasing", id="decreasing"),
    pytest.param([1, 1, 2, 3], "from 0", id="nonzero_start"),
    pytest.param([0, 1, 2, 2], "to len\\(indices\\)", id="short_end"),
    pytest.param([0, 1, 3], "n \\+ 1 = 4 entries", id="wrong_length"),
])
def test_sparse_dataset_rejects_malformed_indptr(indptr, message):
    with pytest.raises(ValueError, match=message):
        SparseDataset(np.array(indptr), np.array([0, 1, 0]), np.ones(3), np.ones(3), 2)


@pytest.mark.parametrize("indptr,indices,name", [
    pytest.param([0.0, 1.0, 3.0], [0, 1, 0], "indptr", id="float_indptr"),
    pytest.param([0, 1, 3], [0.0, 1.0, 0.0], "indices", id="float_indices"),
])
def test_sparse_dataset_rejects_non_integer_index_arrays(indptr, indices, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer array$"):
        SparseDataset(np.array(indptr), np.array(indices), np.ones(3), np.ones(2), 2)


def test_sparse_dataset_rejects_data_length_mismatch():
    with pytest.raises(ValueError, match="differ in length"):
        SparseDataset(np.array([0, 1, 2]), np.array([0, 1]), np.ones(3), np.ones(2), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sparse_dataset_rejects_nonfinite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        SparseDataset(np.array([0, 1, 2]), np.array([0, 1]), np.array([1.0, bad]),
                      np.ones(2), 2)


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def test_logistic_value_at_zero_is_log_two():
    p = logistic_problem(make_classification_dataset(5, 50, 8), reg=0.0)
    assert evaluate(p.oracle, np.zeros(8)).value == pytest.approx(np.log(2.0), rel=1e-14)


def test_logistic_single_sample_gradient():
    data = SparseDataset(np.array([0, 1]), np.array([0]), np.array([1.0]),
                         np.array([1.0]), 3)
    p = logistic_problem(data, reg=0.0)
    g = evaluate(p.oracle, np.zeros(3)).grad
    assert np.allclose(g, [-0.5, 0.0, 0.0], atol=1e-16)


def test_logistic_L_at_least_reg():
    p = logistic_problem(make_classification_dataset(5, 50, 8), reg=0.7)
    assert p.L >= 0.7


@pytest.mark.parametrize("scale", [1e155, 1e160, 1e300])
def test_logistic_rejects_data_whose_gram_norm_overflows(scale):
    data = SparseDataset(np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
                         scale * np.array([1.0, 0.3, -2.0, 0.5]), np.array([1.0, -1.0]), 2)
    with pytest.raises(ValueError) as info:
        logistic_problem(data)
    message = str(info.value)
    assert message.startswith("logistic smoothness constant L = inf is not finite")
    assert message.endswith(f"(largest |a_ij| = {2 * scale:.3e})")


def test_logistic_rejects_empty():
    empty = SparseDataset(np.array([0]), np.array([], dtype=np.int64),
                          np.array([]), np.array([]), 3)
    with pytest.raises(ValueError):
        logistic_problem(empty)


@pytest.mark.parametrize("n, d, message", [
    (0, 3, "n_samples must be >= 1"),
    (-1, 3, "n_samples must be >= 1"),
    (4, 0, "n_features must be >= 1"),
    (0, 0, "n_samples must be >= 1"),
])
def test_classification_dataset_rejects_empty_shape(monkeypatch, n, d, message):
    # the shape is checked before anything is drawn
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_classification_dataset(1, n, d)


@pytest.mark.parametrize("density", [0.0, -0.5, 1.5, np.nan])
def test_classification_dataset_rejects_density_outside_unit_interval(monkeypatch, density):
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValueError, match=r"^density must be in \(0, 1\]$"):
        make_classification_dataset(1, 5, 3, density=density)


@pytest.mark.parametrize("density", [5e-324, 1e-300])
def test_classification_dataset_at_vanishing_density_fills_each_row_once(density):
    # numpy draws every geometric gap here as 2**63 - 1, so each row gets its one fill entry
    data = make_classification_dataset(1, 50, 3, density=density)
    assert data.n_samples == 50
    assert np.array_equal(data.indptr, np.arange(51))


def test_classification_dataset_clips_gaps_past_a_present_cell(monkeypatch):
    # a gap of 2**63 - 1 right after a present cell would wrap the running sum
    # of positions below the grid's end unless it is clipped at the grid size
    real = np.random.default_rng

    class Gaps:
        def __init__(self, seed):
            self.rng = real(seed)

        def geometric(self, p, size):
            gaps = np.full(size, np.iinfo(np.int64).max)
            gaps[0] = 2
            return gaps

        def __getattr__(self, name):
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "default_rng", Gaps)
    data = make_classification_dataset(1, 4, 3, density=1e-300)
    assert np.array_equal(data.indptr, np.arange(5))
    assert data.indices[0] == 1


def test_classification_dataset_continues_a_chunk_that_ends_short_of_the_grid(monkeypatch):
    # a first chunk of gaps that ends before the grid's end, about a five sigma
    # event, is kept whole and the positions go on from its last one
    real = np.random.default_rng
    calls = []

    class ShortFirstDraw:
        def __init__(self, seed):
            self.rng = real(seed)

        def geometric(self, p, size):
            calls.append(size)
            gaps = self.rng.geometric(p, size)
            return gaps[:size // 4] if len(calls) == 1 else gaps

        def __getattr__(self, name):
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "default_rng", ShortFirstDraw)
    data = make_classification_dataset(1, 200, 30, density=0.3)
    assert len(calls) >= 2
    SparseDataset(indptr=data.indptr, indices=data.indices, data=data.data,
                  labels=data.labels, n_features=30)
    assert np.all(np.diff(data.indptr) >= 1)


@pytest.mark.parametrize("n, d", [(1, 1), (7, 1), (1, 9), (40, 13)])
def test_classification_dataset_at_full_density_holds_every_feature_in_order(n, d):
    data = make_classification_dataset(3, n, d, density=1.0)
    assert np.array_equal(data.indptr, d * np.arange(n + 1))
    assert np.array_equal(data.indices, np.tile(np.arange(d), n))


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 9137])
@pytest.mark.parametrize("n, d, density", [(5000, 500, 0.05), (300, 1000, 0.01),
                                           (20000, 5000, 0.001), (100, 3, 0.5)])
def test_classification_dataset_nnz_within_five_sigma(seed, n, d, density):
    # each row that draws no entry gets one, (1 - density)**d of them on average
    data = make_classification_dataset(seed, n, d, density=density)
    mean = n * (d * density + (1.0 - density) ** d)
    assert abs(data.nnz - mean) <= 5.0 * math.sqrt(n * d * density * (1.0 - density))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n, d, density", [(200, 30, 0.02), (50, 500, 0.3), (1000, 2, 0.5),
                                           (3, 7, 1e-9), (20, 4, 1.0)])
def test_classification_dataset_rows_nonempty_and_strictly_increasing(seed, n, d, density):
    data = make_classification_dataset(seed, n, d, density=density)
    counts = np.diff(data.indptr)
    assert data.indptr.dtype == data.indices.dtype == np.int64
    assert np.all(counts >= 1)
    same_row = np.diff(np.repeat(np.arange(n), counts)) == 0
    assert np.all(np.diff(data.indices)[same_row] > 0)
    assert data.indices.min() >= 0 and data.indices.max() < d


def test_classification_dataset_follows_the_per_row_law():
    # row sizes follow max(1, Binomial(d, density)); each feature is present
    # with probability density, plus 1/d of the rows that drew none
    n, d, density = 20000, 4, 0.3
    data = make_classification_dataset(5, n, d, density=density)
    pmf = np.array([math.comb(d, c) * density**c * (1.0 - density) ** (d - c)
                    for c in range(d + 1)])
    pmf[1] += pmf[0]
    pmf[0] = 0.0
    sizes = np.bincount(np.diff(data.indptr), minlength=d + 1)
    assert np.all(np.abs(sizes - n * pmf) <= 5.0 * np.sqrt(n * pmf * (1.0 - pmf)))
    p = density + (1.0 - density) ** d / d
    features = np.bincount(data.indices, minlength=d)
    assert np.all(np.abs(features - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p)))


def test_classification_dataset_labels_follow_the_planted_direction():
    # w is the generator's first draw; noise of 0.5 N(0, 1) against margins of
    # variance d = 20 flips about 3.6% of the signs
    n, d = 2000, 20
    data = make_classification_dataset(6, n, d, density=1.0)
    w = np.random.default_rng(6).standard_normal(d)
    agree = np.mean(np.sign(data.to_dense() @ w) == data.labels)
    assert agree > 0.93


def test_classification_dataset_memory_stays_near_nnz():
    # about 1e5 entries; a dense mask of the 20000 x 5000 grid alone would take 100 MB
    tracemalloc.start()
    try:
        make_classification_dataset(1, 20000, 5000, density=0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_logistic_data_and_L_do_not_depend_on_blas_threads(per_blas_threads):
    script = """
import hashlib
import aagd
data = aagd.make_classification_dataset(1, 5000, 500, 0.05)
h = hashlib.sha256()
for a in (data.indptr, data.indices, data.data, data.labels):
    h.update(a.tobytes())
print(h.hexdigest(), aagd.logistic_problem(data, reg=1e-3).L.hex())
"""
    outs = per_blas_threads(script)
    assert outs["1"] == outs["2"]


@pytest.mark.parametrize("make", [lambda: make_quadratic(0, 0, 10.0),
                                  lambda: identity_quadratic(0)], ids=["quadratic", "identity"])
def test_dense_problems_reject_zero_dim(make):
    with pytest.raises(ValueError, match="^dim must be >= 1$"):
        make()


def test_spectral_norm_matches_svd():
    data = make_classification_dataset(21, 120, 15)
    lam = _gram_spectral_norm(data)
    sigma = np.linalg.svd(data.to_dense(), compute_uv=False)[0]
    assert lam == pytest.approx(sigma**2, rel=1e-9)


def _from_dense(A):
    nz = A != 0.0
    return SparseDataset(np.concatenate([[0], np.cumsum(nz.sum(axis=1))]),
                         np.nonzero(nz)[1], A[nz], np.ones(A.shape[0]), A.shape[1])


def _block_data(seed):
    # two copies of one block: every eigenvalue of A'A, the top one too, is double
    B = np.random.default_rng(seed).standard_normal((30, 8))
    A = np.zeros((60, 16))
    A[:30, :8] = B
    A[30:, 8:] = B
    return _from_dense(A)


SPECTRAL_DATA = [
    pytest.param(lambda s: make_classification_dataset(s, 10, 1), id="d1"),
    pytest.param(lambda s: make_classification_dataset(s, 5, 40), id="n_below_d"),
    pytest.param(lambda s: make_classification_dataset(s, 60, 20), id="dense"),
    pytest.param(lambda s: make_classification_dataset(s, 400, 60, density=0.05), id="sparse"),
    pytest.param(_block_data, id="repeated_top"),
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("make", SPECTRAL_DATA)
def test_spectral_norm_never_below_svd(make, seed, scale=1.0):
    base = make(100 + seed)
    data = SparseDataset(base.indptr, base.indices, base.data * scale, base.labels,
                         base.n_features)
    tol = 1e-10
    lam = _gram_spectral_norm(data, tol=tol, seed=seed)
    top = np.linalg.svd(data.to_dense(), compute_uv=False)[0] ** 2
    assert top <= lam <= top * (1.0 + 2.0 * tol)


@pytest.mark.parametrize("scale", [1e-150, 1e-80, 1e80, 1e150])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("make", SPECTRAL_DATA)
def test_spectral_norm_never_below_svd_at_extreme_scales(make, seed, scale):
    # unscaled, the squares in the Lanczos products and norms under- or overflow here
    test_spectral_norm_never_below_svd(make, seed, scale)


def test_spectral_norm_of_zero_data_is_exactly_zero():
    data = SparseDataset(np.array([0, 2, 3]), np.array([0, 2, 1]), np.zeros(3),
                         np.array([1.0, -1.0]), 3)
    assert _gram_spectral_norm(data) == 0.0
    assert logistic_problem(data).L == 0.0


def test_spectral_norm_converges_in_few_products():
    # the relative gap here is 2.2%: power iteration would take 439 products,
    # ARPACK's Lanczos 51
    data = make_classification_dataset(3, 2000, 200, density=0.05)
    A, AT = data.layout
    calls = []

    class CountingA:
        def __matmul__(self, v):
            calls.append(1)
            return A @ v

    data.__dict__["layout"] = (CountingA(), AT)
    lam = _gram_spectral_norm(data)
    top = np.linalg.svd(data.to_dense(), compute_uv=False)[0] ** 2
    assert top <= lam <= top * (1.0 + 2e-10)
    assert 0 < len(calls) <= 60  # one matvec per Gram product


# ---------------------------------------------------------------------------
# smoothed max of affine terms
# ---------------------------------------------------------------------------

def test_logsumexp_symmetric_pair():
    # terms {x, -x} with unit smoothing: value log 2 and zero gradient at 0
    A = np.array([[1.0], [-1.0]])
    b = np.zeros(2)
    value, grad = logsumexp_value_grad(A, b, 1.0, np.zeros(1))
    assert value == pytest.approx(np.log(2.0), rel=1e-15)
    assert grad[0] == 0.0


def test_logsumexp_no_overflow_on_large_spread():
    A = 1e3 * np.random.default_rng(0).standard_normal((20, 5))
    b = np.zeros(20)
    value, grad = logsumexp_value_grad(A, b, 0.01, 50.0 * np.ones(5))
    assert np.isfinite(value)
    assert np.all(np.isfinite(grad))


def test_logsumexp_large_smoothing_gradient_check():
    p = logsumexp_problem(9, 6, 15, smoothing=50.0)
    rng = np.random.default_rng(4)
    for _ in range(5):
        assert finite_diff_check(p.oracle, rng.standard_normal(6), h=1e-5) <= 1e-5


def test_logsumexp_validation():
    with pytest.raises(ValueError):
        logsumexp_problem(0, 4, 1, 0.1)
    with pytest.raises(ValueError):
        logsumexp_problem(0, 4, 5, 0.0)


@pytest.mark.parametrize("smoothing", [1e-310, 1e-308])
def test_logsumexp_rejects_a_smoothing_whose_L_overflows(smoothing):
    with pytest.raises(ValueError) as info:
        logsumexp_problem(1, 3, 4, smoothing)
    assert str(info.value) == ("logsumexp smoothness constant L = inf is not finite: "
                               f"max_i ||a_i||^2 / mu overflows (mu = {smoothing:g})")
