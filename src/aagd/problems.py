"""Problem instances with oracles and metadata.

Synthetic quadratics, regularized logistic regression over sparse
data, and smoothed-max (log-sum-exp) objectives. All randomness
sits behind a named 64-bit seed so instances are bit-identical across
runs. Dense vectors only; sparse data is densified into gradients by
the kernels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import kernels
from .oracle import Oracle


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the 1-based line number."""


@dataclass(frozen=True, eq=False)
class Problem:
    """An objective with whatever metadata is exactly known for it."""

    oracle: Oracle
    L: float | None = None
    f_star: float | None = None
    x_star: np.ndarray | None = None
    label: str = ""

    @property
    def dim(self) -> int:
        return self.oracle.dim


@dataclass(frozen=True, eq=False)
class SparseDataset:
    """CSR-stored rows of (feature, value) pairs with +-1 labels.

    Feature indices are stored 0-based internally; the on-disk format is
    1-based with strictly increasing indices per row. ``indptr`` and
    ``indices`` must be integer arrays. ``layout``, the scipy CSR pair
    ``(A, AT)`` for ``A x`` and ``A' u`` that the logistic kernel and the
    spectral-norm estimate share, is built on first use and kept.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    labels: np.ndarray
    n_features: int

    def __post_init__(self):
        n, nnz = len(self.labels), len(self.indices)
        for name in ("indptr", "indices"):
            if not np.issubdtype(np.asarray(getattr(self, name)).dtype, np.integer):
                raise ValueError(f"{name} must be an integer array")
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if len(self.indptr) != n + 1 or self.indptr[0] != 0 or self.indptr[-1] != nnz:
            raise ValueError(f"indptr must have n + 1 = {n + 1} entries running from 0 "
                             f"to len(indices) = {nnz}")
        counts = np.diff(self.indptr)
        if np.any(counts < 0):
            raise ValueError("indptr must be nondecreasing")
        if len(self.data) != nnz:
            raise ValueError("data and indices differ in length")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("data values must be finite")
        if nnz and (self.indices.min() < 0 or self.indices.max() >= self.n_features):
            raise ValueError("feature index out of range")
        row = np.repeat(np.arange(n), counts)
        bad = (np.diff(self.indices) <= 0) & (np.diff(row) == 0)
        if bad.any():
            raise ValueError(f"row {row[np.argmax(bad)]}: feature indices not strictly increasing")

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @property
    def nnz(self) -> int:
        return len(self.data)

    @cached_property
    def layout(self):
        # (A, AT), both CSR. scipy's CSR product adds each row's terms from 0.0
        # in stored order, and the transpose keeps each column's entries in row
        # order, so A @ x and AT @ u are bit-identical to np.bincount over the entries
        from scipy.sparse import csr_matrix  # deferred: import costs 0.2 s and 20 MB

        A = csr_matrix((self.data, self.indices, self.indptr),
                       shape=(self.n_samples, self.n_features))
        return A, A.T.tocsr()

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_samples, self.n_features))
        out[np.repeat(np.arange(self.n_samples), np.diff(self.indptr)), self.indices] = self.data
        return out


# ---------------------------------------------------------------------------
# quadratics
# ---------------------------------------------------------------------------

def make_quadratic(seed: int, dim: int, cond: float) -> Problem:
    """f(x) = 0.5 x'Ax - b'x with A symmetric positive definite.

    Eigenvalues span [1, cond] exactly (log-spaced, diagonal in a random
    orthogonal basis from a seeded QR factorization), so the gradient
    Lipschitz constant is exactly ``cond``; with dim = 1 the single
    eigenvalue is ``cond``. The minimizer and optimal value are computed
    at construction. ``cond`` must be below 1/eps (about 4.5e15), where
    the rounding of A, about cond*eps, swamps the unit eigenvalue.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 1.0 <= cond < 2.0**52:  # 1/eps of float64
        raise ValueError("cond must be finite, >= 1 and < 1/eps = 2**52 (about 4.5e15)")
    rng = np.random.default_rng(seed)
    if cond == 1.0:
        A = np.eye(dim)
    else:
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        q = q * np.sign(np.diag(r))  # fix the sign convention for determinism
        evals = np.geomspace(1.0, cond, dim)
        evals[0], evals[-1] = 1.0, cond
        A = (q * evals) @ q.T
        A = 0.5 * (A + A.T)
    b = rng.standard_normal(dim)
    x_star = np.linalg.solve(A, b)
    return Problem(
        oracle=Oracle(partial(kernels.quad_value_grad, A, b), dim,
                      label=f"quadratic(seed={seed},dim={dim},cond={cond:g})", rows=True),
        L=float(cond),
        f_star=kernels.quad_value_grad(A, b, x_star)[0],
        x_star=x_star,
        label=f"quadratic_d{dim}_cond{cond:g}_s{seed}",
    )


def identity_quadratic(dim: int) -> Problem:
    """f(x) = 0.5 ||x||^2: L = 1, minimum 0 at the origin.

    Kept free of any linear term so objective values decay with the gap
    and gap targets at the 1e-10 level stay resolvable in doubles.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def fn(x):
        if x.ndim == 2:
            return 0.5 * np.vecdot(x, x), x
        return 0.5 * float(x.dot(x)), x

    return Problem(
        oracle=Oracle(fn, dim, label=f"identity_quadratic(dim={dim})", rows=True),
        L=1.0,
        f_star=0.0,
        x_star=np.zeros(dim),
        label=f"identity_d{dim}",
    )


# ---------------------------------------------------------------------------
# LIBSVM-format datasets and logistic regression
# ---------------------------------------------------------------------------

def load_libsvm(path, n_features: int | None = None) -> SparseDataset:
    """Parse ``label idx:val idx:val ...`` lines (1-based, ascending).

    Text after '#' is ignored, blank lines are skipped. Labels 0 and -1
    map to -1; labels 1 and +1 map to +1. Malformed lines are reported
    with their 1-based line number.
    """
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    labels: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                lab = float(tokens[0])
            except ValueError:
                raise DatasetFormatError(f"line {lineno}: non-numeric label {tokens[0]!r}")
            if lab in (0.0, -1.0):
                labels.append(-1.0)
            elif lab == 1.0:
                labels.append(1.0)
            else:
                raise DatasetFormatError(f"line {lineno}: label {tokens[0]!r} out of range")
            prev = 0
            for tok in tokens[1:]:
                idx_s, _, val_s = tok.partition(":")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise DatasetFormatError(f"line {lineno}: non-numeric token {tok!r}")
                if not math.isfinite(val):
                    raise DatasetFormatError(f"line {lineno}: non-finite value {tok!r}")
                if idx < 1:
                    raise DatasetFormatError(f"line {lineno}: feature index {idx} below 1")
                if n_features is not None and idx > n_features:
                    raise DatasetFormatError(
                        f"line {lineno}: feature index {idx} exceeds n_features={n_features}")
                if idx <= prev:
                    raise DatasetFormatError(f"line {lineno}: nonincreasing indices")
                prev = idx
                indices.append(idx - 1)
                data.append(val)
            indptr.append(len(indices))
    if n_features is None:
        n_features = max(indices, default=0) + 1
    return SparseDataset(
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int64),
        data=np.asarray(data, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.float64),
        n_features=int(n_features),
    )


def save_libsvm(dataset: SparseDataset, path) -> None:
    """Inverse of :func:`load_libsvm`; values keep full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(dataset.n_samples):
            sl = slice(dataset.indptr[i], dataset.indptr[i + 1])
            parts = [f"{int(dataset.labels[i])}"]
            parts += [
                f"{idx + 1}:{val:.17g}"
                for idx, val in zip(dataset.indices[sl], dataset.data[sl])
            ]
            fh.write(" ".join(parts) + "\n")


def make_classification_dataset(seed: int, n_samples: int, n_features: int,
                                density: float = 1.0) -> SparseDataset:
    """Seeded synthetic two-class dataset with noisy linear labels.

    Each entry of the n x d grid is present independently with probability
    ``density``, and a row that draws none gets one uniformly chosen
    feature. Values are standard normal; row a_i is labelled by the sign of
    a_i . w + 0.5 N(0, 1) for a standard normal w. The build is O(nnz) in
    time and memory: no n x d array is formed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(n_features)
    # present cells of the row-major grid are running sums of geometric gaps,
    # drawn in chunks of the expected count plus five sigma until one passes
    # the end; a gap clipped at the grid size keeps each sum exact up to the
    # first one past the end (a tiny density draws gaps of 2**63 - 1)
    cells, chunks, last = n_samples * n_features, [], -1
    while True:
        expected = (cells - 1 - last) * density
        gaps = rng.geometric(density, size=int(expected + 5.0 * math.sqrt(expected)) + 16)
        pos = np.cumsum(np.minimum(gaps, cells, out=gaps), out=gaps)
        pos += last
        past = pos >= cells
        if past.any():
            chunks.append(pos[:np.argmax(past)])
            break
        chunks.append(pos)
        last = int(pos[-1])
    rows, indices = np.divmod(np.concatenate(chunks), n_features)
    counts = np.bincount(rows, minlength=n_samples)
    empty = np.flatnonzero(counts == 0)
    indices = np.insert(indices, np.searchsorted(rows, empty),
                        rng.integers(n_features, size=empty.size))
    counts[empty] = 1
    indptr = np.concatenate(([0], np.cumsum(counts)))
    data = rng.standard_normal(indices.size)
    margins = np.add.reduceat(data * w_true[indices], indptr[:-1])
    margins += 0.5 * rng.standard_normal(n_samples)
    return SparseDataset(indptr=indptr, indices=indices, data=data,
                         labels=np.where(margins >= 0.0, 1.0, -1.0), n_features=n_features)


def _gram_spectral_norm(dataset: SparseDataset, tol: float = 1e-10, seed: int = 0) -> float:
    """Largest eigenvalue of A'A by scipy's ``eigsh`` (ARPACK's Lanczos) on v -> A'(Av).

    ARPACK starts from a seeded standard normal vector and stops at relative
    residual ``tol``. The products run on A/s, s the power of two just above
    max |a_ij|, so that no square under- or overflows; scaling by a power of
    two is exact. ARPACK takes neither all-zero data nor d = 1: those return
    0 and the column's squared norm.
    """
    # deferred, so dense problems never load scipy: the first call in a
    # process pays about 0.06 s and 10 MB for this import
    from scipy.sparse.linalg import LinearOperator, eigsh

    (A, AT), d = dataset.layout, dataset.n_features
    amax = float(np.max(np.abs(dataset.data), initial=0.0))
    if amax == 0.0:
        return 0.0
    s = math.ldexp(1.0, math.frexp(amax)[1])
    if d == 1:
        theta = float(np.sum(np.square(dataset.data / s)))
    else:
        gram = LinearOperator((d, d), dtype=np.float64,
                              matvec=lambda v: AT @ (A @ v / s) / s)
        v0 = np.random.default_rng(seed).standard_normal(d)
        theta = float(eigsh(gram, k=1, which="LA", tol=tol, v0=v0, return_eigenvectors=False)[0])
    # Ritz values approach the eigenvalue from below; nudge up by the
    # tolerance so downstream bounds never divide by an underestimate
    return theta * s * s * (1.0 + tol)


def logistic_problem(data: SparseDataset, reg: float = 0.0) -> Problem:
    """Mean logistic loss plus an optional ridge term.

    The smoothness constant uses the classical bound: spectral norm of
    the data Gram matrix over 4n (scipy's ``eigsh``, relative tolerance
    1e-10; see :func:`_gram_spectral_norm`) plus the ridge weight. The
    estimate never falls below the true norm for data of any scale from
    1e-150 to 1e150; data whose Gram norm overflows (entries above about
    1e154) raise ``ValueError``. All-zero data with ``reg = 0`` gives
    L = 0. No optimal value is attached; estimate one with a long
    reference run when needed.
    """
    if data.n_samples < 1:
        raise ValueError("empty dataset")
    if not 0.0 <= reg < np.inf:
        raise ValueError("reg must be finite and nonnegative")
    L = _gram_spectral_norm(data) / (4.0 * data.n_samples) + reg
    if not math.isfinite(L):
        raise ValueError(f"logistic smoothness constant L = {L} is not finite: the data's "
                         f"Gram norm overflows (largest |a_ij| = {np.max(np.abs(data.data)):.3e})")
    return Problem(
        oracle=Oracle(partial(kernels.logistic_value_grad, data.layout, data.labels, reg),
                      data.n_features,
                      label=f"logistic(n={data.n_samples},d={data.n_features},reg={reg:g})"),
        L=float(L),
        label=f"logistic_n{data.n_samples}_d{data.n_features}",
    )


# ---------------------------------------------------------------------------
# smoothed max of affine functions
# ---------------------------------------------------------------------------

def logsumexp_problem(seed: int, dim: int, n_terms: int, smoothing: float) -> Problem:
    """f(x) = mu log sum_i exp((a_i'x - b_i)/mu) with seeded (a_i, b_i).

    Local curvature varies by orders of magnitude across the domain,
    which is the regime where adaptive stepsizes pay off. The recorded
    smoothness constant is the upper bound max_i ||a_i||^2 / mu; a
    smoothing so small that this bound overflows raises ``ValueError``.
    The shifted-exponent evaluation cannot overflow.
    """
    if n_terms < 2:
        raise ValueError("n_terms must be >= 2")
    if not 0.0 < smoothing < np.inf:
        raise ValueError("smoothing must be positive and finite")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_terms, dim))
    b = rng.standard_normal(n_terms)
    mu = float(smoothing)
    L = float(np.max(np.sum(A * A, axis=1))) / mu
    if not math.isfinite(L):
        raise ValueError(f"logsumexp smoothness constant L = {L} is not finite: "
                         f"max_i ||a_i||^2 / mu overflows (mu = {mu:g})")
    return Problem(
        oracle=Oracle(partial(kernels.logsumexp_value_grad, A, b, mu), dim,
                      label=f"logsumexp(seed={seed},dim={dim},terms={n_terms},mu={mu:g})",
                      rows=True),
        L=L,
        label=f"logsumexp_d{dim}_t{n_terms}_mu{mu:g}_s{seed}",
    )
