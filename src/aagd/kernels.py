"""Hot numeric kernels in vectorized numpy.

One implementation per operation: the structured oracles (quadratic,
regularized logistic over CSR data, smoothed max of affine terms) and
the fused per-iteration vector update of the accelerated solver. Each
kernel is deterministic: the same inputs give the same bits.

Dense products are ``ndarray.dot`` calls: the same BLAS routines and
bits as ``@``, without the per-call dispatch of the matmul gufunc.

The dense kernels also take a C-contiguous stack ``X`` of n points as an
(n, d) array and return (n,) values and (n, d) gradients; row r is the
point call at ``X[r]``, bit for bit. The stack path forms ``A x`` per row
as the broadcast ``np.matmul(A, X[..., None])``, which runs the point
call's gemv once per row, never as ``X @ A.T``, whose gemm gives other
bits. Its inner products are ``np.vecdot`` and its sums and maxima run
along the last axis of C-contiguous arrays, as the point call's do.

Sparse products ``A x`` and ``A' u`` take a layout: the pair ``(A, AT)``
of scipy CSR matrices that ``SparseDataset.layout`` builds once per
dataset. scipy is imported there, so quadratic and logsumexp runs never
load it.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# quadratic objective: f(x) = 0.5 x'Ax - b'x, grad = Ax - b
# ---------------------------------------------------------------------------

def quad_value_grad(A, b, x):
    if x.ndim == 2:
        AX = np.matmul(A, x[..., None])[..., 0]
        return 0.5 * np.vecdot(x, AX) - np.vecdot(x, b), AX - b
    Ax = A.dot(x)
    value = 0.5 * float(x.dot(Ax)) - float(b.dot(x))
    return value, Ax - b


# ---------------------------------------------------------------------------
# regularized logistic loss over CSR data
#   f(w) = (1/n) sum_i log(1 + exp(-y_i a_i'w)) + (reg/2) ||w||^2
# ---------------------------------------------------------------------------

def logistic_value_grad(layout, y, reg, w):
    """Mean logistic loss over ``layout``'s rows plus ``reg/2 ||w||^2``, and its gradient.

    The margins ``A w`` and the gradient ``A' coef`` are the products of
    the layout's CSR pair ``(A, AT)``. One ``e = exp(-|t|)`` serves the
    loss ``log1p(e) + max(-t, 0)``, within 2 ulps of ``logaddexp(0, -t)``,
    and the sigmoid ``where(t >= 0, e, 1) / (1 + e)``, so neither can
    overflow.
    """
    A, AT = layout
    n = y.shape[0]
    t = y * (A @ w)
    e = np.exp(-np.abs(t))
    loss = float(np.mean(np.log1p(e) + np.maximum(-t, 0.0)))
    # coef_i = -y_i * sigmoid(-t_i) / n
    sig = np.where(t >= 0.0, e, 1.0) / (1.0 + e)
    g = AT @ (-y * sig / n)
    if reg != 0.0:
        loss += 0.5 * reg * float(w.dot(w))
        g = g + reg * w
    return loss, g


# ---------------------------------------------------------------------------
# smoothed max of affine terms: f(x) = mu * log sum_i exp((a_i'x - b_i)/mu)
# ---------------------------------------------------------------------------

# floats of the (rows, terms) exponent block that one stacked step holds
TERM_BLOCK = 65536


def logsumexp_value_grad(A, b, mu, x):
    if x.ndim == 2:
        return _logsumexp_rows(A, b, mu, x)
    z = A.dot(x)
    z -= b
    z /= mu
    m = float(z.max())
    z -= m
    np.exp(z, out=z)
    s = float(z.sum())
    value = mu * (m + np.log(s))
    z /= s
    return value, z.dot(A)


def _logsumexp_rows(A, b, mu, X):
    """:func:`logsumexp_value_grad` at each row of ``X``, taken
    max(1, TERM_BLOCK // terms) rows at a time."""
    values, grads = np.empty(len(X)), np.empty_like(X)
    step = max(1, TERM_BLOCK // len(A))
    for r in range(0, len(X), step):
        Z = np.matmul(A, X[r:r + step, :, None])[..., 0]
        Z -= b
        Z /= mu
        m = Z.max(axis=-1)
        Z -= m[:, None]
        np.exp(Z, out=Z)
        s = Z.sum(axis=-1)
        values[r:r + step] = mu * (m + np.log(s))
        Z /= s[:, None]
        grads[r:r + step] = np.matmul(Z[:, None, :], A)[:, 0, :]
        del Z  # before the next chunk's product, so that one block is held at a time
    return values, grads


# ---------------------------------------------------------------------------
# fused per-iteration vector updates of the accelerated solver
# ---------------------------------------------------------------------------

def step_update(x, x_bar, x_tilde, g_tilde, eta, beta, theta, alpha_next):
    x_next = x - eta * g_tilde
    xbar_next = beta * x_tilde + (1.0 - beta) * x_bar
    xhat_next = x_next + theta * (x_next - x)
    xt_next = alpha_next * xhat_next + (1.0 - alpha_next) * xbar_next
    return x_next, xbar_next, xhat_next, xt_next
