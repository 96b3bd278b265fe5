"""Hot numeric kernels in vectorized numpy.

One implementation per operation: the structured oracles (quadratic,
regularized logistic over CSR data, smoothed max of affine terms) and
the fused per-iteration vector update of the accelerated solver. Each
kernel is deterministic: the same inputs give the same bits.

Dense products are ``ndarray.dot`` calls: the same BLAS routines and
bits as ``@``, without the per-call dispatch of the matmul gufunc.

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

def logsumexp_value_grad(A, b, mu, x):
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


# ---------------------------------------------------------------------------
# fused per-iteration vector updates of the accelerated solver
# ---------------------------------------------------------------------------

def step_update(x, x_bar, x_tilde, g_tilde, eta, beta, theta, alpha_next):
    x_next = x - eta * g_tilde
    xbar_next = beta * x_tilde + (1.0 - beta) * x_bar
    xhat_next = x_next + theta * (x_next - x)
    xt_next = alpha_next * xhat_next + (1.0 - alpha_next) * xbar_next
    return x_next, xbar_next, xhat_next, xt_next
