"""Hot numeric kernels in vectorized numpy.

One implementation per operation: the structured oracles (quadratic,
regularized logistic over CSR data, smoothed max of affine terms) and
the fused per-iteration vector update of the accelerated solver. Each
kernel is deterministic: the same inputs give the same bits.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# quadratic objective: f(x) = 0.5 x'Ax - b'x, grad = Ax - b
# ---------------------------------------------------------------------------

def quad_value_grad(A, b, x):
    Ax = A @ x
    value = 0.5 * float(x @ Ax) - float(b @ x)
    return value, Ax - b


# ---------------------------------------------------------------------------
# regularized logistic loss over CSR data
#   f(w) = (1/n) sum_i log(1 + exp(-y_i a_i'w)) + (reg/2) ||w||^2
# ---------------------------------------------------------------------------

def logistic_value_grad(row, indices, data, y, reg, w):
    # row[j] is the sample of stored entry j, the CSR row index built once
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


# ---------------------------------------------------------------------------
# smoothed max of affine terms: f(x) = mu * log sum_i exp((a_i'x - b_i)/mu)
# ---------------------------------------------------------------------------

def logsumexp_value_grad(A, b, mu, x):
    z = (A @ x - b) / mu
    m = float(z.max())
    p = np.exp(z - m)
    s = float(p.sum())
    value = mu * (m + np.log(s))
    return value, (p / s) @ A


# ---------------------------------------------------------------------------
# fused per-iteration vector updates of the accelerated solver
# ---------------------------------------------------------------------------

def step_update(x, x_bar, x_tilde, g_tilde, eta, beta, theta, alpha_next):
    x_next = x - eta * g_tilde
    xbar_next = beta * x_tilde + (1.0 - beta) * x_bar
    xhat_next = x_next + theta * (x_next - x)
    xt_next = alpha_next * xhat_next + (1.0 - alpha_next) * xbar_next
    return x_next, xbar_next, xhat_next, xt_next
