"""Hot numeric kernels in vectorized numpy.

One implementation per operation: the structured oracles (quadratic,
regularized logistic over CSR data, smoothed max of affine terms) and
the fused per-iteration vector update of the accelerated solver. Each
kernel is deterministic: the same inputs give the same bits.

Sparse products ``A x`` and ``A' u`` go through one segment-sum helper
over a :class:`CsrLayout`, built once per dataset. Each side (rows for
``A x``, columns for ``A' u``) sorts its segments by entry count and
cuts them into groups whose longest member is at most 1.125 times its
shortest. A group is stored as a zero-padded, position-major
``(length x members)`` block of stored values and source indices, so a
product is one gather, one multiply and one ``np.add.reduce`` over axis
0 per group. Padding stays within 12.5% of nnz, plus one slot per lone
segment, on any sparsity pattern; one padded CSC block would grow to
n x d as soon as one column is present in every row.

A block at least two wide is reduced row by row, so every segment adds
its products from 0.0 in CSR order, which is the order ``np.bincount``
adds its weights in: the sums are bit-identical to ``bincount``'s, and
trailing zero padding leaves them unchanged. A lone segment is the
exception: numpy reduces a one-wide block pairwise once it has 8 terms.
So a group with one member is stored behind a leading 0.0 and summed in
sequence by ``np.cumsum``.
"""
from __future__ import annotations

from typing import NamedTuple

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
# sparse products A x and A' u as segment sums over padded blocks
# ---------------------------------------------------------------------------

_GROUP_RATIO = 1.125  # longest over shortest segment of a group, at most
_ZERO = np.zeros(1)


class _Side(NamedTuple):
    """Segment sums of ``vals[j] * x[src[j]]``, laid out in padded blocks.

    ``take`` and ``vals`` hold each block's source indices and stored
    values, position-major; padding slots take the zero appended to x
    and hold 0.0. ``blocks`` lists ``(lo, hi, first, last)``: the block
    is ``[lo, hi)`` of the padded arrays and sums segments of sorted
    rank ``first`` to ``last - 1``. ``rank`` maps segment to sorted rank.
    """

    take: np.ndarray
    vals: np.ndarray
    blocks: tuple
    rank: np.ndarray


def _side(seg, src, vals, n_seg, n_src):
    """Lay out one side from entries sorted stably by segment ``seg``."""
    counts = np.bincount(seg, minlength=n_seg)
    by_len = np.argsort(counts, kind="stable")
    lengths = counts[by_len]
    # group key: 0 for empty segments, else the _GROUP_RATIO-geometric bucket
    key = np.zeros(n_seg, dtype=np.intp)
    full = lengths > 0
    key[full] = 1 + np.floor(np.log(lengths[full]) / np.log(_GROUP_RATIO)).astype(np.intp)
    first = np.flatnonzero(np.diff(key, prepend=-1))
    members = np.diff(first, append=n_seg)
    lead = (members == 1).astype(np.intp)  # a lone segment gets a leading 0.0
    size = (lengths[first + members - 1] + lead) * members
    start = np.cumsum(size) - size
    rank = np.empty(n_seg, dtype=np.intp)
    rank[by_len] = np.arange(n_seg)
    # entry at position p of the segment of rank r in group g sits at
    # start[g] + (p + lead[g]) * members[g] + (r - first[g])
    r = rank[seg]
    g = np.repeat(np.arange(first.size), members)[r]
    pos = np.arange(seg.size) - (np.cumsum(counts) - counts)[seg]
    pos *= members[g]
    pos += r
    pos += (start + lead * members - first)[g]
    take = np.full(int(size.sum()), n_src, dtype=np.intp)
    take[pos] = src
    padded = np.zeros(take.size)
    padded[pos] = vals
    blocks = tuple(zip(start.tolist(), (start + size).tolist(), first.tolist(),
                       (first + members).tolist()))
    return _Side(take, padded, blocks, rank)


def _segment_sums(side, x):
    prod = np.concatenate((x, _ZERO)).take(side.take)
    prod *= side.vals
    out = np.empty(side.rank.size)
    for lo, hi, first, last in side.blocks:
        if last - first == 1:
            # numpy would reduce a one-wide block pairwise; the leading 0.0
            # makes the running sum start where bincount's does
            out[first] = np.cumsum(prod[lo:hi])[-1]
        else:
            np.add.reduce(prod[lo:hi].reshape(-1, last - first), axis=0, initial=0.0,
                          out=out[first:last])
    return out[side.rank]


class CsrLayout:
    """A CSR matrix laid out for ``A x`` (rows) and ``A' u`` (columns).

    Both products add each segment's terms from 0.0 in CSR order, bit for
    bit as ``np.bincount`` over the stored entries would.
    """

    def __init__(self, indptr, indices, data, n_cols):
        n = len(indptr) - 1
        row = np.repeat(np.arange(n), np.diff(indptr))
        by_col = np.argsort(indices, kind="stable")
        self.rows = _side(row, indices, data, n, n_cols)
        self.cols = _side(indices[by_col], row[by_col], data[by_col], n_cols, n)

    def matvec(self, x):
        return _segment_sums(self.rows, x)

    def rmatvec(self, u):
        return _segment_sums(self.cols, u)


# ---------------------------------------------------------------------------
# regularized logistic loss over CSR data
#   f(w) = (1/n) sum_i log(1 + exp(-y_i a_i'w)) + (reg/2) ||w||^2
# ---------------------------------------------------------------------------

def logistic_value_grad(layout, y, reg, w):
    """Mean logistic loss over ``layout``'s rows plus ``reg/2 ||w||^2``, and its gradient.

    The margins ``A w`` and the gradient ``A' coef`` are segment sums
    over the layout (see the module docstring), bit-identical to
    ``np.bincount`` over the CSR entries. The sigmoid takes ``exp`` of
    ``-|t|`` only, so it cannot overflow.
    """
    n = y.shape[0]
    t = y * layout.matvec(w)
    loss = float(np.mean(np.logaddexp(0.0, -t)))
    # coef_i = -y_i * sigmoid(-t_i) / n
    e = np.exp(-np.abs(t))
    q = 1.0 + e
    sig = np.where(t >= 0.0, e / q, 1.0 / q)
    g = layout.rmatvec(-y * sig / n)
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
