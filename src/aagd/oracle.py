"""First-order oracle: objective value and gradient in one counted call.

Each result carries the squared norms of its gradient and of its query
point, computed once when the result is made. The curvature estimates,
the finiteness checks and the recorded gradient norm all read them
instead of forming the same inner products again. The solver step,
which has already squared and checked its points, hands those squares
to :func:`_evaluate` and skips the point checks of :func:`evaluate`.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np


class OracleError(Exception):
    """Base class for oracle failures."""


class DimensionMismatchError(OracleError):
    pass


class NonFiniteError(OracleError):
    """Raised when a query point or an oracle output is not finite."""


def sq_norm(v: np.ndarray) -> float:
    """Squared Euclidean norm. Overflows to inf without a warning (``@`` warns)."""
    return float(np.vdot(v, v))


def all_finite(v: np.ndarray, sq: float) -> bool:
    """Whether every entry of ``v`` is finite, given ``sq = sq_norm(v)``.

    A non-finite entry makes the squared norm inf or nan, so a finite
    ``sq`` settles it; only a non-finite one needs the entrywise test,
    which accepts a finite vector whose square overflowed.
    """
    return math.isfinite(sq) or bool(np.isfinite(v).all())


class OracleResult(namedtuple("OracleResult", "value grad x grad_sq x_sq")):
    """Value and gradient of f at a point, with the query point cached.

    The cached point is what lets curvature estimates be formed later
    without re-querying the oracle. ``grad_sq`` and ``x_sq`` are the
    squared norms of ``grad`` and ``x``; :func:`evaluate` passes them in,
    and a result built by hand as ``OracleResult(value, grad, x)`` gets
    them computed on construction. Two results are equal only if they
    are the same object.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, value: float, grad: np.ndarray, x: np.ndarray,
                grad_sq: float | None = None, x_sq: float | None = None):
        if grad_sq is None:
            grad_sq = sq_norm(grad)
        if x_sq is None:
            x_sq = sq_norm(x)
        return super().__new__(cls, value, grad, x, grad_sq, x_sq)


class EvalCounter:
    """Counts combined value+gradient evaluations. One unit per call."""

    __slots__ = ("n_value_grad",)

    def __init__(self) -> None:
        self.n_value_grad = 0

    def add(self) -> None:
        self.n_value_grad += 1

    def __repr__(self) -> str:
        return f"EvalCounter(n_value_grad={self.n_value_grad})"


class Oracle:
    """Wraps a function ``fn(x) -> (value, grad)`` with a fixed dimension.

    Oracles are immutable after construction and safe to share across
    runs; counting is carried by the per-run :class:`EvalCounter` passed
    to :func:`evaluate`.
    """

    __slots__ = ("fn", "dim", "label")

    def __init__(self, fn, dim: int, label: str = "f") -> None:
        if dim < 1:
            raise ValueError("oracle dimension must be >= 1")
        self.fn = fn
        self.dim = int(dim)
        self.label = label

    def __repr__(self) -> str:
        return f"Oracle({self.label!r}, dim={self.dim})"


def evaluate(oracle: Oracle, x, counter: EvalCounter | None = None) -> OracleResult:
    """Evaluate f and grad f at ``x`` in a single call.

    Increments ``counter`` by one when given. Raises
    :class:`DimensionMismatchError` on shape mismatch and
    :class:`NonFiniteError` if the query point or the oracle output is
    not finite (the latter signals a defective or overflowing problem
    instance). Both finiteness checks come from the squared norms that
    the result carries.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (oracle.dim,):
        raise DimensionMismatchError(
            f"query point has shape {x.shape}, oracle expects ({oracle.dim},)"
        )
    x_sq = sq_norm(x)
    if not all_finite(x, x_sq):
        raise NonFiniteError("query point contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        return _evaluate(oracle, x, x_sq, counter)


def _evaluate(oracle: Oracle, x: np.ndarray, x_sq: float,
              counter: EvalCounter | None) -> OracleResult:
    """:func:`evaluate` at a finite float64 point of the oracle's shape
    with squared norm ``x_sq``, inside the caller's ``np.errstate``."""
    value, grad = oracle.fn(x)
    value = float(value)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != x.shape:
        raise DimensionMismatchError(
            f"oracle returned gradient of shape {grad.shape} for point of shape {x.shape}"
        )
    grad_sq = sq_norm(grad)
    if not (math.isfinite(value) and all_finite(grad, grad_sq)):
        raise NonFiniteError(f"oracle {oracle.label!r} returned non-finite output")
    if counter is not None:
        counter.add()
    return OracleResult(value, grad, x, grad_sq, x_sq)


def finite_diff_check(oracle: Oracle, x, h: float | None = None) -> float:
    """Max relative error of the gradient against central differences.

    ``h`` defaults to ``1e-5 * max(1, ||x||_inf)``. Evaluations made here
    are never counted against a solver's :class:`EvalCounter`.
    """
    x = np.asarray(x, dtype=np.float64)
    if h is None:
        h = 1e-5 * max(1.0, float(np.max(np.abs(x))))
    if not h > 0.0:
        raise ValueError("finite-difference step must be positive")
    g = evaluate(oracle, x).grad
    worst = 0.0
    e = np.zeros_like(x)
    for i in range(x.shape[0]):
        e[i] = h
        fp = evaluate(oracle, x + e).value
        fm = evaluate(oracle, x - e).value
        e[i] = 0.0
        fd = (fp - fm) / (2.0 * h)
        err = abs(fd - g[i]) / max(1.0, abs(g[i]))
        if err > worst:
            worst = err
    return worst
