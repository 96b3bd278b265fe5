"""First-order oracle: objective value and gradient in one call.

Each result carries the squared norms of its gradient and of its query
point, computed once when the result is made. The curvature estimates,
the finiteness checks and the recorded gradient norm all read them
instead of forming the same inner products again. :func:`_evaluate`
checks every point a run queries, and a run's start point reaches it
through :func:`evaluate`. Inside a run the float error state is the run
loop's: the step and the baselines call :func:`_evaluate`, which enters
no ``np.errstate``.
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
    squared norms of ``grad`` and ``x``; the evaluations hold both and
    build the tuple directly, and a result built by hand as
    ``OracleResult(value, grad, x)`` gets them computed on construction.
    Two results are equal only if they are the same object.
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


class Oracle:
    """Wraps a function ``fn(x) -> (value, grad)`` with a fixed dimension.

    ``rows=True`` declares that ``fn`` also takes a C-contiguous (n, d)
    stack of points and returns (n,) values and (n, d) gradients, row r
    bit-equal to the call at row r; the certificate replay then evaluates
    a block's distinct points in one call. The built-in dense problems
    declare it; any other ``fn`` is called one point at a time.

    Oracles are immutable after construction and safe to share across
    runs; a run counts its calls of ``fn`` through a copy of the oracle
    that the run loop makes.
    """

    __slots__ = ("fn", "dim", "label", "rows")

    def __init__(self, fn, dim: int, label: str = "f", rows: bool = False) -> None:
        if dim < 1:
            raise ValueError("oracle dimension must be >= 1")
        self.fn = fn
        self.dim = int(dim)
        self.label = label
        self.rows = bool(rows)

    def __repr__(self) -> str:
        return f"Oracle({self.label!r}, dim={self.dim})"


def evaluate(oracle: Oracle, x) -> OracleResult:
    """Evaluate f and grad f at ``x`` in a single call of ``oracle.fn``.

    Raises :class:`DimensionMismatchError` if the point or the gradient
    has the wrong shape or the value is not a scalar, and
    :class:`NonFiniteError` if the query point or the oracle output is
    not finite (the latter signals a defective or overflowing problem
    instance). Both finiteness checks come from the squared norms that
    the result carries. It raises no float warning: it converts and
    shape-checks ``x`` and calls :func:`_evaluate`, inside the
    ``np.errstate`` that a run enters once instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (oracle.dim,):
            raise DimensionMismatchError(
                f"query point has shape {x.shape}, oracle expects ({oracle.dim},)")
        return _evaluate(oracle, x)


def _evaluate(oracle: Oracle, x: np.ndarray) -> OracleResult:
    """:func:`evaluate` at a float64 point of the oracle's shape, inside
    the caller's ``np.errstate``: the point and the outputs are checked."""
    x_sq = sq_norm(x)
    if not all_finite(x, x_sq):
        raise NonFiniteError("query point contains non-finite entries")
    value, grad = _call(oracle, x)
    grad_sq = sq_norm(grad)
    if not (math.isfinite(value) and all_finite(grad, grad_sq)):
        raise NonFiniteError(f"oracle {oracle.label!r} returned non-finite output")
    # both squares are in hand, so skip the defaulting OracleResult.__new__
    return tuple.__new__(OracleResult, (value, grad, x, grad_sq, x_sq))


def _call(oracle: Oracle, x: np.ndarray) -> tuple[float, np.ndarray]:
    """``oracle.fn`` at ``x``: its value as a float and its gradient as
    float64, or :class:`DimensionMismatchError` if either has the wrong shape."""
    value, grad = oracle.fn(x)
    try:
        value = float(value)
    except TypeError:
        if np.ndim(value) == 0:
            raise
        raise DimensionMismatchError(
            f"oracle returned a value of shape {np.shape(value)}, not a scalar") from None
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != x.shape:
        raise DimensionMismatchError(
            f"oracle returned gradient of shape {grad.shape} for point of shape {x.shape}"
        )
    return value, grad


def _call_rows(oracle: Oracle, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``oracle.fn`` at the (m, d) stack ``X`` of an oracle that declares
    ``rows``: its (m,) values and (m, d) gradients as float64, or
    :class:`DimensionMismatchError` if either has another shape."""
    values, grads = oracle.fn(X)
    values, grads = np.asarray(values, dtype=np.float64), np.asarray(grads, dtype=np.float64)
    if values.shape != X.shape[:1]:
        raise DimensionMismatchError(
            f"oracle returned values of shape {values.shape} for points of shape {X.shape}")
    if grads.shape != X.shape:
        raise DimensionMismatchError(
            f"oracle returned gradients of shape {grads.shape} for points of shape {X.shape}")
    return values, grads


def finite_diff_check(oracle: Oracle, x, h: float | None = None) -> float:
    """Max relative error of the gradient against central differences.

    ``h`` defaults to ``1e-5 * max(1, ||x||_inf)``. Its calls are made
    outside any solver run, so no trace counts them.
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
