"""First-order oracle: objective value and gradient in one call.

Each result carries the squared norms of its gradient and of its query
point, computed once when the result is made. The curvature estimates,
the finiteness checks and the recorded gradient norm all read them
instead of forming the same inner products again. The solver step,
which has already squared and checked its points, hands those squares
to :func:`_evaluate` and skips the point checks of :func:`evaluate`.
:func:`evaluate_rows` is :func:`evaluate` over the rows of a block, with
the checks and squares taken row-wise, for the certificate replay.
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


class Oracle:
    """Wraps a function ``fn(x) -> (value, grad)`` with a fixed dimension.

    Oracles are immutable after construction and safe to share across
    runs; a run counts its calls of ``fn`` through a copy of the oracle
    that the run loop makes.
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


def evaluate(oracle: Oracle, x) -> OracleResult:
    """Evaluate f and grad f at ``x`` in a single call of ``oracle.fn``.

    Raises :class:`DimensionMismatchError` if the point or the gradient
    has the wrong shape or the value is not a scalar, and
    :class:`NonFiniteError` if the query point or the oracle output is
    not finite (the latter signals a defective or overflowing problem
    instance). Both finiteness checks come from the squared norms that
    the result carries.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_point_shape(oracle, x.shape)
    x_sq = sq_norm(x)
    if not all_finite(x, x_sq):
        raise NonFiniteError("query point contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        return _evaluate(oracle, x, x_sq)


def _check_point_shape(oracle: Oracle, shape: tuple) -> None:
    if shape != (oracle.dim,):
        raise DimensionMismatchError(
            f"query point has shape {shape}, oracle expects ({oracle.dim},)"
        )


def _evaluate(oracle: Oracle, x: np.ndarray, x_sq: float) -> OracleResult:
    """:func:`evaluate` at a finite float64 point of the oracle's shape
    with squared norm ``x_sq``, inside the caller's ``np.errstate``."""
    value, grad = _call(oracle, x)
    grad_sq = sq_norm(grad)
    if not (math.isfinite(value) and all_finite(grad, grad_sq)):
        raise NonFiniteError(f"oracle {oracle.label!r} returned non-finite output")
    return OracleResult(value, grad, x, grad_sq, x_sq)


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


def _rows_finite(m: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """:func:`all_finite` of each row of ``m``, given ``sq``, its rows' squared norms."""
    finite = np.isfinite(sq)
    if not finite.all():
        finite[~finite] = np.isfinite(m[~finite]).all(axis=1)
    return finite


def evaluate_rows(oracle: Oracle, *blocks) -> tuple[OracleResult, ...]:
    """:func:`evaluate` at each row of the equal-shaped (n, d) ``blocks``,
    one stacked result per block: (n,) values and squared norms, (n, d)
    gradients and points.

    ``oracle.fn`` is called at row 0 of every block in turn, then at row
    1, and so on. The point shapes are checked once, and the points and
    the outputs are squared and checked for finiteness row-wise, with
    the bits of :func:`evaluate`, all inside one ``np.errstate``. The
    first call that fails, in call order, raises what :func:`evaluate`
    raises there; calls after a non-finite output may already have run.
    """
    blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
    for b in blocks:
        _check_point_shape(oracle, b.shape[1:])
    points = np.stack(blocks, axis=1).reshape(-1, oracle.dim)  # in call order
    values, grads = np.empty(len(points)), np.empty_like(points)
    with np.errstate(over="ignore", invalid="ignore"):
        x_sq = np.vecdot(points, points)
        bad = np.flatnonzero(~_rows_finite(points, x_sq))
        n, error = len(points), None
        if len(bad):
            n, error = bad[0], NonFiniteError("query point contains non-finite entries")
        for i in range(n):
            try:
                values[i], grads[i] = _call(oracle, points[i])
            except DimensionMismatchError as e:  # raised once the outputs before it pass
                n, error = i, e
                break
        values, grads = values[:n], grads[:n]
        grad_sq = np.vecdot(grads, grads)
        if not (np.isfinite(values).all() and _rows_finite(grads, grad_sq).all()):
            raise NonFiniteError(f"oracle {oracle.label!r} returned non-finite output")
    if error is not None:
        raise error
    m = len(blocks)
    return tuple(OracleResult(values[j::m], grads[j::m], b, grad_sq[j::m], x_sq[j::m])
                 for j, b in enumerate(blocks))


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
