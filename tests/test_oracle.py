import math
import warnings

import numpy as np
import pytest

from aagd import (DimensionMismatchError, NonFiniteError, Oracle,
                  evaluate, finite_diff_check, identity_quadratic,
                  logistic_problem, logsumexp_problem, make_classification_dataset,
                  make_quadratic)
from aagd.diagnostics import _evaluate_rows
from aagd.oracle import _call
from aagd.problems import SparseDataset


def two_sample_dataset():
    # sample 1: y=+1, a=(1, 0); sample 2: y=-1, a=(0.5, -2)
    return SparseDataset(
        indptr=np.array([0, 1, 3]),
        indices=np.array([0, 0, 1]),
        data=np.array([1.0, 0.5, -2.0]),
        labels=np.array([1.0, -1.0]),
        n_features=2,
    )


def test_evaluate_quadratic_identity():
    p = identity_quadratic(2)
    res = evaluate(p.oracle, np.array([3.0, 4.0]))
    assert res.value == 12.5
    assert np.array_equal(res.grad, [3.0, 4.0])


def test_evaluate_at_minimum():
    p = identity_quadratic(2)
    res = evaluate(p.oracle, np.zeros(2))
    assert res.value == 0.0
    assert np.array_equal(res.grad, np.zeros(2))


def test_logistic_oracle_at_zero():
    p = logistic_problem(two_sample_dataset())
    res = evaluate(p.oracle, np.zeros(2))
    assert res.value == pytest.approx(np.log(2.0), rel=1e-15)
    # hand evaluation: every sigmoid is 1/2, so the gradient is
    # -(1/n) sum_i y_i a_i / 2
    a1, a2 = np.array([1.0, 0.0]), np.array([0.5, -2.0])
    expected = -0.5 * 0.5 * (1.0 * a1 + (-1.0) * a2)
    assert np.allclose(res.grad, expected, atol=1e-15)


def test_evaluate_deterministic():
    p = make_quadratic(3, 20, 50.0)
    x = np.random.default_rng(0).standard_normal(20)
    r1 = evaluate(p.oracle, x)
    r2 = evaluate(p.oracle, x)
    assert r1.value == r2.value
    assert np.array_equal(r1.grad, r2.grad)


def test_dimension_mismatch():
    p = identity_quadratic(3)
    with pytest.raises(DimensionMismatchError):
        evaluate(p.oracle, np.ones(4))


@pytest.mark.parametrize("dim", [0, -3])
def test_oracle_rejects_nonpositive_dimension(dim):
    with pytest.raises(ValueError, match="^oracle dimension must be >= 1$"):
        Oracle(lambda x: (0.0, x), dim)


def test_oracle_repr_names_label_and_dim():
    assert repr(Oracle(lambda x: (0.0, x), 3, "f")) == "Oracle('f', dim=3)"


def test_non_finite_query_rejected():
    p = identity_quadratic(2)
    with pytest.raises(NonFiniteError):
        evaluate(p.oracle, np.array([1.0, np.nan]))


def test_defective_oracle_detected():
    bad = Oracle(lambda x: (np.nan, x), 2, label="broken")
    with pytest.raises(NonFiniteError):
        evaluate(bad, np.ones(2))


def test_finite_diff_quadratic_exact():
    p = identity_quadratic(4)
    x = np.array([0.3, -1.2, 2.0, 0.0])
    assert finite_diff_check(p.oracle, x, h=1e-6) <= 1e-6


def test_finite_diff_logistic_seeded():
    p = logistic_problem(make_classification_dataset(5, 60, 8), reg=1e-3)
    x = np.random.default_rng(0).standard_normal(8)
    assert finite_diff_check(p.oracle, x, h=1e-5) <= 1e-5


def test_finite_diff_invalid_step():
    p = identity_quadratic(2)
    with pytest.raises(ValueError):
        finite_diff_check(p.oracle, np.ones(2), h=0.0)


@pytest.mark.parametrize("problem", [
    identity_quadratic(10),
    make_quadratic(7, 40, 1e4),
    logistic_problem(make_classification_dataset(11, 120, 15), reg=1e-3),
    logsumexp_problem(3, 12, 30, 0.1),
], ids=["identity", "quadratic", "logistic", "logsumexp"])
def test_finite_diff_all_problems_100_points(problem):
    rng = np.random.default_rng(2024)
    for _ in range(100):
        x = rng.standard_normal(problem.dim)
        assert finite_diff_check(problem.oracle, x) <= 1e-5


# Finiteness comes from the squared norms each result carries; a non-finite
# square falls back to the entrywise test, so only a real inf or nan is rejected.
HUGE = np.full(3, 1e200)  # finite, but its squared norm overflows
LOGISTIC3 = logistic_problem(make_classification_dataset(4, 30, 3), reg=1e-3)
LINEAR = Oracle(lambda x: (float(np.sum(x)), np.ones_like(x)), 3, label="linear")


def test_finite_vectors_with_overflowing_square_accepted():
    steep = Oracle(lambda x: (1.0, 1e200 * np.ones_like(x)), 3, label="steep")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_huge = evaluate(LINEAR, HUGE)
        huge_grad = evaluate(steep, np.ones(3))
    assert at_huge.x_sq == math.inf and np.array_equal(at_huge.x, HUGE)
    assert huge_grad.grad_sq == math.inf and huge_grad.x_sq == 3.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_rejected_beside_huge_ones(bad):
    x = HUGE.copy()
    x[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="query point contains non-finite entries"):
            evaluate(LINEAR, x)
        broken = Oracle(lambda z: (1.0, np.where(z > 0.0, bad, 1e200)), 3, label="broken")
        with pytest.raises(NonFiniteError, match="oracle 'broken' returned non-finite output"):
            evaluate(broken, np.array([-1.0, 1.0, -1.0]))


def test_result_norms_are_squared_norms():
    p = make_quadratic(5, 30, 10.0)
    x = np.linspace(-1.0, 2.0, 30)
    res = evaluate(p.oracle, x)
    assert res.grad_sq == float(res.grad @ res.grad)
    assert res.x_sq == float(x @ x)


def _assert_rows_match_evaluate(oracle, stacked, points):
    assert np.array_equal(stacked.x, points)
    for r, x in enumerate(points):
        one = evaluate(oracle, x)
        for field in ("value", "grad", "grad_sq", "x_sq"):
            got, want = getattr(stacked, field)[r], getattr(one, field)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field


@pytest.mark.parametrize("problem", [
    make_quadratic(7, 40, 1e4),
    logistic_problem(make_classification_dataset(11, 120, 15), reg=1e-3),
    logsumexp_problem(3, 12, 30, 0.1),
], ids=["quadratic", "logistic", "logsumexp"])
def test_evaluate_rows_matches_evaluate_bits(problem):
    points = np.random.default_rng(5).standard_normal((18, problem.dim))
    calls = []
    oracle = Oracle(lambda x: calls.append(x.copy()) or problem.oracle.fn(x), problem.dim)
    stacked = _evaluate_rows(oracle, points)
    assert np.array_equal(np.array(calls), points)  # in row order
    _assert_rows_match_evaluate(problem.oracle, stacked, points)


def test_evaluate_rows_accepts_rows_with_overflowing_squares():
    steep = Oracle(lambda x: (1.0, 1e200 * np.ones_like(x)), 3, label="steep")
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        at_huge = _evaluate_rows(LINEAR, np.stack([HUGE, np.ones(3)]))
        huge_grad = _evaluate_rows(steep, np.ones((2, 3)))
    assert at_huge.x_sq.tolist() == [math.inf, 3.0] and at_huge.value.tolist() == [3e200, 3.0]
    assert huge_grad.grad_sq.tolist() == [math.inf, math.inf]


def _value_of_shape_one(x):
    return np.array([1.0]), np.ones_like(x)


def test_non_scalar_value_is_a_dimension_mismatch():
    oracle = Oracle(_value_of_shape_one, 3, label="vector")
    message = r"value of shape \(1,\) for point of shape \(3,\)$"
    with pytest.raises(DimensionMismatchError, match=message):
        evaluate(oracle, np.ones(3))
    with pytest.raises(DimensionMismatchError, match=message):
        _evaluate_rows(oracle, np.ones((2, 3)))


def test_non_numeric_value_keeps_its_type_error():
    with pytest.raises(TypeError):
        evaluate(Oracle(lambda x: (None, x), 3), np.ones(3))


def _first_error(fn):
    try:
        fn()
    except Exception as e:
        return type(e), str(e)
    return None


def _fn_failing(failures, base=None):
    """A linear fn, or ``base``, whose output fails as ``failures[x[0]]`` says."""
    def fn(x):
        how = failures.get(float(x[0]))
        value, grad = base(x) if base else (float(np.sum(x)), np.ones_like(x))
        if how == "nan_value":
            return math.nan, grad
        if how == "inf_grad":
            return value, np.full_like(x, math.inf)
        if how == "short_grad":
            return value, grad[:-1]
        if how == "vector_value":
            return np.array([value]), grad
        return value, grad
    return fn


@pytest.mark.parametrize("failures, raised", [
    ({}, None),
    ({3.0: "nan_value"}, NonFiniteError),
    ({4.0: "inf_grad"}, NonFiniteError),
    ({5.0: "short_grad"}, DimensionMismatchError),
    ({3.0: "vector_value"}, DimensionMismatchError),
    ({3.0: "nan_value", 4.0: "short_grad"}, NonFiniteError),
    ({3.0: "short_grad", 4.0: "nan_value"}, DimensionMismatchError),
], ids=["none", "value", "grad", "grad_shape", "value_shape", "value_then_grad_shape",
        "grad_shape_then_value"])
@pytest.mark.parametrize("base", [None, LOGISTIC3.oracle.fn], ids=["linear", "logistic"])
def test_evaluate_rows_raises_what_evaluate_raises_first(failures, raised, base):
    # every output failure that evaluate raises, alone and after an earlier
    # one in call order; x[0] numbers the calls 0, 1, 2, ..., and failures
    # maps a call to the way its output fails. An oracle without rows is
    # called at a stack row by row, each row checked as a point: a stack
    # returns the bits of the point calls, or raises at the first failing row
    points = np.ones((8, 3))
    points[:, 0] = np.arange(8.0)
    fn, calls = _fn_failing(failures, base), []
    oracle = Oracle(lambda x: calls.append(x[0]) or fn(x), 3)
    errors = [e for x in points if (e := _first_error(lambda: evaluate(oracle, x)))]
    first = (errors or [None])[0]
    assert (first or (None,))[0] is raised
    for stacked in (lambda: _call(oracle, points), lambda: _evaluate_rows(oracle, points)):
        calls.clear()
        assert _first_error(stacked) == first
        assert calls == list(points[:int(min(failures, default=7)) + 1, 0])
    if not failures:
        for r, got in enumerate(zip(*_call(oracle, points))):
            one = evaluate(oracle, points[r])
            assert [np.asarray(v).tobytes() for v in got] == [
                np.asarray(v).tobytes() for v in (one.value, one.grad, one.grad_sq)]


def _recording(oracle):
    seen = []
    return Oracle(lambda x: seen.append(x.copy()) or oracle.fn(x), oracle.dim), seen


@pytest.mark.parametrize("problem", [
    make_quadratic(7, 40, 1e4),
    logistic_problem(make_classification_dataset(11, 120, 15), reg=1e-3),
    logsumexp_problem(3, 12, 30, 0.1),
], ids=["quadratic", "logistic", "logsumexp"])
def test_evaluate_rows_copies_repeated_rows_with_evaluate_bits(problem):
    a, b, c = np.random.default_rng(6).standard_normal((3, problem.dim))
    prev = _evaluate_rows(problem.oracle, a[None])
    oracle, seen = _recording(problem.oracle)
    # a, a, b, b, b, c after a call at a: only b and c are new
    points = np.stack([a, a, b, b, b, c])
    stacked = _evaluate_rows(oracle, points, before=prev)
    assert np.array_equal(np.array(seen), np.stack([b, c]))
    _assert_rows_match_evaluate(problem.oracle, stacked, points)


def test_evaluate_rows_calls_again_at_a_zero_of_the_other_sign():
    oracle, seen = _recording(LINEAR)
    zero = np.zeros(3)
    res = _evaluate_rows(oracle, np.stack([zero, zero, -zero, -zero, zero]))
    assert [np.signbit(x).all() for x in seen] == [False, True, False]
    assert res.value.tolist() == [0.0] * 5
    _evaluate_rows(oracle, -zero[None], before=res)  # res ends at +0.0
    assert len(seen) == 4 and np.signbit(seen[-1]).all()


@pytest.mark.parametrize("how", ["nan_value"])
def test_evaluate_rows_raises_at_a_repeated_non_finite_row_as_evaluate(how):
    # x[0] numbers the distinct points; in call order they are 0, 1, 1, 2,
    # 3, 4, and point 1 fails
    points = np.ones((6, 3))
    points[:, 0] = [0.0, 1.0, 1.0, 2.0, 3.0, 4.0]
    oracle, seen = _recording(Oracle(_fn_failing({1.0: how}), 3))
    one_by_one = _first_error(lambda: [evaluate(oracle, x) for x in points])
    assert one_by_one[0] is NonFiniteError
    to_failure = [x[0] for x in seen]  # evaluate's calls, up to the failing one
    seen.clear()
    assert _first_error(lambda: _evaluate_rows(oracle, points)) == one_by_one
    called = [x[0] for x in seen]
    assert called[:len(to_failure)] == to_failure
    assert called.count(1.0) == 1  # never at the repeat
