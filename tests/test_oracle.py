import math
import warnings

import numpy as np
import pytest

from aagd import (DimensionMismatchError, NonFiniteError, Oracle,
                  evaluate, finite_diff_check, identity_quadratic,
                  logistic_problem, logsumexp_problem, make_classification_dataset,
                  make_quadratic)
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
