import math

import numpy as np
import pytest

from aagd import (GRAD_GUARD, DimensionMismatchError, Oracle, OracleResult,
                  bregman, evaluate, identity_quadratic, lambda_option1, lambda_option2,
                  local_curvature, logistic_problem, logsumexp_problem,
                  make_classification_dataset, make_quadratic)
from aagd.curvature import BREG_NOISE_REL, _gaps, lambda_option2_rows


def diag_quadratic():
    # f(x) = 0.5 (x_0^2 + 4 x_1^2)
    return Oracle(lambda x: (0.5 * (x[0] ** 2 + 4.0 * x[1] ** 2),
                             np.array([x[0], 4.0 * x[1]])), 2, label="diag14")


def ev(oracle, *coords):
    return evaluate(oracle, np.array(coords, dtype=float))


def test_bregman_identity_quadratic():
    o = identity_quadratic(2).oracle
    assert bregman(ev(o, 1.0, 0.0), ev(o, 0.0, 0.0)) == 0.5


def test_bregman_identical_points():
    o = identity_quadratic(2).oracle
    a = ev(o, 0.7, -0.3)
    assert bregman(a, a) == 0.0


def test_bregman_diag_quadratic():
    o = diag_quadratic()
    assert bregman(ev(o, 1.0, 1.0), ev(o, 0.0, 0.0)) == pytest.approx(2.5, rel=1e-15)


def test_lambda_option2_identity():
    o = identity_quadratic(2).oracle
    assert lambda_option2(ev(o, 1.0, 0.0), ev(o, 0.0, 0.0)) == pytest.approx(1.0, rel=1e-14)


def test_lambda_option2_coincident_points_infinite():
    o = identity_quadratic(2).oracle
    a = ev(o, 0.4, 0.4)
    assert lambda_option2(a, a) == math.inf


def test_lambda_option2_diag():
    o = diag_quadratic()
    lam = lambda_option2(ev(o, 1.0, 1.0), ev(o, 0.0, 0.0))
    assert lam == pytest.approx(5.0 / 17.0, rel=1e-14)


def test_lambda_option1_identity():
    o = identity_quadratic(2).oracle
    assert lambda_option1(ev(o, 2.0, -1.0), ev(o, 0.5, 0.5)) == pytest.approx(1.0, rel=1e-14)


def test_lambda_option1_coincident_infinite():
    o = identity_quadratic(2).oracle
    a = ev(o, 1.0, 2.0)
    assert lambda_option1(a, a) == math.inf


def test_lambda_option1_diag():
    o = diag_quadratic()
    lam = lambda_option1(ev(o, 1.0, 1.0), ev(o, 0.0, 0.0))
    assert lam == pytest.approx(math.sqrt(2.0) / math.sqrt(17.0), rel=1e-14)


def test_local_curvature_identity_three_points():
    o = identity_quadratic(2).oracle
    lam = local_curvature(ev(o, 1.0, 0.0), ev(o, 0.0, 1.0), ev(o, 0.5, 0.5))
    assert lam == pytest.approx(1.0, rel=1e-13)


def test_local_curvature_one_branch_infinite():
    o = diag_quadratic()
    bar = ev(o, 1.0, 1.0)
    tilde_cur = ev(o, 1.0, 1.0)  # same point: first branch infinite
    tilde_next = ev(o, 0.0, 0.0)
    lam = local_curvature(bar, tilde_cur, tilde_next)
    assert lam == lambda_option2(bar, tilde_next)
    assert math.isfinite(lam)


def test_local_curvature_first_iteration_shape():
    # the averaged point of the first step equals the starting lookahead
    # point, so the first branch is infinite and the identity quadratic
    # makes the second exactly 1
    o = identity_quadratic(1).oracle
    bar1 = ev(o, 1.0)
    tilde0 = ev(o, 1.0)
    tilde1 = ev(o, 0.8466666666666667)
    assert local_curvature(bar1, tilde0, tilde1) == pytest.approx(1.0, rel=1e-13)


def test_guard_test_symmetric():
    o = make_quadratic(1, 8, 100.0).oracle
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = evaluate(o, rng.standard_normal(8))
        b = evaluate(o, rng.standard_normal(8))
        near = evaluate(o, a.x + 1e-17 * rng.standard_normal(8))
        for u, v in [(a, b), (a, near)]:
            *_, fired_uv = _gaps(u, v, guard=1e-10)
            *_, fired_vu = _gaps(v, u, guard=1e-10)
            assert fired_uv == fired_vu
            assert math.isinf(lambda_option2(u, v)) == math.isinf(lambda_option2(v, u))


def test_concave_oracle_falls_back_to_secant():
    # a negative Bregman value sits below the noise floor: the estimate is
    # the secant ratio, not an error
    concave = Oracle(lambda x: (-0.5 * float(x @ x), -x), 2, label="concave")
    a = ev(concave, 1.0, 0.0)
    b = ev(concave, 0.0, 0.0)
    assert bregman(a, b) < 0.0
    assert lambda_option2(a, b) == lambda_option1(a, b)


def test_noise_floor_substitutes_secant():
    # a large constant offset wipes out the Bregman difference digits;
    # the estimate must then come from the secant ratio, which stays exact
    shifted = Oracle(lambda x: (0.5 * float(x @ x) + 1e10, x), 2, label="shifted")
    a = ev(shifted, 1.0, 0.0)
    b = ev(shifted, 1.0 + 1e-4, 0.0)
    assert lambda_option2(a, b) == lambda_option1(a, b)
    assert lambda_option2(a, b) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("problem", [
    identity_quadratic(10),
    make_quadratic(7, 30, 1e4),
    logistic_problem(make_classification_dataset(11, 100, 12), reg=1e-3),
    logsumexp_problem(3, 10, 25, 0.1),
], ids=["identity", "quadratic", "logistic", "logsumexp"])
def test_lambda_floor_on_seeded_pairs(problem):
    # both estimators stay above the inverse smoothness constant
    rng = np.random.default_rng(99)
    floor = 1.0 / problem.L - 1e-12
    for _ in range(1000):
        a = evaluate(problem.oracle, rng.standard_normal(problem.dim))
        b = evaluate(problem.oracle, rng.standard_normal(problem.dim))
        assert lambda_option1(a, b) >= floor
        assert lambda_option2(a, b) >= floor


@pytest.mark.parametrize("problem", [
    identity_quadratic(10),
    make_quadratic(7, 30, 1e4),
    logistic_problem(make_classification_dataset(11, 100, 12), reg=1e-3),
    logsumexp_problem(3, 10, 25, 0.1),
], ids=["identity", "quadratic", "logistic", "logsumexp"])
def test_bregman_nonnegative_on_seeded_pairs(problem):
    rng = np.random.default_rng(17)
    for _ in range(1000):
        a = evaluate(problem.oracle, rng.standard_normal(problem.dim))
        b = evaluate(problem.oracle, rng.standard_normal(problem.dim))
        assert bregman(a, b) >= -1e-12 * (1.0 + abs(a.value) + abs(b.value))


def hand_built(oracle, x):
    value, grad = oracle.fn(x)
    return OracleResult(float(value), np.asarray(grad, dtype=float), x)


def same(u, v):
    return u == v or (math.isnan(u) and math.isnan(v))


@pytest.mark.parametrize("problem",
                         [make_quadratic(4, 12, 1e3), logsumexp_problem(2, 12, 30, 0.1)],
                         ids=lambda p: p.label)
def test_hand_built_results_match_evaluated(problem):
    # OracleResult(value, grad, x) computes its squared norms itself, so the
    # estimators see the same guard scales as for results made by evaluate
    rng = np.random.default_rng(11)
    base = 1e4 * rng.standard_normal(12)
    points = [rng.standard_normal(12), rng.standard_normal(12), rng.standard_normal(12),
              base, np.nextafter(base, np.inf)]  # the last two differ by one ulp
    made = [evaluate(problem.oracle, x) for x in points]
    built = [hand_built(problem.oracle, x) for x in points]
    for m, b in zip(made, built):
        assert m.grad_sq == b.grad_sq and m.x_sq == b.x_sq
    for i, j, k in [(0, 1, 2), (2, 0, 1), (3, 4, 3), (4, 3, 0)]:
        for est in (lambda_option1, lambda_option2):
            assert same(est(made[i], made[j]), est(built[i], built[j]))
        assert same(local_curvature(made[i], made[j], made[k]),
                    local_curvature(built[i], built[j], built[k]))


def test_hand_built_guard_uses_gradient_scale():
    # gradients of size ~1e4 that differ by roundoff: the guard fires only
    # because it scales with the squared gradient norms, not with max(1, nan)
    p = identity_quadratic(3)
    x = np.full(3, 1e4)
    a, b = hand_built(p.oracle, x), hand_built(p.oracle, np.nextafter(x, np.inf))
    gap2, _, _, fired = _gaps(a, b, GRAD_GUARD)
    assert gap2 > GRAD_GUARD and fired
    assert lambda_option1(a, b) == lambda_option2(a, b) == math.inf


@pytest.mark.parametrize("problem",
                         [make_quadratic(5, 20, 1e4), logsumexp_problem(6, 20, 60, 0.1)],
                         ids=lambda p: p.label)
def test_secant_fallback_matches_option1_bits(problem):
    # option 2 reuses the differences it formed for the guards when it
    # falls back to the secant ratio; the result must be option 1's bits
    rng = np.random.default_rng(23)
    fired = 0
    for _ in range(600):
        x = 10.0 ** rng.uniform(-1, 1) * rng.standard_normal(problem.dim)
        step = 10.0 ** rng.uniform(-9, -2) * np.linalg.norm(x) * rng.standard_normal(problem.dim)
        a, b = evaluate(problem.oracle, x), evaluate(problem.oracle, x + step)
        if bregman(a, b) <= BREG_NOISE_REL * (1.0 + abs(a.value) + abs(b.value)):
            secant = lambda_option1(a, b)
            fired += math.isfinite(secant)
            assert lambda_option2(a, b).hex() == secant.hex()
    assert fired >= 300


def test_both_guards_give_infinity_in_both_estimators():
    p = make_quadratic(5, 20, 1e4)
    rng = np.random.default_rng(29)
    same = evaluate(p.oracle, rng.standard_normal(20))
    # one ulp from the minimizer: the gradients differ well above roundoff
    # relative to their size, the points do not
    near_opt = evaluate(p.oracle, p.x_star)
    ulp_away = evaluate(p.oracle, np.nextafter(p.x_star, np.inf))
    gradient_guard = _gaps(same, same, GRAD_GUARD)
    point_guard = _gaps(near_opt, ulp_away, GRAD_GUARD)
    assert gradient_guard[1] is None and gradient_guard[3]
    assert point_guard[1] is not None and point_guard[3]
    assert point_guard[0] > GRAD_GUARD * max(1.0, near_opt.grad_sq, ulp_away.grad_sq)
    for a, b in [(same, same), (near_opt, ulp_away), (ulp_away, near_opt)]:
        assert lambda_option1(a, b) == lambda_option2(a, b) == math.inf


def test_estimators_reject_points_of_different_shapes():
    # a one-entry point broadcasts against any other, so numpy alone
    # would return a number
    a = OracleResult(1.0, np.ones(1), np.ones(1))
    b = OracleResult(2.0, np.full(3, 2.0), np.full(3, 3.0))
    for est in (bregman, lambda_option1, lambda_option2):
        with pytest.raises(DimensionMismatchError):
            est(a, b)


def stacked(results):
    """One result whose fields stack those of ``results`` row by row."""
    return OracleResult(*(np.array(field) for field in zip(*results)))


def branch(a, b):
    """Which branch the scalar option-2 estimator takes for (a, b)."""
    _, dx, _, coincide = _gaps(a, b, GRAD_GUARD)
    if coincide:
        return "gradient_guard" if dx is None else "point_guard"
    noise = bregman(a, b) <= BREG_NOISE_REL * (1.0 + abs(a.value) + abs(b.value))
    return "secant" if noise else "ratio"


@pytest.mark.parametrize("problem", [
    identity_quadratic(6),
    make_quadratic(5, 20, 1e4),
    logsumexp_problem(6, 20, 60, 0.1),
    logistic_problem(make_classification_dataset(11, 100, 12), reg=1e-3),
], ids=lambda p: p.label)
def test_row_estimator_matches_the_scalar_bits(problem):
    # random and nearby pairs take the ratio and the secant branch, a
    # repeated point the gradient guard; a hand-built pair whose points are
    # one ulp apart while its gradients differ takes the point guard
    rng = np.random.default_rng(31)
    d = problem.dim
    near, repeated = [], []
    for _ in range(200):
        x = 10.0 ** rng.uniform(-1, 1) * rng.standard_normal(d)
        step = 10.0 ** rng.uniform(-9, 0) * np.linalg.norm(x) * rng.standard_normal(d)
        a, b = evaluate(problem.oracle, x), evaluate(problem.oracle, x + step)
        near.append((a, b))
        repeated.append((a, a))
    x = np.full(d, 1e4)
    ulp = [(OracleResult(0.0, np.ones(d), x),
            OracleResult(0.0, np.full(d, 2.0), np.nextafter(x, 2e4)))]
    pairs = near + repeated + ulp
    lam, breg = lambda_option2_rows(stacked(a for a, _ in pairs), stacked(b for _, b in pairs))
    assert [v.hex() for v in lam] == [lambda_option2(a, b).hex() for a, b in pairs]
    assert [v.hex() for v in breg] == [bregman(a, b).hex() for a, b in pairs]
    seen = [branch(a, b) for a, b in pairs]
    assert set(seen) == {"gradient_guard", "point_guard", "secant", "ratio"}, seen
    assert min(seen.count("secant"), seen.count("ratio")) >= 20
    # local_curvature(a, b, c) is the smaller estimate of (a, b) and (a, c);
    # pairing each near pair with itself ties the two
    lam_near, lam_same = lam[:len(near)], lam[len(near):2 * len(near)]
    for lam0, lam1, triples in [(lam_near, lam_same, [(a, b, a) for a, b in near]),
                                (lam_same, lam_near, [(a, a, b) for a, b in near]),
                                (lam_near, lam_near, [(a, b, b) for a, b in near])]:
        assert [v.hex() for v in np.where(lam1 < lam0, lam1, lam0)] == [
            local_curvature(*t).hex() for t in triples]


def test_row_estimator_matches_the_scalar_bits_on_hand_built_results():
    # near the float limit: inf Bregman values, squared differences that
    # overflow and a NaN estimate (inf / inf); and squared norms given by
    # hand, so that only the larger scale of a pair fires a guard
    big = 1e154
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    rows = [OracleResult(0.0, big * e0, big * e0),
            OracleResult(0.0, -big * e0, -big * e0),
            OracleResult(1e308, e0, 1e150 * e0),
            OracleResult(-1e308, 3.0 * e0, -1e150 * e0),
            OracleResult(1.0, e0 + 2.0 * e1, 3.0 * e0 + 4.0 * e1),
            OracleResult(1.0, e0 + (2.0 + 1e-14) * e1, 5.0 * e0 + 4.0 * e1, grad_sq=1e4),
            OracleResult(1.0, e0, 3.0 * e0 + (4.0 + 1e-13) * e1, x_sq=1e4)]
    pairs = [(a, b) for a in rows for b in rows]
    with np.errstate(all="ignore"):
        lam, breg = lambda_option2_rows(stacked(a for a, _ in pairs),
                                        stacked(b for _, b in pairs))
        assert [v.hex() for v in lam] == [lambda_option2(a, b).hex() for a, b in pairs]
        assert [v.hex() for v in breg] == [bregman(a, b).hex() for a, b in pairs]
    assert np.isnan(lam).any() and np.isinf(breg).any() and np.isfinite(lam).any()


def test_row_estimator_rejects_points_of_different_shapes():
    a = stacked([OracleResult(1.0, np.ones(1), np.ones(1))])
    b = stacked([OracleResult(2.0, np.full(3, 2.0), np.full(3, 3.0))])
    with pytest.raises(DimensionMismatchError):
        lambda_option2_rows(a, b)
