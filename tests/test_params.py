import math
from decimal import Decimal

import numpy as np
import pytest

from aagd import (GOLDEN_RATIO, InfeasibleThetaError, SolverParams, default_params,
                  make_params, max_gamma, nu_from, rate_constants, validate)


def test_max_gamma_infeasible_below_golden_ratio():
    with pytest.raises(InfeasibleThetaError):
        max_gamma(1.5)
    with pytest.raises(InfeasibleThetaError):
        max_gamma(GOLDEN_RATIO)


def test_max_gamma_at_two():
    # t = 2/3: (2/3 + 4/9 - 1) / (2 + 4/9) = (1/9) / (22/9)
    assert max_gamma(2.0) == pytest.approx(1.0 / 22.0, rel=1e-14)


def test_max_gamma_limit_one_third():
    assert max_gamma(1e12) == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_nu_from_canonical():
    assert nu_from(2.0, 1.0 / 22.0) == pytest.approx(11.0 / 2116.0, rel=1e-15)
    assert nu_from(2.0, 1.0 / 22.0) == pytest.approx(5.1985e-3, rel=1e-4)


def test_nu_from_direct_substitution():
    # the equality alone; this (theta, gamma) fails the inequality
    assert nu_from(1.0, 1.0) == pytest.approx(1.0 / 16.0, rel=1e-15)


def test_nu_from_vanishes_with_gamma():
    assert nu_from(2.0, 1e-14) == pytest.approx(1e-14 / 8.0, rel=1e-10)


@pytest.mark.parametrize("theta, gamma", [(0.0, 1.0), (2.0, 0.0), (-2.0, 0.1), (np.nan, 0.1)])
def test_nu_from_rejects_nonpositive_arguments(theta, gamma):
    with pytest.raises(ValueError, match="^theta and gamma must be positive$"):
        nu_from(theta, gamma)


def test_validate_canonical_passes():
    report = validate(SolverParams(2.0, 1.0 / 22.0, 11.0 / 2116.0, eta0=1.0))
    assert report.passed
    assert report.equality_residual <= 1e-14
    assert report.inequality_slack >= 0.0


def test_validate_fails_inequality():
    report = validate(SolverParams(1.0, 1.0, 1.0 / 16.0, eta0=1.0))
    assert report.equality_ok  # the equality holds by construction
    assert not report.inequality_ok
    assert report.inequality_lhs == pytest.approx(3.25, rel=1e-15)
    assert report.inequality_rhs == pytest.approx(0.75, rel=1e-15)


def test_validate_fails_on_perturbed_nu():
    nu = nu_from(2.0, 1.0 / 22.0) * (1.0 + 1e-6)
    report = validate(SolverParams(2.0, 1.0 / 22.0, nu, eta0=1.0))
    assert not report.equality_ok


def test_validate_requires_positivity():
    assert not validate(SolverParams(2.0, -0.1, 0.01, eta0=1.0)).passed


def test_default_params_canonical():
    params = default_params(eta0=0.5)
    assert params.theta == 2.0
    assert params.gamma == 1.0 / 22.0
    assert params.nu == pytest.approx(11.0 / 2116.0, rel=1e-15)
    assert params.eta0 == 0.5
    assert validate(params).passed


def test_default_params_is_make_params():
    assert make_params().gamma.hex() == default_params().gamma.hex() == (1.0 / 22.0).hex()
    for eta0 in (1e-12, 1e-3, 1.0):
        made, default = make_params(eta0=eta0), default_params(eta0=eta0)
        for name in ("theta", "gamma", "nu", "eta0"):
            assert getattr(made, name).hex() == getattr(default, name).hex(), (eta0, name)


def test_max_gamma_at_the_golden_ratio_boundary():
    for theta in (GOLDEN_RATIO, math.nextafter(GOLDEN_RATIO, 0.0), 1e-300):
        with pytest.raises(InfeasibleThetaError):
            max_gamma(theta)
    # the next float above is feasible: the exact gamma_max there is 3.8e-17
    theta = math.nextafter(GOLDEN_RATIO, 2.0)
    gamma = max_gamma(theta)
    assert 0.0 < gamma < 1e-16
    assert validate(make_params(theta=theta)).passed


def test_make_params_rejects_gamma_above_max():
    with pytest.raises(ValueError):
        make_params(theta=2.0, gamma=0.05)
    params = make_params(theta=2.0, gamma=0.01)
    assert params.nu == pytest.approx(nu_from(2.0, 0.01), rel=1e-15)
    assert validate(params).passed


def test_rate_constants_canonical():
    params = default_params(eta0=1.0)
    rc = rate_constants(params, L=1.0)
    # recompute both min terms from scratch
    ga, nu = params.gamma, params.nu
    c1 = math.sqrt(nu) / (3.0 * (2.0 + ga))
    c2 = math.sqrt(nu) * ga / (16.0 * (ga * (1.0 + ga) ** 5 * (2.0 + ga) ** 3) ** 0.25)
    assert c2 < c1  # the second term binds here
    assert rc.c == pytest.approx(min(c1, c2), rel=1e-15)
    assert rc.c == pytest.approx(2.45e-4, rel=1e-2)
    assert rc.m == 2


def test_rate_constants_tiny_eta0():
    params = default_params(eta0=1e-12)
    rc = rate_constants(params, L=1.0)
    expected = math.ceil(math.log(4.0 * rc.c ** 2 / (params.gamma * 1e-12))
                         / math.log(1.0 + params.gamma))
    assert rc.m == expected
    assert rc.m > 2


def test_rate_constants_huge_product_clamps_m():
    rc = rate_constants(default_params(eta0=1e6), L=1e6)
    assert rc.m == 2


def test_rate_constants_underflowing_product_takes_the_log_of_each_factor():
    # gamma * eta0 * L rounds to 0; the envelope's m comes from the exact log
    params = default_params(eta0=5e-324)
    rc = rate_constants(params, L=10.0)
    arg = (4 * Decimal(rc.c) ** 2 / (Decimal(params.gamma) * Decimal(5e-324) * 10)).ln()
    assert rc.m == math.ceil(arg / Decimal(math.log1p(params.gamma)))
    assert rc.m > 2


def test_rate_constants_underflowing_c_is_vacuous():
    rc = rate_constants(make_params(theta=2.0, gamma=1e-300, eta0=1e-3), L=10.0)
    assert (rc.c, rc.m) == (0.0, 2)


def test_validate_huge_theta_does_not_overflow():
    params = make_params(theta=1e200)
    report = validate(params)
    assert report.passed
    assert report.inequality_rhs == 2.0


def test_make_params_rejects_an_underflowed_nu():
    with pytest.raises(ValueError, match="invalid solver parameters"):
        make_params(theta=1e308)
    assert nu_from(1e308, max_gamma(1e308)) == 0.0


def test_rate_constants_rejects_bad_L():
    with pytest.raises(ValueError):
        rate_constants(default_params(), L=0.0)


def test_feasible_family_along_theta():
    rng = np.random.default_rng(0)
    thetas = GOLDEN_RATIO + (100.0 - GOLDEN_RATIO) * rng.random(100)
    for theta in thetas:
        gamma = max_gamma(theta)
        report = validate(SolverParams(theta, gamma, nu_from(theta, gamma), eta0=1.0))
        assert report.passed, f"theta={theta}"


def test_max_gamma_monotone_in_theta():
    grid = np.linspace(GOLDEN_RATIO + 1e-6, 200.0, 400)
    vals = [max_gamma(t) for t in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_rate_constants_m_nonincreasing_in_eta0():
    ms = [rate_constants(default_params(eta0=e), L=10.0).m
          for e in (1e-14, 1e-10, 1e-6, 1e-2, 1.0, 1e2)]
    assert all(m >= 2 for m in ms)
    assert all(b <= a for a, b in zip(ms, ms[1:]))
