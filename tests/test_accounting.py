import math

import pytest

from reconlab import accounting


def test_single_step_unit_rho():
    # sensitivity 1 with unit noise std gives rho = 0.5
    assert accounting.gaussian_mechanism_zcdp(1.0, 1.0) == 0.5


def test_account_linearity_in_steps():
    a = accounting.account_dpgd(10, 1.0, 2.0)
    b = accounting.account_dpgd(20, 1.0, 2.0)
    assert abs(b - 2 * a) < 1e-15


def test_account_quadratic_in_inverse_sigma():
    a = accounting.account_dpgd(5, 1.0, 2.0)
    b = accounting.account_dpgd(5, 1.0, 4.0)
    assert abs(a / b - 4.0) < 1e-12


def test_account_validation():
    with pytest.raises(ValueError):
        accounting.account_dpgd(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        accounting.account_dpgd(1, -1.0, 1.0)
    with pytest.raises(ValueError):
        accounting.account_dpgd(1, 1.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda: accounting.gaussian_mechanism_zcdp(1.0, math.nan),
    lambda: accounting.account_dpgd(1, math.nan, 1.0),
    lambda: accounting.account_dpgd(1, 1.0, math.nan),
    lambda: accounting.zcdp_to_approx_dp(math.nan, 1e-5),
    lambda: accounting.calibrate_noise(math.nan, 1e-5, 10, 1.0),
    # the noise std is positive, but its square underflows to 0.0
    lambda: accounting.gaussian_mechanism_zcdp(1.0, 1e-170),
    lambda: accounting.account_dpgd(4, 1.0, 1e-170),
])
def test_nan_and_underflowing_noise_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_noise_with_subnormal_square_keeps_the_formula():
    # 1e-160 ** 2 is subnormal but not 0.0, so rho is still the closed form
    assert accounting.gaussian_mechanism_zcdp(1e-160, 1e-160) == 1e-160 ** 2 / (2.0 * 1e-160 ** 2)


def test_zcdp_to_approx_dp():
    assert accounting.zcdp_to_approx_dp(0.0, 1e-5) == 0.0
    rho, delta = 0.25, 1e-5
    expected = rho + 2 * math.sqrt(rho * math.log(1.0 / delta))
    assert abs(accounting.zcdp_to_approx_dp(rho, delta) - expected) < 1e-15
    # decreasing in delta means increasing epsilon as delta shrinks
    assert accounting.zcdp_to_approx_dp(0.25, 1e-8) > accounting.zcdp_to_approx_dp(0.25, 1e-4)


def test_epsilon_monotone_decreasing_in_sigma():
    eps = [
        accounting.zcdp_to_approx_dp(accounting.account_dpgd(100, 1.0, s), 1e-5)
        for s in (0.5, 1.0, 2.0, 8.0)
    ]
    assert eps == sorted(eps, reverse=True)


def test_calibrate_roundtrip():
    for target_eps in (0.1, 1.0, 10.0):
        sigma = accounting.calibrate_noise(target_eps, 1e-5, steps=100, clip_norm=1.0)
        achieved = accounting.zcdp_to_approx_dp(
            accounting.account_dpgd(100, 1.0, sigma), 1e-5
        )
        assert achieved <= target_eps
        assert (target_eps - achieved) / target_eps <= 1e-6


def test_calibrate_pinned_value():
    # epsilon=10, delta=1e-5, T=100, C=1, replace adjacency
    sigma = accounting.calibrate_noise(10.0, 1e-5, steps=100, clip_norm=1.0)
    assert abs(sigma - 11.35793525681245) < 1e-6


def test_calibrate_validation():
    with pytest.raises(ValueError):
        accounting.calibrate_noise(0.0, 1e-5, 10, 1.0)
