"""Tests for modified Bessel evaluation and the kernel profile F."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenheat import KernelParams
from degenheat.special import (
    SERIES_CROSSOVER,
    _asymptotic_i_scaled,
    _series_i_scaled,
    bessel_i_scaled,
    f_profile,
    f_profile_prime,
    f_profile_vec,
)


def mpmath_iv(nu, w):
    import mpmath

    with mpmath.workdps(40):
        return float(mpmath.besseli(nu, w))


def unscaled_i(nu, w):
    """Unscaled I_nu(w) rebuilt from the scaled evaluator."""
    return bessel_i_scaled(nu, w) * math.exp(w)


class TestBesselI:
    def test_half_integer_closed_form(self):
        # I_{1/2}(w) = sqrt(2/(pi w)) sinh(w)
        expected = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert unscaled_i(0.5, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_negative_half_integer_closed_form(self):
        # I_{-1/2}(w) = sqrt(2/(pi w)) cosh(w)
        expected = math.sqrt(2.0 / (math.pi * 2.0)) * math.cosh(2.0)
        assert unscaled_i(-0.5, 2.0) == pytest.approx(expected, rel=1e-13)

    def test_zero_argument_positive_order(self):
        assert unscaled_i(0.3, 0.0) == 0.0

    def test_zero_argument_zero_order(self):
        assert unscaled_i(0.0, 0.0) == 1.0

    def test_extended_precision_oracle(self):
        for nu in (-0.9, -0.45, 0.35, 0.95, 1.45, -1.55):
            for w in (0.01, 0.5, 3.0, 12.0, 29.0, 31.0, 80.0, 400.0, 690.0):
                ref = mpmath_iv(nu, w)
                got = unscaled_i(nu, w)
                assert got == pytest.approx(ref, rel=1e-12), (nu, w)

    def test_scaled_large_argument_finite(self):
        val = bessel_i_scaled(-0.25, 5.0e4)
        assert 0.0 < val < 1.0

    def test_domain_error_low_order(self):
        with pytest.raises(ValueError):
            bessel_i_scaled(-2.0, 1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_i_scaled(0.5, -1.0)

    def test_crossover_branch_agreement(self):
        for nu in (-0.95, -0.45, 0.05, 0.55, 1.45, 1.95):
            w = np.linspace(24.0, 36.0, 13)
            a = _series_i_scaled(nu, w)
            b = _asymptotic_i_scaled(nu, w)
            assert np.max(np.abs(a / b - 1.0)) < 1e-10

    @given(
        nu=st.floats(-0.99, 1.9),
        w=st.floats(1e-6, 600.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_positivity(self, nu, w):
        assert unscaled_i(nu, w) > 0.0

    @given(nu=st.floats(-0.999, -0.001), w=st.floats(1e-6, 400.0))
    @settings(max_examples=200, deadline=None)
    def test_order_difference_sign(self, nu, w):
        # I_nu >= I_{-nu} for nu in (-1, 0)
        lo = bessel_i_scaled(-nu, w)
        assert bessel_i_scaled(nu, w) >= lo * (1.0 - 1e-12)


class TestFProfile:
    def test_constant_at_a_zero(self):
        params = KernelParams(2, 0.0)
        for s in (-5.0, 0.0, 3.0):
            assert f_profile(params, s) == pytest.approx(
                1.0 / math.sqrt(math.pi), rel=1e-13
            )

    def test_value_at_zero(self):
        for a in (-0.8, -0.3, 0.2, 0.7):
            params = KernelParams(2, a)
            assert f_profile(params, 0.0) == pytest.approx(
                1.0 / math.gamma((a + 1.0) / 2.0), rel=1e-13
            )

    def test_large_argument_asymptotics(self):
        # F(s) (s/4)^nu e^{s/2} -> sqrt(2/pi) (s/2)^{-1/2} e^{s/2} asymptote,
        # i.e. the scaled bracket ratio tends to 1.
        params = KernelParams(2, 0.5)
        nu = params.nu
        s = 4.0e4
        scaled_bracket = f_profile(params, s) * (s / 4.0) ** nu
        asym = math.sqrt(2.0 / math.pi) * (s / 2.0) ** (-0.5)
        assert scaled_bracket == pytest.approx(asym, rel=1e-3)

    def test_series_oracle_negative_side(self):
        # direct series evaluation of the defining bracket, small |s|
        for a in (-0.6, 0.4):
            params = KernelParams(2, a)
            nu = params.nu
            for s in (-3.0, -0.7, -0.05):
                w = -s / 2.0
                bracket = mpmath_iv(nu, w) - mpmath_iv(-nu, w)
                ref = math.exp(-s / 2.0) * (-s / 4.0) ** (-nu) * bracket
                assert f_profile(params, s) == pytest.approx(ref, rel=1e-11)

    def test_continuity_across_zero(self):
        for a in (-0.5, 0.0, 0.5):
            params = KernelParams(2, a)
            f0 = f_profile(params, 0.0)
            assert f_profile(params, 1e-9) == pytest.approx(f0, rel=1e-4)
            assert f_profile(params, -1e-9) == pytest.approx(f0, rel=1e-4)

    @given(
        a=st.floats(-0.95, 0.95),
        s=st.floats(-200.0, 200.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_positivity(self, a, s):
        params = KernelParams(2, a)
        assert f_profile(params, s) > 0.0

    def test_no_overflow_huge_negative_argument(self):
        params = KernelParams(2, 0.5)
        val = f_profile(params, -1e6)
        assert math.isfinite(val) and val > 0.0

    def test_vectorized_matches_scalar(self):
        params = KernelParams(3, -0.4)
        s = np.array([-7.0, -0.1, 0.0, 0.3, 42.0])
        vec = f_profile_vec(params, s)
        for si, vi in zip(s, vec):
            assert vi == pytest.approx(f_profile(params, float(si)), rel=1e-14)


class TestFProfilePrime:
    def test_zero_when_a_zero(self):
        params = KernelParams(2, 0.0)
        for s in (-4.0, -0.3, 0.0, 0.2, 9.0):
            assert f_profile_prime(params, s) == pytest.approx(0.0, abs=1e-15)

    def test_finite_difference_agreement(self):
        params = KernelParams(2, 0.4)
        h = 1e-5
        s = 1.7
        fd = (f_profile(params, s + h) - f_profile(params, s - h)) / (2 * h)
        assert f_profile_prime(params, s) == pytest.approx(fd, rel=1e-7)

    def test_finite_difference_sweep(self):
        for a in (-0.7, -0.2, 0.3, 0.8):
            params = KernelParams(2, a)
            for s in (-6.0, -1.1, -0.4, 0.5, 2.5, 20.0):
                h = 1e-6 * (1.0 + abs(s))
                fd = (f_profile(params, s + h) - f_profile(params, s - h)) / (2 * h)
                assert f_profile_prime(params, s) == pytest.approx(
                    fd, rel=1e-6
                ), (a, s)

    def test_limit_at_zero_negative_a(self):
        a = -0.6
        params = KernelParams(2, a)
        expected = -0.5 / math.gamma((a + 1.0) / 2.0)
        assert f_profile_prime(params, 0.0) == pytest.approx(expected, rel=1e-13)
        # one-sided numerical limits agree
        assert f_profile_prime(params, 1e-9) == pytest.approx(expected, rel=1e-3)
        assert f_profile_prime(params, -1e-9) == pytest.approx(expected, rel=1e-3)

    def test_unbounded_at_zero_positive_a(self):
        params = KernelParams(2, 0.5)
        assert f_profile_prime(params, 0.0) == math.inf
        assert f_profile_prime(params, 1e-12) > 1e4
        assert f_profile_prime(params, -1e-12) > 1e4

    def test_log_derivative_asymptote(self):
        # F'(s)/F(s) ~ C_a / s as s -> infinity
        params = KernelParams(2, 0.6)
        ratios = []
        for s in (1e3, 1e4, 1e5):
            ratios.append(s * f_profile_prime(params, s) / f_profile(params, s))
        assert ratios[1] == pytest.approx(ratios[2], rel=0.05)
        assert abs(ratios[2]) < 10.0
