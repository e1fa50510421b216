"""Tests for the Bessel series tables, the kernel profile F and its derivative F'."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenheat import KernelParams
from degenheat import special
from degenheat.special import (
    f_profile,
    f_profile_prime,
    f_profile_prime_vec,
    f_profile_vec,
)


def mpmath_iv(nu, w):
    import mpmath

    with mpmath.workdps(40):
        return float(mpmath.besseli(nu, w))


def mpmath_profile(a, s, prime=False):
    """F(s), or F'(s) when prime, from 40-digit Bessel functions."""
    import mpmath

    with mpmath.workdps(40):
        nu = (mpmath.mpf(a) - 1) / 2
        s = mpmath.mpf(s)
        w = abs(s) / 2
        if s > 0:
            bracket = mpmath.besseli(nu, w) + mpmath.besseli(-nu, w)
            if prime:
                bracket -= mpmath.besseli(nu + 1, w) + mpmath.besseli(-nu - 1, w)
        else:
            bracket = mpmath.besselk(nu, w)
            if prime:
                bracket -= mpmath.besselk(nu + 1, w)
            bracket *= -2 / mpmath.pi * mpmath.sin(nu * mpmath.pi)
        value = mpmath.exp(-s / 2) * (abs(s) / 4) ** (-nu) * bracket
        return float(-value / 2 if prime else value)


def series_i_scaled(mu, w):
    """e^{-w} I_mu(w) from the power-series table F sums, for 0 < |mu| < 1.

    The table of order nu = -|mu| holds 1/(k! Gamma(k+mu+1)) in row 0
    (mu < 0, the A of F) or row 1 (mu > 0, the B of F).
    """
    tables = special._tables(-abs(mu))
    row = slice(0, 1) if mu < 0 else slice(1, 2)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    q = (w / 2.0) ** 2
    q_max = float(np.max(q))
    count = special._term_count(tables.log_series[row], math.log(q_max)) if q_max > 0.0 else 1
    return np.exp(-w) * (w / 2.0) ** mu * special._horner(tables.series[row], q, count)[0]


def asymptotic_i_scaled(mu, w):
    """e^{-w} I_mu(w) from the large-argument table F sums, for 0 < |mu| < 1."""
    tables = special._tables(-abs(mu))  # a_k depends on mu^2 only
    w = np.atleast_1d(np.asarray(w, dtype=float))
    count = special._term_count(tables.log_asymptotic[:1], -math.log(float(np.min(w))))
    total = special._horner(tables.asymptotic[:1], -1.0 / w, count)[0]
    return total / np.sqrt(2.0 * math.pi * w)


def unscaled_i(mu, w):
    """I_mu(w) from the branch F uses at w: the series up to the crossover."""
    branch = series_i_scaled if w <= special._CROSSOVER else asymptotic_i_scaled
    return float(branch(mu, w)[0]) * math.exp(w)


# orders of the I_{+-nu} in F: nu = (a-1)/2 in (-1, 0), and -nu
orders = st.one_of(st.floats(-0.99, -0.001), st.floats(0.001, 0.99))


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

    def test_extended_precision_oracle(self):
        for mu in (-0.9, -0.45, 0.35, 0.95):
            for w in (0.01, 0.5, 3.0, 12.0, 29.0, 31.0, 80.0, 400.0, 690.0):
                ref = mpmath_iv(mu, w)
                got = unscaled_i(mu, w)
                assert got == pytest.approx(ref, rel=1e-12), (mu, w)

    def test_scaled_large_argument_finite(self):
        val = float(asymptotic_i_scaled(-0.25, 5.0e4)[0])
        assert 0.0 < val < 1.0

    def test_crossover_branch_agreement(self):
        for mu in (-0.95, -0.45, 0.05, 0.55, 0.95):
            w = np.linspace(24.0, 36.0, 13)
            a = series_i_scaled(mu, w)
            b = asymptotic_i_scaled(mu, w)
            assert np.max(np.abs(a / b - 1.0)) < 1e-10

    @given(mu=orders, w=st.floats(1e-6, 600.0))
    @settings(max_examples=200, deadline=None)
    def test_positivity(self, mu, w):
        assert unscaled_i(mu, w) > 0.0

    @given(nu=st.floats(-0.999, -0.001), w=st.floats(1e-6, 400.0))
    @settings(max_examples=200, deadline=None)
    def test_order_difference_sign(self, nu, w):
        # I_nu >= I_{-nu} for nu in (-1, 0)
        lo = unscaled_i(-nu, w)
        assert unscaled_i(nu, w) >= lo * (1.0 - 1e-12)


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


    def test_mpmath_oracle(self):
        for a in (-0.95, -0.5, 0.1, 0.3, 0.95):
            params = KernelParams(2, a)
            for w in (0.01, 0.5, 3.0, 12.0, 29.0, 31.0, 80.0, 400.0, 690.0, 5.0e4):
                for s in (2.0 * w, -2.0 * w):
                    ref = mpmath_profile(a, s)
                    assert f_profile(params, s) == pytest.approx(ref, rel=1e-12), (a, s)

    def test_continuity_across_crossover(self, monkeypatch):
        # on w in [24, 36] the power series (or kve) and the asymptotic
        # series, each forced over the whole range, give the same F and F'
        s = np.linspace(48.0, 72.0, 25)
        s = np.concatenate([s, -s])
        for a in (-0.95, -0.5, 0.05, 0.55, 0.95):
            params = KernelParams(2, a)
            got = {}
            for crossover in (0.0, math.inf):
                monkeypatch.setattr(special, "_CROSSOVER", crossover)
                got[crossover] = (f_profile_vec(params, s), f_profile_prime_vec(params, s))
            (f_asym, p_asym), (f_near, p_near) = got[0.0], got[math.inf]
            assert np.max(np.abs(f_asym / f_near - 1.0)) < 1e-13, a
            assert np.max(np.abs(p_asym / p_near - 1.0)) < 1e-11, a

    @given(a=st.floats(-0.95, 0.95), s=st.floats(-1.0e6, 1.0e12))
    @settings(max_examples=300, deadline=None)
    def test_positivity_wide_range(self, a, s):
        assert f_profile(KernelParams(2, a), s) > 0.0

    def test_mixed_array_matches_elementwise(self):
        # each call sums the terms its extreme argument needs, so a mixed
        # call may differ from a lone entry in the last bit only
        s = np.array([-1e9, -300.0, -59.0, -2.0, -1e-3, 0.0, 1e-200, 1e-3, 2.0, 59.0, 61.0, 300.0, 1e9])
        for a in (-0.6, 0.4):
            params = KernelParams(3, a)
            for fn in (f_profile_vec, f_profile_prime_vec):
                together = fn(params, s)
                alone = np.array([fn(params, np.array([si]))[0] for si in s])
                assert together == pytest.approx(alone, rel=1e-15), (a, fn.__name__)

    def test_limit_at_infinity(self):
        # s = x y / d overflows to +-inf for a subnormal lag d
        s = np.array([math.inf, -math.inf])
        assert np.array_equal(f_profile_vec(KernelParams(2, 0.4), s), [0.0, 0.0])
        assert np.array_equal(f_profile_vec(KernelParams(2, -0.4), s), [math.inf, math.inf])

    def test_finite_far_negative_axis(self):
        # scipy's kve returns NaN past w ~ 1e9; the asymptotic series does not
        s = -np.logspace(-8.0, 300.0, 400)
        for a in (-0.95, -0.3, 0.3, 0.95):
            params = KernelParams(2, a)
            f = f_profile_vec(params, s)
            assert np.all(np.isfinite(f)) and np.all(f > 0.0), a
            assert np.all(np.isfinite(f_profile_prime_vec(params, s))), a


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

    def test_mpmath_oracle_large_argument(self):
        # the F' bracket is a difference of two nearly equal Bessel sums;
        # the profile must not lose it to cancellation
        for a in (-0.95, -0.5, 0.3, 0.95):
            params = KernelParams(2, a)
            for mag in (1e4, 1e8, 1e13):
                for s in (mag, -mag):
                    ref = mpmath_profile(a, s, prime=True)
                    assert f_profile_prime(params, s) == pytest.approx(ref, rel=1e-11), (a, s)
