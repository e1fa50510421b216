"""Tests for the fundamental solution, its gradient, limits and identities."""
import math

import numpy as np
import pytest

from degenheat import KernelParams, SpaceTimePoint
from degenheat.kernel import (
    bounds_sandwich,
    gamma_fs,
    gamma_fs_vec,
    gamma_grad_y_vec,
    grad_log_gamma_vec,
    log_gamma_vec,
    mass_integral,
    semigroup_residual,
    u_tilde,
    u_tilde_dy,
    weighted_normal_limit_vec,
)


def pt(x_prime, x, t):
    return SpaceTimePoint(tuple(np.atleast_1d(x_prime)), x, t)


def heat_kernel(n, X, t, Y, tau):
    d = t - tau
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    return (4.0 * math.pi * d) ** (-n / 2.0) * math.exp(
        -float(np.sum((X - Y) ** 2)) / (4.0 * d)
    )


class TestGammaFs:
    def test_classical_point_value(self):
        params = KernelParams(2, 0.0)
        got = gamma_fs(params, pt([0.0], 0.0, 1.0), pt([0.0], 0.0, 0.0))
        assert got == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-13)

    def test_causal_support(self):
        params = KernelParams(2, 0.5)
        xi = pt([0.0], 0.3, 1.0)
        for tau in (1.0, 2.0):
            assert gamma_fs(params, xi, pt([0.5], 0.1, tau)) == 0.0

    def test_axis_value_uses_profile_limit(self):
        # xy = 0 cases reduce to the F(0) = 1/Gamma((a+1)/2) limit
        for a in (-0.5, 0.6):
            params = KernelParams(2, a)
            xi = pt([0.2], 0.0, 1.0)
            z = pt([0.0], 0.4, 0.0)
            d = 1.0
            dist2 = 0.2 ** 2 + 0.4 ** 2
            ref = (
                params.c_na
                * d ** (-(2 + a) / 2.0)
                * math.exp(-dist2 / (4 * d))
                / math.gamma((a + 1.0) / 2.0)
            )
            assert gamma_fs(params, xi, z) == pytest.approx(ref, rel=1e-13)

    def test_a_zero_reduction_sample(self):
        params = KernelParams(3, 0.0)
        rng = np.random.default_rng(7)
        for _ in range(50):
            X = rng.normal(size=3)
            Y = rng.normal(size=3)
            t, tau = 1.5, rng.uniform(0.0, 1.0)
            got = gamma_fs(params, pt(X[:2], X[2], t), pt(Y[:2], Y[2], tau))
            assert got == pytest.approx(heat_kernel(3, X, t, Y, tau), rel=1e-12)

    def test_positivity(self):
        rng = np.random.default_rng(3)
        for a in (-0.8, 0.8):
            params = KernelParams(2, a)
            for _ in range(50):
                X = rng.normal(size=2) * 2
                Y = rng.normal(size=2) * 2
                got = gamma_fs(params, pt(X[:1], X[1], 1.0), pt(Y[:1], Y[1], 0.3))
                assert got > 0.0

    def test_translation_invariance(self):
        params = KernelParams(2, -0.3)
        g1 = gamma_fs(params, pt([0.4], 0.7, 2.0), pt([0.1], 0.2, 0.5))
        g2 = gamma_fs(params, pt([1.4], 0.7, 5.0), pt([1.1], 0.2, 3.5))
        assert g1 == pytest.approx(g2, rel=1e-14)

    def test_symmetry_in_spatial_arguments(self):
        params = KernelParams(2, 0.45)
        g1 = gamma_fs(params, pt([0.4], 0.7, 2.0), pt([0.1], -0.2, 0.5))
        g2 = gamma_fs(params, pt([0.1], -0.2, 2.0), pt([0.4], 0.7, 0.5))
        assert g1 == pytest.approx(g2, rel=1e-14)

    def test_underflow_flushes_to_zero(self):
        params = KernelParams(2, 0.2)
        got = gamma_fs(params, pt([100.0], 0.0, 1.0), pt([0.0], 0.0, 1.0 - 1e-6))
        assert got == 0.0

    def test_vectorized_matches_scalar(self):
        params = KernelParams(2, -0.6)
        rng = np.random.default_rng(11)
        obs = rng.normal(size=(8, 2))
        src = rng.normal(size=(8, 2))
        taus = rng.uniform(0, 0.9, size=8)
        vec = gamma_fs_vec(params, obs, 1.0, src, taus)
        for k in range(8):
            ref = gamma_fs(
                params, pt(obs[k, :1], obs[k, 1], 1.0), pt(src[k, :1], src[k, 1], taus[k])
            )
            assert vec[k] == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("n,a", [(2, -0.5), (2, 0.3), (3, -0.8), (3, 0.6)])
    def test_factorizes_into_free_gaussians_and_u_tilde(self, n, a):
        params = KernelParams(n, a)
        rng = np.random.default_rng(7)
        m = 240
        obs = rng.uniform(-1.0, 1.0, (m, n))
        src = rng.uniform(-1.0, 1.0, (m, n))
        dt = rng.uniform(0.1, 1.0, m)
        src[:30, -1] = 0.0  # source on the degenerate plane
        obs[30:90, -1] = -np.sign(src[30:90, -1]) * np.abs(obs[30:90, -1])  # x y < 0
        dt[90:110] = 0.0
        dt[110:130] *= -1.0
        live = dt > 0.0
        assert np.any(live & (src[:, -1] == 0.0))
        assert np.any(live & (obs[:, -1] * src[:, -1] < 0.0))
        got = gamma_fs_vec(params, obs, dt, src, 0.0)
        d = np.where(live, dt, 1.0)[:, None]
        free = np.prod(
            np.exp(-((obs[:, :-1] - src[:, :-1]) ** 2) / (4.0 * d))
            / np.sqrt(4.0 * math.pi * d),
            axis=1,
        )
        want = np.where(live, free * u_tilde(params, obs[:, -1], src[:, -1], dt), 0.0)
        assert np.all(got[~live] == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestGradient:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(5)
        for a in (-0.6, 0.0, 0.4):
            params = KernelParams(2, a)
            xi = pt([0.3], 0.7, 1.2)
            z = pt([-0.2], 0.5, 0.3)
            grad = gamma_grad_y_vec(params, xi.spatial, xi.t, z.spatial, z.t)
            for i in range(2):
                h = 1e-5 * (1.0 + abs(z.spatial[i]))
                sp = z.spatial.copy()
                sp[i] += h
                up = gamma_fs(params, xi, SpaceTimePoint.from_spatial(sp, z.t))
                sp[i] -= 2 * h
                dn = gamma_fs(params, xi, SpaceTimePoint.from_spatial(sp, z.t))
                assert grad[i] == pytest.approx((up - dn) / (2 * h), rel=1e-6)

    def test_classical_reduction(self):
        params = KernelParams(2, 0.0)
        xi = pt([0.5], -0.3, 2.0)
        z = pt([0.0], 0.4, 0.5)
        grad = gamma_grad_y_vec(params, xi.spatial, xi.t, z.spatial, z.t)
        d = xi.t - z.t
        ref = gamma_fs(params, xi, z) * (xi.spatial - z.spatial) / (2.0 * d)
        assert np.allclose(grad, ref, rtol=1e-13)

    def test_zero_vector_at_coincident_axis_points(self):
        params = KernelParams(2, 0.5)
        grad = gamma_grad_y_vec(params, [0.2, 0.0], 1.0, [0.2, 0.0], 0.0)
        assert np.allclose(grad, 0.0)


class TestWeightedNormalLimit:
    def test_zero_at_x_zero(self):
        params = KernelParams(2, 0.4)
        assert weighted_normal_limit_vec(params, 0.0, 1.0) == 0.0

    def test_sign_matches_x(self):
        params = KernelParams(2, -0.3)
        plus = weighted_normal_limit_vec(params, 0.8, 1.0)
        minus = weighted_normal_limit_vec(params, -0.8, 1.0)
        assert plus > 0.0 > minus

    def test_classical_reduction(self):
        # at a=0 the limit times the free Gaussian is D_y of the heat kernel at y=0
        params = KernelParams(2, 0.0)
        xi = pt([0.1], 0.8, 1.0)
        tau = 0.2
        d = xi.t - tau
        got = weighted_normal_limit_vec(params, xi.x, d) / math.sqrt(4.0 * math.pi * d)
        ref = heat_kernel(2, xi.spatial, xi.t, [0.1, 0.0], tau) * xi.x / (2.0 * d)
        assert got == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("a", [-0.5, 0.3])
    def test_one_sided_extrapolation(self, a):
        # |y|^a D_y Gamma converges to the limit times the free Gaussian at
        # rate |y|^{1+a}; two-point extrapolation in that exponent hits 1e-5
        params = KernelParams(2, a)
        xi = pt([0.1], 0.8, 1.0)
        tau = 0.2
        d = xi.t - tau
        gauss = heat_kernel(1, [0.1], xi.t, [0.0], tau)
        ref = weighted_normal_limit_vec(params, xi.x, d) * gauss
        vals = []
        ys = [1e-4, 1e-5]
        for y in ys:
            g = gamma_grad_y_vec(params, xi.spatial, xi.t, [0.0, y], tau)[-1]
            vals.append(abs(y) ** a * g)
        # the leading correction scales like |y|^{1+a}
        rho = (ys[0] / ys[1]) ** (1.0 + a)
        extrap = (rho * vals[1] - vals[0]) / (rho - 1.0)
        assert extrap == pytest.approx(ref, rel=1e-5)


class TestMassIntegral:
    def test_gaussian_case(self):
        params = KernelParams(2, 0.0)
        assert mass_integral(params, ([0.7], 0.3), 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_weight(self):
        params = KernelParams(2, 0.5)
        assert mass_integral(params, ([0.0], 0.3), 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_singular_weight_3d(self):
        params = KernelParams(3, -0.5)
        assert mass_integral(params, ([0.0, 0.0], 0.0), 0.2) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_random_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            n = int(rng.integers(2, 4))
            a = float(rng.uniform(-0.9, 0.9))
            params = KernelParams(n, a)
            x = float(rng.normal())
            t = float(rng.uniform(0.05, 2.0))
            xp = rng.normal(size=n - 1)
            assert mass_integral(params, (xp, x), t) == pytest.approx(1.0, abs=1e-6)


class TestSemigroup:
    def test_gaussian_case(self):
        params = KernelParams(2, 0.0)
        assert semigroup_residual(params, 0.3, 0.2, 1.0, 0.4) <= 1e-10

    def test_weighted_case(self):
        params = KernelParams(2, 0.7)
        assert semigroup_residual(params, 1.0, -0.5, 0.5, 0.5) <= 1e-6

    def test_degenerate_points(self):
        params = KernelParams(2, 0.7)
        assert semigroup_residual(params, 0.0, 0.0, 0.5, 0.5) <= 1e-6


class TestBoundsSandwich:
    def test_ratios_bounded_over_sample(self):
        rng = np.random.default_rng(9)
        for a in (-0.5, 0.5):
            params = KernelParams(2, a)
            X = rng.normal(size=(2000, 2)) * 1.5
            Y = rng.normal(size=(2000, 2)) * 1.5
            d = rng.uniform(0.02, 2.0, size=2000)
            lo, val, up = bounds_sandwich(params, X, d, Y, 0.0)
            keep = (val > 1e-280) & (up > 1e-280) & (lo > 1e-280)
            assert max(lo[keep] / val[keep]) < 50.0
            assert max(val[keep] / up[keep]) < 50.0

    def test_a_zero_structure(self):
        # at a=0 the weight factors drop out and value/upper depends only
        # on the distances, with ratio e^{-d^2/4t}/e^{-d^2/6t} on the y-axis
        params = KernelParams(2, 0.0)
        lo, val, up = bounds_sandwich(params, [0.0, 1.0], 1.0, [0.0, 0.0], 0.0)
        ref = (4.0 * math.pi) ** -0.5 * math.exp(-0.25 + 1.0 / 6.0)
        assert val / up == pytest.approx(ref, rel=1e-12)

    def test_causality(self):
        params = KernelParams(2, 0.3)
        got = bounds_sandwich(params, [0.0, 1.0], 0.0, [0.0, 0.0], 1.0)
        assert tuple(map(float, got)) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_pairs_match_one_pair_calls(self, n):
        # one call over causal and acausal pairs, some on y = 0, gives each
        # pair what a call on that pair alone gives
        params = KernelParams(n, -0.4)
        rng = np.random.default_rng(11)
        obs, src = rng.normal(size=(2, 12, n))
        obs[::4, -1] = 0.0
        obs_t, src_t = rng.uniform(0.0, 1.0, size=(2, 12))
        batch = np.array(bounds_sandwich(params, obs, obs_t, src, src_t))
        assert np.all(batch[:, obs_t <= src_t] == 0.0)
        assert np.all(batch[:, obs_t > src_t] > 0.0)
        for i in range(12):
            one = bounds_sandwich(params, obs[i], obs_t[i], src[i], src_t[i])
            np.testing.assert_allclose(batch[:, i], np.array(one), rtol=1e-13, atol=0.0)


class TestLogCore:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a", [-0.6, 0.0, 0.4])
    def test_grad_log_matches_differences(self, n, a):
        # central differences of log Gamma in each source coordinate; the
        # last observation sits on y = 0, where the chain term is 0
        params = KernelParams(n, a)
        rng = np.random.default_rng(17)
        obs = rng.normal(size=(6, n))
        obs[-1, -1] = 0.0
        src = rng.normal(size=(6, n))
        src[:, -1] = np.abs(src[:, -1]) + 0.2
        obs_t, src_t = 1.3, rng.uniform(0.0, 1.0, size=6)
        grad = grad_log_gamma_vec(params, obs, obs_t, src, src_t)
        h = 1e-5
        for i in range(n):
            step = h * np.eye(n)[i]
            up = log_gamma_vec(params, obs, obs_t, src + step, src_t)
            dn = log_gamma_vec(params, obs, obs_t, src - step, src_t)
            np.testing.assert_allclose(grad[:, i], (up - dn) / (2 * h), rtol=1e-6, atol=1e-8)
        d = obs_t - src_t[-1]
        assert grad[-1, -1] == (obs[-1, -1] - src[-1, -1]) / (2.0 * d)

    @pytest.mark.parametrize("n", [2, 3])
    def test_exp_of_log_is_gamma(self, n):
        params = KernelParams(n, 0.3)
        rng = np.random.default_rng(19)
        obs, src = rng.normal(size=(2, 40, n))
        src[::5, -1] = 0.0
        obs_t, src_t = rng.uniform(-1.0, 1.0, size=(2, 40))
        log_gam = log_gamma_vec(params, obs, obs_t, src, src_t)
        dead = obs_t <= src_t
        assert dead.any() and np.all(log_gam[dead] == -np.inf)
        assert np.all(np.isfinite(log_gam[~dead]))
        gam = gamma_fs_vec(params, obs, obs_t, src, src_t)
        assert np.array_equal(np.exp(log_gam), gam)
        assert np.all(grad_log_gamma_vec(params, obs, obs_t, src, src_t)[dead] == 0.0)

    @pytest.mark.parametrize("a", [-0.6, 0.0, 0.4])
    def test_u_tilde_dy_matches_differences(self, a):
        params = KernelParams(2, a)
        x = np.array([0.7, -0.4, 0.0, 1.2])
        y = np.array([0.5, -0.9, 0.6, -0.3])
        dt = np.array([0.4, 1.1, 0.8, 0.3])
        h = 1e-6
        fd = (u_tilde(params, x, y + h, dt) - u_tilde(params, x, y - h, dt)) / (2 * h)
        np.testing.assert_allclose(u_tilde_dy(params, x, y, dt), fd, rtol=1e-6, atol=1e-10)


class TestEquationResidual:
    @pytest.mark.parametrize("a", [-0.5, 0.4])
    def test_backward_equation_vanishes(self, a):
        # D_tau Gamma + Delta_Y Gamma + (a/y) D_y Gamma = 0 away from
        # the pole and the axis, at 4th order in the stencil
        params = KernelParams(2, a)
        xi = pt([0.1], 0.6, 1.5)

        def residual(h):
            Y = np.array([0.35, 0.45])
            tau = 0.4

            def g(dy0, dy1, dtau):
                return gamma_fs(
                    params,
                    xi,
                    pt([Y[0] + dy0], Y[1] + dy1, tau + dtau),
                )

            c = g(0, 0, 0)
            lap = 0.0
            for i in range(2):
                vals = [
                    g(*(h * k * np.eye(2)[i]), 0.0) for k in (-2, -1, 1, 2)
                ]
                lap += (
                    -vals[0] + 16 * vals[1] + 16 * vals[2] - vals[3] - 30 * c
                ) / (12 * h * h)
            tvals = [g(0, 0, h * k) for k in (-2, -1, 1, 2)]
            dtau = (tvals[0] - 8 * tvals[1] + 8 * tvals[2] - tvals[3]) / (12 * h)
            yvals = [g(0, h * k, 0) for k in (-2, -1, 1, 2)]
            dy = (yvals[0] - 8 * yvals[1] + 8 * yvals[2] - yvals[3]) / (12 * h)
            return abs(dtau + lap + (a / Y[1]) * dy)

        r1 = residual(0.05)
        r2 = residual(0.025)
        assert r1 < 1e-5
        order = math.log(r1 / r2) / math.log(2.0)
        assert order >= 1.8

    def test_initial_trace_recovery(self):
        # int Gamma(X,t;Y,0) g(Y) |y|^a dY -> g(X) as t -> 0+
        from degenheat.quadrature import integrate_weighted_interval

        params = KernelParams(2, 0.5)
        X = (0.4, 0.3)

        def g(y0, y1):
            return np.cos(y0) * np.exp(-0.5 * y1 ** 2)

        def smoothed(t):
            r = 9.0 * math.sqrt(2.0 * t)
            inner = integrate_weighted_interval(
                lambda y0: (4 * math.pi * t) ** -0.5
                * np.exp(-((X[0] - y0) ** 2) / (4 * t))
                * np.cos(y0),
                X[0] - r,
                X[0] + r,
                0.0,
                tol=1e-8,
            )
            outer = integrate_weighted_interval(
                lambda y1: u_tilde(params, X[1], y1, t) * np.exp(-0.5 * y1 ** 2),
                min(X[1], 0.0) - r,
                max(X[1], 0.0) + r,
                params.a,
                tol=1e-8,
            )
            return inner * outer

        target = g(*X)
        errs = [abs(smoothed(t) - target) for t in (0.1, 0.025, 0.00625)]
        assert errs[1] < errs[0] / 3.0
        assert errs[2] < errs[1] / 3.0
        assert errs[2] < 0.02
