"""Tests for |y|^a-weighted quadrature and graded time integration."""
import math

import numpy as np
import pytest

from degenheat.quadrature import (
    chunks,
    gauss_legendre,
    graded_breakpoints,
    integrate_weighted_interval,
    tensor_rule,
    weighted_rule,
)


def weighted_monomial(lo, hi, a, m):
    """Closed form of int_lo^hi |y|^a y^m dy."""
    def anti(y):
        if y == 0.0:
            return 0.0
        return math.copysign(abs(y) ** (a + m + 1), y ** (m + 1)) / (a + m + 1)

    if lo < 0.0 < hi:
        return weighted_monomial(lo, 0.0, a, m) + weighted_monomial(0.0, hi, a, m)
    return anti(hi) - anti(lo)


class TestWeightedRule:
    @pytest.mark.parametrize("a", [-0.9, -0.5, 0.0, 0.3, 0.8])
    @pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.0, 2.0), (-1.5, 0.0), (0.5, 2.0), (-0.7, 1.3)])
    def test_monomial_exactness(self, a, interval):
        lo, hi = interval
        nodes, weights = weighted_rule(lo, hi, a, 16)
        for m in range(0, 12):
            got = np.sum(weights * nodes**m)
            ref = weighted_monomial(lo, hi, a, m)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-14), m

    def test_positive_weights(self):
        _, weights = weighted_rule(-2.0, 3.0, -0.5, 20)
        assert np.all(weights > 0.0)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            weighted_rule(0.0, 1.0, -1.0, 16)


def test_gauss_legendre_exact_to_degree_2m_minus_1():
    lo, hi, m = -0.3, 1.7, 5
    nodes, weights = gauss_legendre(lo, hi, m)
    assert np.all((lo < nodes) & (nodes < hi))
    for k in range(2 * m):
        ref = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
        assert float(np.sum(weights * nodes**k)) == pytest.approx(ref, rel=1e-13, abs=1e-14)


class TestIntegrateWeightedInterval:
    def test_constant(self):
        got = integrate_weighted_interval(lambda y: np.ones_like(y), -1, 1, 0.5, tol=1e-8)
        assert got == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_square_with_singular_weight(self):
        got = integrate_weighted_interval(lambda y: y * y, 0, 1, -0.5, tol=1e-8)
        assert got == pytest.approx(0.4, rel=1e-10)

    def test_non_finite_integrand_raises(self):
        # a NaN panel estimate never meets the tolerance; it must not be
        # refined to the depth limit
        with pytest.raises(RuntimeError):
            integrate_weighted_interval(lambda y: np.full_like(y, np.nan), 0, 1, 0.3, tol=1e-8)

    def test_gaussian(self):
        got = integrate_weighted_interval(lambda y: np.exp(-y * y), -9, 9, 0.0, tol=1e-8)
        assert got == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_gaussian_tail_truncation(self):
        # truncation at R standard deviations loses less than the e^{-R^2/8}
        # scale factor relative to a much larger domain
        full = integrate_weighted_interval(lambda y: np.exp(-y * y / 2), -30, 30, 0.3, tol=1e-8)
        for r_std in (6.0, 9.0):
            trunc = integrate_weighted_interval(
                lambda y: np.exp(-y * y / 2), -r_std, r_std, 0.3, tol=1e-8
            )
            assert abs(full - trunc) <= math.exp(-r_std * r_std / 8.0) * full

    @pytest.mark.parametrize("k", range(5))
    def test_monotone_family(self, k):
        a = -0.4
        got = integrate_weighted_interval(
            lambda y, k=k: np.abs(y) ** k, 0.0, 1.0, a, tol=1e-8
        )
        assert got == pytest.approx(1.0 / (1.0 + a + k), rel=1e-10)

    def test_sphere_surface_measure_identity(self):
        # int_{|X-Y|=r} |y|^a dsigma at X=(x',0) equals
        # 2 r^{n-1+a} pi^{(n-1)/2} Gamma((1+a)/2)/Gamma((n+a)/2);
        # for n=3 reduce to a weighted interval by u = cos(theta)
        a = 0.4
        r = 1.3
        got = (
            2.0
            * math.pi
            * r ** (2.0 + a)
            * integrate_weighted_interval(lambda u: np.ones_like(u), -1, 1, a, tol=1e-8)
        )
        ref = (
            2.0
            * r ** (2.0 + a)
            * math.pi
            * math.gamma((1.0 + a) / 2.0)
            / math.gamma((3.0 + a) / 2.0)
        )
        assert got == pytest.approx(ref, rel=1e-10)

    def test_circle_surface_measure_identity(self):
        # n=2 version via y-substitution with the 1/sqrt(r^2-y^2) Jacobian
        a = -0.3
        r = 0.8
        got = 4.0 * r * integrate_weighted_interval(
            lambda y: 1.0 / np.sqrt(r * r - y * y),
            0.0,
            r * (1.0 - 1e-14),
            a,
            tol=1e-9,
        )
        ref = (
            2.0
            * r ** (1.0 + a)
            * math.sqrt(math.pi)
            * math.gamma((1.0 + a) / 2.0)
            / math.gamma((2.0 + a) / 2.0)
        )
        assert got == pytest.approx(ref, rel=1e-6)


class TestGradedBreakpoints:
    def test_breakpoints_increasing(self):
        b = graded_breakpoints(0.0, 1.0, 20)
        assert np.all(np.diff(b) > 0.0)
        # graded toward a left end, the breakpoints decrease
        assert np.all(np.diff(graded_breakpoints(1.0, 0.0, 20)) < 0.0)

    def test_last_gap_bound(self):
        b = graded_breakpoints(0.0, 2.0, 30)
        assert len(b) == 31
        assert 2.0 - b[-1] <= 0.5 ** 30 * 2.0 * (1 + 1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            graded_breakpoints(1.0, 1.0, 4)


def meshgrid_reference(nodes, weights):
    """Tensor product by explicit meshgrid columns, weights multiplied per axis."""
    grids = np.meshgrid(*nodes, indexing="ij")
    wgrids = np.meshgrid(*weights, indexing="ij")
    pts = np.empty((grids[0].size, len(nodes)))
    wts = np.ones(grids[0].size)
    for i, (g, wg) in enumerate(zip(grids, wgrids)):
        pts[:, i] = g.ravel()
        wts *= wg.ravel()
    return pts, wts


class TestTensorRule:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_meshgrid_reference(self, k):
        rng = np.random.default_rng(k)
        nodes = [rng.uniform(-1, 1, size) for size in (3, 5, 2, 4)[:k]]
        weights = [rng.uniform(0.1, 1, len(x)) for x in nodes]
        ref_pts, ref_wts = meshgrid_reference(nodes, weights)
        assert np.array_equal(tensor_rule(nodes), ref_pts)
        pts, wts = tensor_rule(nodes, weights)
        assert np.array_equal(pts, ref_pts)
        assert np.array_equal(wts, ref_wts)

    def test_integrates_separable_weighted_product(self):
        a = 0.4
        (x, wx), (y, wy) = weighted_rule(0.0, 1.0, 0.0, 8), weighted_rule(-1.0, 1.0, a, 8)
        pts, wts = tensor_rule([x, y], [wx, wy])
        got = float(np.sum(wts * pts[:, 0] * pts[:, 1] ** 2))
        assert got == pytest.approx(0.5 * 2.0 / (3.0 + a), rel=1e-12)


def _greedy_chunks(sizes, budget):
    """Chunks by one step per item: close a chunk when the next item would pass the budget."""
    out, start, total = [], 0, 0
    for i, size in enumerate(sizes):
        if total + size > budget and i > start:
            out.append((start, i))
            start, total = i, 0
        total += size
    return out + ([(start, len(sizes))] if len(sizes) > start else [])


@pytest.mark.parametrize(
    "sizes",
    [[], [5], [3, 3, 3, 3], [10, 1, 1, 12, 2, 9], [4, 6, 10, 0, 3], list(range(1, 40))],
)
def test_chunks_match_greedy_steps(sizes):
    # an item over the budget forms a chunk of its own; a chunk never exceeds it otherwise
    for budget in (1, 7, 10, 25):
        assert list(chunks(sizes, budget)) == _greedy_chunks(sizes, budget), budget
