"""Geometry tests: heat balls, shells, sampling, boxes."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from degenheat import geometry, separable
from degenheat.geometry import (
    BoxDomain,
    HeatBall,
    Shell,
    heat_ball_sample,
    heat_ball_samples,
    heat_ball_threshold,
)
from degenheat.params import KernelParams, SpaceTimePoint
from degenheat.quadrature import box_lattice

RNG = np.random.default_rng(20240817)


def classical_ball_member(n, center, r, zeta):
    """Closed-form a = 0 heat-ball membership test."""
    dt = center.t - zeta.t
    if dt <= 0.0 or dt >= r:
        return False
    rho2 = float(np.sum((center.spatial - zeta.spatial) ** 2))
    return rho2 < 2.0 * n * dt * math.log(r / dt)


def test_classical_membership_agrees_with_closed_form():
    params = KernelParams(n=2, a=0.0)
    center = SpaceTimePoint(x_prime=(0.3,), x=-0.2, t=1.0)
    ball = HeatBall(center, r=0.5, params=params)
    hits = 0
    for _ in range(400):
        sp = center.spatial + RNG.uniform(-1.5, 1.5, size=2)
        t = center.t - RNG.uniform(0.0, 0.8)
        zeta = SpaceTimePoint.from_spatial(sp, t)
        ref = classical_ball_member(2, center, 0.5, zeta)
        assert ball.contains_vec(zeta.spatial, zeta.t, ball.threshold) == ref
        hits += ref
    assert hits > 10


def test_threshold_decreasing_in_r():
    for a in (-0.6, 0.0, 0.4):
        params = KernelParams(n=3, a=a)
        rs = np.geomspace(0.01, 3.0, 40)
        vals = [heat_ball_threshold(params, 0.7, r) for r in rs]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


@pytest.mark.parametrize("a", [-0.5, 0.0, 0.3])
def test_balls_nest(a):
    params = KernelParams(n=2, a=a)
    center = SpaceTimePoint(x_prime=(0.0,), x=0.4, t=0.0)
    small = HeatBall(center, r=0.2, params=params)
    big = HeatBall(center, r=0.6, params=params)
    sample = heat_ball_sample(small, density=12)
    assert np.all(big.contains_vec(sample.spatial, sample.times, big.threshold))


def test_future_points_excluded():
    params = KernelParams(n=2, a=0.3)
    center = SpaceTimePoint(x_prime=(0.0,), x=0.5, t=0.0)
    ball = HeatBall(center, r=0.4, params=params)
    # Gamma vanishes at t >= t0, so no such point clears the threshold
    assert not ball.contains_vec([0.0, 0.5], 0.1, ball.threshold)
    assert not ball.contains_vec(center.spatial, center.t, ball.threshold)


def test_sample_points_inside_and_in_past():
    params = KernelParams(n=2, a=-0.4)
    center = SpaceTimePoint(x_prime=(0.1,), x=0.6, t=2.0)
    ball = HeatBall(center, r=0.3, params=params)
    sample = heat_ball_sample(ball, density=16)
    assert np.all(sample.times < center.t)
    assert np.all(ball.contains_vec(sample.spatial, sample.times, ball.threshold))
    assert sample.h_space > 0.0 and sample.h_time > 0.0


def test_classical_volume_n2():
    # for n = 2, a = 0 the heat-ball space-time volume is exactly pi r^2
    params = KernelParams(n=2, a=0.0)
    center = SpaceTimePoint(x_prime=(0.0,), x=0.0, t=0.0)
    r = 0.7
    ball = HeatBall(center, r=r, params=params)
    sample = heat_ball_sample(ball, density=96)
    vol = sample.h_space**params.n * sample.h_time * len(sample.times)
    assert abs(vol - math.pi * r * r) / (math.pi * r * r) < 0.02


def test_sample_volume_self_convergence():
    params = KernelParams(n=2, a=0.35)
    center = SpaceTimePoint(x_prime=(0.0,), x=0.5, t=0.0)
    ball = HeatBall(center, r=0.4, params=params)
    samples = [heat_ball_sample(ball, density=d) for d in (24, 48, 96)]
    vols = [s.h_space**params.n * s.h_time * len(s.times) for s in samples]
    err1 = abs(vols[1] - vols[2])
    err0 = abs(vols[0] - vols[2])
    assert err1 < err0
    assert err1 / vols[2] < 0.02


@pytest.mark.parametrize("budget", [geometry.CHUNK_POINTS, 200])
def test_concentric_pass_matches_one_ball_passes(budget, monkeypatch):
    # one pass over the outer balls of a series gives each ball the lattice its
    # own pass gives, the deepest ones after doubling their density, whether a
    # round tabulates all balls in one call per axis, or in calls of at most 200
    # (cell centre, lag) pairs: at most 12 balls a call at density 4 and 3 at
    # density 8, and at density 16 one ball split into calls of 12 and 4 centres
    monkeypatch.setattr(geometry, "CHUNK_POINTS", budget)
    monkeypatch.setattr(separable, "CHUNK_POINTS", budget)
    params = KernelParams(n=2, a=0.3)
    center = SpaceTimePoint(x_prime=(0.5,), x=0.7, t=0.0)
    balls = [HeatBall(center, 0.5**k, params) for k in range(1, 14)]
    samples = heat_ball_samples(balls, 4, 4)
    densified = 0
    for ball, sample in zip(balls, samples):
        for density in (4, 8, 16, 32):
            try:
                alone = heat_ball_sample(ball, density)
                break
            except RuntimeError:
                densified += 1
        assert np.array_equal(sample.spatial, alone.spatial)
        assert np.array_equal(sample.times, alone.times)
        assert (sample.h_space, sample.h_time) == (alone.h_space, alone.h_time)
    assert densified > 0
    with pytest.raises(RuntimeError, match="no heat-ball samples found at density 4"):
        heat_ball_samples(balls, 4, 1)


@pytest.mark.parametrize("n,a,y0,density", [(2, 0.3, 0.7, 48), (3, -0.5, 0.0, 16)])
def test_sample_charge_bounds_traced_peak(monkeypatch, n, a, y0, density):
    # one lattice of several chunks (110,592 and 65,536 points) is charged its tables'
    # kernel call and 8 (2n + 3) bytes a point, for the product, the lattice and at
    # most as many members, before anything is built; the charge must cover the
    # traced peak and stay near it
    ball = HeatBall(SpaceTimePoint((0.5,) * (n - 1), y0, 0.0), 0.05, KernelParams(n=n, a=a))
    ball.bounding_box()
    assert density ** (n + 1) > geometry.CHUNK_POINTS
    charged = []
    monkeypatch.setattr(geometry, "check_fits", lambda need, what: charged.append(need))
    tracemalloc.start()
    try:
        heat_ball_sample(ball, density)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charged) == 1 and peak <= charged[0] <= 4 * peak, charged[0] / peak


def test_chunked_members_equal_one_call_reference():
    # concentric balls whose lattices at density 32 hold two chunks each, a product
    # formed whole: the members are those of one kernel call over each ball's box lattice
    params = KernelParams(n=2, a=0.3)
    center = SpaceTimePoint(x_prime=(0.5,), x=0.7, t=0.0)
    balls = [HeatBall(center, 0.5**k, params) for k in range(1, 4)]
    for ball, sample in zip(balls, heat_ball_samples(balls, 32, 1)):
        depth, radius = ball.bounding_box()
        box = box_lattice(center.spatial - radius, center.spatial + radius, -depth, 0.0, 32)
        mask = ball.contains_vec(box.spatial, box.times, ball.threshold)
        assert len(box.times) == 2 * geometry.CHUNK_POINTS
        assert np.array_equal(sample.spatial, box.spatial[mask])
        assert np.array_equal(sample.times, box.times[mask])
        assert (sample.h_space, sample.h_time) == (box.h_space, box.h_time)


def _filtered_box_lattice(ball, density, tries):
    """The reference pass: Gamma on every point of the ball's box lattice, densified
    while empty; None if every density is empty."""
    depth, radius = ball.bounding_box()
    sp, t0 = ball.center.spatial, ball.center.t
    for attempt in range(tries):
        box = box_lattice(sp - radius, sp + radius, t0 - depth, t0, density * 2**attempt)
        mask = ball.contains_vec(box.spatial, box.times, ball.threshold)
        if mask.any():
            return box._replace(spatial=box.spatial[mask], times=box.times[mask])
    return None


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("a", [-0.9, -0.5, 0.0, 0.3, 0.9])
def test_members_equal_contains_vec_on_box_lattice(n, a):
    # the tables' products select bit for bit the points where Gamma, evaluated on the
    # whole box lattice, exceeds the threshold, on and near y = 0 and off it, after
    # the same doublings; a series with a ball that stays empty raises
    params = KernelParams(n=n, a=a)
    for y0 in (0.0, 0.02, 0.05, 0.7):
        center = SpaceTimePoint((0.5,) * (n - 1), y0, 0.3)
        balls = [HeatBall(center, 0.5**k, params) for k in range(1, 7)]
        want = [_filtered_box_lattice(ball, 4, 3) for ball in balls]
        found = [ball for ball, ref in zip(balls, want) if ref is not None]
        samples = heat_ball_samples(found, 4, 3) if found else []
        for ref, sample in zip([ref for ref in want if ref is not None], samples, strict=True):
            assert np.array_equal(sample.spatial, ref.spatial)
            assert np.array_equal(sample.times, ref.times)
            assert (sample.h_space, sample.h_time) == (ref.h_space, ref.h_time)
        if len(found) < len(balls):
            with pytest.raises(RuntimeError, match="no heat-ball samples found at density 16"):
                heat_ball_samples(balls, 4, 3)


def test_empty_lattice_builds_no_box_lattice(monkeypatch):
    # at density 4 the deepest balls of the series are empty and densify: a ball
    # builds the box lattice of the one density at which it has members, and none
    # while it stays empty
    built, box = [], geometry.box_lattice
    monkeypatch.setattr(geometry, "box_lattice", lambda *args: built.append(args[-1]) or box(*args))
    center = SpaceTimePoint(x_prime=(0.5,), x=0.7, t=0.0)
    balls = [HeatBall(center, 0.5**k, KernelParams(n=2, a=0.3)) for k in range(1, 9)]
    heat_ball_samples(balls, 4, 4)
    assert len(built) == len(balls) and max(built) > 4
    built.clear()
    with pytest.raises(RuntimeError):
        heat_ball_samples(balls, 4, 1)
    assert 0 < len(built) < len(balls)


def test_shell_two_sided_membership():
    params = KernelParams(n=2, a=0.3)
    center = SpaceTimePoint(x_prime=(0.0,), x=0.5, t=0.0)
    shell = Shell(center, lam=0.5, k=2, params=params)
    lo, hi = shell.thresholds()
    assert lo < hi
    outer = HeatBall(center, shell.outer_radius, params)
    inner = HeatBall(center, shell.inner_radius, params)
    sample = heat_ball_sample(outer, density=20)
    in_shell = shell.contains_vec(sample.spatial, sample.times)
    in_inner = inner.contains_vec(sample.spatial, sample.times, inner.threshold)
    # shell members are exactly the outer-ball points not interior to the
    # inner ball (up to the shared level surface, measure zero on a lattice)
    assert np.array_equal(in_shell, ~in_inner)
    assert np.any(in_shell)
    assert np.any(in_inner)


def test_point_on_outer_level_surface_is_member():
    # a = 0: solve the closed-form surface equation for the offset
    params = KernelParams(n=2, a=0.0)
    center = SpaceTimePoint(x_prime=(0.0,), x=0.0, t=0.0)
    shell = Shell(center, lam=0.5, k=1, params=params)
    r = shell.outer_radius
    dt = r / 2.0
    rho = math.sqrt(2.0 * params.n * dt * math.log(r / dt))
    zeta = SpaceTimePoint(x_prime=(rho,), x=0.0, t=-dt)
    assert shell.contains_vec(zeta.spatial, zeta.t)
    inner = HeatBall(center, shell.inner_radius, params)
    assert not inner.contains_vec(zeta.spatial, zeta.t, inner.threshold)


def test_consecutive_shells_tile_annulus():
    params = KernelParams(n=2, a=-0.5)
    center = SpaceTimePoint(x_prime=(0.0,), x=0.4, t=0.0)
    lam, kmax = 0.5, 4
    shells = [Shell(center, lam, k, params) for k in range(1, kmax + 1)]
    outer = HeatBall(center, lam, params)
    innermost = HeatBall(center, lam ** (kmax + 1), params)
    sample = heat_ball_sample(outer, density=18)
    in_hole = innermost.contains_vec(sample.spatial, sample.times, innermost.threshold)
    counts = np.zeros(len(sample.times), dtype=int)
    for sh in shells:
        counts += sh.contains_vec(sample.spatial, sample.times).astype(int)
    # annulus points are covered at least once; interior hole points never
    assert np.all(counts[~in_hole] >= 1)
    assert np.all(counts[in_hole] == 0)


def test_shell_validation():
    params = KernelParams(n=2, a=0.0)
    center = SpaceTimePoint(x_prime=(0.0,), x=0.0, t=0.0)
    with pytest.raises(ValueError):
        Shell(center, lam=1.2, k=1, params=params)
    with pytest.raises(ValueError):
        Shell(center, lam=0.5, k=0, params=params)


def test_box_domain_membership_and_classification():
    box = BoxDomain(lo=(0.0, 0.0), hi=(1.0, 2.0), t0=0.0, t1=1.0)
    assert box.contains(SpaceTimePoint(x_prime=(0.5,), x=1.0, t=0.5))
    assert not box.contains(SpaceTimePoint(x_prime=(0.5,), x=1.0, t=0.0))
    assert not box.contains(SpaceTimePoint(x_prime=(1.5,), x=1.0, t=0.5))
    assert len(box.faces()) == 4
    with pytest.raises(ValueError):
        BoxDomain(lo=(0.0,), hi=(0.0,), t0=0.0, t1=1.0)
    with pytest.raises(ValueError):
        BoxDomain(lo=(0.0,), hi=(1.0,), t0=1.0, t1=1.0)
