"""Mean-value operator tests: normalization, exactness, monotonicity."""
from __future__ import annotations

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import degenheat.meanvalue as meanvalue
from degenheat.capacity import DiscreteMeasure
from degenheat.geometry import HeatBall, heat_ball_sample, heat_ball_threshold
from degenheat.kernel import gamma_fs, gamma_fs_vec
from degenheat.meanvalue import HarnackReport, harnack_quotient, solid_mean
from degenheat.params import KernelParams, SpaceTimePoint

P = SpaceTimePoint
PARAMS = KernelParams(n=2, a=0.3)
XI0 = P(x_prime=(0.5,), x=0.7, t=0.0)
ZB = P(x_prime=(0.3,), x=0.4, t=-0.5)


def one(pts, t):
    return np.ones(len(np.atleast_2d(pts)))


def _pole_at_zb(params):
    def u(pts, t):
        return gamma_fs_vec(params, np.atleast_2d(pts), t, ZB.spatial, ZB.t)

    return u


# ---------------------------------------------------------------- weight


def test_phi_positive_and_increasing():
    # solid_mean normalizes by phi(r) = 1 / theta(r)
    for a in (-0.5, 0.0, 0.3):
        params = KernelParams(n=2, a=a)
        vals = [1.0 / heat_ball_threshold(params, 0.7, r) for r in (0.01, 0.1, 1.0, 10.0)]
        assert all(v > 0 for v in vals)
        assert vals == sorted(vals)


def test_weight_object():
    for r in (0.0, -0.1):
        with pytest.raises(ValueError):
            heat_ball_threshold(PARAMS, 0.7, r)


# ---------------------------------------------------------------- solid mean


def test_normalization():
    for a in (-0.5, 0.0, 0.3):
        params = KernelParams(n=2, a=a)
        for r in (0.01, 0.05):
            v = solid_mean(params, one, XI0, r, density=8)
            assert abs(v - 1.0) < 1e-3


def test_normalization_on_axis_center():
    xi = P(x_prime=(0.5,), x=0.0, t=0.0)
    v = solid_mean(PARAMS, one, xi, 0.02, density=8)
    assert abs(v - 1.0) < 1e-3


def test_exactness_family():
    ug = _pole_at_zb(PARAMS)

    def ua(pts, t):
        return 1.0 + 2.0 * np.atleast_2d(pts)[:, 0]

    for r in (0.01, 0.05):
        got = solid_mean(PARAMS, ug, XI0, r, density=8)
        want = gamma_fs(PARAMS, XI0, ZB)
        assert abs(got - want) <= 1e-3 * abs(want)
        got = solid_mean(PARAMS, ua, XI0, r, density=8)
        assert abs(got - 2.0) <= 1e-3 * 2.0


@pytest.mark.parametrize(
    "a,y0",
    [(0.3, 0.05), (0.3, 0.1), (-0.5, 0.1)],
    ids=["a0.3-y0.05", "a0.3-y0.1", "a-0.5-y0.1"],
)
def test_normalization_near_plane(a, y0):
    # the balls reach toward y = 0 from these centres; the errors are
    # 1.1e-4, 1.8e-5 and 9.7e-5 (a = -0.5, y0 = 0.05 gives 6.1e-3)
    params = KernelParams(n=2, a=a)
    xi = P(x_prime=(0.5,), x=y0, t=0.0)
    v = solid_mean(params, one, xi, 0.02, density=8)
    assert abs(v - 1.0) < 1e-3


@pytest.mark.parametrize(
    "n,a,x_prime,x,case,want",
    [
        (2, -0.5, (0.5,), 0.07, "one", 1.00349044104376),
        (2, -0.5, (0.5,), 0.07, "gamma", 0.0844213918939224),
        (2, -0.5, (0.5,), 0.7, "one", 0.9999898833319185),
        (2, -0.5, (0.5,), 0.7, "gamma", 0.08440104720586471),
        (2, 0.3, (0.5,), 0.07, "one", 1.0000761382462917),
        (2, 0.3, (0.5,), 0.07, "gamma", 0.1787531205320436),
        (2, 0.3, (0.5,), 0.7, "one", 0.9999360911501924),
        (2, 0.3, (0.5,), 0.7, "gamma", 0.18572736390024122),
        (3, 0.3, (0.5, 0.4), 0.7, "one", 1.0004629228033417),
    ],
)
def test_solid_mean_pinned(n, a, x_prime, x, case, want):
    # values of the node-by-node section quadrature; the batched one
    # reproduced them bit for bit, and the kernel profile and the order of
    # the final sum may move their last bits (the Horner profile moved
    # them by at most 6.7e-16; after the one sum over rows they are
    # within 8.3e-16)
    params = KernelParams(n=n, a=a)
    u = one if case == "one" else _pole_at_zb(params)
    xi = P(x_prime=x_prime, x=x, t=0.0)
    assert solid_mean(params, u, xi, 0.02, density=6) == pytest.approx(want, rel=1e-13)


def test_solid_mean_split_batches(monkeypatch):
    # a smaller chunk splits the scan, the bisection, the y-nodes and the
    # quadrature points of a slab into more calls; the mean stays the same to the bit
    params = KernelParams(n=3, a=0.3)
    xi = P(x_prime=(0.5, 0.4), x=0.7, t=0.0)
    whole = solid_mean(params, one, xi, 0.02, density=6)
    monkeypatch.setattr(meanvalue, "CHUNK_POINTS", 500)
    assert solid_mean(params, one, xi, 0.02, density=6) == whole


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("a", [-0.5, 0.3])
def test_solid_mean_time_shift(n, a):
    # L_a does not change under a shift in time, and the mean keeps one clock:
    # the kernel sees the lags and u the times measured from t0.  So a Gamma
    # pole at frame time -0.5 gives the same mean, to the bit, at every t0.
    params = KernelParams(n=n, a=a)
    xp, zp = ((0.5,), (0.3,)) if n == 2 else ((0.5, 0.4), (0.3, 0.2))
    zb = np.array([*zp, 0.4])

    def pole(pts, t):
        return gamma_fs_vec(params, np.atleast_2d(pts), t, zb, -0.5)

    def means(t0):
        xi = P(x_prime=xp, x=0.7, t=t0)
        return [solid_mean(params, u, xi, 0.02, density=6) for u in (one, pole)]

    base = means(0.0)
    for t0 in (1e8, 1e12, 1e14):
        assert means(t0) == base, t0


def test_solid_mean_kernel_calls(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("log_gamma_vec", "grad_log_gamma_vec"):
        monkeypatch.setattr(meanvalue, name, counted(getattr(meanvalue, name)))
    solid_mean(PARAMS, one, XI0, 0.02, density=6)
    # one batched pass over all depth nodes makes a few dozen kernel
    # calls, whatever the node count
    assert 0 < len(calls) <= 200
    calls.clear()
    depth_ub, _ = HeatBall(XI0, 0.02, PARAMS).bounding_box()
    log_theta = np.log(heat_ball_threshold(PARAMS, XI0.x, 0.02))
    meanvalue._section_depth(PARAMS, XI0, log_theta, depth_ub)
    # each call tests 31 trial depths of the bracket
    assert 0 < len(calls) <= 12


@pytest.mark.parametrize("a", [-0.5, 0.3])
@pytest.mark.parametrize("n,y0,density", [(2, 0.0, 24), (2, 0.7, 8), (3, 0.0, 6), (3, 0.7, 8)])
def test_slab_charge_bounds_traced_peak(monkeypatch, n, a, y0, density):
    # solid_mean charges its slab quadrature before any kernel call; the charge
    # must cover what the pass holds at its peak: on y = 0, where each slice
    # straddles the plane and takes 4 density y-nodes, and off it, where the
    # batched kernel calls hold most of it
    charged = []
    monkeypatch.setattr(meanvalue, "check_fits", lambda need, what: charged.append(need))
    xi = P(x_prime=(0.5,) * (n - 1), x=y0, t=0.0)
    tracemalloc.start()
    try:
        solid_mean(KernelParams(n=n, a=a), one, xi, 0.03, density=density)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charged) == 1 and peak <= charged[0] <= 4 * peak, charged[0] / peak


def test_u_called_once_per_sample_time():
    times = []

    def u(pts, t):
        times.append(t)
        return one(pts, t)

    r, density = 0.02, 24
    harnack_quotient(PARAMS, r, u, density=density)
    origin = P(x_prime=(0.0,), x=0.0, t=0.0)
    sample = heat_ball_sample(HeatBall(origin, 0.75 * r, PARAMS), density)
    # the interior sample times, plus the bottom-slice time
    assert len(times) <= len(np.unique(sample.times)) + 1


def test_solid_mean_validation(monkeypatch):
    with pytest.raises(ValueError):
        solid_mean(PARAMS, one, XI0, 0.02, density=0)
    # an unsupported dimension is refused before the ball is boxed
    monkeypatch.setattr(meanvalue, "HeatBall", None)
    xi = P(x_prime=(0.5, 0.5, 0.5), x=0.7, t=0.0)
    with pytest.raises(ValueError, match="n = 2 and n = 3"):
        solid_mean(KernelParams(n=4, a=0.3), one, xi, 0.02, density=8)
    with pytest.raises(ValueError, match="supports n = 2"):
        harnack_quotient(KernelParams(n=3, a=0.3), 0.02, one, density=8)


# ---------------------------------------------------------------- monotonicity


def test_potential_constant_when_atom_outside():
    mu = DiscreteMeasure(
        spatial=np.array([[0.3, 0.4]]), times=np.array([-0.8]), masses=np.array([0.7])
    )

    def u(pts, t):
        obs = np.atleast_2d(pts)[:, None]
        return gamma_fs_vec(PARAMS, obs, t, mu.spatial, mu.times) @ mu.masses

    means = [solid_mean(PARAMS, u, XI0, r, density=8) for r in (0.005, 0.01, 0.02)]
    u_center = float(u(XI0.spatial[None, :], XI0.t)[0])
    # nonincreasing in r, to 1e-4 of the largest mean
    assert max(np.diff(means)) <= 1e-4 * max(np.abs(means))
    for m in means:
        assert m == pytest.approx(u_center, rel=1e-3)
        assert m <= u_center * (1 + 1e-3)


def test_potential_decreasing_when_atom_inside():
    # atom close below the center lands inside the larger balls
    mu = DiscreteMeasure(
        spatial=np.array([[0.5, 0.7]]), times=np.array([-0.002]), masses=np.array([1.0])
    )

    def u(pts, t):
        obs = np.atleast_2d(pts)[:, None]
        return gamma_fs_vec(PARAMS, obs, t, mu.spatial, mu.times) @ mu.masses

    means = [solid_mean(PARAMS, u, XI0, r, density=8) for r in (0.02, 0.06, 0.18)]
    assert means[0] > means[1] > means[2]
    u_center = float(u(XI0.spatial[None, :], XI0.t)[0])
    assert all(m <= u_center for m in means)


# ---------------------------------------------------------------- harnack


def _pole_solution(params):
    def u(pts, t):
        return gamma_fs_vec(params, np.atleast_2d(pts), t, (0.0, 0.0), -0.1)

    return u


def test_harnack_constant_solution():
    rep = harnack_quotient(PARAMS, 0.02, one, density=16)
    assert rep.quotient == pytest.approx(1.0, abs=1e-10)


def test_harnack_finite_and_stable():
    u = _pole_solution(PARAMS)
    coarse = harnack_quotient(PARAMS, 0.02, u, density=24)
    fine = harnack_quotient(PARAMS, 0.02, u, density=48)
    assert np.isfinite(coarse.quotient) and coarse.quotient >= 1.0 - 1e-9
    assert abs(fine.quotient - coarse.quotient) <= 0.2 * coarse.quotient


def test_harnack_scale_invariance():
    u = _pole_solution(PARAMS)
    rep = harnack_quotient(PARAMS, 0.02, u, density=24)
    rep2 = harnack_quotient(PARAMS, 0.02, lambda p, t: 3.0 * u(p, t), density=24)
    assert rep2.quotient == pytest.approx(rep.quotient, rel=1e-13)
    data = json.loads(json.dumps(asdict(rep)))
    assert isinstance(HarnackReport(**data), HarnackReport)
    with pytest.raises(ValueError):
        harnack_quotient(PARAMS, 0.0, u, density=24)
