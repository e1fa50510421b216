"""Acceptance suite: one test and one pass/fail line per criterion.

Each criterion prints `criterion NN [PASS|FAIL] description` before
asserting, so `pytest -v` shows one line per criterion either way.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from degenheat.bem import BoundaryMesh, solve_dirichlet, u0_identity
from degenheat.capacity import DiscreteMeasure, capacity_lp, flat_set_capacity
from degenheat.geometry import BoxDomain, HeatBall
from degenheat.kernel import (
    gamma_fs,
    gamma_fs_vec,
    gamma_grad_y_vec,
    mass_integral,
    semigroup_residual,
)
from degenheat.meanvalue import harnack_quotient, solid_mean
from degenheat.params import KernelParams, SpaceTimePoint
from degenheat.quadrature import box_lattice, flat_lattice, weighted_rule
from degenheat.separable import axis_sums
from degenheat.wiener import DomainDescriptor, wiener_series

P = SpaceTimePoint
PARAMS = KernelParams(n=2, a=0.3)
BOX = BoxDomain(lo=(0.0, 0.2), hi=(1.0, 1.2), t0=0.0, t1=1.0)


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{tag}] {desc} {detail}".rstrip())
    assert ok, f"criterion {num}: {desc} {detail}"


def test_criterion_01_kernel_normalization():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 4))
        params = KernelParams(n=n, a=float(rng.uniform(-0.9, 0.9)))
        xp = rng.uniform(-1.5, 1.5, n - 1)
        x = float(rng.uniform(-1.5, 1.5))
        t = float(rng.uniform(0.1, 2.0))
        worst = max(worst, abs(mass_integral(params, (xp, x), t) - 1.0))
    report(1, "kernel normalization over 30 random tuples", worst <= 1e-6, f"worst={worst:.2e}")


def test_criterion_02_semigroup():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        params = KernelParams(n=2, a=float(rng.uniform(-0.9, 0.9)))
        x, eta = rng.uniform(-1.0, 1.0, 2)
        t, s = rng.uniform(0.1, 1.0, 2)
        worst = max(worst, semigroup_residual(params, float(x), float(eta), float(t), float(s)))
    report(2, "semigroup identity over 20 random tuples", worst <= 1e-6, f"worst={worst:.2e}")


def test_criterion_03_classical_degeneration():
    params0 = KernelParams(n=2, a=0.0)
    rng = np.random.default_rng(3)
    m = 1000
    obs = rng.uniform(-1, 1, (m, 2))
    src = rng.uniform(-1, 1, (m, 2))
    dts = rng.uniform(0.05, 1.0, m)
    dist2 = np.sum((obs - src) ** 2, axis=1)
    classical = np.exp(-dist2 / (4 * dts)) / (4 * math.pi * dts)
    got = gamma_fs_vec(params0, obs, dts, src, np.zeros(m))
    worst = float(np.max(np.abs(got / classical - 1.0)))
    grad = gamma_grad_y_vec(params0, obs, dts, src, np.zeros(m))
    grad_classical = classical[:, None] * (obs - src) / (2 * dts[:, None])
    worst = max(worst, float(np.max(np.abs(grad / grad_classical - 1.0))))
    # heat-ball membership against the closed-form sublevel set
    ball = HeatBall(P(x_prime=(0.0,), x=0.0, t=0.0), 0.5, params0)
    pts = rng.uniform(-1, 1, (m, 2))
    times = -rng.uniform(1e-3, 0.8, m)
    rho2 = np.sum(pts * pts, axis=1)
    closed = (-times < 0.5) & (rho2 < -4.0 * times * np.log(0.5 / -times))
    match = np.array_equal(ball.contains_vec(pts, times, ball.threshold), closed)
    # double-layer kernel: the normal factor times the factor along the face
    worst_dl = 0.0
    for i in range(0, m, 10):
        dt = dts[i : i + 1]
        for axis, sign in ((0, 1.0), (1, -1.0)):
            want = sign * classical[i] * (obs[i, axis] - src[i, axis]) / (2 * dts[i])
            got_dl = sign
            for k in range(2):
                one = [np.array([v]) for v in (obs[i, k], src[i, k], 1.0)]
                got_dl *= axis_sums(params0, k, k == axis, *one, [1], dt)[0, 0]
            if want != 0.0:
                worst_dl = max(worst_dl, abs(got_dl / want - 1.0))
    ok = worst <= 1e-10 and match and worst_dl <= 1e-10
    report(3, "a=0 reduction to classical closed forms", ok, f"worst={max(worst, worst_dl):.2e}")


def test_criterion_04_equation_residual():
    params = KernelParams(n=2, a=0.4)
    xi = P(x_prime=(0.1,), x=0.6, t=1.5)
    Y, tau = np.array([0.35, 0.45]), 0.4

    def residual(h: float) -> float:
        def g(d0, d1, dt):
            return gamma_fs(params, xi, P(x_prime=(Y[0] + d0,), x=Y[1] + d1, t=tau + dt))

        c = g(0, 0, 0)
        lap = 0.0
        for i in range(2):
            e = np.eye(2)[i]
            vals = [g(*(h * k * e), 0.0) for k in (-2, -1, 1, 2)]
            lap += (-vals[0] + 16 * vals[1] + 16 * vals[2] - vals[3] - 30 * c) / (12 * h * h)
        tv = [g(0, 0, h * k) for k in (-2, -1, 1, 2)]
        dt = (tv[0] - 8 * tv[1] + 8 * tv[2] - tv[3]) / (12 * h)
        yv = [g(0, h * k, 0) for k in (-2, -1, 1, 2)]
        dy = (yv[0] - 8 * yv[1] + 8 * yv[2] - yv[3]) / (12 * h)
        return abs(dt + lap + (params.a / Y[1]) * dy)

    r1, r2 = residual(0.05), residual(0.025)
    order = math.log(r1 / r2) / math.log(2.0)
    report(4, "equation residual decays under h-halving", order >= 1.8, f"order={order:.2f}")


def test_criterion_05_u0_identity():
    cases = [
        (P(x_prime=(0.5,), x=0.7, t=0.5), -1.0),
        (P(x_prime=(0.0,), x=0.7, t=0.5), -0.5),
        (P(x_prime=(0.0,), x=0.2, t=0.5), -0.25),
        (P(x_prime=(1.5,), x=0.7, t=0.5), 0.0),
    ]
    worst = max(abs(u0_identity(PARAMS, BOX, xi) - want) for xi, want in cases)
    corner = P(x_prime=(0.0,), x=0.2, t=0.5)
    errs = [abs(u0_identity(PARAMS, BOX, corner, eps=e) + 0.25) for e in (1e-4, 1e-8)]
    ok = worst <= 5e-3 and errs[1] < errs[0]
    report(5, "u0 identity probes -1/-1/2/-1/4/0", ok, f"worst={worst:.2e}")


def test_criterion_06_contraction():
    # induced norm of 2 W in the sup norm discounted by exp(-16 (t - t0)/T):
    # it bounds the ratio of successive fixed-point steps for every data
    worst = 0.0
    for d, m in ((4, 6), (6, 8), (8, 12)):
        mesh = BoundaryMesh(BOX, PARAMS, d_space=d, n_steps=m)
        disc = np.exp(-16.0 * (mesh.step_times - BOX.t0) / (BOX.t1 - BOX.t0))
        rows = [np.sum(np.abs(2.0 * mesh.block(lag)), axis=1) for lag in range(m)]
        for i in range(m):
            norm = sum(disc[i] / disc[k] * rows[i - k] for k in range(i + 1))
            worst = max(worst, float(np.max(norm)))
    report(6, "contraction norm of 2W on regression meshes", worst <= 0.80, f"worst={worst:.2f}")


def _gamma_data(zeta):
    def f(pts, t):
        return gamma_fs_vec(PARAMS, np.atleast_2d(pts), t, zeta.spatial, zeta.t)

    return f


def test_criterion_07_bem_consistency():
    zeta = P(x_prime=(0.4,), x=0.6, t=-0.3)
    probes = [
        P(x_prime=(0.5,), x=0.7, t=0.5),
        P(x_prime=(0.25,), x=0.4, t=0.3),
        P(x_prime=(0.7,), x=1.0, t=0.8),
    ]

    def max_rel(d, m):
        sol = solve_dirichlet(PARAMS, BOX, _gamma_data(zeta), d_space=d, n_steps=m)
        return max(abs(sol(xi) - gamma_fs(PARAMS, xi, zeta)) / gamma_fs(PARAMS, xi, zeta) for xi in probes)

    e_coarse = max_rel(6, 8)
    e_fine = max_rel(12, 16)
    order = math.log(e_coarse / e_fine) / math.log(2.0)
    ok = e_coarse <= 1e-2 and order >= 1.0
    report(7, "BEM interior accuracy and convergence order", ok, f"err={e_coarse:.2e} order={order:.2f}")


def test_criterion_08_capacity_oracle():
    worst = 0.0
    for a in (-0.5, 0.0, 0.5):
        params = KernelParams(n=2, a=a)
        exact = flat_set_capacity(params, [-1.0, -1.0], [1.0, 1.0])
        caps = []
        for d in (16, 32):
            lattice = flat_lattice([-1.0, -1.0], [1.0, 1.0], 0.0, d)
            caps.append(capacity_lp(params, [lattice])[0].cap_estimate)
        rich = 2.0 * caps[1] - caps[0]
        worst = max(worst, abs(rich - exact) / exact)
    report(8, "flat-set capacity vs weighted-volume oracle", worst <= 0.02, f"worst={worst:.2%}")


def test_criterion_09_capacity_axioms():
    rng = np.random.default_rng(9)
    tol = 1e-6
    ok = True
    detail = ""
    # ten random pairs of flat sub-rectangles on a shared lattice
    pts, times, h, ht = flat_lattice([0.0, 0.0], [1.0, 1.0], 0.0, 12)
    for _ in range(10):
        lo1, lo2 = rng.uniform(0.0, 0.5, 2), rng.uniform(0.0, 0.5, 2)
        hi1, hi2 = lo1 + rng.uniform(0.2, 0.5, 2), lo2 + rng.uniform(0.2, 0.5, 2)
        in1 = np.all((pts >= lo1) & (pts <= hi1), axis=1)
        in2 = np.all((pts >= lo2) & (pts <= hi2), axis=1)
        if not (np.any(in1) and np.any(in2)):
            continue
        cap1 = capacity_lp(PARAMS, [(pts[in1], times[in1], h, ht)])[0].cap_estimate
        cap2 = capacity_lp(PARAMS, [(pts[in2], times[in2], h, ht)])[0].cap_estimate
        both = in1 | in2
        cap_u = capacity_lp(PARAMS, [(pts[both], times[both], h, ht)])[0].cap_estimate
        if cap_u > cap1 + cap2 + tol * (1 + cap_u) or cap_u < cap1 * (1 - 1e-4):
            ok = False
            detail = f"subadd/mono broke: {cap_u:.4f} vs {cap1:.4f}+{cap2:.4f}"
            break
    # time reflection
    sp, tm, hs, ht = box_lattice([0.2, 0.3], [0.6, 0.7], -0.4, -0.1, 6)
    cap_f = capacity_lp(PARAMS, [(sp, tm, hs, ht)])[0].cap_estimate
    cap_r = capacity_lp(PARAMS, [(sp, -tm, hs, ht)])[0].cap_estimate
    refl = abs(cap_f - cap_r) / cap_f
    # single-point decay under diagonal refinement
    caps = [
        capacity_lp(
            PARAMS, [(np.array([[0.5, 0.7]]), np.array([-0.2]), h0, h0 * h0)]
        )[0].cap_estimate
        for h0 in (0.2, 0.1, 0.05, 0.025)
    ]
    decay = all(b < a for a, b in zip(caps, caps[1:])) and caps[-1] <= 0.1 * caps[0]
    ok = ok and refl <= 0.01 and decay
    report(9, "capacity axioms (subadd, mono, reflection, point decay)", ok, detail or f"refl={refl:.2%}")


def test_criterion_10_mean_value_exactness():
    xi0 = P(x_prime=(0.5,), x=0.7, t=0.0)
    zb = P(x_prime=(0.3,), x=0.4, t=-0.5)

    def one(pts, t):
        return np.ones(len(np.atleast_2d(pts)))

    def ug(pts, t):
        return gamma_fs_vec(PARAMS, np.atleast_2d(pts), t, zb.spatial, zb.t)

    def ua(pts, t):
        return 1.0 + 2.0 * np.atleast_2d(pts)[:, 0]

    worst = 0.0
    for r in (0.01, 0.05):
        worst = max(worst, abs(solid_mean(PARAMS, one, xi0, r, density=8) - 1.0))
        want = gamma_fs(PARAMS, xi0, zb)
        worst = max(worst, abs(solid_mean(PARAMS, ug, xi0, r, density=8) - want) / want)
        worst = max(worst, abs(solid_mean(PARAMS, ua, xi0, r, density=8) - 2.0) / 2.0)
    report(10, "mean-value exactness for the solution family", worst <= 1e-3, f"worst={worst:.2e}")


def test_criterion_11_superparabolic_monotonicity():
    rng = np.random.default_rng(11)
    xi0 = P(x_prime=(0.5,), x=0.7, t=0.0)
    ok = True
    detail = ""

    def potential(mu):
        def u(pts, t):
            obs = np.atleast_2d(pts)[:, None]
            return gamma_fs_vec(PARAMS, obs, t, mu.spatial, mu.times) @ mu.masses

        return u

    def means(u, radii):
        return [solid_mean(PARAMS, u, xi0, r, density=8) for r in radii]

    def nonincreasing(ms):
        # to 1e-4 of the largest mean
        return max(np.diff(ms)) <= 1e-4 * max(abs(m) for m in ms)

    # random atoms strictly below every ball: means must stay at the
    # center value within quadrature tolerance and never exceed it
    for trial in range(5):
        k = int(rng.integers(1, 4))
        mu = DiscreteMeasure(
            spatial=np.column_stack(
                [rng.uniform(0.2, 0.8, k), rng.uniform(0.3, 1.0, k)]
            ),
            times=-rng.uniform(0.1, 0.5, k),
            masses=rng.uniform(0.2, 1.0, k),
        )
        ms = means(potential(mu), [0.01, 0.03, 0.09])
        center = float(potential(mu)(xi0.spatial, xi0.t)[0])
        if not nonincreasing(ms) or any(m > center * (1 + 1e-4) for m in ms):
            ok = False
            detail = f"trial {trial}: means={ms} center={center}"
            break
    # atom inside the larger balls forces a genuine strict decrease
    if ok:
        mu = DiscreteMeasure(
            spatial=np.array([[0.5, 0.7]]),
            times=np.array([-0.002]),
            masses=np.array([1.0]),
        )
        ms = means(potential(mu), [0.02, 0.06, 0.18])
        center = float(potential(mu)(xi0.spatial, xi0.t)[0])
        # a strict decrease is nonincreasing too
        if not (ms[0] > ms[1] > ms[2] and all(m <= center for m in ms)):
            ok = False
            detail = f"atom-inside case: means={ms}"
    report(11, "potential means nonincreasing in r, below center value", ok, detail)


def test_criterion_12_green_sign_and_reproduction():
    box = BoxDomain(lo=(0.0, 0.2), hi=(1.0, 1.2), t0=0.0, t1=0.4)
    zeta = P(x_prime=(0.5,), x=0.7, t=0.1)
    sol_f = solve_dirichlet(PARAMS, box, _gamma_data(zeta), d_space=8, n_steps=12)

    def green_fwd(xi):
        return gamma_fs(PARAMS, xi, zeta) - sol_f(xi)

    probes = [
        P(x_prime=(0.5,), x=0.7, t=0.3),
        P(x_prime=(0.3,), x=0.5, t=0.25),
        P(x_prime=(0.8,), x=1.0, t=0.38),
        P(x_prime=(0.6,), x=0.9, t=0.2),
    ]
    fwd = sol_f.evaluate(probes)
    sign_ok = all(
        -5e-3 <= gamma_fs(PARAMS, xi, zeta) - u <= gamma_fs(PARAMS, xi, zeta) + 5e-3
        for xi, u in zip(probes, fwd)
    )
    # reproduction through an intermediate slice: G(xi;zeta) equals the
    # weighted integral of G(xi;.,tau) G(.,tau;zeta) over the slice.
    # G(xi;Y,tau) comes from one solve on the time-reflected box.
    xi = P(x_prime=(0.5,), x=0.7, t=0.3)
    tau = 0.2
    box_rev = BoxDomain(lo=box.lo, hi=box.hi, t0=-box.t1, t1=-box.t0)
    pole_rev = P(x_prime=xi.x_prime, x=xi.x, t=-xi.t)

    def f_rev(pts, t):
        return gamma_fs_vec(PARAMS, np.atleast_2d(pts), t, pole_rev.spatial, pole_rev.t)

    sol_r = solve_dirichlet(PARAMS, box_rev, f_rev, d_space=8, n_steps=12)
    gl_x, gl_w = np.polynomial.legendre.leggauss(20)
    xs = 0.5 * (gl_x + 1.0)
    wx = 0.5 * gl_w
    wr = weighted_rule(0.2, 1.2, PARAMS.a, 20)
    # the slice points, one row of xs per weighted-axis node
    pts = np.stack(np.meshgrid(wr.nodes, xs, indexing="ij")[::-1], axis=-1).reshape(-1, 2)
    g1 = gamma_fs_vec(PARAMS, pts, -tau, pole_rev.spatial, pole_rev.t) - sol_r.evaluate(
        [P.from_spatial(p, -tau) for p in pts]
    )
    g2 = gamma_fs_vec(PARAMS, pts, tau, zeta.spatial, zeta.t) - sol_f.evaluate(
        [P.from_spatial(p, tau) for p in pts]
    )
    total = 0.0
    for wyv, r1, r2 in zip(wr.weights, g1.reshape(20, 20), g2.reshape(20, 20)):
        total += wyv * float(np.sum(wx * r1 * r2))
    direct = green_fwd(xi)
    rel = abs(total - direct) / abs(direct)
    ok = sign_ok and rel <= 1e-2
    report(12, "Green function sign and reproduction", ok, f"rel={rel:.2e}")


def test_criterion_13_wiener_pipeline():
    xi0 = P(x_prime=(0.5,), x=0.7, t=0.0)
    # README's box primitive
    box = {"type": "box", "lo": [0.0, 0.2], "hi": [1.0, 1.2], "t": [0.0, 1.0]}
    box_dom = DomainDescriptor((box,))
    rep = wiener_series(
        PARAMS, xi0, box_dom, lam=0.5, k_max=12, density=10, sweep=(0.3, 0.5, 0.7)
    )
    terms = np.array([row["term"] for row in rep.terms])
    tail = terms[-5:]
    spread_ok = np.all((tail >= 0.3 * np.mean(tail)) & (tail <= 3.0 * np.mean(tail)))
    regular_ok = rep.verdict == "likely-regular" and set(rep.lambda_sweep.values()) == {
        "likely-regular"
    }
    past = DomainDescriptor.time_slab(-10.0, 0.0)
    rep2 = wiener_series(
        PARAMS, xi0, past, lam=0.5, k_max=12, density=10, sweep=(0.3, 0.5, 0.7)
    )
    irregular_ok = (
        rep2.verdict == "likely-irregular"
        and set(rep2.lambda_sweep.values()) == {"likely-irregular"}
        and all(row["term"] < 1e-12 for row in rep2.terms)
    )
    ok = bool(spread_ok and regular_ok and irregular_ok)
    report(13, "Wiener verdicts for flat-bottom and deleted-past points", ok)


def test_criterion_14_harnack_stability():
    def one(pts, t):
        return np.ones(len(np.atleast_2d(pts)))

    def pole_sol(pole_sp, pole_t):
        def u(pts, t):
            return gamma_fs_vec(PARAMS, np.atleast_2d(pts), t, pole_sp, pole_t)

        return u

    sols = [one, pole_sol((0.0, 0.0), -0.1), pole_sol((0.3, -0.4), -0.06)]
    ok = True
    detail = ""
    for i, u in enumerate(sols):
        coarse = harnack_quotient(PARAMS, 0.02, u, density=24)
        fine = harnack_quotient(PARAMS, 0.02, u, density=48)
        drift = abs(fine.quotient - coarse.quotient) / coarse.quotient
        if not (np.isfinite(coarse.quotient) and drift <= 0.2):
            ok = False
            detail = f"solution {i}: drift={drift:.2%}"
            break
        scaled = harnack_quotient(PARAMS, 0.02, lambda p, t: 2.0 * u(p, t), density=24)
        if abs(scaled.quotient - coarse.quotient) > 1e-12 * coarse.quotient:
            ok = False
            detail = f"solution {i}: scaling broke"
            break
    report(14, "Harnack quotient finite, stable, scale invariant", ok, detail)
