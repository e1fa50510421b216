"""Boundary-element tests: kernels, jumps, solves, Green functions.

The a = 0 comparison uses a self-contained classical heat BEM written
directly from the heat-kernel closed form, sharing no code with the
package internals.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from degenheat import bem
from degenheat.bem import (
    AmbiguityWarning,
    BoundaryDensity,
    BoundaryMesh,
    dl_kernel_entry,
    double_layer_eval,
    green_function_box,
    initial_lift,
    solve_density,
    solve_dirichlet,
    u0_identity,
)
from degenheat.geometry import BoxDomain
from degenheat.kernel import gamma_fs, gamma_fs_vec, weighted_normal_limit
from degenheat.params import KernelParams, SpaceTimePoint

P = SpaceTimePoint
PARAMS = KernelParams(n=2, a=0.3)
BOX = BoxDomain(lo=(0.0, 0.2), hi=(1.0, 1.2), t0=0.0, t1=1.0)


# ---------------------------------------------------------------- kernel


def test_dl_kernel_causality():
    obs = P(x_prime=(0.5,), x=0.7, t=0.1)
    assert dl_kernel_entry(PARAMS, obs, [0.0, 0.5], 0.1, 0, -1.0) == 0.0
    assert dl_kernel_entry(PARAMS, obs, [0.0, 0.5], 0.5, 0, -1.0) == 0.0


def test_dl_kernel_classical_closed_form():
    params = KernelParams(n=2, a=0.0)
    obs = P(x_prime=(0.4,), x=0.8, t=0.6)
    src = np.array([0.0, 0.5])
    tau = 0.2
    dt = obs.t - tau
    gam = math.exp(-(0.16 + 0.09) / (4 * dt)) / (4 * math.pi * dt)
    for axis, sign in ((0, -1.0), (1, 1.0)):
        want = sign * gam * (obs.spatial[axis] - src[axis]) / (2 * dt)
        got = dl_kernel_entry(params, obs, src, tau, axis, sign)
        assert got == pytest.approx(want, rel=1e-12)


def test_dl_kernel_fd_oracle():
    # finite-difference d Gamma/d y_axis against the analytic entry
    obs = P(x_prime=(0.3,), x=0.9, t=0.7)
    src = np.array([0.6, 0.45])
    tau = 0.2
    h = 1e-6
    for axis in (0, 1):
        up, dn = src.copy(), src.copy()
        up[axis] += h
        dn[axis] -= h
        fd = (
            float(gamma_fs_vec(PARAMS, obs.spatial, obs.t, up, tau))
            - float(gamma_fs_vec(PARAMS, obs.spatial, obs.t, dn, tau))
        ) / (2 * h)
        want = fd * abs(src[1]) ** PARAMS.a
        got = dl_kernel_entry(PARAMS, obs, src, tau, axis, 1.0)
        assert got == pytest.approx(want, rel=1e-6)


def test_dl_kernel_plane_face_uses_limit():
    obs = P(x_prime=(0.3,), x=0.9, t=0.7)
    got = dl_kernel_entry(PARAMS, obs, [0.6, 0.0], 0.2, 1, -1.0)
    want = -weighted_normal_limit(PARAMS, obs, [0.6], 0.2)
    assert got == pytest.approx(want, rel=1e-12)
    # x = 0 observation: the limit kernel vanishes
    obs0 = P(x_prime=(0.3,), x=0.0, t=0.7)
    assert dl_kernel_entry(PARAMS, obs0, [0.6, 0.0], 0.2, 1, -1.0) == 0.0


def test_dl_kernel_entry_matches_rows():
    # every node of an on-plane mesh, at several lags in one call, against
    # one-node calls; the profile's term count depends on the other
    # entries of a call, which moves last bits only
    box = BoxDomain(lo=(0.0, 0.0), hi=(1.0, 1.0), t0=0.0, t1=1.0)
    obs = np.array([0.3, 0.2])
    dts = np.array([0.01, 0.2, 0.7])
    for a in (-0.4, 0.3):
        params = KernelParams(n=2, a=a)
        mesh = BoundaryMesh(box, params, d_space=2, n_steps=2)
        m, q, _ = mesh.src_nodes.shape
        src = mesh.src_nodes.reshape(m * q, 2)
        cells = np.repeat(np.arange(m), q)
        axes, signs, on = mesh.normal_axis[cells], mesh.normal_sign[cells], mesh.use_limit[cells]
        weights = np.array(
            [sg * (1.0 if lim else abs(y) ** a) for sg, lim, y in zip(signs, on, src[:, -1])]
        )
        rows = bem._dl_rows(params, obs[None, :], dts, src, weights, axes, on)
        assert np.any(on) and not np.all(on)
        xi = P.from_spatial(obs, 0.0)
        for k, dt in enumerate(dts):
            for s in range(len(src)):
                got = dl_kernel_entry(params, xi, src[s], -dt, axes[s], signs[s])
                assert rows[0, k, s] == pytest.approx(got, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------- u0 identity


def test_u0_identity_values():
    cases = [
        (P(x_prime=(0.5,), x=0.7, t=0.5), -1.0),
        (P(x_prime=(0.0,), x=0.7, t=0.5), -0.5),
        (P(x_prime=(0.0,), x=0.2, t=0.5), -0.25),
        (P(x_prime=(0.5,), x=0.7, t=0.0), -0.5),
        (P(x_prime=(0.0,), x=0.7, t=0.0), -0.25),
        (P(x_prime=(1.5,), x=0.7, t=0.5), 0.0),
        (P(x_prime=(0.5,), x=0.7, t=1.5), 0.0),
    ]
    for xi, want in cases:
        assert u0_identity(PARAMS, BOX, xi) == pytest.approx(want, abs=5e-3)


def test_u0_identity_face_on_degeneracy_plane():
    box = BoxDomain(lo=(0.0, 0.0), hi=(1.0, 1.0), t0=0.0, t1=1.0)
    got = u0_identity(PARAMS, box, P(x_prime=(0.5,), x=0.0, t=0.5))
    assert got == pytest.approx(-0.5, abs=5e-3)


def test_u0_identity_improves_under_refinement():
    # the weighted-axis corner has the largest regularization error;
    # shrinking eps must shrink it
    xi = P(x_prime=(0.0,), x=0.2, t=0.5)
    errs = [
        abs(u0_identity(PARAMS, BOX, xi, eps=e) + 0.25) for e in (1e-4, 1e-6, 1e-8)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4


def test_u0_identity_ambiguity_warning():
    xi = P(x_prime=(1e-6,), x=0.7, t=0.5)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        u0_identity(PARAMS, BOX, xi, resolution=1e-3)
    assert any(issubclass(x.category, AmbiguityWarning) for x in w)


# ---------------------------------------------------------------- density solve


def _gamma_data(zeta):
    def f(pts, t):
        return gamma_fs_vec(PARAMS, np.atleast_2d(pts), t, zeta.spatial, zeta.t)

    return f


def test_zero_data_yields_zero_density():
    mesh = BoundaryMesh(BOX, PARAMS, d_space=4, n_steps=4)
    phi, info = solve_density(mesh, np.zeros((4, mesh.n_cells)))
    assert np.all(phi.values == 0.0)
    assert info["residual"] == 0.0


def test_picard_contracts_and_matches_marching():
    zeta = P(x_prime=(0.4,), x=0.6, t=-0.3)
    mesh = BoundaryMesh(BOX, PARAMS, d_space=6, n_steps=8)
    g = np.array(
        [_gamma_data(zeta)(mesh.centers, t) for t in mesh.step_times]
    )
    phi_m, _ = solve_density(mesh, g, method="march")
    phi_p, info = solve_density(mesh, g, method="picard")
    assert np.max(np.abs(phi_m.values - phi_p.values)) < 1e-6
    assert max(info["ratios"]) <= 0.80
    assert info["residual"] < 1e-6


def test_density_validation():
    mesh = BoundaryMesh(BOX, PARAMS, d_space=4, n_steps=4)
    with pytest.raises(ValueError):
        solve_density(mesh, np.zeros((3, mesh.n_cells)))
    with pytest.raises(ValueError):
        BoundaryDensity(mesh, np.full((4, mesh.n_cells), np.nan))
    with pytest.raises(ValueError):
        solve_density(mesh, np.zeros((4, mesh.n_cells)), method="direct")


# ---------------------------------------------------------------- jump relation


def test_boundary_jump_recovers_density():
    mesh = BoundaryMesh(BOX, PARAMS, d_space=12, n_steps=16)
    vals = np.array(
        [[(t - BOX.t0) * (0.5 + 0.3 * c[-1]) for c in mesh.centers] for t in mesh.step_times]
    )
    phi = BoundaryDensity(mesh, vals)
    # foot at a cell center on the face x' = 0, observation time at a
    # collocation time so the discrete jump limit is that cell's value
    cell = next(
        i
        for i in range(mesh.n_cells)
        if mesh.normal_axis[i] == 0
        and mesh.centers[i][0] == 0.0
        and abs(mesh.centers[i][1] - 0.74167) < 0.05
    )
    foot = mesh.centers[cell]
    k = 9
    t_obs = mesh.step_times[k]
    expect = vals[k, cell]
    nu = np.array([-1.0, 0.0])
    eps = 0.0125
    u_out = double_layer_eval(mesh, phi, P.from_spatial(foot + eps * nu, t_obs))
    u_in = double_layer_eval(mesh, phi, P.from_spatial(foot - eps * nu, t_obs))
    assert (u_out - u_in) == pytest.approx(expect, rel=0.05)


def test_linearity_of_evaluation():
    mesh = BoundaryMesh(BOX, PARAMS, d_space=4, n_steps=4)
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(4, mesh.n_cells))
    xi = P(x_prime=(0.5,), x=0.7, t=0.9)
    u1 = double_layer_eval(mesh, BoundaryDensity(mesh, vals), xi)
    u2 = double_layer_eval(mesh, BoundaryDensity(mesh, 2.0 * vals), xi)
    assert u2 == pytest.approx(2.0 * u1, rel=1e-12)
    assert double_layer_eval(mesh, BoundaryDensity(mesh, 0.0 * vals), xi) == 0.0


# ---------------------------------------------------------------- dirichlet


def test_constant_data_exact():
    def f(pts, t):
        return np.full(len(np.atleast_2d(pts)), 2.5)

    sol = solve_dirichlet(PARAMS, BOX, f, d_space=4, n_steps=6)
    for xi in (P(x_prime=(0.5,), x=0.7, t=0.5), P(x_prime=(0.9,), x=1.1, t=0.95)):
        assert abs(sol(xi) - 2.5) < 1e-12


def test_gamma_data_interior_accuracy():
    zeta = P(x_prime=(0.4,), x=0.6, t=-0.3)
    sol = solve_dirichlet(PARAMS, BOX, _gamma_data(zeta), d_space=6, n_steps=8)
    probes = [
        P(x_prime=(0.5,), x=0.7, t=0.5),
        P(x_prime=(0.25,), x=0.4, t=0.3),
        P(x_prime=(0.7,), x=1.0, t=0.8),
    ]
    for xi in probes:
        want = gamma_fs(PARAMS, xi, zeta)
        assert abs(sol(xi) - want) / want < 1e-2


def test_gamma_data_on_plane_box():
    # a box with its lower face on the degenerate plane y = 0, where the
    # kernel is the weighted normal limit
    box = BoxDomain(lo=(0.0, 0.0), hi=(1.0, 1.0), t0=0.0, t1=1.0)
    zeta = P(x_prime=(0.4,), x=0.4, t=-0.3)
    probes = [
        P(x_prime=(0.5,), x=0.5, t=0.5),
        P(x_prime=(0.25,), x=0.3, t=0.3),
        P(x_prime=(0.7,), x=0.6, t=0.8),
    ]
    for a in (-0.4, 0.3):
        params = KernelParams(n=2, a=a)

        def f(pts, t):
            return gamma_fs_vec(params, np.atleast_2d(pts), t, zeta.spatial, zeta.t)

        sol = solve_dirichlet(params, box, f, d_space=6, n_steps=8)
        assert np.any(sol.mesh.use_limit)
        for xi in probes:
            want = gamma_fs(params, xi, zeta)
            assert abs(sol(xi) - want) / want < 1e-2


def test_maximum_principle():
    zeta = P(x_prime=(0.4,), x=0.6, t=-0.3)
    mesh = BoundaryMesh(BOX, PARAMS, d_space=6, n_steps=8)
    f = _gamma_data(zeta)
    samples = [f(mesh.centers, t) for t in mesh.step_times]
    samples.append(f(np.random.default_rng(3).uniform([0, 0.2], [1, 1.2], (50, 2)), 0.0))
    lo, hi = np.min(samples[-1]), np.max([np.max(s) for s in samples])
    lo = min(lo, np.min([np.min(s) for s in samples]))
    sol = solve_dirichlet(PARAMS, BOX, f, d_space=6, n_steps=8)
    for xi in (P(x_prime=(0.5,), x=0.7, t=0.5), P(x_prime=(0.2,), x=0.9, t=0.7)):
        u = sol(xi)
        assert lo - 1e-3 <= u <= hi + 1e-3


def test_initial_lift_reproduces_kernel_mass():
    # f0 = 1 over a wide box integrates Gamma almost fully
    box = BoxDomain(lo=(-8.0, -8.0), hi=(8.0, 8.0), t0=0.0, t1=1.0)

    def one(pts):
        return np.ones(len(pts))

    v = initial_lift(PARAMS, box, one, P(x_prime=(0.1,), x=0.4, t=0.5), m=48)
    assert v == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------- classical oracle


def _classical_bem_solution(box, d_space, n_steps, f, probes):
    """Independent classical heat BEM (n=2, a=0) on the same mesh layout."""
    lo, hi = np.array(box.lo), np.array(box.hi)
    ht = (box.t1 - box.t0) / n_steps
    t_col = box.t0 + ht * (np.arange(n_steps) + 0.5)

    centers, normals, nodes, wts = [], [], [], []
    gl_x, gl_w = np.polynomial.legendre.leggauss(6)
    for axis in (0, 1):
        other = 1 - axis
        edges = np.linspace(lo[other], hi[other], d_space + 1)
        for side, coord in ((0, lo[axis]), (1, hi[axis])):
            sign = -1.0 if side == 0 else 1.0
            for j in range(d_space):
                e0, e1 = edges[j], edges[j + 1]
                c = np.empty(2)
                c[axis] = coord
                c[other] = 0.5 * (e0 + e1)
                pts = np.empty((6, 2))
                pts[:, axis] = coord
                pts[:, other] = e0 + (e1 - e0) * (gl_x + 1.0) / 2.0
                centers.append(c)
                normals.append((axis, sign))
                nodes.append(pts)
                wts.append(gl_w * (e1 - e0) / 2.0)
    centers = np.array(centers)
    m = len(centers)

    def kmat(obs, d_lo, d_hi):
        # time-integrated double-layer kernel rows, graded if d_lo = 0
        if d_lo <= 0.0:
            panels = []
            w_edge = d_hi
            for _ in range(24):
                panels.append((w_edge / 2, w_edge))
                w_edge /= 2
            dn, dw = [], []
            for p0, p1 in panels:
                dn.append(p0 + (p1 - p0) * (gl_x + 1.0) / 2.0)
                dw.append(gl_w * (p1 - p0) / 2.0)
            dn, dw = np.concatenate(dn), np.concatenate(dw)
        else:
            dn = d_lo + (d_hi - d_lo) * (gl_x + 1.0) / 2.0
            dw = gl_w * (d_hi - d_lo) / 2.0
        out = np.zeros(m)
        for i in range(m):
            axis, sign = normals[i]
            diff = obs[None, None, :] - nodes[i][None, :, :]
            dist2 = np.sum(diff * diff, axis=-1)
            dd = dn[:, None]
            gam = np.exp(-dist2 / (4 * dd)) / (4 * math.pi * dd)
            kern = sign * gam * diff[..., axis] / (2 * dd)
            out[i] = np.einsum("kq,q,k->", kern, wts[i], dw)
        return out

    blocks = []
    for lag in range(n_steps):
        B = np.empty((m, m))
        for p in range(m):
            B[p] = kmat(centers[p], max(lag - 0.5, 0.0) * ht, (lag + 0.5) * ht)
        blocks.append(B)

    # initial lift against f(., t0) with the mean constant split off
    offset = float(np.mean(f(centers, box.t0)))
    glx32, glw32 = np.polynomial.legendre.leggauss(32)

    def lift(X, t):
        dt = t - box.t0
        if dt <= 0:
            return 0.0
        xs = lo[0] + (hi[0] - lo[0]) * (glx32 + 1) / 2
        ys = lo[1] + (hi[1] - lo[1]) * (glx32 + 1) / 2
        wx = glw32 * (hi[0] - lo[0]) / 2
        wy = glw32 * (hi[1] - lo[1]) / 2
        pts = np.array([[x, y] for x in xs for y in ys])
        ww = np.array([a * b for a in wx for b in wy])
        gam = np.exp(-np.sum((pts - X) ** 2, axis=1) / (4 * dt)) / (4 * math.pi * dt)
        return float(np.sum(ww * gam * (f(pts, box.t0) - offset)))

    g = np.array(
        [
            f(centers, t) - offset - np.array([lift(c, t) for c in centers])
            for t in t_col
        ]
    )
    phi = np.zeros((n_steps, m))
    eye = np.eye(m)
    for i in range(n_steps):
        acc = sum(blocks[i - k] @ phi[k] for k in range(i)) if i else np.zeros(m)
        phi[i] = np.linalg.solve(eye - 2.0 * blocks[0], 2.0 * acc - 2.0 * g[i])

    out = []
    for xi in probes:
        u = offset + lift(xi.spatial, xi.t)
        for k in range(n_steps):
            tau0 = box.t0 + k * ht
            if tau0 >= xi.t:
                break
            row = kmat(xi.spatial, max(xi.t - tau0 - ht, 0.0), xi.t - tau0)
            u += float(row @ phi[k])
        out.append(u)
    return np.array(out)


def test_classical_reduction_matches_oracle():
    params0 = KernelParams(n=2, a=0.0)
    zeta = P(x_prime=(0.4,), x=0.6, t=-0.3)

    def f(pts, t):
        return gamma_fs_vec(params0, np.atleast_2d(pts), t, zeta.spatial, zeta.t)

    probes = [
        P(x_prime=(0.5,), x=0.7, t=0.5),
        P(x_prime=(0.3,), x=0.5, t=0.35),
        P(x_prime=(0.7,), x=1.0, t=0.8),
    ]
    oracle = _classical_bem_solution(BOX, 6, 8, f, probes)
    sol = solve_dirichlet(params0, BOX, f, d_space=6, n_steps=8)
    ours = np.array([sol(xi) for xi in probes])
    assert np.max(np.abs(ours - oracle) / np.abs(oracle)) < 1e-3


# ---------------------------------------------------------------- green function


def test_green_function_basics():
    box = BoxDomain(lo=(0.0, 0.2), hi=(1.0, 1.2), t0=0.0, t1=0.4)
    zeta = P(x_prime=(0.5,), x=0.7, t=0.1)
    xi_before = P(x_prime=(0.5,), x=0.7, t=0.05)
    assert green_function_box(PARAMS, box, xi_before, zeta) == 0.0
    with pytest.raises(ValueError):
        green_function_box(
            PARAMS, box, P(x_prime=(0.5,), x=0.7, t=0.3), P(x_prime=(2.0,), x=0.7, t=0.1)
        )


def test_green_function_sign_and_domination():
    box = BoxDomain(lo=(0.0, 0.2), hi=(1.0, 1.2), t0=0.0, t1=0.4)
    zeta = P(x_prime=(0.5,), x=0.7, t=0.1)

    def f(pts, t):
        return gamma_fs_vec(PARAMS, np.atleast_2d(pts), t, zeta.spatial, zeta.t)

    sol = solve_dirichlet(PARAMS, box, f, d_space=6, n_steps=8)
    probes = [
        P(x_prime=(0.5,), x=0.7, t=0.3),
        P(x_prime=(0.3,), x=0.5, t=0.25),
        P(x_prime=(0.8,), x=1.0, t=0.38),
        P(x_prime=(0.6,), x=0.9, t=0.2),
    ]
    near_lateral = [P(x_prime=(0.04,), x=0.7, t=0.3), P(x_prime=(0.5,), x=1.16, t=0.3)]
    interior_max = 0.0
    for xi in probes:
        G = gamma_fs(PARAMS, xi, zeta) - sol(xi)
        interior_max = max(interior_max, G)
        assert -5e-3 <= G <= gamma_fs(PARAMS, xi, zeta) + 5e-3
    for xi in near_lateral:
        G = gamma_fs(PARAMS, xi, zeta) - sol(xi)
        assert abs(G) < 0.1 * interior_max
