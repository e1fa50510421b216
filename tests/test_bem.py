"""Boundary-element tests: kernels, jumps, solves, Green functions.

The a = 0 comparison uses a self-contained classical heat BEM written
directly from the heat-kernel closed form, sharing no code with the
package internals.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from degenheat import bem, separable
from degenheat.bem import (
    BoundaryMesh,
    double_layer_eval,
    initial_lift,
    solve_density,
    solve_dirichlet,
    u0_identity,
)
from degenheat.geometry import BoxDomain
from degenheat.kernel import gamma_fs, gamma_fs_vec, gamma_grad_y_vec, weighted_normal_limit_vec
from degenheat.params import KernelParams, SpaceTimePoint
from degenheat.quadrature import tensor_rule, weighted_rule

P = SpaceTimePoint
PARAMS = KernelParams(n=2, a=0.3)
BOX = BoxDomain(lo=(0.0, 0.2), hi=(1.0, 1.2), t0=0.0, t1=1.0)


# ---------------------------------------------------------------- per-axis kernel factors


def _on_plane(mesh):
    """Cells of a face on y = 0 normal to the weighted axis: the weighted normal limit's."""
    return (mesh.normal_axis == mesh.box.n - 1) & (mesh.cell_lo[:, -1] == 0.0)


def _dl_kernel(params, obs, src, dts, normal_axis, weight=1.0):
    """Double-layer kernel at one source node: the product of its per-axis factors."""
    dts = np.asarray(dts, dtype=float)
    out = np.full(len(dts), weight)
    for i in range(params.n):
        one = [np.array([v]) for v in (obs[i], src[i], 1.0)]
        out = out * separable.axis_sums(params, i, i == normal_axis, *one, [1], dts)[0]
    return out


def test_dl_kernel_causality():
    # lags 0 and -0.4: the source is not in the observation's past
    obs, dts = np.array([0.5, 0.7]), [0.0, -0.4]
    for src in (np.array([0.0, 0.5]), np.array([0.0, 0.0])):
        for axis in (0, 1):
            assert np.all(_dl_kernel(PARAMS, obs, src, dts, axis, -1.0) == 0.0)


def test_dl_kernel_classical_closed_form():
    params = KernelParams(n=2, a=0.0)
    obs = np.array([0.4, 0.8])
    src = np.array([0.0, 0.5])
    dt = 0.4
    gam = math.exp(-(0.16 + 0.09) / (4 * dt)) / (4 * math.pi * dt)
    for axis, sign in ((0, -1.0), (1, 1.0)):
        want = sign * gam * (obs[axis] - src[axis]) / (2 * dt)
        got = _dl_kernel(params, obs, src, [dt], axis, sign)
        assert got[0] == pytest.approx(want, rel=1e-12)


def test_dl_kernel_fd_oracle():
    # finite-difference d Gamma/d y_axis against the product of the factors, unit weight
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
        got = _dl_kernel(PARAMS, obs.spatial, src, [obs.t - tau], axis)
        assert got[0] == pytest.approx(fd, rel=1e-6)


def test_dl_kernel_plane_face_uses_limit():
    # the limit of |y|^a D_y Gamma on y = 0, written out in n dimensions
    a, x, d, rest2 = PARAMS.a, 0.9, 0.5, (0.3 - 0.6) ** 2
    const = PARAMS.c_na * (1.0 - a) * 4.0 ** (a - 1.0) / math.gamma((3.0 - a) / 2.0)
    limit = const * d ** (-(2 + a) / 2) * (x / d) * (abs(x) / d) ** (-a)
    want = -limit * math.exp(-(rest2 + x * x) / (4 * d))
    got = _dl_kernel(PARAMS, np.array([0.3, x]), np.array([0.6, 0.0]), [d], 1, -1.0)
    assert got[0] == pytest.approx(want, rel=1e-12)
    # x = 0 observation: the limit kernel vanishes
    assert _dl_kernel(PARAMS, np.array([0.3, 0.0]), np.array([0.6, 0.0]), [d], 1, -1.0)[0] == 0.0


def test_dl_kernel_entry_matches_rows():
    # every rule of an on-plane mesh, at several lags in one call, against
    # one-rule calls; the profile's term count depends on the other
    # entries of a call, which moves last bits only
    box = BoxDomain(lo=(0.0, 0.0), hi=(1.0, 1.0), t0=0.0, t1=1.0)
    dts = np.array([0.01, 0.2, 0.7])
    for a in (-0.4, 0.3):
        params = KernelParams(n=2, a=a)
        mesh = BoundaryMesh(box, params, d_space=2, n_steps=2)
        assert np.any(_on_plane(mesh)) and not np.all(_on_plane(mesh))
        for axis, rules in enumerate(mesh.axis_rules):
            # the panel rules lie along a face, the two face rules on its normal
            for normal, part in ((False, rules[:-2]), (True, rules[-2:])):
                x = np.full(len(part), 0.3 if axis == 0 else 0.2)
                nodes, weights = (np.concatenate(v) for v in zip(*part))
                counts = [len(r[0]) for r in part]
                sums = separable.axis_sums(params, axis, normal, x, nodes, weights, counts, dts)
                for r, (nd, wt) in enumerate(part):
                    for k in range(len(dts)):
                        lag = dts[k : k + 1]
                        args = (x[:1], nd, wt, [len(nd)], lag)
                        one = separable.axis_sums(params, axis, normal, *args)
                        assert sums[r, k] == pytest.approx(one[0, 0], rel=1e-14, abs=0.0)


# ---------------------------------------------------------------- blocks against a node-level sum


def _unit_box(n, y0):
    return BoxDomain(lo=(0.0,) * (n - 1) + (y0,), hi=(1.0,) * (n - 1) + (y0 + 1.0,), t0=0.0, t1=1.0)


def _node_block(mesh, lag):
    """The lag's block summed over every tensor node of every cell, with n-D kernels."""
    params, n = mesh.params, mesh.box.n
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    if lag == 0:  # 24 levels halving toward d = 0
        edges = 0.5 * mesh.ht * 0.5 ** np.arange(25)
    else:
        edges = np.array([(lag + 0.5) * mesh.ht, (lag - 0.5) * mesh.ht])
    d_nodes = np.concatenate([b + (e - b) * (gl_x + 1) / 2 for e, b in zip(edges, edges[1:])])
    d_wts = np.concatenate([gl_w * (e - b) / 2 for e, b in zip(edges, edges[1:])])
    obs, dt = mesh.centers[:, None, None, :], d_nodes[None, :, None]
    full = np.zeros((mesh.n_cells, mesh.n_cells))
    for c, axis in enumerate(mesh.normal_axis):
        rules = [mesh.axis_rules[i][mesh.cell_rule[c, i]] for i in range(n)]
        nodes, weights = tensor_rule([r[0] for r in rules], [r[1] for r in rules])
        src = nodes[None, None]
        if _on_plane(mesh)[c]:
            diff = obs[..., :-1] - src[..., :-1]
            gauss = np.exp(-np.sum(diff * diff, axis=-1) / (4 * dt)) / (4 * math.pi * dt) ** (
                (n - 1) / 2
            )
            kern = weighted_normal_limit_vec(params, obs[..., -1], dt) * gauss
        elif axis == n - 1:
            kern = gamma_grad_y_vec(params, obs, dt, src, 0.0)[..., -1]
        else:
            kern = gamma_fs_vec(params, obs, dt, src, 0.0) * (obs[..., axis] - src[..., axis])
            kern /= 2 * dt
        full[:, c] = np.sum(kern * weights, axis=-1) @ d_wts
    return full


@pytest.mark.parametrize(
    "n,a,y0,d_space",
    [(n, a, y0, d) for n, d in ((2, 8), (3, 2)) for a in (-0.4, 0.3) for y0 in (0.2, 0.0, -0.4)],
)
def test_block_matches_node_reference(n, a, y0, d_space):
    # boxes off, on and across y = 0; lag 0 takes all 24 graded levels for
    # every pair.  What is left is summation order, a few ulps of the
    # largest entry
    mesh = BoundaryMesh(_unit_box(n, y0), KernelParams(n=n, a=a), d_space=d_space, n_steps=12)
    for lag in (0, 1, 5):
        want = _node_block(mesh, lag)
        assert np.max(np.abs(mesh.block(lag) - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "n,a,y0", [(n, a, y0) for n in (2, 3) for a in (-0.4, 0.3) for y0 in (0.2, 0.0, -0.4)]
)
def test_one_pass_blocks_match_per_lag_passes(n, a, y0):
    # each lag's block from a pass of its own on that lag's time rule; the
    # one pass differs in summation order and in the profile's term counts
    mesh = BoundaryMesh(
        _unit_box(n, y0), KernelParams(n=n, a=a), d_space=8 if n == 2 else 3, n_steps=12
    )
    for lag in range(mesh.n_steps):
        d_nodes, d_wts = mesh._delta_rule(max(lag - 0.5, 0.0) * mesh.ht, (lag + 0.5) * mesh.ht)
        obs, tables, _ = mesh._tables(mesh.centers, d_nodes, [])
        want = separable.dense(tables, obs, mesh.cell_rule.T, d_wts[:, None])[..., 0]
        got = mesh.block(lag)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_first_block_call_builds_every_lag(monkeypatch):
    mesh = BoundaryMesh(BOX, PARAMS, d_space=4, n_steps=5)
    calls, tables = [], BoundaryMesh._tables

    def counted(self, points, d_nodes, *args):
        calls.append(len(d_nodes))
        return tables(self, points, d_nodes, *args)

    monkeypatch.setattr(BoundaryMesh, "_tables", counted)
    first = mesh.block(2)
    # one pass on lag 0's 192 graded time nodes and 8 for each later lag
    assert calls == [192 + 4 * 8] and sorted(mesh._blocks) == list(range(5))
    assert all(mesh.block(lag) is mesh._blocks[lag] for lag in range(5))
    assert mesh.block(2) is first and len(calls) == 1
    for lag in (-1, 5):
        with pytest.raises(ValueError):
            mesh.block(lag)


@pytest.mark.parametrize(
    "n,d_space,y0", [(2, 8, 0.2), (2, 32, -0.4), (3, 4, 0.0), (3, 6, -0.4)]
)
def test_block_pass_charge_bounds_traced_peak(monkeypatch, n, d_space, y0):
    # the mesh charges its block pass before any array is built; the charge
    # must cover what the pass holds at its peak
    charged = []
    monkeypatch.setattr(bem, "check_fits", lambda need, what: charged.append(need))
    mesh = BoundaryMesh(_unit_box(n, y0), KernelParams(n=n, a=0.3), d_space=d_space, n_steps=12)
    tracemalloc.start()
    try:
        mesh.block(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charged) == 1 and peak <= charged[0] <= 4 * peak


def test_lag0_factor_points(monkeypatch):
    # the criterion-12 mesh, d_space 8 and 12 steps: block(0) builds every
    # lag in one pass, on lag 0's 192 graded time nodes and 8 per later lag,
    # 280 in all, and each axis' table holds one 1-D sum per distinct
    # (coordinate, rule), 10 cell-centre coordinates per axis: heat kernels
    # 10 x 50 nodes, u_tilde 10 x 48, u_tilde_dy 10 x 2, at 280 time nodes
    # each, 280,000 points (as many as one pass per lag took together)
    names = ("heat_kernel_1d", "u_tilde", "u_tilde_dy", "weighted_normal_limit_vec")
    points = dict.fromkeys(names, 0)

    def counting(name, real):
        def counted(*args):
            out = real(*args)
            points[name] += out.size
            return out

        return counted

    for name in names:
        monkeypatch.setattr(separable, name, counting(name, getattr(separable, name)))
    mesh = BoundaryMesh(BOX, PARAMS, d_space=8, n_steps=12)
    for lag in range(12):
        mesh.block(lag)
    assert min(points[name] for name in names[:3]) > 0
    assert sum(points.values()) <= 290_000


# ---------------------------------------------------------------- batched lift and evaluation


@pytest.mark.parametrize("n,y0", [(2, 0.2), (2, -0.5), (3, 0.0)])
def test_lift_matches_tensor_quadrature(n, y0):
    params = KernelParams(n=n, a=0.3)
    box = _unit_box(n, y0)
    m = 12

    def f0(pts):
        return 1.0 + pts[:, 0] * pts[:, -1]

    rules = [
        weighted_rule(box.lo[i], box.hi[i], params.a if i == n - 1 else 0.0, m) for i in range(n)
    ]
    grid_pts, grid_w = tensor_rule([r.nodes for r in rules], [r.weights for r in rules])
    rng = np.random.default_rng(5)
    spatial = rng.uniform(box.lo, box.hi, (7, n))
    times = np.array([0.05, 0.3, 0.3, 0.9, 0.0, -0.2, 1.0])
    want = np.array(
        [
            np.sum(grid_w * gamma_fs_vec(params, x, t, grid_pts, box.t0) * f0(grid_pts))
            for x, t in zip(spatial, times)
        ]
    )
    grid = bem.LiftGrid.build(params, box, f0, m)
    got = initial_lift(params, grid, spatial, times)
    assert np.all(got[times <= box.t0] == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    one = initial_lift(params, grid, spatial[:1], times[:1])
    assert got[0] == pytest.approx(one[0], rel=1e-14)


def test_lift_peak_within_mesh_charge(monkeypatch):
    # n = 3, d_space 4, 100 steps: solve_dirichlet lifts f0 at 9,600 collocation
    # points against a 32^3 grid.  The points are contracted in chunks, so the
    # lift holds less than the mesh charges for its block pass; holding every
    # point's partial contraction at once took 82.8 MiB against a 17.5 MiB charge
    charged = []
    monkeypatch.setattr(bem, "check_fits", lambda need, what: charged.append(need))
    params, box = KernelParams(n=3, a=0.3), _unit_box(3, 0.2)
    mesh = BoundaryMesh(box, params, d_space=4, n_steps=100)
    grid = bem.LiftGrid.build(params, box, lambda pts: 1.0 + pts[:, 0] * pts[:, -1])
    spatial = np.tile(mesh.centers, (mesh.n_steps, 1))
    times = np.repeat(mesh.step_times, mesh.n_cells)
    tracemalloc.start()
    try:
        initial_lift(params, grid, spatial, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charged) == 1 and peak <= charged[0]


def test_evaluate_matches_pointwise():
    zeta = P(x_prime=(0.4,), x=0.6, t=-0.3)
    sol = solve_dirichlet(PARAMS, BOX, _gamma_data(zeta), d_space=6, n_steps=8)
    points = [
        P(x_prime=(0.5,), x=0.7, t=0.5),  # interior, at a step end
        P(x_prime=(0.25,), x=0.4, t=0.5),
        P(x_prime=(0.02,), x=0.7, t=0.5),  # near the face x' = 0
        P(x_prime=(0.5,), x=1.19, t=0.33),  # near the top y-face, inside a step
        P(x_prime=(0.97,), x=0.21, t=0.8),  # near a corner
        P(x_prime=(0.5,), x=0.7, t=0.0),  # t = t0
        P(x_prime=(0.5,), x=0.7, t=-0.1),  # before t0
    ]
    got = sol.evaluate(points)
    want = np.array([sol(xi) for xi in points])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
    assert got[-1] == got[-2] == sol.offset


def test_eval_passes_match_single_points():
    # more points at one time than the mesh has cells: they are evaluated in passes
    mesh = BoundaryMesh(BOX, PARAMS, d_space=2, n_steps=4)
    rng = np.random.default_rng(7)
    spatial = rng.uniform(BOX.lo, BOX.hi, (3 * mesh.n_cells + 1, 2))
    times = np.full(len(spatial), 0.6)
    values = rng.standard_normal((4, mesh.n_cells))
    got = double_layer_eval(mesh, values, spatial, times)
    want = np.array([double_layer_eval(mesh, values, x[None], times[:1])[0] for x in spatial])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------- boxes across y = 0


def test_straddling_mesh_has_plane_edge():
    box = BoxDomain(lo=(0.0, -0.5), hi=(1.0, 0.5), t0=0.0, t1=1.0)
    mesh = BoundaryMesh(box, PARAMS, d_space=3, n_steps=2)
    side = mesh.normal_axis == 0
    assert not np.any((mesh.cell_lo[:, 1] < 0.0) & (mesh.cell_hi[:, 1] > 0.0))
    assert np.sum(side) == 2 * 4 and np.any(mesh.cell_hi[side, 1] == 0.0)
    # one CELL_NODES rule per panel of the weighted axis, then the two face rules
    assert [len(x) for x, _ in mesh.axis_rules[1]] == [bem.CELL_NODES] * 4 + [1, 1]
    # an edge within round-off of 0 moves onto it: no sliver cell
    box = BoxDomain(lo=(0.0, -0.35), hi=(1.0, 0.7), t0=0.0, t1=1.0)
    assert np.linspace(-0.35, 0.7, 4)[1] != 0.0
    mesh = BoundaryMesh(box, PARAMS, d_space=3, n_steps=2)
    side = mesh.normal_axis == 0
    assert np.sum(side) == 2 * 3 and np.any(mesh.cell_hi[side, 1] == 0.0)
    # a box off the plane keeps the uniform edges bit for bit
    mesh = BoundaryMesh(BOX, PARAMS, d_space=3, n_steps=2)
    side = mesh.normal_axis == 0
    edges = np.linspace(0.2, 1.2, 4)
    assert np.array_equal(mesh.cell_lo[side, 1], np.tile(edges[:-1], 2))
    assert np.array_equal(mesh.cell_hi[side, 1], np.tile(edges[1:], 2))


@pytest.mark.parametrize(
    "n,a,d_space,n_steps,bound",
    # n = 3 at d_space 2 is coarse: shifted to y in [0.2, 1.2], the box is off by 9.2e-2
    [(2, -0.4, 8, 12, 1e-2), (2, 0.3, 8, 12, 1e-2), (3, 0.3, 2, 4, 0.12)],
)
def test_gamma_data_straddling_box(n, a, d_space, n_steps, bound):
    # y in [-0.4, 0.6]: without the extra edge a cell would straddle y = 0
    params = KernelParams(n=n, a=a)
    box = _unit_box(n, -0.4)
    zeta = P(x_prime=(0.5,) * (n - 1), x=0.1, t=-0.3)

    def f(pts, t):
        return gamma_fs_vec(params, np.atleast_2d(pts), t, zeta.spatial, zeta.t)

    sol = solve_dirichlet(params, box, f, d_space=d_space, n_steps=n_steps)
    probes = [P(x_prime=(0.5,) * (n - 1), x=y, t=t) for y in (0.0, -0.2, 0.25) for t in (0.5, 0.75)]
    want = np.array([gamma_fs(params, xi, zeta) for xi in probes])
    assert np.max(np.abs(sol.evaluate(probes) - want) / want) < bound


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


# ---------------------------------------------------------------- density solve


def _gamma_data(zeta):
    def f(pts, t):
        return gamma_fs_vec(PARAMS, np.atleast_2d(pts), t, zeta.spatial, zeta.t)

    return f


def test_zero_data_yields_zero_density():
    mesh = BoundaryMesh(BOX, PARAMS, d_space=4, n_steps=4)
    phi, info = solve_density(mesh, np.zeros((4, mesh.n_cells)))
    assert np.all(phi == 0.0)
    assert info["residual"] == 0.0


def _dense_density(mesh, g):
    """phi from one dense solve of (I - 2 W) phi = -2 g over all (step, cell) unknowns."""
    s, m = mesh.n_steps, mesh.n_cells
    W = np.zeros((s * m, s * m))
    for i in range(s):
        for k in range(i + 1):
            W[i * m : (i + 1) * m, k * m : (k + 1) * m] = mesh.block(i - k)
    return np.linalg.solve(np.eye(s * m) - 2.0 * W, -2.0 * g.ravel()).reshape(s, m)


@pytest.mark.parametrize(
    "params,box,d_space,n_steps,zeta",
    [
        (PARAMS, BOX, 6, 8, P(x_prime=(0.4,), x=0.6, t=-0.3)),
        (
            KernelParams(n=3, a=-0.4),
            BoxDomain(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0), t0=0.0, t1=1.0),
            3,
            4,
            P(x_prime=(0.4, 0.5), x=0.6, t=-0.3),
        ),
        # a step long against a cell: the spectral radius of 2 B0 exceeds 1
        (
            KernelParams(n=2, a=-0.5),
            BoxDomain(lo=(0.0, -0.005), hi=(0.01, 0.005), t0=0.0, t1=1.0),
            2,
            1,
            P(x_prime=(0.005,), x=0.002, t=-0.1),
        ),
    ],
    ids=["n2-d6-s8", "n3-plane-d3-s4", "n2-coarse-step"],
)
def test_density_matches_dense_solve(params, box, d_space, n_steps, zeta):
    mesh = BoundaryMesh(box, params, d_space=d_space, n_steps=n_steps)
    g = np.array(
        [gamma_fs_vec(params, mesh.centers, t, zeta.spatial, zeta.t) for t in mesh.step_times]
    )
    phi, info = solve_density(mesh, g)
    want = _dense_density(mesh, g)
    assert np.max(np.abs(phi - want)) <= 1e-13 * np.max(np.abs(want))
    assert set(info) == {"residual"} and info["residual"] <= 1e-12


def test_density_validation():
    mesh = BoundaryMesh(BOX, PARAMS, d_space=4, n_steps=4)
    with pytest.raises(ValueError):
        solve_density(mesh, np.zeros((3, mesh.n_cells)))
    with pytest.raises(RuntimeError, match="finite"):
        solve_density(mesh, np.full((4, mesh.n_cells), np.nan))


# ---------------------------------------------------------------- jump relation


def test_boundary_jump_recovers_density():
    mesh = BoundaryMesh(BOX, PARAMS, d_space=12, n_steps=16)
    vals = np.array(
        [[(t - BOX.t0) * (0.5 + 0.3 * c[-1]) for c in mesh.centers] for t in mesh.step_times]
    )
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
    u_out, u_in = (
        double_layer_eval(mesh, vals, (foot + side * eps * nu)[None, :], np.array([t_obs]))[0]
        for side in (1.0, -1.0)
    )
    assert (u_out - u_in) == pytest.approx(expect, rel=0.05)


def test_linearity_of_evaluation():
    mesh = BoundaryMesh(BOX, PARAMS, d_space=4, n_steps=4)
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(4, mesh.n_cells))
    spatial, times = np.array([[0.5, 0.7]]), np.array([0.9])
    u1 = double_layer_eval(mesh, vals, spatial, times)
    u2 = double_layer_eval(mesh, 2.0 * vals, spatial, times)
    assert u2 == pytest.approx(2.0 * u1, rel=1e-12)
    assert np.all(double_layer_eval(mesh, 0.0 * vals, spatial, times) == 0.0)


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
        assert np.any(_on_plane(sol.mesh))
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

    grid = bem.LiftGrid.build(PARAMS, box, one, m=48)
    v = initial_lift(PARAMS, grid, np.array([[0.1, 0.4]]), np.array([0.5]))
    assert v[0] == pytest.approx(1.0, abs=1e-6)


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
