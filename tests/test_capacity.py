"""Capacity tests: potentials, LP equilibrium measures, oracles, axioms."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from degenheat import capacity
from degenheat.capacity import (
    AVG_NODES,
    NEAR_CELLS,
    CapacityResult,
    DiscreteMeasure,
    box_lattice,
    capacity_lp,
    flat_lattice,
    flat_set_capacity,
    linprog,
    potential_of_measure,
    potential_of_measure_vec,
    weighted_ball_volume,
)
from degenheat.kernel import gamma_fs, gamma_fs_vec
from degenheat.params import KernelParams, SpaceTimePoint
from degenheat.quadrature import legendre_rule, tensor_rule

PARAMS = KernelParams(n=2, a=0.3)


def test_potential_empty_measure():
    mu = DiscreteMeasure.empty(2)
    xi = SpaceTimePoint(x_prime=(0.0,), x=1.0, t=1.0)
    assert potential_of_measure(PARAMS, mu, xi) == 0.0


def test_potential_single_atom_and_linearity():
    zeta = SpaceTimePoint(x_prime=(0.1,), x=0.5, t=0.0)
    xi = SpaceTimePoint(x_prime=(0.3,), x=0.7, t=0.4)
    mu1 = DiscreteMeasure(zeta.spatial[None, :], np.array([zeta.t]), np.array([1.0]))
    mu3 = DiscreteMeasure(zeta.spatial[None, :], np.array([zeta.t]), np.array([3.0]))
    g = gamma_fs(PARAMS, xi, zeta)
    assert potential_of_measure(PARAMS, mu1, xi) == pytest.approx(g, rel=1e-14)
    assert potential_of_measure(PARAMS, mu3, xi) == pytest.approx(3.0 * g, rel=1e-14)


def test_potential_causality():
    # atoms at or after the observation time contribute nothing
    mu = DiscreteMeasure(
        np.array([[0.0, 0.5], [0.0, 0.5]]), np.array([1.0, 2.0]), np.array([1.0, 1.0])
    )
    xi = SpaceTimePoint(x_prime=(0.0,), x=0.5, t=1.0)
    assert potential_of_measure(PARAMS, mu, xi) == 0.0


def test_discrete_measure_rejects_negative_mass():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((1, 2)), np.zeros(1), np.array([-1.0]))


def test_flat_set_capacity_closed_forms():
    assert flat_set_capacity(KernelParams(n=2, a=0.0), [-1, -1], [1, 1]) == pytest.approx(4.0)
    assert flat_set_capacity(KernelParams(n=3, a=0.0), [-1] * 3, [1] * 3) == pytest.approx(8.0)
    assert flat_set_capacity(KernelParams(n=2, a=0.5), [-1, -1], [1, 1]) == pytest.approx(8.0 / 3.0)
    # invariant in tau; odd-extension primitive handles one-sided intervals
    p = KernelParams(n=2, a=-0.4)
    assert flat_set_capacity(p, [0, 1], [1, 2], tau=0.0) == pytest.approx(
        flat_set_capacity(p, [0, 1], [1, 2], tau=5.0)
    )
    assert flat_set_capacity(p, [0, 1], [1, 2]) == pytest.approx(
        (2.0 ** 0.6 - 1.0) / 0.6
    )
    with pytest.raises(ValueError):
        flat_set_capacity(p, [0, 1], [1, 1])
    with pytest.raises(ValueError):
        flat_set_capacity(p, [0], [1])


def test_flat_set_lp_refines_toward_oracle():
    params = KernelParams(n=2, a=0.5)
    exact = flat_set_capacity(params, [-1, -1], [1, 1])
    caps = []
    for d in (8, 16):
        sp, ts, h = flat_lattice([-1, -1], [1, 1], 0.0, d)
        res = capacity_lp(params, sp, ts, h, 0.0, refinement_level=d)
        assert res.max_constraint_violation <= 1e-6
        caps.append(res.cap_estimate)
    # discrete capacity overestimates and decreases under refinement
    assert caps[0] > caps[1] > exact
    richardson = 2.0 * caps[1] - caps[0]
    assert abs(richardson - exact) / exact < 0.1


def test_box_lp_equilibrium_properties():
    sp, ts, hs, ht = box_lattice([-0.5, -0.5], [0.5, 0.5], 0.0, 0.5, 8)
    res = capacity_lp(PARAMS, sp, ts, hs, ht)
    assert isinstance(res, CapacityResult)
    assert res.cap_estimate > 0.0
    assert res.max_constraint_violation <= 1e-6
    assert np.all(res.equilibrium.masses >= 0.0)
    assert res.equilibrium.total_mass == pytest.approx(res.cap_estimate)
    # equilibrium potential close to 1 on the bulk of the set
    bulk = (ts > 0.25) & (np.max(np.abs(sp), axis=1) < 0.3)
    pot = potential_of_measure_vec(PARAMS, res.equilibrium, sp[bulk], ts[bulk])
    assert np.min(pot) > 0.85
    assert np.max(pot) <= 1.0 + 1e-6


def test_time_reflection_invariance():
    sp, ts, hs, ht = box_lattice([-0.5, -0.5], [0.5, 0.5], 0.0, 0.5, 6)
    cap = capacity_lp(PARAMS, sp, ts, hs, ht).cap_estimate
    cap_ref = capacity_lp(PARAMS, sp, -ts, hs, ht).cap_estimate
    assert abs(cap - cap_ref) / cap < 1e-2


def test_monotonicity_and_subadditivity():
    sp, ts, hs, ht = box_lattice([-0.5, -0.5], [0.5, 0.5], 0.0, 0.5, 8)
    whole = capacity_lp(PARAMS, sp, ts, hs, ht).cap_estimate
    m1 = sp[:, 0] < 0.1
    m2 = sp[:, 0] > -0.1
    c1 = capacity_lp(PARAMS, sp[m1], ts[m1], hs, ht).cap_estimate
    c2 = capacity_lp(PARAMS, sp[m2], ts[m2], hs, ht).cap_estimate
    assert c1 <= whole + 1e-8
    assert c2 <= whole + 1e-8
    assert whole <= c1 + c2 + 1e-8


def test_single_point_capacity_vanishes_under_refinement():
    caps = []
    for h in (0.2, 0.1, 0.05, 0.025):
        res = capacity_lp(PARAMS, np.array([[0.2, 0.4]]), np.array([0.0]), h, h * h)
        caps.append(res.cap_estimate)
    assert all(c1 > c2 for c1, c2 in zip(caps, caps[1:]))
    assert caps[-1] <= 0.1 * caps[0]


def test_weighted_ball_volume_closed_forms():
    p0 = KernelParams(n=2, a=0.0)
    assert weighted_ball_volume(p0, 0.7, 0.3) == pytest.approx(math.pi * 0.49, rel=1e-9)
    # homogeneity at x0 = 0: w_a(B(0, rho)) = rho^{n+a} w_a(B(0,1))
    p = KernelParams(n=2, a=-0.5)
    w1 = weighted_ball_volume(p, 1.0, 0.0)
    w2 = weighted_ball_volume(p, 0.5, 0.0)
    assert w2 == pytest.approx(0.5 ** (p.n + p.a) * w1, rel=1e-8)
    with pytest.raises(ValueError):
        weighted_ball_volume(p, -1.0, 0.0)


def test_cylinder_capacity_ratio_stable():
    x0 = 0.5
    ratios = []
    for rho in (0.1, 0.2, 0.4):
        sp, ts, hs, ht = box_lattice(
            [-rho, x0 - rho], [rho, x0 + rho], -rho * rho, 0.0, 8
        )
        inside = np.sum((sp - [0.0, x0]) ** 2, axis=1) <= rho * rho
        cap = capacity_lp(PARAMS, sp[inside], ts[inside], hs, ht).cap_estimate
        ratios.append(cap / weighted_ball_volume(PARAMS, rho, x0))
    assert max(ratios) / min(ratios) < 3.0


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        capacity_lp(PARAMS, np.zeros((0, 2)), np.zeros(0), 0.1, 0.1)


def test_oversized_matrix_rejected_before_allocation():
    # 2 x 300,000^2 float64 entries are 1.4 TB: refused before any is built
    with pytest.raises(ValueError, match="physical memory"):
        capacity_lp(PARAMS, np.zeros((300_000, 2)), np.zeros(300_000), 0.1, 0.1)


# ------------------------------------------------------- constraint matrix


def _constraint_set(n, kind):
    lo = [-0.5] * (n - 1) + [0.2]
    hi = [0.5] * (n - 1) + [1.2]
    if kind == "straddle":
        lo[-1], hi[-1] = -0.4, 0.6
    if kind in ("flat-0", "flat-h2"):
        sp, ts, hs = flat_lattice(lo, hi, 0.0, 6 if n == 2 else 4)
        ht = 0.0 if kind == "flat-0" else hs * hs
    else:
        sp, ts, hs, ht = box_lattice(lo, hi, 0.0, 0.5, 5 if n == 2 else 3)
    collar = ht if ht > 0.0 else hs * hs
    cons_sp = np.vstack([sp, sp])
    cons_t = np.concatenate([ts, ts + collar])
    return cons_sp, cons_t, sp, ts, hs, ht


def _tensor_reference(params, cons_sp, cons_t, atom_sp, atom_t, hs, ht):
    """The constraint matrix with every near entry averaged over all tensor nodes."""
    ref = gamma_fs_vec(params, cons_sp[:, None, :], cons_t[:, None], atom_sp[None], atom_t[None])
    dt_scale = ht if ht > 0.0 else hs * hs
    snap = 1e-9 * dt_scale
    dt = cons_t[:, None] - atom_t[None, :]
    ref[(dt > 0.0) & (dt < snap)] = 0.0
    near = (np.abs(dt) <= NEAR_CELLS * dt_scale) & (
        np.max(np.abs(cons_sp[:, None, :] - atom_sp[None, :, :]), axis=-1) <= NEAR_CELLS * hs
    )
    x, _ = legendre_rule(AVG_NODES)
    n = params.n
    axes = [0.5 * hs * x] * n + ([0.5 * ht * x] if ht > 0.0 else [np.zeros(1)])
    offsets = tensor_rule(axes)
    js, is_ = np.nonzero(near)
    src_t = atom_t[is_, None] + offsets[None, :, n]
    gam = gamma_fs_vec(
        params,
        cons_sp[js, None, :],
        cons_t[js, None],
        atom_sp[is_, None, :] + offsets[None, :, :n],
        src_t,
    )
    dtq = cons_t[js, None] - src_t
    gam[(dtq > 0.0) & (dtq < snap)] = 0.0
    ref[js, is_] = np.mean(gam, axis=1)
    return ref, len(js)


@pytest.mark.parametrize("kind", ["flat-0", "flat-h2", "box", "straddle"])
@pytest.mark.parametrize("a", [-0.5, 0.3])
@pytest.mark.parametrize("n", [2, 3])
def test_constraint_matrix_matches_tensor_rule(n, a, kind):
    params = KernelParams(n=n, a=a)
    args = _constraint_set(n, kind)
    A, near_pairs = capacity._constraint_matrix(params, *args)
    ref, ref_near = _tensor_reference(params, *args)
    assert near_pairs == ref_near > 0
    assert np.array_equal(A != 0.0, ref != 0.0)
    live = ref != 0.0
    assert np.max(np.abs(A[live] - ref[live]) / ref[live]) <= 1e-13


def test_near_entry_profile_points(monkeypatch):
    # a near entry takes 3 weighted-axis values per time node; the full
    # tensor rule would take 3^(n+1) = 81 kernel points for n = 3
    points = {"gamma_fs_vec": 0, "u_tilde": 0}

    def counting(name, real):
        def counted(*args):
            out = real(*args)
            points[name] += int(np.size(out))
            return out

        return counted

    for name in points:
        monkeypatch.setattr(capacity, name, counting(name, getattr(capacity, name)))
    params = KernelParams(n=3, a=0.3)
    cons_sp, cons_t, sp, ts, hs, ht = _constraint_set(3, "box")
    A, near_pairs = capacity._constraint_matrix(params, cons_sp, cons_t, sp, ts, hs, ht)
    assert near_pairs > 0
    assert sum(points.values()) <= A.size + 9 * near_pairs


# ------------------------------------------------------------- LP solver


@pytest.mark.parametrize(
    "A,cap",
    [
        (np.diag([1.0, 2.0, 4.0]), 1.75),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0),
        # duplicate columns: any split of the mass 1/2 between them is optimal
        (np.array([[2.0, 2.0, 0.0], [0.0, 0.0, 1.0]]), 1.5),
        # duplicate rows: a degenerate vertex
        (np.vstack([np.diag([1.0, 2.0, 4.0])] * 3), 1.75),
    ],
    ids=["diagonal", "triangular", "duplicate-columns", "duplicate-rows"],
)
def test_linprog_closed_forms(A, cap):
    res = linprog(A_ub=A)
    assert res.nit > 0
    assert np.all(res.x > 0.0)
    assert np.max(A @ res.x) <= 1.0 + 1e-7
    assert np.sum(res.x) == pytest.approx(cap, rel=1e-7)
    if A.shape == (3, 3):
        assert res.x == pytest.approx([1.0, 0.5, 0.25], rel=1e-7)


def test_linprog_zero_column_is_unbounded():
    with pytest.raises(RuntimeError, match="unbounded"):
        linprog(A_ub=np.array([[1.0, 0.0], [2.0, 0.0]]))


# three bench `capacity` configs (a, lo; hi = lo + 2) and their caps at
# densities 16 and 32 as HiGHS-IPM computed them at tolerance 1e-8
BENCH_CAPS = [
    (
        0.20519930049117807,
        [0.3576474270731438, -0.7622185810352857],
        (4.4701618896330588, 3.9079767351389343),
    ),
    (
        -0.42266499199090934,
        [0.17570053491271587, -0.7222618811822372],
        (8.5099549089780098, 7.7206363505633302),
    ),
    (
        0.39575955024860276,
        [-1.105187656652902, -0.9232013155056327],
        (3.9339461909571622, 3.4004175889156087),
    ),
]


@pytest.mark.parametrize("a,lo,caps", BENCH_CAPS, ids=["a0.21", "a-0.42", "a0.40-straddle"])
def test_bench_capacities_match_highs(a, lo, caps):
    tol = 1e-8
    for density, want in zip((16, 32), caps):
        pts, ts, h = flat_lattice(lo, [lo[0] + 2.0, lo[1] + 2.0], 0.0, density)
        got = capacity_lp(KernelParams(n=2, a=a), pts, ts, h, h * h, tol=tol).cap_estimate
        assert abs(got - want) <= 10 * tol * want


def test_cli_import_leaves_out_scipy_optimize():
    # importing scipy.optimize costs about a quarter of a CLI start
    src = str(Path(capacity.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, degenheat.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
