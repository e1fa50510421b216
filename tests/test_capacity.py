"""Capacity tests: potentials, LP equilibrium measures, oracles, axioms."""
from __future__ import annotations

import math

import numpy as np
import pytest

from degenheat.capacity import (
    CapacityResult,
    DiscreteMeasure,
    box_lattice,
    capacity_lp,
    flat_lattice,
    flat_set_capacity,
    potential_of_measure,
    potential_of_measure_vec,
    weighted_ball_volume,
)
from degenheat.kernel import gamma_fs
from degenheat.params import KernelParams, SpaceTimePoint

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
