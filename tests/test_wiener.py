"""Wiener-series pipeline tests: descriptors, shell terms, verdicts."""
from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from degenheat import geometry, wiener
from degenheat.capacity import lp_report
from degenheat.params import KernelParams, SpaceTimePoint
from degenheat.wiener import (
    DomainDescriptor,
    classify_terms,
    shell_terms,
    shell_weight,
    wiener_series,
)

P = SpaceTimePoint
PARAMS = KernelParams(n=2, a=0.3)
XI0 = P(x_prime=(0.5,), x=0.7, t=0.0)
EMPTY = DomainDescriptor(
    ({"type": "time-slab", "t": [5, 6]}, {"type": "time-slab", "t": [7, 8]}),
    ("intersect",),
)
PAST_SLAB = DomainDescriptor.time_slab(-10.0, 0.0)
BOX = DomainDescriptor(({"type": "box", "lo": [0.0, 0.2], "hi": [1.0, 1.2], "t": [0.0, 1.0]},))


# ---------------------------------------------------------------- descriptor


def test_box_membership_strict():
    assert BOX.contains(P(x_prime=(0.5,), x=0.7, t=0.5))
    # faces excluded: the set is open
    assert not BOX.contains(P(x_prime=(0.0,), x=0.7, t=0.5))
    assert not BOX.contains(P(x_prime=(0.5,), x=0.7, t=0.0))
    assert not BOX.contains(P(x_prime=(0.5,), x=1.3, t=0.5))


def test_half_space_and_ops():
    # {x' + 2t < 1} minus the box
    dom = DomainDescriptor(
        (
            {"type": "half-space", "normal": [1.0, 0.0, 2.0], "offset": 1.0},
            {"type": "box", "lo": [0.0, 0.2], "hi": [1.0, 1.2], "t": [0.0, 1.0]},
        ),
        ("subtract",),
    )
    assert dom.contains(P(x_prime=(0.5,), x=0.7, t=-0.5))
    assert not dom.contains(P(x_prime=(0.5,), x=0.7, t=0.1))
    assert not dom.contains(P(x_prime=(2.0,), x=0.7, t=0.0))
    comp = DomainDescriptor(
        ({"type": "time-slab", "t": [0.0, 1.0], "complement": True},)
    )
    assert comp.contains(P(x_prime=(0.0,), x=0.0, t=2.0))
    assert not comp.contains(P(x_prime=(0.0,), x=0.0, t=0.5))


def test_cusp_membership():
    dom = DomainDescriptor(
        (
            {
                "type": "cusp",
                "center": [0.0, 0.0, 0.0],
                "profile": {"kind": "power", "params": [1.0, 0.5]},
            },
        )
    )
    # parabolic-width region below the origin
    assert dom.contains(P(x_prime=(0.05,), x=0.0, t=-0.01))
    assert not dom.contains(P(x_prime=(0.2,), x=0.0, t=-0.01))
    assert not dom.contains(P(x_prime=(0.0,), x=0.0, t=0.01))
    exp_dom = DomainDescriptor(
        (
            {
                "type": "cusp",
                "center": [0.0, 0.0, 0.0],
                "profile": {"kind": "exp", "params": [1.0, 1.0]},
            },
        )
    )
    # exponentially thin: e^{-1/0.01} ~ 4e-44
    assert not exp_dom.contains(P(x_prime=(1e-8,), x=0.0, t=-0.01))


def test_descriptor_json_roundtrip_and_validation():
    data = json.loads(json.dumps(asdict(BOX)))
    again = DomainDescriptor(tuple(data["primitives"]), tuple(data["ops"]))
    assert again == BOX
    assert data["primitives"][0]["type"] == "box"
    with pytest.raises(ValueError):
        DomainDescriptor(())
    with pytest.raises(ValueError):
        DomainDescriptor(({"type": "cone"},))
    with pytest.raises(ValueError):
        DomainDescriptor(
            ({"type": "time-slab", "t": [0, 1]},) * 2, ("xor",)
        )


@pytest.mark.parametrize(
    "prim",
    [
        {"type": "box", "lo": [0.0], "hi": [1.0], "t": [0.0, 1.0]},
        {"type": "box", "lo": [0.0, 0.2], "hi": [1.0, 1.2, 2.0], "t": [0.0, 1.0]},
        {"type": "cusp", "center": [0.5, 0.0], "profile": {"kind": "power", "params": [1.0, 0.5]}},
        {"type": "half-space", "normal": [1.0, 0.0], "offset": 1.0},
    ],
    ids=["box-short-corners", "box-long-hi", "cusp-short-center", "half-space-short-normal"],
)
def test_primitive_vectors_match_point_width(prim):
    # at n = 2 corners hold 2 numbers and a normal or center 3: a short one is not broadcast
    dom = DomainDescriptor((prim,))
    with pytest.raises(ValueError, match="n = 2"):
        dom.contains_vec([[0.5, 0.5], [0.5, 1.5]], [0.5, -0.5])


@pytest.mark.parametrize("flag", ["no", 0, 1.0, None], ids=["no", "0", "1.0", "null"])
def test_complement_flag_must_be_boolean(flag):
    # a truth test would complement the box for "no" and not for 0.0
    box = {"type": "box", "lo": [0.0, 0.2], "hi": [1.0, 1.2], "t": [0.0, 1.0]}
    with pytest.raises(ValueError, match="complement"):
        DomainDescriptor(({**box, "complement": flag},))
    inside = P(x_prime=(0.5,), x=0.7, t=0.5)
    assert DomainDescriptor(({**box, "complement": False},)).contains(inside)
    assert not DomainDescriptor(({**box, "complement": True},)).contains(inside)


# ---------------------------------------------------------------- shell terms


def test_full_shell_terms_constant():
    # empty domain at x0 = 0: capacity scaling cancels the weight exactly
    xi = P(x_prime=(0.0,), x=0.0, t=0.0)
    terms = []
    for k in range(1, 5):
        cap, _, term, lp = shell_terms(PARAMS, xi, [(0.5, k)], EMPTY, density=10)[0]
        assert cap > 0 and cap == lp.cap_estimate
        terms.append(term)
    ratios = np.array(terms[1:]) / np.array(terms[:-1])
    assert np.all(np.abs(ratios - 1.0) < 0.3)


def test_half_space_complement_terms_constant():
    # domain {t > 0}: its complement contains every shell
    dom = DomainDescriptor(
        ({"type": "half-space", "normal": [0.0, 0.0, -1.0], "offset": 0.0},)
    )
    xi = P(x_prime=(0.0,), x=0.0, t=0.0)
    terms = [shell_terms(PARAMS, xi, [(0.5, k)], dom, density=10)[0][2] for k in range(1, 5)]
    ratios = np.array(terms[1:]) / np.array(terms[:-1])
    assert np.all(np.abs(ratios - 1.0) < 0.3)


def test_shell_term_empty_intersection_and_validation():
    cap, _, term, lp = shell_terms(PARAMS, XI0, [(0.5, 3)], PAST_SLAB, density=8)[0]
    assert cap == 0.0 and term == 0.0 and lp is None
    with pytest.raises(ValueError):
        shell_terms(PARAMS, XI0, [(0.5, 0)], EMPTY, density=8)
    with pytest.raises(ValueError):
        shell_terms(PARAMS, XI0, [(1.5, 1)], EMPTY, density=8)


def test_term_locality_and_monotonicity():
    # adding domain material outside the shells leaves terms unchanged;
    # enlarging the complement cannot decrease them
    k = 2
    base_cap, _, _, _ = shell_terms(PARAMS, XI0, [(0.5, k)], BOX, density=8)[0]
    far = DomainDescriptor(
        (
            {"type": "box", "lo": [0.0, 0.2], "hi": [1.0, 1.2], "t": [0.0, 1.0]},
            {"type": "box", "lo": [50.0, 50.0], "hi": [51.0, 51.0], "t": [-1.0, 0.0]},
        ),
        ("union",),
    )
    far_cap, _, _, _ = shell_terms(PARAMS, XI0, [(0.5, k)], far, density=8)[0]
    assert far_cap == pytest.approx(base_cap, rel=1e-9)
    smaller = DomainDescriptor(
        ({"type": "box", "lo": [0.4, 0.6], "hi": [0.6, 0.8], "t": [0.0, 1.0]},)
    )
    small_cap, _, _, _ = shell_terms(PARAMS, XI0, [(0.5, k)], smaller, density=8)[0]
    assert small_cap >= base_cap * (1 - 1e-6)


def test_series_matches_one_shell_path(monkeypatch):
    # density 4 leaves the first lattices of the deepest shells empty, so they
    # densify; the shells of lambda and of the sweep share one sampling pass and
    # one capacity_lp call, and a sweep value equal to lambda, or repeated, is
    # sampled and solved once.  Batching the series moves caps in their last bits only
    densities, passes, lp_calls, classified = [], [], [], []
    box_lattice, samples, lp = geometry.box_lattice, wiener.heat_ball_samples, wiener.capacity_lp
    classify = wiener.classify_terms

    def counted_box(lo, hi, t0, t1, density):
        densities.append(density)
        return box_lattice(lo, hi, t0, t1, density)

    def counted_pass(balls, density, tries):
        passes.append(len(balls))
        return samples(balls, density, tries)

    def counted_lp(params, lattices):
        lp_calls.append(len(lattices))
        return lp(params, lattices)

    monkeypatch.setattr(geometry, "box_lattice", counted_box)
    monkeypatch.setattr(wiener, "heat_ball_samples", counted_pass)
    monkeypatch.setattr(wiener, "capacity_lp", counted_lp)
    monkeypatch.setattr(wiener, "classify_terms", lambda t: classified.append(t) or classify(t))
    rep = wiener_series(PARAMS, XI0, BOX, lam=0.5, k_max=8, density=4, sweep=(0.5, 0.3, 0.3))
    assert passes == [16]
    assert len(lp_calls) == 1
    assert 8 in densities
    assert list(rep.lambda_sweep) == [0.5, 0.3]
    assert rep.lambda_sweep[0.5] == rep.verdict
    monkeypatch.undo()
    # each verdict is taken over its own lambda's terms
    for got, lam in zip(classified, (0.5, 0.3), strict=True):
        want = [r[2] for r in shell_terms(PARAMS, XI0, [(lam, k) for k in range(1, 9)], BOX, 4)]
        assert got == pytest.approx(want, rel=1e-13)
    for row in rep.terms:
        cap, weight, term, lp = shell_terms(PARAMS, XI0, [(0.5, row["k"])], BOX, density=4)[0]
        assert row["cap"] == pytest.approx(cap, rel=1e-13)
        assert row["weight"] == weight == shell_weight(PARAMS, XI0.x, 0.5, row["k"])
        assert row["term"] == pytest.approx(term, rel=1e-13)
        want = lp_report(lp)
        violation = want.pop("max_constraint_violation")
        assert row["lp"].pop("max_constraint_violation") == pytest.approx(violation, abs=1e-12)
        assert row["lp"] == want


def test_classical_shell_pipeline():
    # a = 0 reduction: same scheme, classical kernel
    params0 = KernelParams(n=2, a=0.0)
    xi = P(x_prime=(0.0,), x=0.0, t=0.0)
    terms = [
        shell_terms(params0, xi, [(0.5, k)], EMPTY, density=10)[0][2] for k in range(1, 5)
    ]
    ratios = np.array(terms[1:]) / np.array(terms[:-1])
    assert np.all(np.abs(ratios - 1.0) < 0.3)


# ---------------------------------------------------------------- verdicts


def test_classifier_direct():
    assert classify_terms([0.0] * 8) == "likely-irregular"
    assert classify_terms([1.0, 0.9, 1.1, 1.0, 0.95, 1.05, 1.0, 1.0]) == "likely-regular"
    geometric = [0.5**k for k in range(1, 10)]
    assert classify_terms(geometric) == "likely-irregular"
    # empty first shells: the scale comes from the first term above the floor
    assert classify_terms([0.0] + [0.5**k for k in range(9)]) == "likely-irregular"
    assert classify_terms([0.0] * 3 + [5.0] + [0.0] * 6) == "inconclusive"
    assert classify_terms([1e-12, 0.0]) == "likely-irregular"


def test_flat_bottom_regular_with_sweep():
    rep = wiener_series(
        PARAMS, XI0, BOX, lam=0.5, k_max=10, density=8, sweep=(0.3, 0.5, 0.7)
    )
    assert rep.verdict == "likely-regular"
    assert set(rep.lambda_sweep.values()) == {"likely-regular"}
    terms = [row["term"] for row in rep.terms]
    assert all(t >= 0 for t in terms)
    assert rep.partial_sums == sorted(rep.partial_sums)
    data = json.loads(json.dumps(asdict(rep)))
    assert data["verdict"] == "likely-regular"
    assert data["thresholds"]["conv_ratio"] == 0.7


def test_deleted_past_irregular_with_sweep():
    rep = wiener_series(
        PARAMS, XI0, PAST_SLAB, lam=0.5, k_max=10, density=8, sweep=(0.3, 0.5, 0.7)
    )
    assert rep.verdict == "likely-irregular"
    assert set(rep.lambda_sweep.values()) == {"likely-irregular"}
    assert all(row["term"] < 1e-12 for row in rep.terms)


def test_verdict_stable_under_density_doubling():
    coarse = wiener_series(PARAMS, XI0, BOX, lam=0.5, k_max=8, density=6, sweep=())
    fine = wiener_series(PARAMS, XI0, BOX, lam=0.5, k_max=8, density=12, sweep=())
    assert coarse.verdict == fine.verdict == "likely-regular"


@pytest.mark.parametrize("T", [1e6, 1e8])
def test_series_unchanged_by_time_shift(T):
    # L_a does not change under a shift in time, and the shells are built in
    # the pole's time frame: shifting the domain and xi0 by T moves no term
    def series(shift):
        xi0 = P(x_prime=(0.5,), x=0.7, t=shift)
        box = {"type": "box", "lo": [0.0, 0.2], "hi": [1.0, 1.2], "t": [shift, shift + 1.0]}
        return wiener_series(
            PARAMS, xi0, DomainDescriptor((box,)), lam=0.5, k_max=12, density=10, sweep=()
        )

    base, shifted = series(0.0), series(T)
    assert [row["term"] for row in shifted.terms] == [row["term"] for row in base.terms]
    assert shifted.verdict == base.verdict == "likely-regular"


def test_boundary_precondition():
    inside = P(x_prime=(0.5,), x=0.7, t=0.5)
    with pytest.raises(ValueError):
        wiener_series(PARAMS, inside, BOX, lam=0.5, k_max=2, density=6, sweep=())
    far = P(x_prime=(30.0,), x=30.0, t=-30.0)
    with pytest.raises(ValueError):
        wiener_series(PARAMS, far, BOX, lam=0.5, k_max=2, density=6, sweep=())


def test_shell_weight_uses_point_height():
    w0 = shell_weight(PARAMS, 0.0, 0.5, 3)
    w7 = shell_weight(PARAMS, 0.7, 0.5, 3)
    rk = 0.5**3
    assert w0 == pytest.approx(rk ** (-(2 + 0.3) / 2))
    assert w7 == pytest.approx(w0 * (1 + 0.49 / rk) ** (-0.15))

