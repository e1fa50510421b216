"""Capacity tests: potentials, LP equilibrium measures, oracles, axioms."""
from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from degenheat import capacity, cli, geometry, separable, wiener
from degenheat.capacity import (
    AVG_NODES,
    LP_TOL,
    NEAR_CELLS,
    CapacityResult,
    DiscreteMeasure,
    capacity_lp,
    flat_set_capacity,
    lp_report,
    linprog,
    weighted_ball_volume,
)
from degenheat.kernel import gamma_fs_vec, heat_kernel_1d, u_tilde
from degenheat.params import KernelParams, SpaceTimePoint
from degenheat.quadrature import CALL_WORDS, CHUNK_POINTS, box_lattice, chunk_bytes, chunks
from degenheat.quadrature import flat_lattice, legendre_rule, tensor_rule
from degenheat.separable import axis_classes

PARAMS = KernelParams(n=2, a=0.3)


def test_discrete_measure_rejects_negative_mass():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((1, 2)), np.zeros(1), np.array([-1.0]))


def test_flat_set_capacity_closed_forms():
    assert flat_set_capacity(KernelParams(n=2, a=0.0), [-1, -1], [1, 1]) == pytest.approx(4.0)
    assert flat_set_capacity(KernelParams(n=3, a=0.0), [-1] * 3, [1] * 3) == pytest.approx(8.0)
    assert flat_set_capacity(KernelParams(n=2, a=0.5), [-1, -1], [1, 1]) == pytest.approx(8.0 / 3.0)
    # odd-extension primitive handles one-sided intervals
    p = KernelParams(n=2, a=-0.4)
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
        res = capacity_lp(params, [flat_lattice([-1, -1], [1, 1], d)])[0]
        assert res.max_constraint_violation <= 1e-6
        caps.append(res.cap_estimate)
    # discrete capacity overestimates and decreases under refinement
    assert caps[0] > caps[1] > exact
    richardson = 2.0 * caps[1] - caps[0]
    assert abs(richardson - exact) / exact < 0.1


def test_box_lp_equilibrium_properties():
    sp, ts, hs, ht = box_lattice([-0.5, -0.5], [0.5, 0.5], 0.0, 0.5, 8)
    res = capacity_lp(PARAMS, [(sp, ts, hs, ht)])[0]
    assert isinstance(res, CapacityResult)
    assert res.cap_estimate > 0.0
    assert res.max_constraint_violation <= 1e-6
    assert np.all(res.equilibrium.masses >= 0.0)
    assert np.sum(res.equilibrium.masses) == pytest.approx(res.cap_estimate)
    # equilibrium potential close to 1 on the bulk of the set
    bulk = (ts > 0.25) & (np.max(np.abs(sp), axis=1) < 0.3)
    mu = res.equilibrium
    pot = gamma_fs_vec(PARAMS, sp[bulk, None], ts[bulk, None], mu.spatial, mu.times) @ mu.masses
    assert np.min(pot) > 0.85
    assert np.max(pot) <= 1.0 + 1e-6


def test_time_reflection_invariance():
    sp, ts, hs, ht = box_lattice([-0.5, -0.5], [0.5, 0.5], 0.0, 0.5, 6)
    cap = capacity_lp(PARAMS, [(sp, ts, hs, ht)])[0].cap_estimate
    cap_ref = capacity_lp(PARAMS, [(sp, -ts, hs, ht)])[0].cap_estimate
    assert abs(cap - cap_ref) / cap < 1e-2


def test_monotonicity_and_subadditivity():
    sp, ts, hs, ht = box_lattice([-0.5, -0.5], [0.5, 0.5], 0.0, 0.5, 8)
    whole = capacity_lp(PARAMS, [(sp, ts, hs, ht)])[0].cap_estimate
    m1 = sp[:, 0] < 0.1
    m2 = sp[:, 0] > -0.1
    c1 = capacity_lp(PARAMS, [(sp[m1], ts[m1], hs, ht)])[0].cap_estimate
    c2 = capacity_lp(PARAMS, [(sp[m2], ts[m2], hs, ht)])[0].cap_estimate
    assert c1 <= whole + 1e-8
    assert c2 <= whole + 1e-8
    assert whole <= c1 + c2 + 1e-8


def test_single_point_capacity_vanishes_under_refinement():
    caps = []
    for h in (0.2, 0.1, 0.05, 0.025):
        point = (np.array([[0.2, 0.4]]), np.array([0.0]), h, h * h)
        res = capacity_lp(PARAMS, [point])[0]
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
        cap = capacity_lp(PARAMS, [(sp[inside], ts[inside], hs, ht)])[0].cap_estimate
        ratios.append(cap / weighted_ball_volume(PARAMS, rho, x0))
    assert max(ratios) / min(ratios) < 3.0


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        capacity_lp(PARAMS, [(np.zeros((0, 2)), np.zeros(0), 0.1, 0.1)])


def test_cell_without_time_extent_rejected():
    # every atom is a cell with a time extent; a flat set's lattice carries h^2
    sp, ts, h, _ = flat_lattice([0.0, 0.0], [1.0, 1.0], 10)
    for h_time in (0.0, -h * h, math.nan):
        with pytest.raises(ValueError, match="positive"):
            capacity_lp(PARAMS, [(sp, ts, h, h_time)])


def test_oversized_matrix_rejected_before_allocation():
    # 2 x 300,000^2 float64 entries are 1.4 TB: refused before any is built
    with pytest.raises(ValueError, match="physical memory"):
        capacity_lp(PARAMS, [(np.zeros((300_000, 2)), np.zeros(300_000), 0.1, 0.1)])


# ------------------------------------------------------- constraint matrix


def _constraint_set(n, kind):
    lo = [-0.5] * (n - 1) + [0.2]
    hi = [0.5] * (n - 1) + [1.2]
    if kind == "straddle":
        lo[-1], hi[-1] = -0.4, 0.6
    if kind == "flat-h2":
        sp, ts, hs, ht = flat_lattice(lo, hi, 6 if n == 2 else 4)
    elif kind == "scattered":
        # as many points as the box lattice, no two sharing a coordinate or a
        # time.  exp(-r) has condition number r, so a lag far below the cell's
        # time scale would make any two evaluations differ by more than the
        # bound; the times are a shuffled ladder with steps of at least ht / 8
        rng = np.random.default_rng(7)
        cells = 5 if n == 2 else 3
        m = cells ** (n + 1)
        hs, ht = 1.0 / cells, 0.5 / cells
        sp = rng.uniform(lo, hi, size=(m, n))
        ts = 0.25 * ht * (rng.permutation(m) + rng.uniform(0.0, 0.5, size=m))
    else:
        sp, ts, hs, ht = box_lattice(lo, hi, 0.0, 0.5, 5 if n == 2 else 3)
    cons_sp = np.vstack([sp, sp])
    cons_t = np.concatenate([ts, ts + ht])
    return cons_sp, cons_t, sp, ts, hs, ht


def _points(build, s=0):
    """Set s's rows' and atoms' points of a build, at the values their ranks stand for."""
    values = build.values
    atom_set = np.repeat(build.orbit_set, build.sizes)
    at = [(np.column_stack([v[r[:, k]] for k, v in enumerate(values[:-1])]), values[-1][r[:, -1]])
          for r in (build.rows[build.row_set == s], build.atoms[atom_set == s])]
    return (*at[0], *at[1], build.h_space[s], build.h_time[s])


def _unfolded(*sets):
    """A build of each set's rows over every atom's own column, each atom an orbit of its own.

    Each set is (cons_sp, cons_t, atom_sp, atom_t, hs, ht); its rows and atoms are ranked
    together as capacity_lp ranks a set's points.
    """
    cons = [(s[0], s[1]) for s in sets] + [(s[2], s[3]) for s in sets]
    owner = np.repeat(np.arange(2 * len(sets)) % len(sets), [len(t) for _, t in cons])
    sp, t = np.vstack([c for c, _ in cons]), np.concatenate([t for _, t in cons])
    hs, ht = (np.array([s[i] for s in sets], dtype=float) for i in (4, 5))
    ranked = [capacity._ranks(c, owner, 1e-9 * hs) for c in sp.T]
    ranked.append(capacity._ranks(t, owner, 1e-9 * ht))
    ranks, values = np.column_stack([r for r, _, _ in ranked]), [v for _, v, _ in ranked]
    m, atoms = sum(len(s[1]) for s in sets), owner[sum(len(s[1]) for s in sets):]
    ones = np.ones(len(atoms), dtype=int)
    return capacity._Build(values, ranks[:m], owner[:m], ranks[m:], ones, atoms, hs, ht)


def _matrices(params, build):
    """Each set's folded matrix rows x orbits and its near pair count, as capacity_lp groups them."""
    rows, orbits, _ = build.counts()
    groups = list(chunks(rows * orbits, CHUNK_POINTS))
    out = []
    for (g0, g1), (F, near) in zip(groups, capacity._constraint_matrices(params, build, groups)):
        ends = np.cumsum(rows[g0:g1] * orbits[g0:g1])
        for end, r, o, pairs in zip(ends, rows[g0:g1], orbits[g0:g1], near):
            out.append((F[end - r * o : end].reshape(r, o), pairs))
    return out


def _tensor_reference(params, cons_sp, cons_t, atom_sp, atom_t, hs, ht):
    """The constraint matrix with every near entry averaged over all tensor nodes."""
    ref = gamma_fs_vec(params, cons_sp[:, None, :], cons_t[:, None], atom_sp[None], atom_t[None])
    dt = cons_t[:, None] - atom_t[None, :]
    near = (np.abs(dt) <= NEAR_CELLS * ht) & (
        np.max(np.abs(cons_sp[:, None, :] - atom_sp[None, :, :]), axis=-1) <= NEAR_CELLS * hs
    )
    x, _ = legendre_rule(AVG_NODES)
    n = params.n
    offsets = tensor_rule([0.5 * hs * x] * n + [0.5 * ht * x])
    js, is_ = np.nonzero(near)
    src_t = atom_t[is_, None] + offsets[None, :, n]
    gam = gamma_fs_vec(
        params,
        cons_sp[js, None, :],
        cons_t[js, None],
        atom_sp[is_, None, :] + offsets[None, :, :n],
        src_t,
    )
    ref[js, is_] = np.mean(gam, axis=1)
    return ref, len(js)


@pytest.mark.parametrize("kind", ["flat-h2", "box", "straddle", "scattered"])
@pytest.mark.parametrize("a", [-0.5, 0.3])
@pytest.mark.parametrize("n", [2, 3])
def test_constraint_matrix_matches_tensor_rule(n, a, kind):
    params = KernelParams(n=n, a=a)
    build = _unfolded(_constraint_set(n, kind))
    (A, near_pairs), = _matrices(params, build)
    _check_against_tensor_rule(params, build, A, near_pairs)


def _check_against_tensor_rule(params, build, A, near_pairs, s=0):
    ref, ref_near = _tensor_reference(params, *_points(build, s))
    assert near_pairs == ref_near > 0
    assert np.array_equal(A != 0.0, ref != 0.0)
    live = ref != 0.0
    assert np.max(np.abs(A[live] - ref[live]) / ref[live]) <= 1e-13


@pytest.mark.parametrize("a", [-0.5, 0.3])
@pytest.mark.parametrize("n", [2, 3])
def test_batched_constraint_matrices_match_tensor_rule(n, a):
    # one call builds the four sets, whose cell sides differ, from shared tables:
    # each pair takes its own set's node offsets
    params = KernelParams(n=n, a=a)
    kinds = ("flat-h2", "box", "straddle", "scattered")
    build = _unfolded(*(_constraint_set(n, kind) for kind in kinds))
    built = _matrices(params, build)
    assert len(built) == len(kinds)
    for s, (A, near_pairs) in enumerate(built):
        _check_against_tensor_rule(params, build, A, near_pairs, s)


def _per_set_reference(params, cons_sp, cons_t, atom_sp, atom_t, hs, ht):
    """One set's unfolded matrix as a per-set build makes it (broadcast class tables, then node
    means), and the rows and atoms of its near pairs."""
    js, is_ = np.nonzero(
        (np.abs(cons_t[:, None] - atom_t) <= NEAR_CELLS * ht)
        & np.all(np.abs(cons_sp[:, None] - atom_sp) <= NEAR_CELLS * hs, axis=-1)
    )
    x, _ = legendre_rule(AVG_NODES)
    row_times, row_ti = np.unique(cons_t, return_inverse=True)
    atom_times, atom_ti = np.unique(atom_t, return_inverse=True)

    def means(weighted, x, t, y, s, off, off_t):
        x, t, y, s = (v[..., None, None] for v in (x, t, y, s))
        dt = t - (s + off_t[:, None])
        kernel = u_tilde(params, x, y + off, dt) if weighted else heat_kernel_1d(x, y + off, dt)
        return np.mean(kernel, axis=-1)

    cells = np.ones((len(js), AVG_NODES))
    A = 1.0
    for k in range(params.n):
        weighted = k == params.n - 1
        rc, rx, rt = axis_classes(cons_sp[:, k], row_ti, row_times)
        ac, ax, at = axis_classes(atom_sp[:, k], atom_ti, atom_times)
        zero = np.zeros(1)
        A = A * means(weighted, rx[:, None], rt[:, None], ax, at, zero, zero)[:, ac, 0][rc]
        pairs, pair = np.unique(rc[js] * len(ax) + ac[is_], return_inverse=True)
        p, q = np.divmod(pairs, len(ax))
        cells *= means(weighted, rx[p], rt[p], ax[q], at[q], 0.5 * hs * x, 0.5 * ht * x)[pair]
    A[js, is_] = np.mean(cells, axis=-1)
    return A, js, is_


def _folded_build(n, lattices):
    """capacity_lp's one-pass build of the lattices: the distinct set and collar points of one
    atom per orbit, over the atoms by orbit, set by set."""
    sets = np.repeat(np.arange(len(lattices)), [len(lat[1]) for lat in lattices])
    sp, ts = (np.concatenate([lat[i] for lat in lattices]) for i in (0, 1))
    hs, ht = (np.array([lat[i] for lat in lattices], dtype=float) for i in (2, 3))
    return capacity._lattice_symmetry(n, sp, ts, sets, hs, ht)[0]


def _check_folded_build(params, lattices):
    """Assert that each set's folded build equals its per-set reference folded by reduceat / sizes.

    One call on the sets computes each table entry and node mean from the
    same values in the same order as a per-set broadcast build, and folds
    each row as reduceat over the whole matrix does, so the matrix is equal
    to the bit, and so is everything the LP computes from it.  Returns the
    build and each set's rows and atoms of its near pairs.
    """
    build = _folded_build(params.n, lattices)
    near = []
    for s, (A, near_pairs) in enumerate(_matrices(params, build)):
        full, js, is_ = _per_set_reference(params, *_points(build, s))
        sizes = build.sizes[build.orbit_set == s]
        assert near_pairs == len(js)
        assert A.shape == (np.sum(build.row_set == s), len(sizes))
        assert np.array_equal(A, np.add.reduceat(full, np.cumsum(sizes) - sizes, axis=1) / sizes)
        near.append((js, is_))
    return build, near


def _chunk_ends(build):
    """The rows at which the build of one set starts a new chunk."""
    return [hi for _, hi in chunks([np.sum(build.sizes)] * len(build.rows), CHUNK_POINTS // 2)][:-1]


def test_one_set_build_matches_per_set_reference():
    # the folded rows of the bench's fine level (the first BENCH_CAPS config at
    # density 32): orbits of 2 atoms, whose 1024 rows x 1024 atoms are built in 128
    # chunks with near pairs on both sides of every chunk boundary
    a, lo, _ = BENCH_CAPS[0]
    lattice = flat_lattice(lo, [lo[0] + 2.0, lo[1] + 2.0], 32)
    build, ((js, _),) = _check_folded_build(KernelParams(n=2, a=a), [lattice])
    assert set(build.sizes) == {2}
    ends = _chunk_ends(build)
    assert len(ends) == 127
    assert all(np.isin([end - 1, end], js).all() for end in ends)


@pytest.mark.parametrize(
    "name,orbit_sizes,n_chunks", [("square-15", {1, 2}, 7), ("cube-7", {1, 2, 4}, 10)],
    ids=["square-15", "cube-7"],
)
def test_folded_build_matches_per_set_reference(name, orbit_sizes, n_chunks):
    # orbits of 1, 2 and 4 atoms, built in seven chunks and in ten
    params, lattice, *_ = FOLDED[name]
    build, _ = _check_folded_build(params, [lattice])
    assert set(build.sizes) == orbit_sizes
    assert len(_chunk_ends(build)) == n_chunks - 1


def _bench_wiener_shells(monkeypatch, params):
    """The 36 shells of a bench wiener job (seed 1, job 0: lambda 0.5 and its sweep
    0.3 and 0.7, k = 1..12, density 10) as shell_terms hands them to capacity_lp."""
    xi0 = SpaceTimePoint((0.15827597617166111,), 0.4658548196974417, 0.0)
    box = {"type": "box", "lo": [0.0, 0.2], "hi": [1.0, 1.2], "t": [0.0, 1.0]}
    shells = []

    def collect(params, lattices):
        shells.extend(lattices)
        return [None] * len(lattices)

    monkeypatch.setattr(wiener, "capacity_lp", collect)
    pairs = [(lam, k) for lam in (0.5, 0.3, 0.7) for k in range(1, 13)]
    wiener.shell_terms(params, xi0, pairs, wiener.DomainDescriptor((box,)), 10)
    assert len(shells) == 36
    return shells


def test_wiener_shells_match_per_set_reference(monkeypatch):
    # each axis takes node means for all its close class pairs; in 10 irregular
    # shells some close pair of the free axis is in no near entry, a key that no
    # entry reads
    # shells; one call builds all 36, each the same to the bit as its reference
    params = KernelParams(n=2, a=0.3)
    build, near = _check_folded_build(params, _bench_wiener_shells(monkeypatch, params))
    plan = capacity._plan(params, build)
    rows, _, atoms = build.counts()
    unread = 0
    for s, (js, is_) in enumerate(near):
        r0, a0 = np.sum(rows[:s]), np.sum(atoms[:s])
        pairs = slice(plan[0].start[s], plan[0].start[s] + plan[0].count[s])
        read = [len(np.unique(ax.rows[r0 + js] + ax.atoms[a0 + is_])) for ax in plan]
        close = [np.sum(ax.close[ax.start[s] : ax.start[s] + ax.count[s]]) for ax in plan]
        unread += any(n < c for n, c in zip(read, close))
    assert unread == 10


def test_one_call_ranks_once_and_assembles_per_group(monkeypatch):
    # the 36 bench shells are ranked and planned in one pass, and assembled and
    # presolved once per group of whole shells of at most CHUNK_POINTS folded entries;
    # smaller groups change how many assemblies run, and no result
    params = KernelParams(n=2, a=0.3)
    shells = _bench_wiener_shells(monkeypatch, params)
    rows, orbits, _ = _folded_build(2, shells).counts()
    counts = {"_lattice_symmetry": 0, "_plan": 0, "_assemble": 0, "_keep_binding_rows": 0}
    for name in counts:
        def spy(*args, _name=name, _real=getattr(capacity, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(capacity, name, spy)
    runs = []
    for budget in (CHUNK_POINTS, 500):
        monkeypatch.setattr(capacity, "CHUNK_POINTS", budget)
        counts.update(dict.fromkeys(counts, 0))
        runs.append(capacity_lp(params, shells))
        groups = len(list(chunks(rows * orbits, budget)))
        assert counts == {"_lattice_symmetry": 1, "_plan": 1, "_assemble": groups,
                          "_keep_binding_rows": groups}, budget
        assert 1 < groups < 36
    assert groups > len(list(chunks(rows * orbits, CHUNK_POINTS)))
    for one, other in zip(*runs):
        assert one.cap_estimate == other.cap_estimate
        assert np.array_equal(one.equilibrium.masses, other.equilibrium.masses)
        assert lp_report(one) == lp_report(other)


def test_wiener_shell_builds_peak_within_one_kernel_call(monkeypatch):
    # the tables of the 36 shells are built in kernel calls over groups of whole sets
    # of at most CHUNK_POINTS points, each group's pairs formed for its call alone;
    # so the whole build, every set's tables included, holds less than one kernel
    # call's charge (4 MiB).  One call over all 36 shells' pairs held 11.9 MiB
    params = KernelParams(n=2, a=0.3)
    build = _folded_build(2, _bench_wiener_shells(monkeypatch, params))
    rows, orbits, _ = build.counts()
    groups = list(chunks(rows * orbits, CHUNK_POINTS))
    tracemalloc.start()
    try:
        for matrix, _ in capacity._constraint_matrices(params, build, groups):
            del matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= chunk_bytes(1.0, CALL_WORDS), peak


def test_near_entry_profile_points(monkeypatch):
    # a near entry takes 3 weighted-axis values per time node; the full
    # tensor rule would take 3^(n+1) = 81 kernel points for n = 3.  The
    # weighted axis is the only one that calls the kernel (u_tilde).
    points = [0]
    real = separable.u_tilde

    def counted(*args):
        out = real(*args)
        points[0] += int(np.size(out))
        return out

    monkeypatch.setattr(separable, "u_tilde", counted)
    params = KernelParams(n=3, a=0.3)
    args = _unfolded(_constraint_set(3, "box"))
    (A, near_pairs), = _matrices(params, args)
    assert near_pairs > 0
    assert points[0] <= A.size + 9 * near_pairs
    # a flat 32 x 32 level: the weighted axis has 32 coordinates and 2 row
    # times, so its tables take a few thousand points, not one per entry
    points[0] = 0
    sp, ts, hs, ht = flat_lattice([-1.0, -1.0], [1.0, 1.0], 32)
    cons_sp, cons_t = np.vstack([sp, sp]), np.concatenate([ts, ts + ht])
    params = KernelParams(n=2, a=0.3)
    args = _unfolded((cons_sp, cons_t, sp, ts, hs, ht))
    (A, _), = _matrices(params, args)
    assert A.shape == (2048, 1024)
    assert points[0] <= 10_000


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
    # linprog works on a C-ordered float64 array in place, so it gets a copy and
    # the check reads the matrix as built
    res = linprog(A_ub=A.copy())
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
    for density, want in zip((16, 32), caps):
        lattice = flat_lattice(lo, [lo[0] + 2.0, lo[1] + 2.0], density)
        got = capacity_lp(KernelParams(n=2, a=a), [lattice])[0].cap_estimate
        assert abs(got - want) <= 10 * LP_TOL * want


def _full_row_reference(params, lattice):
    """The constraint matrix over every point, the atoms whose set row their own collar row
    bounds, and the LP over every row.

    The atoms and their collar copies are ranked together, and each distinct
    point is one row: on a box lattice one slice's collar points are the next
    slice's set points.
    """
    sp, ts, hs, ht = lattice
    build = _unfolded((np.vstack([sp, sp]), np.concatenate([ts, ts + ht]), sp, ts, hs, ht))
    rows, point = np.unique(build.rows, axis=0, return_inverse=True)
    build = build._replace(rows=rows, row_set=np.zeros(len(rows), dtype=int))
    (A, _), = _matrices(params, build)
    assert np.all(np.any(A > 0.0, axis=1))
    own, collar = np.split(point.ravel(), 2)
    dominated = np.all(A[collar] >= A[own], axis=1)
    # a copy, since linprog works on C-ordered rows in place and A is read after it
    return A, dominated, linprog(A_ub=A.copy())


def _lp_with_build_spy(monkeypatch, params, lattice):
    """capacity_lp's result, its build and its matrix before the presolve."""
    build = capacity._constraint_matrices
    seen = []

    def spy(params, sets, groups):
        for F, near_pairs in build(params, sets, groups):
            seen.append((sets, F.reshape(len(sets.rows), -1).copy()))
            yield F, near_pairs

    with monkeypatch.context() as patched:
        patched.setattr(capacity, "_constraint_matrices", spy)
        res = capacity_lp(params, [lattice])[0]
    (args, F), = seen
    return res, args, F


def _check_against_full_rows(res, A, full):
    """Cap within 10 LP_TOL of the full-row LP, and the violation taken over every row."""
    cap = float(np.sum(full.x))
    assert abs(res.cap_estimate - cap) <= 10 * LP_TOL * cap
    # up to summation-order rounding
    assert res.max_constraint_violation >= np.max(A @ res.equilibrium.masses - 1.0) - 1e-12


# flat 2 x 2 squares: off the plane, straddling it, and with an edge 0.05 below it
SQUARES = {
    "off": ([0.0, 0.5], [2.0, 2.5]),
    "straddle": ([0.0, -1.0], [2.0, 1.0]),
    "edge": ([0.0, -0.05], [2.0, 1.95]),
}


@pytest.mark.parametrize("a", [-0.9, -0.5, 0.3, 0.9])
def test_dominated_set_rows_leave_the_lp(a):
    params = KernelParams(n=2, a=a)
    cases = [(params, name, flat_lattice(*box, 16)) for name, box in SQUARES.items()]
    # an n = 3 cube straddling the plane: Gamma's lag-0 own-cell entry outweighs the
    # collar's, so only some set rows are bounded by their collar rows
    cube = flat_lattice([-0.5] * 3, [0.5] * 3, 6)
    cases.append((KernelParams(n=3, a=a), "cube", cube))
    for params, name, lattice in cases:
        res = capacity_lp(params, [lattice])[0]
        A, dominated, full = _full_row_reference(params, lattice)
        m = len(lattice[1])
        # every free axis folds in half; the LP keeps each orbit's collar row and
        # at most the set rows of the atoms that no collar row bounds
        assert res.lp_cols == m // 2 ** (params.n - 1), (a, name)
        assert res.lp_rows + res.dropped_rows == 2 * res.lp_cols
        assert res.lp_cols <= res.lp_rows <= res.lp_cols + int(np.sum(~dominated)), (a, name)
        if params.n == 2 and not (name == "edge" and abs(a) == 0.9):
            assert res.lp_rows == res.lp_cols == m // 2, (a, name)
        if params.n == 3:
            assert res.lp_rows > res.lp_cols, a
        _check_against_full_rows(res, A, full)


# lattices whose free axes are mirror-symmetric: params, lattice, folded axes, orbits,
# built rows (a flat level's set and collar points are distinct; a box level's
# collar points are the next slice's set points, but for the last slice's)
FOLDED = {
    "square-16": (
        KernelParams(n=2, a=0.3), flat_lattice([0.0, 0.5], [2.0, 2.5], 16), (0,), 8 * 16, 256
    ),
    # odd densities leave the middle column its own orbit
    "square-15": (
        KernelParams(n=2, a=-0.5), flat_lattice([0.0, -1.0], [2.0, 1.0], 15), (0,), 8 * 15, 240
    ),
    # orbits of 1, 2 and 4 atoms
    "cube-7": (
        KernelParams(n=3, a=0.3), flat_lattice([-0.5] * 3, [0.5] * 3, 7), (0, 1), 4 * 4 * 7, 224
    ),
    # cells of 0.25 x 0.175: both free axes fold although the cells are not square
    "box-1x0.7": (
        KernelParams(n=3, a=-0.5),
        box_lattice([0.0, 0.0, 0.2], [1.0, 0.7, 1.2], 0.0, 0.5, 4),
        (0, 1),
        2 * 2 * 4 * 4,
        64 + 16,
    ),
}


@pytest.mark.parametrize("name", FOLDED)
def test_mirror_fold_matches_full_rows(name, monkeypatch):
    params, lattice, axes, orbits, rows = FOLDED[name]
    res, _, F = _lp_with_build_spy(monkeypatch, params, lattice)
    # only the distinct set and collar points of one atom per orbit are built
    assert len(F) == rows
    assert res.mirror_axes == axes
    assert res.lp_cols == orbits
    assert res.lp_rows + res.dropped_rows == rows
    A, _, full = _full_row_reference(params, lattice)
    _check_against_full_rows(res, A, full)
    # the built rows carry every row's potential, so the violation is the
    # full-row maximum up to summation-order rounding, on both sides
    full_max = np.max(A @ res.equilibrium.masses - 1.0)
    assert abs(res.max_constraint_violation - full_max) <= 1e-12
    # the lattices are tensor products with the first axis slowest, so each folded
    # axis is an array axis of the masses; an orbit's atoms share one mass bitwise
    sp, ts = lattice[:2]
    masses = res.equilibrium.masses.reshape([len(np.unique(c)) for c in (*sp.T, ts)])
    for k in axes:
        assert np.array_equal(masses, np.flip(masses, axis=k)), k


def _without_first_atom(lattice):
    sp, ts, hs, ht = lattice
    return sp[1:], ts[1:], hs, ht


def _squared_first_axis(lattice):
    sp, ts, hs, ht = lattice
    return np.column_stack([sp[:, 0] ** 2, sp[:, 1:]]), ts, hs, ht


# lattices that no free axis's reflection maps onto themselves: without their
# first atom (a corner), or with the free coordinates unevenly spaced (their
# ranks are symmetric, their values are not)
ASYMMETRIC = {
    "flat-less-one": _without_first_atom(flat_lattice([0.0, 0.5], [2.0, 2.5], 12)),
    # the collar row of one slice and the set row of the next observe one point
    "box-less-one": _without_first_atom(box_lattice([0.0, 0.5], [1.0, 1.5], 0.0, 0.5, 6)),
    "flat-uneven": _squared_first_axis(flat_lattice([0.5, 0.5], [1.5, 1.5], 10)),
}


@pytest.mark.parametrize("name", ASYMMETRIC)
def test_asymmetric_lattice_does_not_fold(name, monkeypatch):
    params = KernelParams(n=2, a=0.3)
    lattice = ASYMMETRIC[name]
    m = len(lattice[1])
    res, _, F = _lp_with_build_spy(monkeypatch, params, lattice)
    A, dominated, full = _full_row_reference(params, lattice)
    # a row per distinct point: on the box level 2m less the m - 36 collar points that
    # are the next slice's set points
    assert len(F) == len(A) == (m + 36 if name.startswith("box") else 2 * m)
    assert res.mirror_axes == ()
    assert res.lp_cols == m
    # exactly the set rows that their own collar row bounds leave the LP
    assert res.lp_rows == len(A) - int(dominated.sum())
    assert res.lp_rows + res.dropped_rows == len(A)
    _check_against_full_rows(res, A, full)


def _same(p, q, hs, ht):
    """same[i, j]: the points p[i] and q[j] (coordinates, then time) within 1e-9 of a cell."""
    cell = np.r_[[hs] * (p.shape[1] - 1), ht]
    return np.all(np.abs(p[:, None] - q[None]) <= 1e-9 * cell, axis=-1)


# a box lattice over t in [0.1, 0.7], whose collar times miss the next slice's in
# their last bits
SLICED = box_lattice([0.0, 0.5], [1.0, 1.5], 0.1, 0.7, 6)


@pytest.mark.parametrize("kind", ["box", "heat-ball", "wiener-shell"])
def test_built_rows_are_the_distinct_points(kind, monkeypatch):
    # one row per distinct point among the set points of each orbit's first atom, then
    # their collar points: rows within 1e-9 of a cell observe one point, and no two
    # built rows do
    params = KernelParams(n=2, a=0.3)
    if kind == "box":
        lattice = SLICED
    elif kind == "heat-ball":
        ball = geometry.HeatBall(SpaceTimePoint((0.5,), 0.7, 0.0), 0.3, params)
        lattice = geometry.heat_ball_samples([ball], 10, 1)[0]
    else:
        lattice = _bench_wiener_shells(monkeypatch, params)[12]
    res, args, F = _lp_with_build_spy(monkeypatch, params, lattice)
    cons_sp, cons_t, atom_sp, atom_t, hs, ht = _points(args)
    # the atoms sorted by orbit, the first of each orbit, and their collar copies
    sizes = args.sizes
    reps = np.column_stack([atom_sp, atom_t])[np.cumsum(sizes) - sizes]
    points = np.vstack([reps, reps + np.r_[np.zeros(params.n), ht]])
    first = ~np.any(np.tril(_same(points, points, hs, ht), -1), axis=1)
    built = np.column_stack([cons_sp, cons_t])
    assert np.array_equal(_same(built, points[first], hs, ht), np.eye(len(built), dtype=bool))
    # some collar point is another atom's set point
    assert len(F) == len(built) == res.lp_rows + res.dropped_rows < 2 * res.lp_cols


def test_collided_collar_row_is_the_slice_row(monkeypatch):
    # nothing folds; every atom above the first slice is the collar point of the atom
    # below it, whose collar time misses the atom's in its last bits.  Their one row
    # is at the atom's time, so its lag to that atom is exactly 0: the own-cell entry
    # is Gamma's mean over the cell's time nodes below the row only
    params = KernelParams(n=2, a=0.3)
    lattice = _without_first_atom(SLICED)
    sp, ts, hs, ht = lattice
    below = np.flatnonzero(ts < ts.max())
    assert np.any(ts[below] + ht != ts[below + 1])
    res, args, F = _lp_with_build_spy(monkeypatch, params, lattice)
    assert res.mirror_axes == ()
    merged = below + 1
    for axis in capacity._plan(params, args):
        assert np.all(axis.rt[axis.rows[merged] // axis.na[0]] - axis.at[axis.atoms[merged]] == 0.0)
    ref, _ = _tensor_reference(params, *_points(args))
    own = F[merged, merged]
    assert np.max(np.abs(own - ref[merged, merged]) / ref[merged, merged]) <= 1e-13
    assert len(F) == len(ts) + 36


def test_batched_lp_matches_one_set_calls(monkeypatch):
    # one call on several sets moves each cap in its last bits only (the shared
    # tables sum the profile's series to the length the whole call needs), and
    # leaves every LP figure as a call on that set alone gives it
    cube = FOLDED["cube-7"][1]
    params = KernelParams(n=2, a=0.3)
    cases = [
        (params, [FOLDED["square-16"][1], *ASYMMETRIC.values()]),
        (KernelParams(n=3, a=-0.5), [cube, FOLDED["box-1x0.7"][1], _without_first_atom(cube)]),
        (params, _bench_wiener_shells(monkeypatch, params)),
    ]
    for params, lattices in cases:
        batched = capacity_lp(params, lattices)
        assert len(batched) == len(lattices)
        for lattice, res in zip(lattices, batched):
            alone = capacity_lp(params, [lattice])[0]
            assert abs(res.cap_estimate - alone.cap_estimate) <= 1e-13 * alone.cap_estimate
            for field in ("lp_rows", "lp_cols", "dropped_rows", "lp_iterations", "near_pairs"):
                assert getattr(res, field) == getattr(alone, field), field


BOX_LEVEL = box_lattice([0.0, 0.5], [1.0, 1.5], 0.0, 0.5, 10)


def test_matrix_estimate_charges_built_rows(monkeypatch):
    # a flat 16 x 16 level folds to 128 orbits: the estimate charges the 256 x 128
    # folded rows, the 128 x 128 normal matrix and one chunk of unfolded entries, not
    # the 256 x 256 rows over all atoms; a 10 x 10 box level of 10 slices builds 550
    # rows for its 500 orbits, and the estimate charges those.  The capacity command
    # charges its fine level's best fold (atoms / 2^(n-1) orbits, twice as many rows)
    # before it builds a lattice
    charged = []
    monkeypatch.setattr(capacity, "check_fits", lambda need, what: charged.append(need))
    res = capacity_lp(PARAMS, [flat_lattice([0.0, 0.5], [2.0, 2.5], 16), BOX_LEVEL])
    assert [r.lp_cols for r in res] == [128, 500]
    assert res[1].lp_rows + res[1].dropped_rows == 550
    assert charged == [8.0 * (256 + 128) * 128 + chunk_bytes(256),
                       8.0 * (550 + 500) * 500 + chunk_bytes(1000)]
    charged.clear()
    square = {"kind": "flat", "lo": [0, 0], "hi": [1, 1]}
    cli.cmd_capacity(cli.RunConfig(PARAMS, {"set": square, "density": 2}))
    # the early check on the 4 x 4 fine level, then the built rows of both levels, one
    # group of 4 x 2 and 16 x 8 entries, the fine level's normal matrix and its chunk
    early = 8.0 * (2 * 8 + 8) * 8 + chunk_bytes(16)
    assert charged == [early, 8.0 * (4 * 2 + 16 * 8 + 8 * 8) + chunk_bytes(16)]


def _traced_peak(monkeypatch, params, lattice):
    """capacity_lp's result on one lattice, its traced peak bytes and check_matrix_fits' charge."""
    charged = []
    monkeypatch.setattr(capacity, "check_fits", lambda need, what: charged.append(need))
    tracemalloc.start()
    try:
        res = capacity_lp(params, [lattice])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    return res, peak, charged[0]


# params, lattice, orbits, bound on the traced peak over the bytes of 2 orbits x orbits
# folded rows
PEAK_SETS = {
    "flat-32": (PARAMS, flat_lattice([0.0, 0.5], [2.0, 2.5], 32), 512, 1.2),
    "cube-12": (
        KernelParams(n=3, a=0.3), flat_lattice([0.0, 0.0, 0.5], [1.0, 1.0, 1.5], 12), 432, 1.4
    ),
    # a box level's collar points are the next slice's set points, but for the last
    # slice's: 550 rows are built
    "box-10": (PARAMS, BOX_LEVEL, 500, 1.3),
    # nothing folds, and 1,099 rows are built
    "box-10-less-one": (PARAMS, _without_first_atom(BOX_LEVEL), 999, 1.2),
}


def test_folded_level_peak_memory(monkeypatch):
    # the rows are held once: built a chunk at a time with each chunk folded as it
    # is built, compared and moved to the front a chunk at a time, given back past
    # the kept ones, and scaled in place by linprog, beside its normal matrix.
    # Measured over the bytes of 2 orbits x orbits folded rows: 1.12, 1.34, 1.11
    # and 1.04; a second copy of the rows anywhere would reach 2 or more
    for name, (params, lattice, orbits, bound) in PEAK_SETS.items():
        res, peak, _ = _traced_peak(monkeypatch, params, lattice)
        assert res.lp_cols == orbits, name
        assert peak <= bound * 2 * orbits * orbits * 8, (name, peak / (16 * orbits * orbits))


# the peak sets, and one from which no row leaves the LP: it holds all its 2 orbits x
# orbits built rows beside the orbits x orbits normal matrix
CHARGE_SETS = {
    **{name: case[:2] for name, case in PEAK_SETS.items()},
    "cube-10-less-one-a-0.9": (
        KernelParams(n=3, a=-0.9),
        _without_first_atom(flat_lattice([0.0, 0.0, 0.5], [1.0, 1.0, 1.5], 10)),
    ),
}


@pytest.mark.parametrize("name", CHARGE_SETS)
def test_matrix_charge_bounds_traced_peak(name, monkeypatch):
    # check_matrix_fits charges the built rows, the normal matrix and one chunk
    # (quadrature.chunk_bytes) before the rows are built; the charge must cover the
    # traced peak, and stay near it.  Measured charge over peak: 1.67, 1.52, 1.30,
    # 1.11 and 1.04.  A flat level keeps half its rows, so its LP holds one copy
    # where the charge covers the 1.5 of a set from which no row leaves
    params, lattice = CHARGE_SETS[name]
    res, peak, charge = _traced_peak(monkeypatch, params, lattice)
    if name.startswith("cube-10"):
        assert res.dropped_rows == 0
    assert peak <= charge <= 1.75 * peak, charge / peak


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
