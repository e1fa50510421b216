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

from degenheat import capacity, cli, separable, wiener
from degenheat.capacity import (
    AVG_NODES,
    LP_TOL,
    NEAR_CELLS,
    CapacityResult,
    DiscreteMeasure,
    capacity_lp,
    flat_set_capacity,
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


def _unfolded(args):
    """A build over every atom's own column: each atom an orbit of its own."""
    return (*args, np.ones(len(args[3]), dtype=int))


def _tensor_reference(params, cons_sp, cons_t, atom_sp, atom_t, hs, ht):
    """The constraint matrix with every near entry averaged over all tensor nodes."""
    ref = gamma_fs_vec(params, cons_sp[:, None, :], cons_t[:, None], atom_sp[None], atom_t[None])
    snap = 1e-9 * ht
    dt = cons_t[:, None] - atom_t[None, :]
    ref[(dt > 0.0) & (dt < snap)] = 0.0
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
    dtq = cons_t[js, None] - src_t
    gam[(dtq > 0.0) & (dtq < snap)] = 0.0
    ref[js, is_] = np.mean(gam, axis=1)
    return ref, len(js)


@pytest.mark.parametrize("kind", ["flat-h2", "box", "straddle", "scattered"])
@pytest.mark.parametrize("a", [-0.5, 0.3])
@pytest.mark.parametrize("n", [2, 3])
def test_constraint_matrix_matches_tensor_rule(n, a, kind):
    params = KernelParams(n=n, a=a)
    args = _constraint_set(n, kind)
    A, near_pairs = next(capacity._constraint_matrices(params, [_unfolded(args)]))
    _check_against_tensor_rule(params, args, A, near_pairs)


def _check_against_tensor_rule(params, args, A, near_pairs):
    ref, ref_near = _tensor_reference(params, *args)
    assert near_pairs == ref_near > 0
    assert np.array_equal(A != 0.0, ref != 0.0)
    live = ref != 0.0
    assert np.max(np.abs(A[live] - ref[live]) / ref[live]) <= 1e-13


@pytest.mark.parametrize("a", [-0.5, 0.3])
@pytest.mark.parametrize("n", [2, 3])
def test_batched_constraint_matrices_match_tensor_rule(n, a):
    # one call builds the four sets, whose cell sides differ, from shared tables:
    # each pair takes its own set's snap and node offsets
    params = KernelParams(n=n, a=a)
    sets = [_constraint_set(n, kind) for kind in ("flat-h2", "box", "straddle", "scattered")]
    built = list(capacity._constraint_matrices(params, [_unfolded(args) for args in sets]))
    assert len(built) == len(sets)
    for args, (A, near_pairs) in zip(sets, built):
        _check_against_tensor_rule(params, args, A, near_pairs)


def _per_set_reference(params, cons_sp, cons_t, atom_sp, atom_t, hs, ht):
    """One set's unfolded matrix as a per-set build makes it (broadcast class tables, then node
    means), and the rows and atoms of its near pairs."""
    snap = 1e-9 * ht
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
        dt = np.where(dt >= snap, dt, 0.0)
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


def _folded_build(n, lattice):
    """capacity_lp's build of a lattice: one atom per orbit's rows over the atoms by orbit."""
    sp, ts, hs, ht = lattice
    orbit, reps, _, _ = capacity._lattice_symmetry(n, sp, ts, hs, ht)
    order = np.argsort(orbit, kind="stable")
    return (np.tile(sp[reps], (2, 1)), np.concatenate([ts[reps], ts[reps] + ht]),
            sp[order], ts[order], hs, ht, np.bincount(orbit))


def _check_folded_build(params, lattice):
    """Assert that one set's folded build equals its per-set reference folded by reduceat / sizes.

    A call on one set computes each table entry and node mean from the same
    values in the same order as a per-set broadcast build, and folds each
    row as reduceat over the whole matrix does, so the matrix is equal to
    the bit, and so is everything the LP computes from it.  Returns the
    build's arguments and the rows and atoms of its near pairs.
    """
    args = _folded_build(params.n, lattice)
    sizes = args[-1]
    A, near_pairs = next(capacity._constraint_matrices(params, [args]))
    full, js, is_ = _per_set_reference(params, *args[:-1])
    assert near_pairs == len(js)
    assert A.shape == (2 * len(sizes), len(sizes))
    assert np.array_equal(A, np.add.reduceat(full, np.cumsum(sizes) - sizes, axis=1) / sizes)
    return args, js, is_


def _chunk_ends(args):
    """The rows at which a build of these arguments starts a new chunk."""
    return [hi for _, hi in chunks([len(args[2])] * len(args[0]), CHUNK_POINTS)][:-1]


def test_one_set_build_matches_per_set_reference():
    # the folded rows of the bench's fine level (the first BENCH_CAPS config at
    # density 32): orbits of 2 atoms, whose 1024 rows x 1024 atoms are built in 64
    # chunks with near pairs on both sides of every chunk boundary
    a, lo, _ = BENCH_CAPS[0]
    lattice = flat_lattice(lo, [lo[0] + 2.0, lo[1] + 2.0], 32)
    args, js, _ = _check_folded_build(KernelParams(n=2, a=a), lattice)
    assert set(args[-1]) == {2}
    ends = _chunk_ends(args)
    assert len(ends) == 63
    assert all(np.isin([end - 1, end], js).all() for end in ends)


@pytest.mark.parametrize(
    "name,orbit_sizes,n_chunks", [("square-15", {1, 2}, 4), ("cube-7", {1, 2, 4}, 5)],
    ids=["square-15", "cube-7"],
)
def test_folded_build_matches_per_set_reference(name, orbit_sizes, n_chunks):
    # orbits of 1, 2 and 4 atoms, built in four chunks and in five
    params, lattice, *_ = FOLDED[name]
    args, _, _ = _check_folded_build(params, lattice)
    assert set(args[-1]) == orbit_sizes
    assert len(_chunk_ends(args)) == n_chunks - 1


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
    params = KernelParams(n=2, a=0.3)
    shells = _bench_wiener_shells(monkeypatch, params)
    unread = 0
    for lattice in shells:
        args, js, is_ = _check_folded_build(params, lattice)
        (axes, _), _, _ = capacity._plan(params, *args)
        read = [len(np.unique(rc[js] * c.shape[1] + ac[is_])) for rc, ac, c in axes]
        unread += any(n < c.sum() for n, (_, _, c) in zip(read, axes))
    assert unread == 10


def test_wiener_shell_builds_peak_within_one_kernel_call(monkeypatch):
    # the tables of the 36 shells are built in kernel calls over groups of whole sets
    # of at most CHUNK_POINTS points, each group's pairs formed for its call alone;
    # so the whole build, every set's tables included, holds less than one kernel
    # call's charge (4 MiB).  One call over all 36 shells' pairs held 11.9 MiB
    params = KernelParams(n=2, a=0.3)
    builds = [_folded_build(2, shell) for shell in _bench_wiener_shells(monkeypatch, params)]
    tracemalloc.start()
    try:
        for matrix, _ in capacity._constraint_matrices(params, builds):
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
    A, near_pairs = next(capacity._constraint_matrices(params, [args]))
    assert near_pairs > 0
    assert points[0] <= A.size + 9 * near_pairs
    # a flat 32 x 32 level: the weighted axis has 32 coordinates and 2 row
    # times, so its tables take a few thousand points, not one per entry
    points[0] = 0
    sp, ts, hs, ht = flat_lattice([-1.0, -1.0], [1.0, 1.0], 32)
    cons_sp, cons_t = np.vstack([sp, sp]), np.concatenate([ts, ts + ht])
    params = KernelParams(n=2, a=0.3)
    args = _unfolded((cons_sp, cons_t, sp, ts, hs, ht))
    A, _ = next(capacity._constraint_matrices(params, [args]))
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
    """The constraint matrix, its set rows that a collar row bounds, and the LP over every row.

    A set row is bounded by its own collar row, or by the collar row that
    observes the same point at the same time (a box lattice's previous slice).
    """
    sp, ts, hs, ht = lattice
    m = len(ts)
    args = _unfolded((np.vstack([sp, sp]), np.concatenate([ts, ts + ht]), sp, ts, hs, ht))
    A, _ = next(capacity._constraint_matrices(params, [args]))
    assert np.all(np.any(A > 0.0, axis=1))
    # same[i, j]: atom j's collar row observes atom i's point at atom i's time
    same = np.all(sp[:, None] == sp[None], axis=-1)
    same &= np.abs(ts[None] + ht - ts[:, None]) <= 1e-9 * ht
    twin = np.where(same.any(axis=1), same.argmax(axis=1), np.arange(m))
    dominated = np.all(A[m:] >= A[:m], axis=1) | np.all(A[m + twin] >= A[:m], axis=1)
    # a copy, since linprog works on C-ordered rows in place and A is read after it
    return A, dominated, linprog(A_ub=A.copy())


def _lp_with_build_spy(monkeypatch, params, lattice):
    """capacity_lp's result and the rows its _constraint_matrices calls build, one count per set."""
    build = capacity._constraint_matrices
    rows = []

    def spy(params, sets):
        rows.extend(len(cons_sp) for cons_sp, *_ in sets)
        return build(params, sets)

    with monkeypatch.context() as patched:
        patched.setattr(capacity, "_constraint_matrices", spy)
        res = capacity_lp(params, [lattice])[0]
    return res, rows


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


# lattices whose free axes are mirror-symmetric: params, lattice, folded axes, orbits
FOLDED = {
    "square-16": (
        KernelParams(n=2, a=0.3), flat_lattice([0.0, 0.5], [2.0, 2.5], 16), (0,), 8 * 16
    ),
    # odd densities leave the middle column its own orbit
    "square-15": (
        KernelParams(n=2, a=-0.5), flat_lattice([0.0, -1.0], [2.0, 1.0], 15), (0,), 8 * 15
    ),
    # orbits of 1, 2 and 4 atoms
    "cube-7": (
        KernelParams(n=3, a=0.3), flat_lattice([-0.5] * 3, [0.5] * 3, 7), (0, 1), 4 * 4 * 7
    ),
    # cells of 0.25 x 0.175: both free axes fold although the cells are not square
    "box-1x0.7": (
        KernelParams(n=3, a=-0.5),
        box_lattice([0.0, 0.0, 0.2], [1.0, 0.7, 1.2], 0.0, 0.5, 4),
        (0, 1),
        2 * 2 * 4 * 4,
    ),
}


@pytest.mark.parametrize("name", FOLDED)
def test_mirror_fold_matches_full_rows(name, monkeypatch):
    params, lattice, axes, orbits = FOLDED[name]
    res, built = _lp_with_build_spy(monkeypatch, params, lattice)
    # only the set and collar rows of one atom per orbit are built
    assert built == [2 * res.lp_cols]
    assert res.mirror_axes == axes
    assert res.lp_cols == orbits
    assert res.lp_rows + res.dropped_rows == 2 * orbits
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
    res, built = _lp_with_build_spy(monkeypatch, params, lattice)
    assert built == [2 * res.lp_cols]
    A, dominated, full = _full_row_reference(params, lattice)
    assert res.mirror_axes == ()
    assert res.lp_cols == m
    # exactly the set rows that a collar row bounds leave the LP
    assert res.lp_rows == 2 * m - int(dominated.sum())
    assert res.lp_rows + res.dropped_rows == 2 * m
    _check_against_full_rows(res, A, full)


def test_batched_lp_matches_one_set_calls():
    # one call on several sets moves each cap in its last bits only (the shared
    # tables sum the profile's series to the length the whole call needs), and
    # leaves every LP figure as a call on that set alone gives it
    cube = FOLDED["cube-7"][1]
    cases = [
        (KernelParams(n=2, a=0.3), [FOLDED["square-16"][1], *ASYMMETRIC.values()]),
        (KernelParams(n=3, a=-0.5), [cube, FOLDED["box-1x0.7"][1], _without_first_atom(cube)]),
    ]
    for params, lattices in cases:
        batched = capacity_lp(params, lattices)
        assert len(batched) == len(lattices)
        for lattice, res in zip(lattices, batched):
            alone = capacity_lp(params, [lattice])[0]
            assert abs(res.cap_estimate - alone.cap_estimate) <= 1e-13 * alone.cap_estimate
            for field in ("lp_rows", "lp_cols", "dropped_rows", "lp_iterations", "near_pairs"):
                assert getattr(res, field) == getattr(alone, field), field


def test_matrix_estimate_charges_built_rows(monkeypatch):
    # a flat 16 x 16 level folds to 128 orbits: the estimate charges the 256 x 128
    # folded rows and one chunk of unfolded entries, not the 256 x 256 rows over
    # all atoms; the capacity command charges its fine level's best fold (atoms /
    # 2^(n-1) orbits) before it builds a lattice
    charged = []
    monkeypatch.setattr(capacity, "check_fits", lambda need, what: charged.append(need))
    res = capacity_lp(PARAMS, [flat_lattice([0.0, 0.5], [2.0, 2.5], 16)])[0]
    assert res.lp_cols == 128
    assert charged == [capacity.MATRIX_COPIES * 8.0 * 256 * 128 + chunk_bytes(256)]
    charged.clear()
    square = {"kind": "flat", "lo": [0, 0], "hi": [1, 1]}
    cli.cmd_capacity(cli.RunConfig(PARAMS, {"set": square, "density": 2}))
    # the early check on the 4 x 4 fine level, then each level's built rows
    fold = [
        capacity.MATRIX_COPIES * 8.0 * 2 * orbits**2 + chunk_bytes(2 * orbits) for orbits in (8, 2)
    ]
    assert charged == [fold[0], fold[1], fold[0]]


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


BOX_LEVEL = box_lattice([0.0, 0.5], [1.0, 1.5], 0.0, 0.5, 10)
# params, lattice, orbits, bound on the traced peak over the folded rows' bytes
PEAK_SETS = {
    "flat-32": (PARAMS, flat_lattice([0.0, 0.5], [2.0, 2.5], 32), 512, 1.2),
    "cube-12": (
        KernelParams(n=3, a=0.3), flat_lattice([0.0, 0.0, 0.5], [1.0, 1.0, 1.5], 12), 432, 1.4
    ),
    # a box level's set rows are also compared with their twins' collar rows
    "box-10": (PARAMS, BOX_LEVEL, 500, 1.3),
    # nothing folds, and the twin test runs on every row but the first slice's
    "box-10-less-one": (PARAMS, _without_first_atom(BOX_LEVEL), 999, 1.2),
}


def test_folded_level_peak_memory(monkeypatch):
    # the rows are held once: built a chunk at a time with each chunk folded as it
    # is built, compared and moved to the front a chunk at a time, given back past
    # the kept ones, and scaled in place by linprog, beside its normal matrix.
    # Measured over the bytes of the 2 orbits x orbits folded rows: 1.12, 1.31, 1.20
    # and 1.12; a second copy of the rows anywhere would reach 2 or more
    for name, (params, lattice, orbits, bound) in PEAK_SETS.items():
        res, peak, _ = _traced_peak(monkeypatch, params, lattice)
        assert res.lp_cols == orbits, name
        assert peak <= bound * 2 * orbits * orbits * 8, (name, peak / (16 * orbits * orbits))


# the peak sets, and one from which no row leaves the LP: its 2 orbits x orbits kept
# rows and orbits x orbits normal matrix are MATRIX_COPIES = 1.5 times the folded rows
CHARGE_SETS = {
    **{name: case[:2] for name, case in PEAK_SETS.items()},
    "cube-10-less-one-a-0.9": (
        KernelParams(n=3, a=-0.9),
        _without_first_atom(flat_lattice([0.0, 0.0, 0.5], [1.0, 1.0, 1.5], 10)),
    ),
}


@pytest.mark.parametrize("name", CHARGE_SETS)
def test_matrix_charge_bounds_traced_peak(name, monkeypatch):
    # check_matrix_fits charges MATRIX_COPIES times the folded rows and one chunk
    # (quadrature.chunk_bytes) before they are built; the charge must cover the
    # traced peak, and stay near it.  Measured charge over peak: 1.68, 1.54, 1.58,
    # 1.42 and 1.05.  A flat level keeps half its rows, so its LP holds one copy
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
