"""Capacity of compact space-time sets via a discretized equilibrium LP.

cap(K) = sup { mu(R^{n+1}) : mu >= 0 supported in K, potential <= 1 }.
Discretization: atoms on a lattice covering K, constraints that the
potential stays <= 1 on the lattice points plus a collar layer one cell
above the set in time (parabolic potentials peak there).  Lattices come
from quadrature (flat_lattice, box_lattice, and geometry's
heat_ball_samples, which filters box_lattices) as one Lattice type, and
there is one cell model: every atom is the centre of a cell of side
h_space and time extent h_time > 0.  A flat set's cells take the
parabolic extent h_space^2, which the `capacity` command runs and
criterion 08 checks against the weighted-volume oracle.  Entries of
the constraint matrix whose observation point is close to the source
atom are replaced by cell averages of Gamma over the source cell; the
cell average is finite because Gamma is locally integrable, and the
scheme converges under refinement (discrete capacity overestimates,
so results are reported with a refinement pair and a Richardson
estimate).

The constraint matrix is a separable integral (separable).  A far
entry is Gamma at the atom: a dense product of per-axis tables over the
(coordinate, time) classes of the rows and of the atoms, 0 where its
lag is below 1e-9 of the cell's time scale (snap).  A near entry, within
NEAR_CELLS cells, is the equal-weight mean of Gamma over the AVG_NODES
Gauss-Legendre nodes per axis of the atom's cell, time included: a
product of per-axis node means, which each axis computes once for every
(row class, atom class) pair within NEAR_CELLS cells in space and in
time, its close pairs.  The near pairs are found where the far entries
are built: each chunk of rows ANDs the axes' close pairs.  capacity_lp
takes a sequence of lattices (the shells of a Wiener series) and builds
all their tables with one kernel call per axis, and their node means
with one more; symmetry, presolve and LP stay per set, and each matrix
is built only when its LP is next.

The LP (maximise the total mass subject to A x <= 1, x >= 0, with a
dense A >= 0) is solved by `linprog`, a primal-dual interior-point
method on the normal equations: Mehrotra's predictor-corrector (SIAM
J. Optim. 2, 1992), as in Wright, *Primal-Dual Interior-Point Methods*
(SIAM, 1997).  Two presolve steps shrink it, and both leave its optimum
as it was.

Gamma sees a free coordinate only through (x'_k - y'_k)^2, and the cell
means take symmetric nodes, so reflecting a free axis k < n - 1 about
the midpoint of the atoms' range permutes the rows and columns of A
alike whenever it maps the atoms onto themselves, times included (a
box lattice, a heat-ball sample about its centre).  An LP with such a
symmetry group has an optimum that is constant on the orbits, found on
the orbits alone (Bödi, Herr & Joswig, *Algorithms for highly
symmetric linear and integer programs*, Math. Programming 137, 2013).
So only the representatives' rows are built, the set and collar rows
of one atom per orbit, over the atoms sorted by orbit, and each chunk
of rows over all atoms gets its near means and has its orbits' columns
summed into the folded matrix, which is divided by the orbit sizes at
the end.  Each row's arithmetic is that of a build over all atoms
folded afterwards, so the result is the same to the bit, but the build
holds only the 2 orbits x orbits folded rows and one chunk.  The
orbit's mass x~_o is spread as x_i = x~_o / |o|.  A flat n = 2 level
folds to half its atoms and an n = 3 cube to a quarter.  Atoms are
matched by the ranks of their sorted coordinates within 1e-9 of a
cell, not on a grid of h_space, since box cells need not be square.

Then the LP sees only the rows that can bind.  A row of zeros cannot.
Set row i and collar row m + i observe the same spatial point; where
the collar row is >= the set row in every entry, A_i x <= A_{m+i} x <=
1 for every x >= 0, so the set row is redundant and dropping it leaves
the feasible set and the optimum exactly as they were (the
dominated-constraint rule of Andersen & Andersen, *Presolving in linear
programming*, Math. Programming 71, 1995).  On a box lattice the collar
row of one slice and the set row of the next observe one point at one
time, most of them bitwise equal; the set row is tested against that
collar row too.  Only set rows leave, so equal rows cannot remove each
other.  On a flat n = 2 level every set row is dominated, so the LP has
one row per orbit; at n = 3 Gamma's lag-0 own-cell entry outweighs the
collar's, and most set rows stay.  The reported constraint violation is
taken over every built row, the dropped ones included: a row's mirror
image has its potential under masses constant on the orbits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dgemv, dsyrk
from scipy.linalg.lapack import dpotrf, dpotrs

from .params import KernelParams
from .quadrature import check_fits, integrate_weighted_interval, legendre_rule
from .separable import CHUNK_POINTS, axis_classes, axis_sums, chunk_bytes, dense_chunks

NEAR_CELLS = 2.5
AVG_NODES = 3
# peak bytes of capacity_lp over the 2 orbits x orbits folded rows it builds,
# bounded from above, besides one chunk of rows over all atoms (chunk_bytes):
# measured with tracemalloc (build and LP) on one set at a = 0.3, 2.1 on a flat
# 32 x 32 level, 2.2 on a 10 x 10 x 10 box level and 2.3 on a 16^3 cube, all
# folded; with one atom taken out nothing folds, and the flat level reaches 2.0,
# the box level 2.1 and an 8^3 cube 2.6, at a = -0.9 too (no row leaves its LP).
# linprog scales the kept rows in place and holds one more copy of them
MATRIX_COPIES = 3
# linprog stops at a relative duality gap and residuals of LP_TOL, or gives up
# after LP_MAX_ITERATIONS; the bench's and the suite's LPs converge in 22 or fewer
LP_TOL = 1e-8
LP_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class DiscreteMeasure:
    spatial: np.ndarray
    times: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.masses < 0.0):
            raise ValueError("masses must be nonnegative")


@dataclass(frozen=True)
class CapacityResult:
    cap_estimate: float
    equilibrium: DiscreteMeasure
    max_constraint_violation: float
    # rows and columns (atom orbits) handed to the LP, folded rows left out (all
    # zero, or a set row bounded by a collar row), the free axes folded, near
    # (cell-averaged) entries of the rows actually built, linprog iterations
    lp_rows: int
    lp_cols: int
    dropped_rows: int
    mirror_axes: tuple[int, ...]
    near_pairs: int
    lp_iterations: int


def _class_tables(params: KernelParams, axis: int, groups, nodes: np.ndarray) -> list:
    """Gamma's factor on one axis between (x, t) and the nodes (y + off, s + off_t) of each pair.

    Each group is (x, t, y, s, h_space, h_time, snap) of one set's pairs,
    whose off and off_t are nodes scaled to half its cell sides.  One
    kernel call (axis_sums) over one-node keys, a pair's spatial nodes,
    covers all pairs; each group gets a (pairs, len(nodes)) array
    holding at each time node the mean over off.  Nodes whose lag is
    below the pair's snap give 0.
    """
    sizes, k = [len(g[0]) for g in groups], len(nodes)
    x, t, y, s = (np.concatenate(c) for c in zip(*(g[:4] for g in groups)))
    h_space, h_time, snap = (np.repeat([g[i] for g in groups], sizes)[:, None] for i in (4, 5, 6))
    lags = t[:, None] - (s[:, None] + 0.5 * h_time * nodes)
    lags = np.where(lags >= snap, lags, 0.0)
    ys = (y[:, None] + 0.5 * h_space * nodes).ravel()
    x, lags = np.repeat(x, k), np.repeat(lags, k, axis=0)
    vals = axis_sums(params, axis, False, x, ys, np.ones(len(ys)), 1, lags)
    return np.split(np.mean(vals.reshape(-1, k, k), axis=1), np.cumsum(sizes)[:-1])


def _constraint_matrices(params: KernelParams, sets):
    """Each set's folded constraint matrix rows x orbits and its near pair count.

    sets holds (cons_sp, cons_t, atom_sp, atom_t, h_space, h_time, sizes)
    tuples, the atoms sorted by orbit and sizes the orbits' atom counts.
    The far entries are a dense product over (row class, atom class)
    tables (separable.dense_chunks); a near entry is the product of its
    class pairs' node means, averaged over its time nodes (module doc).
    Each chunk of rows gets its near entries, then has each orbit's
    columns averaged into one.  Per axis, one kernel call gives the far
    tables of all sets and one more the node means of their close pairs.
    """
    plans, far, near = zip(*(_plan(params, *s) for s in sets))
    x, _ = legendre_rule(AVG_NODES)
    tables = [_class_tables(params, k, [f[k] for f in far], np.zeros(1)) for k in range(params.n)]
    means = [_class_tables(params, k, [f[k] for f in near], x) for k in range(params.n)]
    # yielded in order and popped, so no set's pairs or matrix stay referenced here
    # while its LP runs
    work = [(*plan, [t[i] for t in tables], [m[i] for m in means]) for i, plan in enumerate(plans)]
    del plans, far, near, tables, means
    while work:
        yield _assemble(*work.pop(0))


def _plan(
    params: KernelParams, cons_sp, cons_t, atom_sp, atom_t, h_space: float, h_time: float, sizes
):
    """One set's classes and close class pairs, and its far table and node mean pairs per axis."""
    # collar times may collide with a lattice slice up to rounding; a
    # dt of a few ulps would otherwise produce a spurious huge entry
    snap = 1e-9 * h_time
    row_times, row_ti = np.unique(cons_t, return_inverse=True)
    atom_times, atom_ti = np.unique(atom_t, return_inverse=True)
    axes, far, near = [], [], []
    for k in range(params.n):
        rc, rx, rt = axis_classes(cons_sp[:, k], row_ti, row_times)
        ac, ax, at = axis_classes(atom_sp[:, k], atom_ti, atom_times)
        i, j = np.divmod(np.arange(len(rx) * len(ax)), len(ax))
        far.append((rx[i], rt[i], ax[j], at[j], h_space, h_time, snap))
        # the class pairs within NEAR_CELLS cells on this axis and in time (every class
        # carries its time): a near entry's pair is close on every axis, and each close
        # pair gets its node means, in row-major order
        close = np.abs(rx[:, None] - ax) <= NEAR_CELLS * h_space
        close &= np.abs(rt[:, None] - at) <= NEAR_CELLS * h_time
        p, q = np.nonzero(close)
        near.append((rx[p], rt[p], ax[q], at[q], h_space, h_time, snap))
        axes.append((rc, ac, close))
    return (axes, sizes), far, near


def _assemble(axes, sizes, tables, means) -> tuple[np.ndarray, int]:
    """One set's folded matrix from its per-axis far tables and near node means, chunk by chunk."""
    obs, src, close = zip(*axes)
    keys = [np.flatnonzero(c) for c in close]
    tables = [t.reshape(c.shape + (1,)) for t, c in zip(tables, close)]
    F = np.empty((len(obs[0]), len(sizes)))
    starts, near_pairs = np.cumsum(sizes) - sizes, 0
    for lo, hi, prod in dense_chunks(tables, obs, src):
        # the chunk is built over all atoms, its near entries filled from the node means
        # of their class pairs, then each orbit's columns are summed
        A = prod[..., 0]
        near = [c[rc[lo:hi]].take(ac, axis=1) for rc, ac, c in axes]
        j, i = np.nonzero(np.logical_and.reduce(near))
        cell = 1.0
        for (rc, ac, c), key, mean in zip(axes, keys, means):
            cell = cell * mean[key.searchsorted(rc[lo + j] * c.shape[1] + ac[i])]
        # the mean over the time nodes: their sum, then divided
        A[j, i] = cell.sum(axis=1) / AVG_NODES
        near_pairs += len(j)
        np.add.reduceat(A, starts, axis=1, out=F[lo:hi])
    F /= sizes
    return F, near_pairs


def _ranks(values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each value's rank among the distinct values, and those values in order.

    Values within tol of their sorted neighbour count as one.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.r_[True, np.diff(ordered) > tol]
    rank = np.empty(len(values), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    return rank, ordered[new]


def _lookup(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of each row of queries among the rows of points (nonnegative ints), -1 where none."""
    rows = np.vstack([points, queries])
    # one column at a time, renumbering the keys so they stay below the row count
    key = np.zeros(len(rows), dtype=np.intp)
    for col in rows.T:
        _, key = np.unique(key * (int(col.max()) + 1) + col, return_inverse=True)
    slot = np.full(len(rows), -1)
    slot[key[: len(points)]] = np.arange(len(points))
    return slot[key[len(points) :]]


def _lattice_symmetry(
    n: int, atom_sp: np.ndarray, atom_t: np.ndarray, h_space: float, h_time: float
):
    """The atoms' orbits under the mirror symmetries of their free axes, and each set row's twin.

    Each row (the atoms, then their collar copies one cell h_time later)
    is the tuple of its ranks on the n axes and in time, values within
    1e-9 of a cell counting as one.  A free axis k < n - 1 folds when its
    distinct values are symmetric about their midpoint and reversing its
    ranks maps the atoms onto themselves.  Returns each atom's orbit
    under the reflections of the folded axes, one atom per orbit (its
    first), the folded axes, and for each of those atoms the orbit of
    the atom whose collar row observes its point at its time, or -1.
    """
    m = len(atom_sp)
    ranks = [_ranks(atom_sp[:, k], 1e-9 * h_space) for k in range(n)]
    t_rank, _ = _ranks(np.concatenate([atom_t, atom_t + h_time]), 1e-9 * h_time)
    rows = np.column_stack([np.tile(rank, 2) for rank, _ in ranks] + [t_rank])
    atoms = rows[:m]
    first, axes = np.arange(m), []
    for k in range(n - 1):
        rank, values = ranks[k]
        mirror = values[0] + values[-1] - values[::-1]
        if len(values) < 2 or np.max(np.abs(values - mirror)) > 1e-9 * h_space:
            continue
        mirrored = atoms.copy()
        mirrored[:, k] = len(values) - 1 - rank
        image = _lookup(atoms, mirrored)
        if np.all(image >= 0) and np.array_equal(image[image], np.arange(m)):
            # the reflections commute, so this takes the least atom of each orbit
            first = np.minimum(first, first[image])
            axes.append(k)
    reps, orbit = np.unique(first, return_inverse=True)
    twin = _lookup(rows[m:], atoms[reps])
    return orbit, reps, tuple(axes), np.where(twin >= 0, orbit[twin], -1)


def check_matrix_fits(orbits: float, atoms: float) -> None:
    """Raise ValueError if capacity_lp's dense work on atoms in orbits exceeds physical memory.

    capacity_lp builds the set and collar rows of one atom per orbit,
    folded to one column per orbit, 2 orbits x orbits float64 entries,
    and its peak is at most about MATRIX_COPIES times them, plus one
    chunk of rows over all atoms (separable.chunk_bytes).
    """
    need = MATRIX_COPIES * 8.0 * 2.0 * orbits * orbits + chunk_bytes(atoms)
    check_fits(need, f"capacity matrix for {atoms:.4g} atoms")


class LPResult(NamedTuple):
    x: np.ndarray
    nit: int
    scale: float


def _step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step in (0, 1] that keeps v + step * dv >= 0, for v > 0."""
    return 1.0 / max(1.0, float(np.max(-dv / v)))


def linprog(*, A_ub: np.ndarray) -> LPResult:
    """Maximise sum(x) subject to A_ub x <= 1 and x >= 0, for a dense A_ub >= 0.

    The primal x with slack s (A x + s = 1) and the dual y with slack z
    (A'y - z = 1) stay positive while the residuals of both equations go
    to 0.  Each iteration forms the atoms x atoms normal matrix
    A' diag(y/s) A + diag(z/x) as B'B with B = sqrt(y/s) A (one
    symmetric rank-k update), factors it once by Cholesky and solves with
    the factor twice, for Mehrotra's predictor and corrector; each step
    goes 0.99 of the way to the boundary.  A is first scaled by its
    largest entry.  The start x = s = 1, y = 2 / min(column sum) is dual
    feasible (z >= 1).  The normal matrix becomes nearly singular as the
    iterates converge; its diagonal is shifted by eps times its largest
    entry to guard the factorization (the LPs of the bench and the test
    suite also converge without the shift, while a shift of 1e-12
    relative stops some of them converging).  The method stops when the
    duality gap relative to the dual objective and the largest primal
    and dual residuals are all <= LP_TOL.  A column with no positive entry
    (an unbounded LP), a failed factorization and no convergence in
    LP_MAX_ITERATIONS iterations raise RuntimeError.

    A_ub is divided by scale, its largest entry, in place when it is a
    Fortran-ordered float64 array, as capacity_lp hands it, so that the
    LP holds no copy of it; any other array is scaled in a copy.  The
    result reports scale.
    """
    # every product below goes through scipy's BLAS: numpy loads its own
    # OpenBLAS with its own thread pool, and interleaving calls into the two
    # pools made the fine LP of a bench job about 3x slower on 2 cores
    A = np.asarray(A_ub, dtype=float, order="F")
    col = A.sum(axis=0)
    if not np.all(col > 0.0):
        raise RuntimeError("capacity LP unbounded: an atom has no positive constraint entry")
    scale = float(np.max(A))
    A /= scale
    rows, m = A.shape
    size = m + rows
    # u = (x, s) and w = (z, y): u * w holds the complementarity products
    u = np.ones(size)
    w = np.empty(size)
    x, s = u[:m], u[m:]
    z, y = w[:m], w[m:]
    y[:] = 2.0 * scale / float(np.min(col))
    z[:] = dgemv(1.0, A, y, trans=1) - 1.0
    # B and the normal matrix M (upper triangle, then its Cholesky factor)
    # are overwritten in place at every iteration
    B = np.empty_like(A)
    M = np.zeros((m, m), order="F")
    for it in range(LP_MAX_ITERATIONS + 1):
        rp = 1.0 - dgemv(1.0, A, x) - s
        d = y / s
        atdrp = dgemv(1.0, A, d * rp, trans=1)
        rd = 1.0 - dgemv(1.0, A, y, trans=1) + z
        gap = abs(y.sum() - x.sum())
        if gap <= LP_TOL * y.sum() and np.max(np.abs(np.r_[rp, rd])) <= LP_TOL:
            return LPResult(x / scale, it, scale)
        if it == LP_MAX_ITERATIONS:
            break
        mu = u @ w / size
        np.multiply(np.sqrt(d)[:, None], A, out=B)
        M = dsyrk(1.0, B, beta=0.0, c=M, trans=1, overwrite_c=1)
        M.flat[:: m + 1] += z / x + np.finfo(float).eps * M.diagonal().max()
        L, info = dpotrf(M, lower=0, overwrite_a=1, clean=0)
        if info != 0:
            raise RuntimeError(f"capacity LP: Cholesky factorization failed at iteration {it}")

        def direction(rhs: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Newton step with complementarity target u * w + r, from the normal-equation rhs."""
            du, dw = np.empty(size), np.empty(size)
            dx, _ = dpotrs(L, rhs, lower=0)
            du[:m] = dx
            dw[m:] = d * (dgemv(1.0, A, dx) - rp) + r[m:] / s
            dw[:m] = (r[:m] - z * dx) / x
            du[m:] = (r[m:] - s * dw[m:]) / y
            return du, dw

        # predictor: r = -u * w, for which the rhs reduces to 1 + A'(d rp)
        du, dw = direction(1.0 + atdrp, -u * w)
        step_p, step_d = _step(u, du), _step(w, dw)
        sigma = ((u + step_p * du) @ (w + step_d * dw) / size / mu) ** 3
        r = sigma * mu - u * w - du * dw
        du, dw = direction(rd + r[:m] / x + atdrp - dgemv(1.0, A, r[m:] / s, trans=1), r)
        u += 0.99 * _step(u, du) * du
        w += 0.99 * _step(w, dw) * dw
    raise RuntimeError(f"capacity LP did not converge in {LP_MAX_ITERATIONS} iterations")


def capacity_lp(params: KernelParams, lattices) -> list[CapacityResult]:
    """Equilibrium-measure LP of each lattice: max total mass s.t. potential <= 1.

    lattices is a sequence of quadrature.Lattice (spatial (m, n), times
    (m,), h_space, h_time), one CapacityResult each; each atom is the
    centre of a cell of spatial side h_space and time extent h_time, both
    positive.  The constraint set is the atoms themselves plus a collar
    copy shifted one cell up in time.  Free axes whose reflection maps
    the atoms onto themselves fold the LP to one column per orbit of
    atoms (mirror_axes, lp_cols), and the LP gets the rows of the folded
    set that can bind: rows of zeros and set rows that a collar row
    bounds entrywise are left out (module doc), and lp_rows and
    dropped_rows count the two parts.  The orbit's mass is spread evenly
    over its atoms.  max_constraint_violation is the largest potential
    minus 1 over the built rows, dropped or not, which by the symmetry
    carry every row's potential.  An empty set or a side that is not
    positive (0, negative or NaN) raises ValueError.
    """
    sets, builds = [], []
    for set_spatial, set_times, h_space, h_time in lattices:
        atom_sp = np.atleast_2d(np.asarray(set_spatial, dtype=float))
        atom_t = np.asarray(set_times, dtype=float)
        if len(atom_t) == 0:
            raise ValueError("set_points must be nonempty")
        if not (h_space > 0.0 and h_time > 0.0):
            raise ValueError(f"cell sides must be positive, got {h_space!r} and {h_time!r}")
        orbit, reps, axes, twin = _lattice_symmetry(params.n, atom_sp, atom_t, h_space, h_time)
        check_matrix_fits(len(reps), len(atom_t))
        # the set and collar rows of each orbit's first atom, over the atoms sorted
        # by orbit, so that each orbit's columns sit next to each other
        order, rep_t, sizes = np.argsort(orbit, kind="stable"), atom_t[reps], np.bincount(orbit)
        builds.append(
            (np.tile(atom_sp[reps], (2, 1)), np.concatenate([rep_t, rep_t + h_time]),
             atom_sp[order], atom_t[order], h_space, h_time, sizes)
        )
        sets.append((atom_sp, atom_t, orbit, sizes, axes, twin))
    matrices = _constraint_matrices(params, builds)
    results = []
    for atom_sp, atom_t, orbit, sizes, axes, twin in sets:
        F, near_pairs = next(matrices)
        cols = len(sizes)
        # a row of zeros adds nothing to the potential, and a set row that a collar
        # row bounds entrywise holds whenever that collar row does (x >= 0): its own
        # collar row, or its twin's, which observes the same point at the same time
        keep = np.any(F > 0.0, axis=1)
        keep[:cols] &= ~np.all(F[cols:] >= F[:cols], axis=1)
        paired = np.flatnonzero(twin >= 0)
        keep[paired] &= ~np.all(F[cols + twin[paired]] >= F[paired], axis=1)
        # the kept rows in Fortran order, which linprog scales in place, copied a
        # chunk at a time so that no third copy of them is held
        rows, rest, step = np.flatnonzero(keep), F[~keep], max(1, CHUNK_POINTS // cols)
        lp_A = np.empty((len(rows), cols), order="F")
        for lo in range(0, len(rows), step):
            lp_A[lo : lo + step] = F[rows[lo : lo + step]]
        del F
        x, nit, scale = linprog(A_ub=lp_A)
        masses = x[orbit] / sizes[orbit]
        # a mirror image of a built row has its potential under orbit-constant masses,
        # and a folded row times x is its unfolded row times masses.  scipy's dgemv
        # (the BLAS linprog used) reads the scaled Fortran rows and the transpose of
        # the C-ordered rest without a copy
        parts = ((scale, lp_A, 0), (1.0, rest.T, 1))
        violation = max(
            float(np.max(dgemv(alpha, part, x, trans=trans)))
            for alpha, part, trans in parts if part.size
        ) - 1.0
        results.append(
            CapacityResult(
                cap_estimate=float(np.sum(masses)),
                equilibrium=DiscreteMeasure(atom_sp, atom_t, masses),
                max_constraint_violation=violation,
                lp_rows=len(lp_A),
                lp_cols=cols,
                dropped_rows=len(keep) - len(lp_A),
                mirror_axes=axes,
                near_pairs=near_pairs,
                lp_iterations=nit,
            )
        )
        del lp_A, rest
    return results


def lp_report(res: CapacityResult | None) -> dict:
    """Atoms, LP sizes and check of one capacity_lp result, as plain numbers.

    None stands for a set without atoms, on which no LP ran: atoms is 0
    and the LP fields are None, not a measured 0.
    """
    fields = (
        "lp_rows",
        "lp_cols",
        "dropped_rows",
        "mirror_axes",
        "near_pairs",
        "lp_iterations",
        "max_constraint_violation",
    )
    if res is None:
        return {"atoms": 0, **dict.fromkeys(fields)}
    return {"atoms": len(res.equilibrium.masses), **{f: getattr(res, f) for f in fields}}


def flat_set_capacity(params: KernelParams, lo, hi) -> float:
    """Exact weighted volume of an axis-aligned spatial box (last axis weighted)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if len(lo) != params.n:
        raise ValueError("box dimension must match params.n")
    if np.any(hi <= lo):
        raise ValueError("box must be nonempty")
    vol = float(np.prod(hi[:-1] - lo[:-1]))

    def prim(y: float) -> float:
        return math.copysign(abs(y) ** (1.0 + params.a), y) / (1.0 + params.a)

    return vol * (prim(hi[-1]) - prim(lo[-1]))


def weighted_ball_volume(params: KernelParams, rho: float, x0: float) -> float:
    """w_a(B(X0, rho)) = integral of |y|^a over the spatial ball.

    Only the weighted coordinate of the center matters.  Reduces to a
    1-D weighted integral of the cross-section volume.
    """
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    nm1 = params.n - 1
    omega = math.pi ** (nm1 / 2.0) / math.gamma(nm1 / 2.0 + 1.0)

    def cross_section(y: np.ndarray) -> np.ndarray:
        s = rho * rho - (y - x0) ** 2
        return omega * np.maximum(s, 0.0) ** (nm1 / 2.0)

    return integrate_weighted_interval(cross_section, x0 - rho, x0 + rho, params.a, tol=1e-10)

