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

Points are ranked once per set, on each axis and in time (atom and
collar times together): values within 1e-9 of a cell count as one and
take the least, not a grid of h_space, since box cells need not be
square.  One row is built per distinct point, so a collar time that
collides with a slice up to rounding is the slice's time, at a lag of
exactly 0 from its atoms.  The constraint matrix is a separable integral
(separable).  A far entry is Gamma at the atom: a dense product of
per-axis tables over the (coordinate, time) classes of the rows and of
the atoms, 0 where its lag is not positive.  A near entry, within
NEAR_CELLS cells, is the equal-weight mean of Gamma over the AVG_NODES
Gauss-Legendre nodes per axis of the atom's cell, time included: a
product of per-axis node means, which each axis computes once for every
(row class, atom class) pair within NEAR_CELLS cells in space and in
time, its close pairs.  The near pairs are found where the far entries
are built: each chunk of rows ANDs the axes' close pairs.  capacity_lp
takes a sequence of lattices (the shells of a Wiener series) and builds
all their tables and node means first, per axis in kernel calls over
groups of whole sets of at most CHUNK_POINTS points, or one set alone;
symmetry, presolve and LP stay per set, and each matrix is built only
when its LP is next.

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
So only the representatives' rows are built, over the atoms sorted by
orbit: one row per distinct point among the set points of one atom per
orbit, then among their collar points (a box lattice's collar points
are mostly the next slice's set points), and each chunk
of rows over all atoms gets its near means and has its orbits' columns
summed into the folded matrix, which is divided by the orbit sizes at
the end.  Each row's arithmetic is that of a build over all atoms
folded afterwards, so the result is the same to the bit, but the build
holds only the folded rows, at most 2 orbits x orbits, and one chunk.  The
orbit's mass x~_o is spread as x_i = x~_o / |o|.  A flat n = 2 level
folds to half its atoms and an n = 3 cube to a quarter.

Then the LP sees only the rows that can bind.  A row of zeros cannot.
Where an atom's collar row (its point one cell later) is >= its set row
i in every entry, A_i x <= A_c x for every x >= 0, so the set row is
redundant and dropping it leaves the feasible set and the optimum
exactly as they were (the dominated-constraint rule of Andersen &
Andersen, *Presolving in linear programming*, Math. Programming 71,
1995).  The collar row may be the next slice's set row, itself dropped
for its own collar row; times grow along such a chain, so it ends at a
kept row or a row of zeros.  On a flat n = 2 level every set row is
dominated, so the LP has one row per orbit; at n = 3 Gamma's lag-0
own-cell entry outweighs the collar's, and most set rows stay.  The
kept rows are held once: the presolve moves them to the front of the
built array and gives its tail back, and linprog scales them in place.
A dropped row is all zero or bounded entrywise by a kept one, so under
x >= 0 the reported constraint violation, taken over the kept rows, is
that of every built row, and so of every row: a row's mirror image has
its potential under masses constant on the orbits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dgemv, dsyrk
from scipy.linalg.lapack import dpotrf, dpotrs

from .params import KernelParams
from .quadrature import CHUNK_POINTS, check_fits, chunk_bytes, chunks, integrate_weighted_interval
from .quadrature import legendre_rule
from .separable import axis_classes, axis_sums, dense_chunks

NEAR_CELLS = 2.5
AVG_NODES = 3
# linprog stops at a relative duality gap and residuals of LP_TOL, or gives up
# after LP_MAX_ITERATIONS; the bench's and the suite's LPs converge in 20 or fewer
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
    # rows and columns (atom orbits) handed to the LP, built rows left out (all
    # zero, or a set row bounded by its collar row), the free axes folded, near
    # (cell-averaged) entries of the rows actually built, linprog iterations
    lp_rows: int
    lp_cols: int
    dropped_rows: int
    mirror_axes: tuple[int, ...]
    near_pairs: int
    lp_iterations: int


def _class_tables(params: KernelParams, axis: int, groups, nodes: np.ndarray) -> list:
    """Gamma's factor on one axis between (x, t) and the nodes (y + off, s + off_t) of each pair.

    Each group is (x, t, y, s, h_space, h_time) of one set's pairs, whose
    off and off_t are nodes scaled to half its cell sides.  One kernel
    call (axis_sums) over one-node keys, a pair's spatial nodes, covers
    all pairs, len(nodes)^2 points a pair; each group gets a (pairs,
    len(nodes)) array holding at each time node the mean over off.  Nodes
    whose lag is not positive give 0.
    """
    sizes, k = [len(g[0]) for g in groups], len(nodes)
    x, t, y, s = (np.concatenate(c) for c in zip(*(g[:4] for g in groups)))
    h_space, h_time = (np.repeat([g[i] for g in groups], sizes)[:, None] for i in (4, 5))
    lags = t[:, None] - (s[:, None] + 0.5 * h_time * nodes)
    ys = (y[:, None] + 0.5 * h_space * nodes).ravel()
    x, lags = np.repeat(x, k), np.repeat(lags, k, axis=0)
    vals = axis_sums(params, axis, False, x, ys, np.ones(len(ys)), 1, lags)
    return np.split(np.mean(vals.reshape(-1, k, k), axis=1), np.cumsum(sizes)[:-1])


def _constraint_matrices(params: KernelParams, sets):
    """Each set's folded constraint matrix rows x orbits and its near pair count.

    sets holds (rows, atoms, values, h_space, h_time, sizes) tuples: the
    ranks (_rank_points) of the rows' points and of the atoms', sorted by
    orbit, the values they rank, and the orbits' atom counts.
    The far entries are a dense product over (row class, atom class)
    tables (separable.dense_chunks); a near entry is the product of its
    class pairs' node means, averaged over its time nodes (module doc).
    Each chunk of rows gets its near entries, then has each orbit's
    columns averaged into one.  Per axis, the far tables and the node
    means of the close pairs of all sets are computed before the first
    set is assembled, in kernel calls over groups of whole sets.
    """
    plans = [_plan(params, *s) for s in sets]
    x, _ = legendre_rule(AVG_NODES)
    tables, means = [], []
    for k in range(params.n):
        close = [axes[k][2] for (axes, _), _, _ in plans]
        # the far tables over every class pair, the node means over the close ones, in
        # kernel calls over whole sets of at most CHUNK_POINTS points, or one set alone
        every = [np.broadcast_to(True, c.shape) for c in close]
        for out, masks, nodes in ((tables, every, np.zeros(1)), (means, close, x)):
            out.append([])
            sizes = [np.count_nonzero(mask) * len(nodes) ** 2 for mask in masks]
            for g0, g1 in chunks(sizes, CHUNK_POINTS):
                group = []
                for (_, cls, cell), mask in zip(plans[g0:g1], masks[g0:g1]):
                    (rx, rt, ax, at), (p, q) = cls[k], np.nonzero(mask)
                    group.append((rx[p], rt[p], ax[q], at[q], *cell))
                out[-1] += _class_tables(params, k, group, nodes)
    # yielded in order and popped, so no set's classes or matrix stay referenced here
    # while its LP runs
    work = [
        (*plan, [t[i] for t in tables], [m[i] for m in means])
        for i, (plan, _, _) in enumerate(plans)
    ]
    del plans, tables, means
    while work:
        yield _assemble(*work.pop(0))


def _plan(params: KernelParams, rows, atoms, values, h_space: float, h_time: float, sizes):
    """One set's classes and close class pairs per axis, its orbit sizes and its cell."""
    axes, classes = [], []
    for k in range(params.n):
        rc, rx, rt = axis_classes(values[k][rows[:, k]], rows[:, -1], values[-1])
        ac, ax, at = axis_classes(values[k][atoms[:, k]], atoms[:, -1], values[-1])
        # the class pairs within NEAR_CELLS cells on this axis and in time (every class
        # carries its time): a near entry's pair is close on every axis, and each close
        # pair gets its node means, in row-major order
        close = np.abs(rx[:, None] - ax) <= NEAR_CELLS * h_space
        close &= np.abs(rt[:, None] - at) <= NEAR_CELLS * h_time
        axes.append((rc, ac, close))
        classes.append((rx, rt, ax, at))
    return (axes, sizes), classes, (h_space, h_time)


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


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each distinct row of an int array first occurs, in order, and each row's number."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(len(first), dtype=np.intp)
    number[order] = np.arange(len(first))
    return first[order], number[inverse.ravel()]


def _lattice_symmetry(
    n: int, atom_sp: np.ndarray, atom_t: np.ndarray, h_space: float, h_time: float
):
    """The atoms' orbits under the mirror symmetries of their free axes, and the rows to build.

    Each point, an atom or its collar copy one cell h_time later, is the
    tuple of its ranks (_ranks) on the n axes and in time, values within
    1e-9 of a cell counting as one.  A free axis k < n - 1 folds when its
    distinct values are symmetric about their midpoint and reversing its
    ranks maps the atoms onto themselves.  Returns each atom's orbit under
    the reflections of the folded axes, the folded axes, the distinct
    values of each axis and of time, the ranks of the rows (one per
    distinct point among the set points of one atom per orbit, its first,
    then among their collar points) and of the atoms sorted by orbit, and
    the rows of those atoms' set points and of their collar points.
    """
    m = len(atom_sp)
    ranked = [_ranks(c, 1e-9 * h_space) for c in atom_sp.T]
    ranked.append(_ranks(np.concatenate([atom_t, atom_t + h_time]), 1e-9 * h_time))
    ranks = np.column_stack([np.tile(r, 2) for r, _ in ranked[:n]] + [ranked[n][0]])
    values = [v for _, v in ranked]
    atoms = ranks[:m]
    first, axes = np.arange(m), []
    for k in range(n - 1):
        mirror = values[k][0] + values[k][-1] - values[k][::-1]
        if len(values[k]) < 2 or np.max(np.abs(values[k] - mirror)) > 1e-9 * h_space:
            continue
        mirrored = atoms.copy()
        mirrored[:, k] = len(values[k]) - 1 - atoms[:, k]
        _, number = _distinct(np.vstack([atoms, mirrored]))
        # the atoms are distinct and their images are among them; a reflection is its
        # own inverse, so the images permute the atoms
        if np.array_equal(number[:m], np.arange(m)) and np.all(number[m:] < m):
            # the reflections commute, so this takes the least atom of each orbit
            first = np.minimum(first, first[number[m:]])
            axes.append(k)
    reps, orbit = np.unique(first, return_inverse=True)
    points = np.vstack([atoms[reps], ranks[m + reps]])
    built, number = _distinct(points)
    order = np.argsort(orbit, kind="stable")
    return orbit, tuple(axes), values, points[built], atoms[order], np.split(number, 2)


def _keep_binding_rows(F: np.ndarray, own: np.ndarray, collar: np.ndarray) -> None:
    """Move the rows of F that can bind (module doc) to its front in order, and give the rest back.

    own[i] and collar[i] are the rows of an atom's set and collar points.
    Rows are compared and moved a chunk at a time; F owns its data and no
    view of it is alive, so it is resized in place.
    """
    cols = F.shape[1]
    step = max(1, CHUNK_POINTS // cols)
    keep = np.empty(len(F), dtype=bool)
    for lo in range(0, len(F), step):
        keep[lo : lo + step] = np.any(F[lo : lo + step] > 0.0, axis=1)
    for lo in range(0, len(own), step):
        i, c = own[lo : lo + step], collar[lo : lo + step]
        keep[i] &= ~np.all(F[c] >= F[i], axis=1)
    # each kept row moves to an index at or below its own, so a chunk reads no row
    # that an earlier chunk overwrote
    rows = np.flatnonzero(keep)
    for lo in range(0, len(rows), step):
        part = rows[lo : lo + step]
        F[lo : lo + len(part)] = F[part]
    F.resize((len(rows), cols), refcheck=False)


def check_matrix_fits(rows: float, orbits: float, atoms: float) -> None:
    """Raise ValueError if capacity_lp's dense work on atoms in orbits exceeds physical memory.

    capacity_lp builds rows folded to one column per orbit, rows x orbits
    float64 entries, and holds them once; its LP holds the kept ones and
    the orbits x orbits normal matrix, and the build one chunk of rows
    over all atoms besides (quadrature.chunk_bytes).  Measured with
    tracemalloc on one set, the peak is 1.12 times the built rows on a
    flat 32 x 32 level (a = 0.3, half the rows kept), 1.34 on a 12^3
    cube, 2.02 on a 10 x 10 x 10 box level whose 550 rows are little more
    than its 500 orbits, and 1.54 on a 10^3 cube less one atom at a =
    -0.9, where no row leaves its LP.
    """
    need = 8.0 * (rows + orbits) * orbits + chunk_bytes(atoms)
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
    largest entry.  The start is Mehrotra's: the least-norm solutions of
    the primal and dual equations, x = (A'A + I)^-1 A'1, s = 1 - A x,
    y = A (A'A + I)^-1 1 and z = A'y - 1, from one factorization of the
    atoms x atoms A'A + I, shifted to be positive (from x = s = 1 two
    bench LPs stalled with the dual residual above LP_TOL).  The normal
    matrix becomes nearly singular as the iterates converge; its diagonal
    is shifted by eps times its largest entry to guard the factorization
    (from the earlier start the LPs of the bench and the suite converged
    without it too, and a shift of 1e-12 relative stopped some).  The
    method stops when the duality gap relative to the dual objective and
    the largest primal and dual residuals are all <= LP_TOL.  A column
    with no positive entry (an unbounded LP), a failed factorization and
    no convergence in LP_MAX_ITERATIONS iterations raise RuntimeError.

    The rows are held once.  A C-ordered float64 A_ub, as capacity_lp
    hands it, is worked on in place, and any other array in a C-ordered
    copy: it is divided by scale, its largest entry, and from the first
    factorization on its rows are B's, rescaled in place at each
    iteration, so a product with A is one with B and the row scales.  On
    return the rows are divided back, to A_ub / scale up to rounding;
    the result reports scale.
    """
    # every product below goes through scipy's BLAS: numpy loads its own
    # OpenBLAS with its own thread pool, and interleaving calls into the two
    # pools made the fine LP of a bench job about 3x slower on 2 cores
    B = np.asarray(A_ub, dtype=float, order="C")
    col = B.sum(axis=0)
    if not np.all(col > 0.0):
        raise RuntimeError("capacity LP unbounded: an atom has no positive constraint entry")
    scale = float(np.max(B))
    B /= scale
    rows, m = B.shape
    size = m + rows
    # B = diag(g) A, and scipy's BLAS reads the C-ordered rows through their
    # Fortran-ordered transpose Bt without a copy: A v and A' v
    g, Bt = np.ones(rows), B.T

    def a_dot(v: np.ndarray) -> np.ndarray:
        return dgemv(1.0, Bt, v, trans=1) / g

    def at_dot(v: np.ndarray) -> np.ndarray:
        return dgemv(1.0, Bt, v / g)

    # u = (x, s) and w = (z, y): u * w holds the complementarity products
    u, w = np.empty(size), np.empty(size)
    x, s = u[:m], u[m:]
    z, y = w[:m], w[m:]
    # the normal matrix M (upper triangle, then its Cholesky factor) is
    # overwritten in place at every iteration, and first gives the start
    M = dsyrk(1.0, Bt, beta=0.0, c=np.zeros((m, m), order="F"), overwrite_c=1)
    M.flat[:: m + 1] += 1.0
    L, info = dpotrf(M, lower=0, overwrite_a=1, clean=0)
    if info != 0:
        raise RuntimeError("capacity LP: Cholesky factorization failed at the start")
    start, _ = dpotrs(L, np.column_stack([at_dot(np.ones(rows)), np.ones(m)]), lower=0)
    x[:], y[:] = start[:, 0], a_dot(start[:, 1])
    s[:], z[:] = 1.0 - a_dot(x), at_dot(y) - 1.0
    # shifted to be nonnegative, then by equal complementarity terms
    u += max(0.0, -1.5 * float(u.min()))
    w += max(0.0, -1.5 * float(w.min()))
    half, u_sum, w_sum = 0.5 * float(u @ w), float(u.sum()), float(w.sum())
    u += half / w_sum
    w += half / u_sum
    for it in range(LP_MAX_ITERATIONS + 1):
        rp = 1.0 - a_dot(x) - s
        d = y / s
        atdrp = at_dot(d * rp)
        rd = 1.0 - at_dot(y) + z
        gap = abs(y.sum() - x.sum())
        if gap <= LP_TOL * y.sum() and np.max(np.abs(np.r_[rp, rd])) <= LP_TOL:
            B /= g[:, None]
            return LPResult(x / scale, it, scale)
        if it == LP_MAX_ITERATIONS:
            break
        mu = u @ w / size
        root = np.sqrt(d)
        B *= (root / g)[:, None]
        g = root
        M = dsyrk(1.0, Bt, beta=0.0, c=M, overwrite_c=1)
        M.flat[:: m + 1] += z / x + np.finfo(float).eps * M.diagonal().max()
        L, info = dpotrf(M, lower=0, overwrite_a=1, clean=0)
        if info != 0:
            raise RuntimeError(f"capacity LP: Cholesky factorization failed at iteration {it}")

        def direction(rhs: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Newton step with complementarity target u * w + r, from the normal-equation rhs."""
            du, dw = np.empty(size), np.empty(size)
            dx, _ = dpotrs(L, rhs, lower=0)
            du[:m] = dx
            dw[m:] = d * (a_dot(dx) - rp) + r[m:] / s
            dw[:m] = (r[:m] - z * dx) / x
            du[m:] = (r[m:] - s * dw[m:]) / y
            return du, dw

        # predictor: r = -u * w, for which the rhs reduces to 1 + A'(d rp)
        du, dw = direction(1.0 + atdrp, -u * w)
        step_p, step_d = _step(u, du), _step(w, dw)
        sigma = ((u + step_p * du) @ (w + step_d * dw) / size / mu) ** 3
        r = sigma * mu - u * w - du * dw
        du, dw = direction(rd + r[:m] / x + atdrp - at_dot(r[m:] / s), r)
        u += 0.99 * _step(u, du) * du
        w += 0.99 * _step(w, dw) * dw
    raise RuntimeError(f"capacity LP did not converge in {LP_MAX_ITERATIONS} iterations")


def capacity_lp(params: KernelParams, lattices) -> list[CapacityResult]:
    """Equilibrium-measure LP of each lattice: max total mass s.t. potential <= 1.

    lattices is a sequence of quadrature.Lattice (spatial (m, n), times
    (m,), h_space, h_time), one CapacityResult each; each atom is the
    centre of a cell of spatial side h_space and time extent h_time, both
    positive.  The constraint set is the atoms themselves plus a collar
    copy shifted one cell up in time, one row per distinct point.  Free
    axes whose reflection maps the atoms onto themselves fold the LP to
    one column per orbit of atoms (mirror_axes, lp_cols), and the LP gets
    the built rows that can bind: rows of zeros and set rows that their
    collar row bounds entrywise are left out (module doc), and lp_rows
    and dropped_rows count the built rows kept and left out.  The orbit's
    mass is spread evenly over its atoms.  max_constraint_violation is
    the largest potential minus 1 over the kept rows, which bound the
    dropped ones and by the symmetry carry every row's potential.  An
    empty set or a side that is not positive (0, negative or NaN) raises
    ValueError.
    """
    sets, builds = [], []
    for set_spatial, set_times, h_space, h_time in lattices:
        atom_sp = np.atleast_2d(np.asarray(set_spatial, dtype=float))
        atom_t = np.asarray(set_times, dtype=float)
        if len(atom_t) == 0:
            raise ValueError("set_points must be nonempty")
        if not (h_space > 0.0 and h_time > 0.0):
            raise ValueError(f"cell sides must be positive, got {h_space!r} and {h_time!r}")
        orbit, axes, values, rows, atoms, own_collar = _lattice_symmetry(
            params.n, atom_sp, atom_t, h_space, h_time
        )
        sizes = np.bincount(orbit)
        check_matrix_fits(len(rows), len(sizes), len(atom_t))
        # the atoms sorted by orbit, so that each orbit's columns sit next to each other
        builds.append((rows, atoms, values, h_space, h_time, sizes))
        sets.append((atom_sp, atom_t, orbit, sizes, axes, own_collar, len(rows)))
    matrices = _constraint_matrices(params, builds)
    results = []
    for atom_sp, atom_t, orbit, sizes, axes, (own, collar), built in sets:
        F, near_pairs = next(matrices)
        _keep_binding_rows(F, own, collar)
        x, nit, scale = linprog(A_ub=F)
        masses = x[orbit] / sizes[orbit]
        # a mirror image of a built row has its potential under orbit-constant masses,
        # a folded row times x is its unfolded row times masses, and a dropped row's
        # potential is 0 or at most that of the kept row that bounds it.  scipy's dgemv
        # (the BLAS linprog used) reads the transpose of the C-ordered rows as they lie
        violation = float(np.max(dgemv(scale, F.T, x, trans=1))) - 1.0
        results.append(
            CapacityResult(
                cap_estimate=float(np.sum(masses)),
                equilibrium=DiscreteMeasure(atom_sp, atom_t, masses),
                max_constraint_violation=violation,
                lp_rows=len(F),
                lp_cols=len(sizes),
                dropped_rows=built - len(F),
                mirror_axes=axes,
                near_pairs=near_pairs,
                lp_iterations=nit,
            )
        )
        del F
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

