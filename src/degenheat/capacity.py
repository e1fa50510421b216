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

The points of every set of a call are ranked in one pass, on each axis
and in time (atom and collar times together), the set the leading key:
values of a set within 1e-9 of its cell count as one and take the
least, not a grid of h_space, since box cells need not be square.  One row is built per distinct point, so a collar time that
collides with a slice up to rounding is the slice's time, at a lag of
exactly 0 from its atoms.  The constraint matrix is a separable integral
(separable).  A far entry is Gamma at the atom: a product of per-axis
tables over the pairs of a set's (coordinate, time) classes of the rows
and of the atoms, 0 where its lag is not positive.  A near entry, within
NEAR_CELLS cells, is the equal-weight mean of Gamma over the AVG_NODES
Gauss-Legendre nodes per axis of the atom's cell, time included: a
product of per-axis node means, which each axis computes once for every
(row class, atom class) pair within NEAR_CELLS cells in space and in
time, its close pairs.  The near pairs are found where the far entries
are built: each chunk of rows ANDs the axes' close pairs.  capacity_lp
takes a sequence of lattices (the shells of a Wiener series): it ranks,
folds and plans all of them in one pass, builds all their tables and
node means first, per axis in kernel calls over groups of whole sets of
at most CHUNK_POINTS points, or one set alone, then builds and presolves
its matrices once per group of whole sets of at most CHUNK_POINTS
folded entries (built rows x orbits), or one set alone, each group
when the previous group's LPs are done.  Each set's rows lie back to
back in its group's array, and the LPs run one at a time, each on its
own C-ordered rows; each entry takes the same operations in the same
order as in a build of its set alone.

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
summed left to right into the folded matrix and divided by the orbit
sizes.  Each row's arithmetic is that of a build over all atoms
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
group's built array and gives its tail back, and linprog scales each
set's in place.
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
from .separable import axis_sums

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


def _class_tables(params: KernelParams, axis: int, x, t, y, s, h_space, h_time, nodes) -> np.ndarray:
    """Gamma's factor on one axis between (x, t) and the nodes (y + off, s + off_t) of each pair.

    A pair's off and off_t are nodes scaled to half its cell sides h_space
    and h_time (one per pair, or one for all).  One kernel call
    (axis_sums) over one-node keys, a pair's spatial nodes, covers all
    pairs, len(nodes)^2 points a pair; returns a (pairs, len(nodes))
    array holding at each time node the mean over off.  Nodes whose lag
    is not positive give 0.
    """
    k = len(nodes)
    h_space, h_time = (np.broadcast_to(h, np.shape(x))[:, None] for h in (h_space, h_time))
    lags = t[:, None] - (s[:, None] + 0.5 * h_time * nodes)
    ys = (y[:, None] + 0.5 * h_space * nodes).ravel()
    x, lags = np.repeat(x, k), np.repeat(lags, k, axis=0)
    vals = axis_sums(params, axis, False, x, ys, np.ones(len(ys)), 1, lags)
    return np.mean(vals.reshape(-1, k, k), axis=1)


class _Build(NamedTuple):
    """capacity_lp's sets ranked in one pass (_lattice_symmetry): each axis's and time's
    distinct values, and the ranks of the built rows and of the atoms by orbit, set by set."""

    values: list
    rows: np.ndarray
    row_set: np.ndarray
    atoms: np.ndarray
    sizes: np.ndarray
    orbit_set: np.ndarray
    h_space: np.ndarray
    h_time: np.ndarray

    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each set's built rows, orbits and atoms."""
        count = len(self.h_space)
        orbits = np.bincount(self.orbit_set, minlength=count)
        atoms = np.add.reduceat(self.sizes, np.cumsum(orbits) - orbits)
        return np.bincount(self.row_set, minlength=count), orbits, atoms


class _Axis(NamedTuple):
    """One axis's row and atom classes (coordinates, times, each set's first) and each set's
    pairs (start, count, na atom classes a row); rows and atoms index the pairs (_plan)."""

    rx: np.ndarray
    rt: np.ndarray
    ax: np.ndarray
    at: np.ndarray
    r0: np.ndarray
    a0: np.ndarray
    na: np.ndarray
    start: np.ndarray
    count: np.ndarray
    close: np.ndarray
    rows: np.ndarray
    atoms: np.ndarray

    def pairs(self, g0: int, g1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The row class, atom class and set of each pair of the sets g0..g1 - 1."""
        owner = np.repeat(np.arange(g0, g1), self.count[g0:g1])
        local = np.arange(len(owner)) - (self.start[owner] - self.start[g0])
        return self.r0[owner] + local // self.na[owner], self.a0[owner] + local % self.na[owner], owner


def _ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + counts[i]) back to back."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)


def _constraint_matrices(params: KernelParams, build: _Build, groups):
    """Each group's folded constraint rows and its sets' near pair counts.

    groups holds (first, stop) ranges of sets, whose rows x orbits lie
    back to back in one flat array.  Per axis, the far tables over the
    class pairs (_plan) and the node means of the close ones are computed
    first, in kernel calls over whole sets of at most CHUNK_POINTS
    points, or one set alone; each group is assembled (_assemble) when
    the previous one's LPs are done.
    """
    plan = _plan(params, build)
    x, _ = legendre_rule(AVG_NODES)
    tables, means = [], []
    for k, axis in enumerate(plan):
        close = np.add.reduceat(axis.close, axis.start, dtype=np.intp)
        for out, per, nodes in ((tables, axis.count, np.zeros(1)), (means, close, x)):
            parts = []
            for g0, g1 in chunks(per * len(nodes) ** 2, CHUNK_POINTS):
                # a group's pairs are formed for its kernel call only
                p, q, owner = axis.pairs(g0, g1)
                if out is means:
                    pick = axis.close[axis.start[g0] : axis.start[g1 - 1] + axis.count[g1 - 1]]
                    p, q, owner = p[pick], q[pick], owner[pick]
                cell = build.h_space[owner], build.h_time[owner]
                args = axis.rx[p], axis.rt[p], axis.ax[q], axis.at[q], *cell
                parts.append(_class_tables(params, k, *args, nodes))
            out.append(np.concatenate(parts))
    # the close pairs in order, where each pair's node means are looked up
    keys = [np.flatnonzero(axis.close) for axis in plan]
    tables = [t.ravel() for t in tables]
    for g0, g1 in groups:
        yield _assemble(build, plan, tables, means, keys, g0, g1)


def _plan(params: KernelParams, build: _Build) -> list[_Axis]:
    """Each axis's classes (distinct (coordinate, time) of a set) of the rows and atoms, and pairs.

    A set's pairs are its row classes x its atom classes, row-major; a
    pair is close within NEAR_CELLS cells on the axis and in time, and a
    near entry's pair is close on every axis.
    """
    count, times = len(build.h_space), len(build.values[-1])
    atom_set = np.repeat(build.orbit_set, build.sizes)
    plan = []
    for k in range(params.n):
        sides = []
        for ranks, owner in ((build.rows, build.row_set), (build.atoms, atom_set)):
            keys, cls = np.unique(ranks[:, k] * times + ranks[:, -1], return_inverse=True)
            sets = np.empty(len(keys), dtype=np.intp)
            sets[cls] = owner
            per = np.bincount(sets, minlength=count)
            first = np.cumsum(per) - per
            coords = build.values[k][keys // times], build.values[-1][keys % times]
            sides.append((cls - first[owner], per, first, coords))
        (rc, nr, r0, (rx, rt)), (ac, na, a0, (ax, at)) = sides
        start = np.cumsum(nr * na) - nr * na
        rows = start[build.row_set] + rc * na[build.row_set]
        axis = _Axis(rx, rt, ax, at, r0, a0, na, start, nr * na, None, rows, ac)
        p, q, owner = axis.pairs(0, count)
        close = np.abs(rx[p] - ax[q]) <= NEAR_CELLS * build.h_space[owner]
        close &= np.abs(rt[p] - at[q]) <= NEAR_CELLS * build.h_time[owner]
        plan.append(axis._replace(close=close))
    return plan


def _assemble(build: _Build, plan, tables, means, keys, g0: int, g1: int):
    """The folded rows of sets g0..g1 - 1 back to back, and their near pair counts.

    A chunk of whole rows over their sets' atoms gets its far entries, its
    near ones from their class pairs' node means, and then each orbit's
    columns summed left to right and divided by its size.
    """
    rows, orbits, atoms = build.counts()
    row_start, orbit_start, atom_start = (np.cumsum(c) - c for c in (rows, orbits, atoms))
    orbit_atom, r0 = np.cumsum(build.sizes) - build.sizes, row_start[g0]
    sets = build.row_set[r0 : r0 + np.sum(rows[g0:g1])]
    width, folded = atoms[sets], orbits[sets]
    F = np.empty(int(np.sum(folded)))
    near_pairs = np.zeros(g1 - g0, dtype=np.intp)
    done = 0
    # an entry carries its atom and pair besides its value: half a product chunk
    for lo, hi in chunks(width, CHUNK_POINTS // 2):
        part, w = sets[lo:hi], width[lo:hi]
        row, ends = np.arange(r0 + lo, r0 + hi), np.cumsum(w)
        atom = _ragged(atom_start[part], w)
        for k, (axis, table) in enumerate(zip(plan, tables)):
            pair = axis.atoms.take(atom)
            pair += np.repeat(axis.rows[row], w)
            if k == 0:
                A, near = table.take(pair), axis.close.take(pair)
            else:
                A *= table.take(pair)
                near &= axis.close.take(pair)
            del pair
        e = np.flatnonzero(near)
        del near
        r, atom = np.searchsorted(ends, e, side="right"), atom[e]
        cell = 1.0
        for axis, mean, key in zip(plan, means, keys):
            cell = cell * mean[key.searchsorted(axis.rows[row[r]] + axis.atoms[atom])]
        # the mean over the time nodes: their sum, then divided
        A[e] = cell.sum(axis=1) / AVG_NODES
        near_pairs += np.bincount(part[r] - g0, minlength=g1 - g0)
        del e, r, atom, cell
        orbit = _ragged(orbit_start[part], folded[lo:hi])
        seg = np.repeat(ends - w - atom_start[part], folded[lo:hi])
        seg += orbit_atom[orbit]
        out = F[done : done + len(orbit)]
        np.add.reduceat(A, seg, out=out)
        del A, seg
        out /= build.sizes[orbit]
        done += len(orbit)
    return F, near_pairs


def _ranks(values: np.ndarray, sets: np.ndarray, tol: np.ndarray):
    """Each value's rank among the distinct values of its set sets[i], those values, and where
    each set's ranks start (and end).  Values of set j within tol[j] of their sorted
    neighbour count as one; ranks run on from set to set, so a rank tells its set."""
    order = np.lexsort((values, sets))
    ordered, owner = values[order], sets[order]
    new = np.r_[True, (np.diff(ordered) > tol[owner[1:]]) | (owner[1:] != owner[:-1])]
    rank = np.empty(len(values), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    return rank, ordered[new], np.searchsorted(owner[new], np.arange(len(tol) + 1))


def _distinct(rows: np.ndarray) -> np.ndarray:
    """Each row's number among the distinct rows of an int array, in lexicographic order."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.r_[True, np.any(ordered[1:] != ordered[:-1], axis=1)]
    number = np.empty(len(rows), dtype=np.intp)
    number[order] = np.cumsum(new) - 1
    return number


def _lattice_symmetry(n: int, spatial, times, sets, h_space, h_time):
    """The atoms' orbits under the mirror symmetries of their sets' free axes, and the rows to build.

    The atoms lie set by set, sets[i] atom i's set.  A point, an atom or
    its collar copy one cell later, is the tuple of its ranks (_ranks) on
    the axes and in time.  A free axis k < n - 1 folds in a set when its
    distinct values are symmetric about their midpoint and reversing its
    ranks maps the set's atoms onto themselves.  Returns the build (a row
    per distinct point among the set points of each orbit's first atom,
    then their collar points), each atom's orbit, the (n - 1, sets)
    folded axes, and each orbit's set and collar rows.
    """
    m, count = len(times), len(h_space)
    ranked = [_ranks(c, sets, 1e-9 * h_space) for c in spatial.T]
    ranked.append(_ranks(np.r_[times, times + h_time[sets]], np.r_[sets, sets], 1e-9 * h_time))
    ranks = np.column_stack([np.tile(r, 2) for r, _, _ in ranked[:n]] + [ranked[n][0]])
    atoms, images, symmetric = ranks[:m], [], []
    for k, (_, values, starts) in enumerate(ranked[: n - 1]):
        lo, hi = starts[:-1], starts[1:] - 1
        owner = np.repeat(np.arange(count), np.diff(starts))
        mirror = values[lo][owner] + values[hi][owner] - values[(lo + hi)[owner] - np.arange(len(values))]
        off = np.maximum.reduceat(np.abs(values - mirror), lo)
        symmetric.append((hi > lo) & ~(off > 1e-9 * h_space))
        image = atoms.copy()
        image[:, k] = (lo + hi)[sets] - atoms[:, k]
        images.append(image)
    ids = _distinct(np.vstack([ranks, *images]))
    # each point's atom, -1 where none lies; a set two of whose atoms share a point does not fold
    atom_at = np.full(ids.max() + 1, -1)
    atom_at[ids[:m]] = np.arange(m)
    shared = np.bincount(sets[np.bincount(ids[:m])[ids[:m]] > 1], minlength=count) > 0
    first, folded = np.arange(m), np.zeros((n - 1, count), dtype=bool)
    for k in range(n - 1):
        image = atom_at[ids[(2 + k) * m : (3 + k) * m]]
        folded[k] = symmetric[k] & ~shared & (np.bincount(sets[image < 0], minlength=count) == 0)
        # the images permute the atoms, and the reflections commute, so this takes the
        # least atom of each orbit
        move = folded[k][sets]
        first[move] = np.minimum(first[move], first[image[move]])
    reps, orbit = np.unique(first, return_inverse=True)
    orbit_set = sets[reps]
    per = np.bincount(orbit_set, minlength=count)
    # each set's reps' set points, then their collar points, set by set
    own_at = np.arange(len(reps)) + (np.cumsum(per) - per)[orbit_set]
    collar_at = own_at + per[orbit_set]
    points = np.empty(2 * len(reps), dtype=np.intp)
    points[own_at], points[collar_at] = reps, m + reps
    _, where, number = np.unique(ids[points], return_index=True, return_inverse=True)
    order = np.argsort(where)
    row = np.empty(len(order), dtype=np.intp)
    row[order] = np.arange(len(order))
    built = points[where[order]]
    build = _Build(
        [v for _, v, _ in ranked],
        ranks[built],
        np.r_[sets, sets][built],
        atoms[np.argsort(orbit, kind="stable")],
        np.bincount(orbit),
        orbit_set,
        h_space,
        h_time,
    )
    return build, orbit, folded, row[number[own_at]], row[number[collar_at]]


def _keep_binding_rows(F: np.ndarray, cols: np.ndarray, own: np.ndarray, collar: np.ndarray):
    """Move the rows that can bind (module doc) to the front of F in order, give the rest back.

    F holds rows back to back, row i's cols[i] entries; own[j] and
    collar[j] are the rows of an orbit's set and collar points.  Rows are
    compared and moved a chunk at a time; F owns its data and no view of
    it is alive, so it is resized in place.  Returns which rows are kept.
    """
    ends, step = np.cumsum(cols), CHUNK_POINTS // 2
    starts = ends - cols
    keep = np.empty(len(cols), dtype=bool)
    for lo, hi in chunks(cols, step):
        live = F[starts[lo] : ends[hi - 1]] > 0.0
        keep[lo:hi] = np.logical_or.reduceat(live, starts[lo:hi] - starts[lo])
    # a compared entry's two indices take as much as its two values
    for lo, hi in chunks(cols[own], step):
        i, c = own[lo:hi], collar[lo:hi]
        bound = F[_ragged(starts[c], cols[c])] >= F[_ragged(starts[i], cols[i])]
        keep[i] &= ~np.logical_and.reduceat(bound, np.cumsum(cols[i]) - cols[i])
    # each kept entry moves to an index at or below its own, so a chunk reads no entry
    # that an earlier chunk overwrote
    rows, done = np.flatnonzero(keep), 0
    for lo, hi in chunks(cols[rows], step):
        part = _ragged(starts[rows[lo:hi]], cols[rows[lo:hi]])
        F[done : done + len(part)] = F[part]
        done += len(part)
    F.resize(done, refcheck=False)
    return keep


def check_matrix_fits(entries: float, orbits: float, atoms: float) -> None:
    """Raise ValueError if capacity_lp's dense work on a group of sets exceeds physical memory.

    capacity_lp builds a group's rows folded to one column per orbit,
    entries float64 entries in all, and holds them once; its LPs run one
    at a time, each on its kept rows and an orbits x orbits normal matrix
    (orbits the group's largest LP's), and the build holds one chunk of
    rows over their sets' atoms besides (quadrature.chunk_bytes, atoms
    the widest set's).  Measured with tracemalloc on one set, the peak is
    1.12 times the built rows on a flat 32 x 32 level (a = 0.3, half the
    rows kept), 1.34 on a 12^3 cube, 2.02 on a 10 x 10 x 10 box level
    whose 550 rows are little more than its 500 orbits, and 1.54 on a
    10^3 cube less one atom at a = -0.9, where no row leaves its LP.
    """
    need = 8.0 * (entries + orbits * orbits) + chunk_bytes(atoms)
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


class LPError(RuntimeError):
    """linprog's failure on lattice `index` of a capacity_lp call, an LP of rows x cols."""

    def __init__(self, message: str, index: int, rows: int, cols: int) -> None:
        super().__init__(message)
        self.index, self.rows, self.cols = index, rows, cols


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
    dropped ones and by the symmetry carry every row's potential.  The
    lattices are ranked and planned in one pass, and built and presolved
    in groups of whole lattices of at most CHUNK_POINTS folded entries,
    or one alone; the LPs run one at a time, each on its own C-ordered
    rows.  An empty set or a side that is not positive (0, negative or
    NaN) raises ValueError, and an LP that fails raises LPError, a
    RuntimeError naming the lattice and its LP size.
    """
    spatial, times, cells = [], [], []
    for set_spatial, set_times, h_space, h_time in lattices:
        spatial.append(np.atleast_2d(np.asarray(set_spatial, dtype=float)))
        times.append(np.asarray(set_times, dtype=float))
        if len(times[-1]) == 0:
            raise ValueError("set_points must be nonempty")
        if not (h_space > 0.0 and h_time > 0.0):
            raise ValueError(f"cell sides must be positive, got {h_space!r} and {h_time!r}")
        cells.append((h_space, h_time))
    if not cells:
        return []
    h_space, h_time = np.array(cells, dtype=float).T
    sets = np.repeat(np.arange(len(times)), [len(t) for t in times])
    build, orbit, folded, own, collar = _lattice_symmetry(
        params.n, np.concatenate(spatial), np.concatenate(times), sets, h_space, h_time
    )
    rows, orbits, atoms = build.counts()
    groups = list(chunks(rows * orbits, CHUNK_POINTS))
    for g0, g1 in groups:
        check_matrix_fits(np.sum(rows[g0:g1] * orbits[g0:g1]), max(orbits[g0:g1]), max(atoms[g0:g1]))
    row_start, orbit_start, atom_start = (np.r_[0, np.cumsum(c)] for c in (rows, orbits, atoms))
    results = []
    for (g0, g1), (F, near_pairs) in zip(groups, _constraint_matrices(params, build, groups)):
        r0, o0, o1 = row_start[g0], orbit_start[g0], orbit_start[g1]
        part = build.row_set[r0 : row_start[g1]]
        keep = _keep_binding_rows(F, orbits[part], own[o0:o1] - r0, collar[o0:o1] - r0)
        kept = np.bincount(part[keep] - g0, minlength=g1 - g0)
        ends = np.cumsum(kept * orbits[g0:g1])
        for i, s in enumerate(range(g0, g1)):
            A = F[ends[i] - kept[i] * orbits[s] : ends[i]].reshape(kept[i], orbits[s])
            try:
                x, nit, scale = linprog(A_ub=A)
            except RuntimeError as exc:
                raise LPError(str(exc), s, *A.shape) from exc
            local = orbit[atom_start[s] : atom_start[s + 1]] - orbit_start[s]
            masses = x[local] / build.sizes[orbit_start[s] :][local]
            # a mirror image of a built row has its potential under orbit-constant masses,
            # a folded row times x is its unfolded row times masses, and a dropped row's
            # potential is 0 or at most that of the kept row that bounds it.  scipy's dgemv
            # (the BLAS linprog used) reads the transpose of the C-ordered rows as they lie
            violation = float(np.max(dgemv(scale, A.T, x, trans=1))) - 1.0
            results.append(
                CapacityResult(
                    cap_estimate=float(np.sum(masses)),
                    equilibrium=DiscreteMeasure(spatial[s], times[s], masses),
                    max_constraint_violation=violation,
                    lp_rows=len(A),
                    lp_cols=int(orbits[s]),
                    dropped_rows=int(rows[s] - len(A)),
                    mirror_axes=tuple(int(k) for k in np.flatnonzero(folded[:, s])),
                    near_pairs=int(near_pairs[i]),
                    lp_iterations=nit,
                )
            )
        del F, A
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

