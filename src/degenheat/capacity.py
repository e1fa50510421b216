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

Gamma factorizes into 1-D heat kernels (4 pi d)^{-1/2} e^{-D^2/4d} on
the free axes and u_tilde on the weighted axis.  The factor of an axis
depends on the observation's coordinate on that axis and time and the
atom's coordinate and time only, so the matrix is built from one table
per axis over the distinct (coordinate, time) classes of the rows and
of the atoms.  On a lattice the classes are few (a flat 32 x 32 level
has 64 row and 32 atom classes per axis for 2M entries); a set that is
no lattice has about as many classes as points, and shares less.

A far entry is the product of the axes' table values of its class
pairs, and 0 where its lag is below 1e-9 of the cell's time scale
(`snap`).  A near entry is the equal-weight mean of Gamma over the
AVG_NODES Gauss-Legendre nodes per axis of the atom's cell, time
included (their positions only, not the Gauss weights).  At each time
node the mean over the spatial nodes is the product of the per-axis
means, and each axis' means are computed once per distinct class pair
among the near pairs: 3 profile values per time node and class pair,
instead of 3^n per time node and entry.

capacity_lp takes a sequence of lattices (the shells of a Wiener series)
and builds their tables with one kernel call per axis, and their near
means with one more, over all sets' class pairs; symmetry, presolve and
LP stay per set, and each matrix is built only when its LP is next.

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
of one atom per orbit, over the atoms sorted by orbit, and each orbit's
columns are averaged into one as they are built: a chunk of rows of at
most BATCH_POINTS entries is gathered over all atoms, its near means
written and its orbits' columns summed into the folded matrix, which
is divided by the orbit sizes at the end.  Each row's arithmetic is
that of a build over all atoms folded afterwards, so the result is the
same to the bit, but the build holds only the 2 orbits x orbits folded
rows and one chunk; the near pairs come from boolean tables over each
axis' (row class, atom class) pairs, gathered per chunk too.  The
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

from .kernel import heat_kernel_1d, u_tilde
from .params import KernelParams
from .quadrature import BATCH_POINTS, check_fits, chunks, integrate_weighted_interval, legendre_rule

NEAR_CELLS = 2.5
AVG_NODES = 3
# peak bytes of capacity_lp over the bytes of what it builds (2 orbits x orbits
# folded rows, plus one chunk of at most max(BATCH_POINTS, atoms) unfolded
# entries), bounded from above: measured with tracemalloc (build and LP) on one
# set at a = 0.3, 2.0 on a flat 32 x 32 level, 2.2 on a 10 x 10 x 10 box level,
# 2.6 on an 8^3 cube and 2.9 on a 16^3 cube, all folded; with one atom taken out
# of the first three nothing folds, and they reach 2.4, 2.6 and 2.9, the cube's
# at a = -0.9 too (no row leaves its LP).  The LP and its copies of the rows set
# the peak of the large ones, which tends to 3.5 when every row stays
MATRIX_COPIES = 4
# linprog gives up after this many iterations; the LPs of the bench jobs
# and of the test suite converge in 22 or fewer
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


def _axis_classes(coord: np.ndarray, t_index: np.ndarray, times: np.ndarray):
    """Distinct (coordinate, time) pairs of points on one axis.

    times holds the distinct times and t_index each point's index into
    them.  Returns each point's class and the classes' coordinates and
    times.
    """
    values, index = np.unique(coord, return_inverse=True)
    keys, cls = np.unique(index * len(times) + t_index, return_inverse=True)
    return cls, values[keys // len(times)], times[keys % len(times)]


def _node_means(params: KernelParams, weighted: bool, groups, nodes: np.ndarray) -> list:
    """Gamma's factor on one axis between (x, t) and the nodes (y + off, s + off_t) of each pair.

    Each group is (x, t, y, s, h_space, h_time, snap) of one set's pairs,
    whose off and off_t are nodes scaled to half its cell sides.  One
    kernel call covers all pairs; each group gets a (pairs, len(nodes))
    array holding at each time node the mean over off.  The weighted axis
    gives u_tilde, a free axis the 1-D heat kernel; nodes whose lag is
    below the pair's snap give 0.
    """
    sizes = [len(g[0]) for g in groups]
    x, t, y, s = (np.concatenate(c)[:, None, None] for c in zip(*(g[:4] for g in groups)))
    h_space, h_time, snap = (np.repeat([g[i] for g in groups], sizes)[:, None] for i in (4, 5, 6))
    dt = t - (s + (0.5 * h_time * nodes)[:, :, None])
    dt = np.where(dt >= snap[:, :, None], dt, 0.0)
    y = y + (0.5 * h_space * nodes)[:, None, :]
    factor = u_tilde(params, x, y, dt) if weighted else heat_kernel_1d(x, y, dt)
    return np.split(np.mean(factor, axis=-1), np.cumsum(sizes)[:-1])


def _constraint_matrices(params: KernelParams, sets):
    """Each set's constraint matrix rows x orbits and its near pair count, from per-axis tables.

    sets holds (cons_sp, cons_t, atom_sp, atom_t, h_space, h_time, sizes)
    tuples, the atoms sorted by orbit and sizes the orbits' atom counts.
    A far entry gathers each axis' table over (row class, atom class); a
    near entry gathers each axis' node means over the distinct class
    pairs among the near pairs (module doc); each orbit's columns are
    averaged into one.  Per axis, one _node_means call gives the tables
    of all sets and one more their node means.
    """
    n = params.n
    plans, far, near = zip(*(_plan(params, *s) for s in sets))
    x, _ = legendre_rule(AVG_NODES)
    tables = [_node_means(params, k == n - 1, [f[k] for f in far], np.zeros(1)) for k in range(n)]
    means = [_node_means(params, k == n - 1, [f[k] for f in near], x) for k in range(n)]
    # yielded in order and popped, so no set's pairs or matrix stay referenced here
    # while its LP runs
    work = [(*plan, [t[i] for t in tables], [m[i] for m in means]) for i, plan in enumerate(plans)]
    del plans, far, near, tables, means
    while work:
        yield _assemble(*work.pop(0))


def _plan(
    params: KernelParams, cons_sp, cons_t, atom_sp, atom_t, h_space: float, h_time: float, sizes
):
    """One set's row chunks, near pairs and classes, and its far table and node mean pairs per axis.

    A chunk is (first row, end row) of rows of at most BATCH_POINTS
    entries in all, or of one row.
    """
    # collar times may collide with a lattice slice up to rounding; a
    # dt of a few ulps would otherwise produce a spurious huge entry
    snap = 1e-9 * h_time
    row_times, row_ti = np.unique(cons_t, return_inverse=True)
    atom_times, atom_ti = np.unique(atom_t, return_inverse=True)
    classes, far = [], []
    for k in range(params.n):
        rc, rx, rt = _axis_classes(cons_sp[:, k], row_ti, row_times)
        ac, ax, at = _axis_classes(atom_sp[:, k], atom_ti, atom_times)
        i, j = np.divmod(np.arange(len(rx) * len(ax)), len(ax))
        far.append((rx[i], rt[i], ax[j], at[j], h_space, h_time, snap))
        # which class pairs are within NEAR_CELLS cells on this axis, and for the
        # first axis in time too (every class carries its time)
        close = np.abs(rx[:, None] - ax) <= NEAR_CELLS * h_space
        if k == 0:
            close &= np.abs(rt[:, None] - at) <= NEAR_CELLS * h_time
        classes.append((rc, ac, rx, rt, ax, at, close))
    spans, js, is_ = list(chunks([len(atom_t)] * len(cons_t), BATCH_POINTS)), [], []
    for lo, hi in spans:
        mask = True
        for rc, ac, *_, close in classes:
            mask = mask & close[rc[lo:hi]].take(ac, axis=1)
        j, i = np.nonzero(mask)
        js.append(j + lo)
        is_.append(i)
    # in row order, as one nonzero over all rows would give them
    js, is_ = np.concatenate(js), np.concatenate(is_)
    axes, near = [], []
    for rc, ac, rx, rt, ax, at, _ in classes:
        pairs, pair = np.unique(rc[js] * len(ax) + ac[is_], return_inverse=True)
        p, q = np.divmod(pairs, len(ax))
        near.append((rx[p], rt[p], ax[q], at[q], h_space, h_time, snap))
        axes.append((rc, ac, len(ax), pair))
    return (js, is_, axes, spans, sizes), far, near


def _assemble(js, is_, axes, spans, sizes, tables, means) -> tuple[np.ndarray, int]:
    """One set's folded matrix from its per-axis far tables and near node means, chunk by chunk."""
    cells = np.ones((len(js), AVG_NODES))
    for (*_, pair), mean in zip(axes, means):
        cells *= mean[pair]
    near = np.mean(cells, axis=-1)
    del cells
    F = np.empty((len(axes[0][0]), len(sizes)))
    starts = np.cumsum(sizes) - sizes
    for lo, hi in spans:
        p, q = js.searchsorted((lo, hi))
        # the chunk is built over all atoms, then each orbit's columns are summed
        A = np.empty((hi - lo, len(axes[0][1])))
        for k, ((rc, ac, width, _), table) in enumerate(zip(axes, tables)):
            # gather the chunk's rows of the small table, then their columns
            chunk = table.reshape(-1, width)[rc[lo:hi]]
            if k == 0:
                # the indices are in range; with mode "raise" take would buffer out
                chunk.take(ac, axis=1, out=A, mode="clip")
            else:
                A *= chunk.take(ac, axis=1)
        A[js[p:q] - lo, is_[p:q]] = near[p:q]
        np.add.reduceat(A, starts, axis=1, out=F[lo:hi])
    F /= sizes
    return F, len(js)


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
    one chunk of at most max(BATCH_POINTS, atoms) unfolded entries at a
    time, and its peak is at most about MATRIX_COPIES times the two.
    """
    entries = 2.0 * orbits * orbits + max(BATCH_POINTS, atoms)
    check_fits(MATRIX_COPIES * 8.0 * entries, f"capacity matrix for {atoms:.4g} atoms")


class LPResult(NamedTuple):
    x: np.ndarray
    nit: int


def _step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step in (0, 1] that keeps v + step * dv >= 0, for v > 0."""
    return 1.0 / max(1.0, float(np.max(-dv / v)))


def linprog(*, A_ub: np.ndarray, tol: float = 1e-8) -> LPResult:
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
    and dual residuals are all <= tol.  A column with no positive entry
    (an unbounded LP), a failed factorization and no convergence in
    LP_MAX_ITERATIONS iterations raise RuntimeError.
    """
    # every product below goes through scipy's BLAS: numpy loads its own
    # OpenBLAS with its own thread pool, and interleaving calls into the two
    # pools made the fine LP of a bench job about 3x slower on 2 cores
    A = np.array(A_ub, dtype=float, order="F")
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
        if gap <= tol * y.sum() and np.max(np.abs(rp)) <= tol and np.max(np.abs(rd)) <= tol:
            return LPResult(x / scale, it)
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


def capacity_lp(params: KernelParams, lattices, tol: float = 1e-8) -> list[CapacityResult]:
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
        lp_A, rest = F[keep], F[~keep]
        del F
        x, nit = linprog(A_ub=lp_A, tol=tol)
        masses = x[orbit] / sizes[orbit]
        # a mirror image of a built row has its potential under orbit-constant masses,
        # and a folded row times x is its unfolded row times masses; the transpose of
        # a C-ordered part is Fortran-ordered, so scipy's dgemv (the BLAS linprog
        # used) reads it without a copy
        violation = max(
            float(np.max(dgemv(1.0, part.T, x, trans=1))) for part in (lp_A, rest) if len(part)
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

