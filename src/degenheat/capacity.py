"""Capacity of compact space-time sets via a discretized equilibrium LP.

cap(K) = sup { mu(R^{n+1}) : mu >= 0 supported in K, potential <= 1 }.
Discretization: atoms on a lattice covering K, constraints that the
potential stays <= 1 on the lattice points plus a collar layer just
above the set in time (parabolic potentials peak there).  Entries of
the constraint matrix whose observation point is close to the source
atom are replaced by cell averages of Gamma over the source cell; the
cell average is finite because Gamma is locally integrable, and the
scheme converges under refinement (discrete capacity overestimates,
so results are reported with a refinement pair and a Richardson
estimate).

A near entry is the equal-weight mean of Gamma over the AVG_NODES
Gauss-Legendre nodes per axis of the cell (their positions only, not
the Gauss weights), in time too when the cell has a time extent.
Gamma factorizes into 1-D heat kernels on the free axes and u_tilde on
the weighted axis, so at each time node the mean over the spatial
nodes is the product of the per-axis means: a near entry takes 3
profile values per time node instead of 3^n.

The LP (maximise the total mass subject to A x <= 1, x >= 0, with a
dense A >= 0) is solved by `linprog`, a primal-dual interior-point
method on the normal equations: Mehrotra's predictor-corrector (SIAM
J. Optim. 2, 1992), as in Wright, *Primal-Dual Interior-Point Methods*
(SIAM, 1997).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dgemv, dsyrk
from scipy.linalg.lapack import dpotrf, dpotrs

from .kernel import gamma_fs_vec, u_tilde
from .params import KernelParams, SpaceTimePoint
from .quadrature import integrate_weighted_interval, legendre_rule, tensor_rule

NEAR_CELLS = 2.5
AVG_NODES = 3
# peak bytes of capacity_lp over the size of its dense matrix, bounded from
# above: measured (build and LP) on the fine level of a flat 32 x 32
# lattice, 4.3 with linprog (8.1-8.3 with HiGHS-IPM before it)
MATRIX_COPIES = 8
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

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    @classmethod
    def empty(cls, n: int) -> DiscreteMeasure:
        return cls(np.zeros((0, n)), np.zeros(0), np.zeros(0))


@dataclass(frozen=True)
class CapacityResult:
    cap_estimate: float
    equilibrium: DiscreteMeasure
    max_constraint_violation: float
    refinement_level: int
    # active constraint rows handed to the LP, near (cell-averaged) entries, linprog iterations
    lp_rows: int
    near_pairs: int
    lp_iterations: int


def potential_of_measure(params: KernelParams, mu: DiscreteMeasure, xi) -> float:
    """Sum of mass times Gamma(xi; atom); atoms at or after t contribute 0."""
    obs_sp, obs_t = (xi.spatial, xi.t) if isinstance(xi, SpaceTimePoint) else xi
    return float(potential_of_measure_vec(params, mu, obs_sp, [obs_t])[0])


def potential_of_measure_vec(
    params: KernelParams, mu: DiscreteMeasure, obs_spatial, obs_times
) -> np.ndarray:
    obs_spatial = np.atleast_2d(np.asarray(obs_spatial, dtype=float))
    obs_times = np.asarray(obs_times, dtype=float)
    if len(mu.masses) == 0:
        return np.zeros(len(obs_times))
    gam = gamma_fs_vec(
        params,
        obs_spatial[:, None, :],
        obs_times[:, None],
        mu.spatial[None, :, :],
        mu.times[None, :],
    )
    return gam @ mu.masses


def _cell_means(
    params: KernelParams, obs_sp, obs_t, atom_sp, atom_t, h_space: float, h_time: float, snap: float
) -> np.ndarray:
    """Equal-weight mean of Gamma(obs; .) over the Gauss nodes of each atom's cell.

    Row p pairs obs point p with atom p.  At each time node the mean
    over the spatial nodes is the product of the per-axis means (module
    doc); time nodes with dt < snap contribute 0.
    """
    x, _ = legendre_rule(AVG_NODES)
    off = 0.5 * h_space * x
    off_t = 0.5 * h_time * x if h_time > 0.0 else np.zeros(1)
    dt = obs_t[:, None] - (atom_t[:, None] + off_t[None, :])
    live = dt >= snap
    d = np.where(live, dt, 1.0)[:, :, None]
    mean = np.ones(d.shape[:2])
    for k in range(params.n - 1):
        z = obs_sp[:, None, k] - (atom_sp[:, None, k] + off[None, :])
        mean *= np.mean(np.exp(-z[:, None, :] ** 2 / (4.0 * d)), axis=-1)
    mean /= np.sqrt(4.0 * math.pi * d[:, :, 0]) ** (params.n - 1)
    src_y = atom_sp[:, None, None, -1] + off[None, None, :]
    weighted = u_tilde(params, obs_sp[:, None, None, -1], src_y, np.where(live, dt, 0.0)[:, :, None])
    return np.mean(mean * np.mean(weighted, axis=-1), axis=-1)


def _constraint_matrix(
    params: KernelParams,
    cons_sp: np.ndarray,
    cons_t: np.ndarray,
    atom_sp: np.ndarray,
    atom_t: np.ndarray,
    h_space: float,
    h_time: float,
) -> tuple[np.ndarray, int]:
    """Constraint matrix rows x atoms and its number of near pairs."""
    A = gamma_fs_vec(
        params,
        cons_sp[:, None, :],
        cons_t[:, None],
        atom_sp[None, :, :],
        atom_t[None, :],
    )
    A = np.asarray(A, dtype=float)
    dt_scale = h_time if h_time > 0.0 else h_space ** 2
    # collar times may collide with a lattice slice up to rounding; a
    # dt of a few ulps would otherwise produce a spurious huge entry
    snap = 1e-9 * dt_scale
    dt = cons_t[:, None] - atom_t[None, :]
    A[(dt > 0.0) & (dt < snap)] = 0.0
    near = np.abs(dt) <= NEAR_CELLS * dt_scale
    # one axis at a time, so no (rows, atoms, n) temporary is built
    for k in range(cons_sp.shape[1]):
        near &= np.abs(cons_sp[:, None, k] - atom_sp[None, :, k]) <= NEAR_CELLS * h_space
    js, is_ = np.nonzero(near)
    del dt, near
    if len(js):
        A[js, is_] = _cell_means(
            params, cons_sp[js], cons_t[js], atom_sp[is_], atom_t[is_], h_space, h_time, snap
        )
    return A, len(js)


def check_matrix_fits(atoms: float) -> None:
    """Raise ValueError if capacity_lp's dense work for this many atoms exceeds physical memory.

    The matrix is 2 atoms rows (the set and its collar) by atoms columns
    of float64, and capacity_lp's peak is about MATRIX_COPIES times that.
    The estimate is a float, so an absurd count compares and prints as inf.
    """
    need = MATRIX_COPIES * 16.0 * atoms * atoms
    have = float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    if need > have:
        raise ValueError(
            f"capacity matrix for {atoms:.4g} atoms needs about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


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


def capacity_lp(
    params: KernelParams,
    set_spatial,
    set_times,
    h_space: float,
    h_time: float,
    tol: float = 1e-8,
    refinement_level: int = 0,
) -> CapacityResult:
    """Equilibrium-measure LP: max total mass s.t. potential <= 1.

    set_spatial (m, n) and set_times (m,) are the atom locations; each
    atom represents a cell of spatial side h_space and time extent
    h_time (0 for flat sets).  The constraint set is the atoms
    themselves plus a collar copy shifted one cell up in time.
    """
    atom_sp = np.atleast_2d(np.asarray(set_spatial, dtype=float))
    atom_t = np.asarray(set_times, dtype=float)
    if len(atom_t) == 0:
        raise ValueError("set_points must be nonempty")
    collar_dt = h_time if h_time > 0.0 else h_space ** 2
    cons_sp = np.vstack([atom_sp, atom_sp])
    cons_t = np.concatenate([atom_t, atom_t + collar_dt])
    m = len(atom_t)
    check_matrix_fits(m)
    A, near_pairs = _constraint_matrix(params, cons_sp, cons_t, atom_sp, atom_t, h_space, h_time)
    # the LP sees only the active rows; the others are 0, so they add
    # nothing to the potential and A need not outlive this copy
    A = A[np.any(A > 0.0, axis=1)]
    masses, nit = linprog(A_ub=A, tol=tol)
    # entries are >= 0, so an inactive row's -1 never exceeds an active row's value
    violation = float(np.max(A @ masses - 1.0))
    return CapacityResult(
        cap_estimate=float(np.sum(masses)),
        equilibrium=DiscreteMeasure(atom_sp, atom_t, masses),
        max_constraint_violation=violation,
        refinement_level=refinement_level,
        lp_rows=len(A),
        near_pairs=near_pairs,
        lp_iterations=nit,
    )


def flat_lattice(lo, hi, tau: float, density: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Cell-centered lattice on a spatial box at fixed time tau."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    axes = []
    for a_lo, a_hi in zip(lo, hi):
        h = (a_hi - a_lo) / density
        axes.append(np.linspace(a_lo + h / 2.0, a_hi - h / 2.0, density))
    pts = tensor_rule(axes)
    h_space = float(np.max((hi - lo) / density))
    return pts, np.full(len(pts), tau), h_space


def box_lattice(
    lo, hi, t0: float, t1: float, density: int
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Cell-centered space-time lattice on a box times [t0, t1]."""
    sp, _, h_space = flat_lattice(lo, hi, 0.0, density)
    ht = (t1 - t0) / density
    t_axis = np.linspace(t0 + ht / 2.0, t1 - ht / 2.0, density)
    spatial = np.repeat(sp, density, axis=0)
    times = np.tile(t_axis, len(sp))
    return spatial, times, h_space, ht


def flat_set_capacity(params: KernelParams, lo, hi, tau: float = 0.0) -> float:
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


def weighted_ball_volume(params: KernelParams, rho: float, x0: float, tol: float = 1e-10) -> float:
    """w_a(B(X0, rho)) = integral of |y|^a over the spatial ball.

    Only the weighted coordinate of the center matters.  Reduces to a
    1-D weighted integral of the cross-section volume.
    """
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    nm1 = params.n - 1
    if nm1 == 0:
        omega = 1.0
    else:
        omega = math.pi ** (nm1 / 2.0) / math.gamma(nm1 / 2.0 + 1.0)

    def cross_section(y: float) -> float:
        s = rho * rho - (y - x0) ** 2
        return omega * max(s, 0.0) ** (nm1 / 2.0)

    return integrate_weighted_interval(
        cross_section, x0 - rho, x0 + rho, params.a, tol=tol
    )

