"""Quadrature for |y|^a-weighted integrals and singular time integrals.

The weight |y|^a (a > -1) is integrable but not smooth at y = 0, so
panels touching zero use Gauss-Jacobi rules that absorb the weight
exactly; panels away from zero use Gauss-Legendre with the weight folded
into the node weights.  Time integrals with an integrable endpoint
singularity at tau = t use panels whose breakpoints halve toward the
endpoint (graded_breakpoints).  Multi-dimensional rules are tensor
products of 1-D rules (tensor_rule), because the kernel factorizes over
axes; the cell-centred space-time lattices on which sets become atoms
(Lattice, flat_lattice, box_lattice) are tensor products too.
"""
from __future__ import annotations

import os
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import special as sps


@lru_cache(maxsize=256)
def legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes and weights on [-1, 1] (cached; do not mutate)."""
    return np.polynomial.legendre.leggauss(m)


@lru_cache(maxsize=256)
def _jacobi_rule(m: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    # weight (1+x)^a on (-1, 1)
    return sps.roots_jacobi(m, 0.0, a)


def gauss_legendre(lo: float, hi: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes and weights on (lo, hi)."""
    x, w = legendre_rule(m)
    return lo + (hi - lo) * (x + 1.0) / 2.0, w * (hi - lo) / 2.0


def tensor_rule(nodes, weights=None):
    """Tensor product of 1-D rules, the first axis varying slowest.

    Returns the (N, k) points for k node arrays; given the k weight
    arrays too, returns (points, weights) with the product weights.
    """
    # each axis written straight into the points, so they are held once
    k = len(nodes)
    points = np.empty([len(x) for x in nodes] + [k], dtype=np.result_type(*nodes))
    for i, x in enumerate(nodes):
        points[..., i] = np.reshape(x, [-1 if j == i else 1 for j in range(k)])
    points = points.reshape(-1, k)
    if weights is None:
        return points
    prod = np.ones(len(points))
    for wg in np.meshgrid(*weights, indexing="ij"):
        prod = prod * wg.ravel()
    return points, prod


# points per batched kernel call and per chunk of a product, everywhere: a chunk's
# CHUNK_WORDS temporaries of 2^14 doubles (1.5 MiB) stay within a 2 MiB L2 cache.
# On a 2-core Xeon VM the block passes of the bench's dirichlet meshes ran about 40%
# slower at 2^17, and capacity_lp's builds ran as fast at 2^14 as at 2^17
CHUNK_POINTS = 2**14
CHUNK_WORDS = 12
# words a point of a kernel call on slab points or heat-ball tables, inputs included:
# tracemalloc read 16 for gamma_fs_vec, 17 for log_gamma_vec, 25-27 for grad_log_gamma_vec
# (n = 2, 3), which the slab's slice sums call, and 18 for a table call on u_tilde
CALL_WORDS = 32


def chunk_bytes(width: float, words: float = CHUNK_WORDS) -> float:
    """Bytes of one chunk pass over rows of width points (at least one row per chunk).

    words is what a point holds: CHUNK_WORDS in a product, CALL_WORDS in a kernel call.
    """
    return 8.0 * words * max(float(CHUNK_POINTS), width)


def chunks(sizes, budget: int):
    """(start, stop) of consecutive items whose sizes sum to at most budget.

    An item larger than the budget forms a chunk of its own.  One search
    per chunk, so that many small items cost little.
    """
    ends, start = np.cumsum(sizes), 0
    while start < len(ends):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield start, stop
        start = stop


def check_fits(need: float, what: str) -> None:
    """Raise ValueError if need bytes (a float, so an absurd size is inf) exceed physical memory."""
    have = float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    if need > have:
        raise ValueError(
            f"{what} needs about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


class Lattice(NamedTuple):
    """Atoms of a space-time set: the centres of cells of side h_space and time extent h_time.

    spatial is (m, n) and times (m,).  capacity_lp takes a sequence of them.
    """

    spatial: np.ndarray
    times: np.ndarray
    h_space: float
    h_time: float


def cell_centres(lo: float, hi: float, density: int) -> tuple[np.ndarray, float]:
    """The centres of density equal cells on [lo, hi], and the cell side."""
    h = (hi - lo) / density
    return np.linspace(lo + h / 2.0, hi - h / 2.0, density), h


def flat_lattice(lo, hi, density: int) -> Lattice:
    """Cell-centred lattice on a spatial box at time 0.

    A flat set has no time extent; its cells take the parabolic time
    extent h_space^2, with h_space the largest side.
    """
    axes, sides = zip(*(cell_centres(a, b, density) for a, b in zip(lo, hi)))
    pts = tensor_rule(axes)
    h_space = float(max(sides))
    return Lattice(pts, np.zeros(len(pts)), h_space, h_space * h_space)


def box_lattice(lo, hi, t0: float, t1: float, density: int) -> Lattice:
    """Cell-centred lattice on a spatial box times [t0, t1], time varying fastest."""
    axes, sides = zip(*(cell_centres(a, b, density) for a, b in zip(lo, hi)))
    t_axis, h_time = cell_centres(t0, t1, density)
    pts = tensor_rule([*axes, t_axis])
    return Lattice(pts[:, :-1], pts[:, -1], float(max(sides)), float(h_time))


def weighted_rule(lo: float, hi: float, a: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for int_lo^hi |y|^a f(y) dy; splits at 0 if needed.

    The weight is folded into the rule: sum(weights * f(nodes)) approximates
    the weighted integral, exactly for polynomials up to the rule degree.
    """
    if not a > -1.0:
        raise ValueError("weight exponent must satisfy a > -1")
    if not lo < hi:
        raise ValueError("empty interval")
    if lo < 0.0 < hi:
        (x1, w1), (x2, w2) = weighted_rule(lo, 0.0, a, m), weighted_rule(0.0, hi, a, m)
        return np.concatenate([x1, x2]), np.concatenate([w1, w2])
    if hi <= 0.0:
        x, w = weighted_rule(-hi, -lo, a, m)
        return -x[::-1], w[::-1]
    # now 0 <= lo < hi
    if lo == 0.0 and a != 0.0:
        x, w = _jacobi_rule(m, a)
        return hi * (x + 1.0) / 2.0, w * (hi / 2.0) ** (1.0 + a)
    nodes, weights = gauss_legendre(lo, hi, m)
    return nodes, weights * np.abs(nodes) ** a


def integrate_weighted_interval(f, lo: float, hi: float, a: float, tol: float) -> float:
    """Adaptive evaluation of int_lo^hi |y|^a f(y) dy with error <= tol.

    Panels are refined where a coarse/fine rule pair disagrees; panels
    touching y = 0 always keep the Jacobi endpoint treatment.  A panel
    estimate that is not finite raises RuntimeError.
    """
    if not lo < hi:
        raise ValueError("empty interval")
    panels = [(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)]
    total = 0.0
    budget = tol
    stack = [(p0, p1, 0) for (p0, p1) in panels]
    max_depth = 48
    while stack:
        p0, p1, depth = stack.pop()
        rules = weighted_rule(p0, p1, a, 12), weighted_rule(p0, p1, a, 24)
        coarse, fine = (float(np.sum(w * f(x))) for x, w in rules)
        local_err = abs(fine - coarse)
        if not np.isfinite(local_err):
            raise RuntimeError(f"weighted quadrature is not finite on [{p0}, {p1}]")
        local_budget = budget * (p1 - p0) / (hi - lo)
        # panels shrunk to the roundoff scale of the running total cannot
        # improve the result; accept them instead of refining forever
        noise_floor = 1e-14 * (abs(total) + abs(fine))
        if local_err <= max(local_budget, noise_floor) or depth >= max_depth:
            if depth >= max_depth and local_err > tol:
                raise RuntimeError(
                    "weighted quadrature did not converge on "
                    f"[{p0}, {p1}]; achieved estimate {local_err:.3e}"
                )
            total += fine
            continue
        mid = 0.5 * (p0 + p1)
        # left child last so smooth mass accumulates before singular fringes
        stack.append((mid, p1, depth + 1))
        stack.append((p0, mid, depth + 1))
    return total


def graded_breakpoints(start: float, end: float, levels: int) -> np.ndarray:
    """end - (end - start) 2^-j for j = 0..levels: gaps halving toward end.

    start may lie on either side of end.  The last breakpoint stops
    |end - start| 2^-levels short of end.
    """
    if start == end:
        raise ValueError("empty interval")
    return end - (end - start) * 0.5 ** np.arange(levels + 1)
