"""Dirichlet solver on space-time boxes via the double-layer potential.

The double-layer potential with density phi over the lateral boundary
is u(xi) = int_0^t int_{dQ} dGamma/dnu(Y) phi |y|^a dsigma dtau.  Its
interior boundary limit satisfies u = PV[phi] - phi/2, so the Dirichlet
density solves the Volterra fixed point phi = 2 PV[phi] - 2 g, which is
a contraction in a time-discounted sup norm.  Discretization: densities
piecewise constant per (face cell, time step), collocation at cell
centers and step endpoints.  The kernel matrix depends on observation
and source times only through the step lag, so it is assembled as
Toeplitz-in-time blocks, all lags in one pass (BoundaryMesh.block); the
lag-0 block integrates the time variable on a graded mesh toward
coincidence.  A mesh whose pass would not fit in physical memory is
refused when it is built.  A box whose y-range contains 0
gets y = 0 as an extra cell edge, so no cell straddles the plane.  The
system is block lower triangular in time, so the density is solved step
by step with one LU factorization of I - 2 B0 (solve_density).

A face on the degenerate plane y = 0, where the raw normal derivative
of Gamma does not exist for a != 0, takes the limit of |y|^a D_y Gamma
as y -> 0; every other face the normal component of grad Gamma, with
|y|^a in the quadrature weights.

Every cell rule is a tensor product of 1-D rules, so blocks, point
evaluation and the initial lift are separable integrals (separable):
this module keeps their geometry, the cells, their rules, the near mask
and the refined rules of near cells.  A block pass indexes its tables by
(observation coordinate, cell rule) on each axis.  The lift of f0 at
many points contracts the weighted f0 grid (LiftGrid) with 1-D kernel
matrices gathered from tables over (coordinate, time) classes.  The
double layer at many points is one pass per distinct probe time
(double_layer_eval), with refined rules for the near cells.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.special import erf

from .geometry import BoxDomain
from .kernel import u_tilde
from .params import KernelParams, SpaceTimePoint
from .quadrature import CHUNK_POINTS, check_fits, chunk_bytes, gauss_legendre, graded_breakpoints
from .quadrature import tensor_rule, weighted_rule
from .separable import axis_classes, dense, table

# Gauss points per panel and free axis in every cell rule
CELL_NODES = 6
# Gauss points per time panel, and panels of the graded rule toward d = 0
TIME_NODES = 8
GRADED_LEVELS = 24


@dataclass
class BoundaryMesh:
    """Lateral-boundary cells of a box with per-axis quadrature.

    d_space cells per axis per face (one more on the weighted axis when
    the box straddles y = 0 and no edge falls on it), n_steps uniform
    time steps.  The top face
    t = t1 carries no data (it is not part of the parabolic boundary).
    Cell c spans cell_lo[c] to cell_hi[c], equal on its normal axis.
    axis_rules[i] lists the 1-D rules of axis i: a CELL_NODES rule per
    panel of _edges(i), then the lo and hi face rules (the face
    coordinate, weight -1 and +1, times |coord|^a on a weighted face off
    y = 0).  Cell c integrates with axis_rules[i][cell_rule[c, i]] on
    each axis i.
    """

    box: BoxDomain
    params: KernelParams
    d_space: int
    n_steps: int
    _blocks: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.box.n != self.params.n:
            raise ValueError("box dimension must match params.n")
        if self.d_space < 1 or self.n_steps < 1:
            raise ValueError("mesh must have at least one cell and step")
        # refuse a mesh whose block pass would not fit before any array is
        # built: two copies of every lag's m x m block for m cells, a table row
        # per (coordinate, rule) of each axis at every time node, and one chunk
        # of rows m cells times the time nodes wide (the lift at the collocation
        # points holds less: class tables and a chunk).  Floats, so an absurd
        # size is inf; a box across y = 0 may get one weighted-axis cell fewer
        # than counted
        cells = [float(self.d_space)] * self.box.n
        cells[-1] += self.box.lo[-1] < 0.0 < self.box.hi[-1]
        m = 2.0 * sum(math.prod(cells) / c for c in cells)
        t_nodes = TIME_NODES * (GRADED_LEVELS + self.n_steps - 1.0)
        tables = t_nodes * sum((c + 2.0) ** 2 for c in cells)
        need = 8.0 * (2.0 * self.n_steps * m * m + tables) + chunk_bytes(m * t_nodes)
        check_fits(need, f"BEM mesh of {m:.4g} cells and {self.n_steps} steps")
        self._build_cells()

    def _edges(self, axis: int) -> np.ndarray:
        """Cell edges along an axis; y = 0 is an edge when the box straddles it."""
        lo, hi = self.box.lo[axis], self.box.hi[axis]
        edges = np.linspace(lo, hi, self.d_space + 1)
        if axis == self.box.n - 1 and lo < 0.0 < hi:
            k = int(np.argmin(np.abs(edges)))
            if abs(edges[k]) <= 1e-9 * (hi - lo):
                edges[k] = 0.0
            else:
                edges = np.sort(np.append(edges, 0.0))
        return edges

    def _build_cells(self) -> None:
        n, a = self.box.n, self.params.a
        edges = [self._edges(i) for i in range(n)]
        self.axis_rules = [
            [self._axis_rule(i, [p]) for p in zip(e, e[1:])] for i, e in enumerate(edges)
        ]
        for i, rules in enumerate(self.axis_rules):
            for sign, coord in ((-1.0, self.box.lo[i]), (1.0, self.box.hi[i])):
                weight = sign * abs(coord) ** a if i == n - 1 and coord != 0.0 else sign
                rules.append((np.array([float(coord)]), np.array([weight])))
        corners, axes, rules = [], [], []
        for axis, side, coord in self.box.faces():
            free = [i for i in range(n) if i != axis]
            # cell indices along the free axes of a face, the first varying slowest
            idx = np.indices([len(edges[i]) - 1 for i in free]).reshape(n - 1, -1)
            face = np.full((2, idx.shape[1], n), float(coord))  # low and high cell corners
            rule = np.full((idx.shape[1], n), len(edges[axis]) - 1 + side)
            for j, i in enumerate(free):
                face[:, :, i] = edges[i][idx[j]], edges[i][idx[j] + 1]
                rule[:, i] = idx[j]
            corners.append(face)
            rules.append(rule)
            axes += [axis] * idx.shape[1]
        self.cell_lo, self.cell_hi = np.concatenate(corners, axis=1)
        self.centers = 0.5 * (self.cell_lo + self.cell_hi)
        self.normal_axis = np.array(axes)
        self.cell_rule = np.concatenate(rules)
        self.ht = (self.box.t1 - self.box.t0) / self.n_steps
        # midpoint collocation: first-order densities see a second-order
        # consistent right-hand side
        self.step_times = self.box.t0 + self.ht * (np.arange(self.n_steps) + 0.5)

    @property
    def n_cells(self) -> int:
        return len(self.centers)

    def _axis_rule(self, axis: int, panels: list) -> tuple[np.ndarray, np.ndarray]:
        """1-D rule of an axis: CELL_NODES points per (lo, hi) panel, |y|^a on the weighted axis."""
        parts = [
            weighted_rule(p0, p1, self.params.a, CELL_NODES)
            if axis == self.box.n - 1
            else gauss_legendre(p0, p1, CELL_NODES)
            for p0, p1 in panels
        ]
        return np.concatenate([x for x, _ in parts]), np.concatenate([w for _, w in parts])

    def _refined_rule(self, idx: int, obs_sp: np.ndarray) -> list:
        """Per-axis rules of cell idx on panels graded toward the foot of obs_sp.

        Used for nearly singular evaluation close to the boundary; on each
        free axis the panels halve toward the projection of the
        observation point onto the cell.  The normal axis keeps its face rule.
        """
        lo, hi = self.cell_lo[idx], self.cell_hi[idx]
        normal = self.normal_axis[idx]
        perp = abs(obs_sp[normal] - lo[normal])
        rules = []
        for i in range(self.box.n):
            if i == normal:
                rules.append(self.axis_rules[i][self.cell_rule[idx, i]])
                continue
            f = min(max(obs_sp[i], lo[i]), hi[i])
            scale = max(perp, 1e-4 * (hi[i] - lo[i]))
            panels = []
            for edge in (lo[i], hi[i]):
                span = abs(f - edge)
                if span > 0.0:
                    levels = max(1, min(40, int(math.ceil(math.log2(span / scale))) + 2))
                    b = [*graded_breakpoints(edge, f, levels - 1), f]
                    panels += [(min(p, q), max(p, q)) for p, q in zip(b, b[1:]) if p != q]
            rules.append(self._axis_rule(i, panels))
        return rules

    def _near_mask(self, obs_sp: np.ndarray) -> np.ndarray:
        """(p, cells) mask: the cell lies within its own diameter of obs_sp[i]."""
        gap = np.maximum(
            np.maximum(self.cell_lo - obs_sp[:, None, :], obs_sp[:, None, :] - self.cell_hi), 0.0
        )
        diam2 = np.sum((self.cell_hi - self.cell_lo) ** 2, axis=1)
        return np.sum(gap * gap, axis=2) < diam2

    def _tables(self, points, d_nodes, near) -> tuple:
        """Per axis: the points' coordinate classes, a dense table and a near table.

        The dense table holds the sums (separable.table) of every distinct
        coordinate of points over every rule of the axis, (coordinates,
        rules, time nodes), the two face rules last.  Near key j sums the
        point of near[j] = (point, cell, rules) over its rule on the axis,
        a (keys, time nodes) table.  A rule on the normal axis of its
        cell's face takes the normal factor.
        """
        obs, tables, near_tables = [], [], []
        for i, rules in enumerate(self.axis_rules):
            coords, at = np.unique(points[:, i], return_inverse=True)
            keys = [(x, r, j >= len(rules) - 2) for x in coords for j, r in enumerate(rules)]
            keys += [(p[i], r[i], self.normal_axis[c] == i) for p, c, r in near]
            sums = np.empty((len(keys), len(d_nodes)))
            for kind in (False, True):
                sel = [j for j, key in enumerate(keys) if key[2] == kind]
                x, chosen, _ = zip(*(keys[j] for j in sel))
                nodes, weights = (np.concatenate(v) for v in zip(*chosen))
                counts = [len(r[0]) for r in chosen]
                sums[sel] = table(self.params, i, kind, x, nodes, weights, counts, d_nodes)
            obs.append(at)
            tables.append(sums[: len(coords) * len(rules)].reshape(len(coords), len(rules), -1))
            near_tables.append(sums[len(coords) * len(rules) :])
        return obs, tables, near_tables

    def _delta_rule(self, d_lo: float, d_hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature in the time offset; graded when the interval touches 0."""
        if d_lo <= 1e-14 * self.ht:
            b = graded_breakpoints(-d_hi, 0.0, GRADED_LEVELS)
            ns, ws = zip(*(gauss_legendre(p0, p1, TIME_NODES) for p0, p1 in zip(b[:-1], b[1:])))
            return -np.concatenate(ns), np.concatenate(ws)
        return gauss_legendre(d_lo, d_hi, TIME_NODES)

    def block(self, lag: int) -> np.ndarray:
        """Kernel block for time lag: (obs cells) x (src cells).

        Entry = int over the lag's time-offset window and the source
        cell of the weighted double-layer kernel.  Collocation at step
        midpoints: lag 0 sees only the half step before the collocation
        time, on the graded rule, and lag k >= 1 the offsets from
        (k - 1/2) ht to (k + 1/2) ht.  The first call builds every lag's
        block in one pass, the lags' time rules back to back with one
        weight column per lag (_time_rule); later calls read _blocks.
        """
        if lag in self._blocks:
            return self._blocks[lag]
        if not 0 <= lag < self.n_steps:
            raise ValueError(f"lag must lie in 0..{self.n_steps - 1}, got {lag}")
        lags = range(self.n_steps)
        parts = [self._delta_rule(max(k - 0.5, 0.0) * self.ht, (k + 0.5) * self.ht) for k in lags]
        d_nodes, d_wts = _time_rule(parts)
        obs, tables, _ = self._tables(self.centers, d_nodes, [])
        vals = dense(tables, obs, self.cell_rule.T, d_wts)
        self._blocks.update(zip(lags, np.ascontiguousarray(np.moveaxis(vals, -1, 0))))
        return self._blocks[lag]


def _time_rule(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of 1-D time rules back to back, and their (nodes, rules) weight matrix.

    Column r holds rule r's weights at its own nodes and zeros elsewhere.
    """
    d_nodes = np.concatenate([d for d, _ in parts])
    counts = [len(d) for d, _ in parts]
    d_wts = np.zeros((len(d_nodes), len(parts)))
    d_wts[np.arange(len(d_nodes)), np.repeat(np.arange(len(parts)), counts)] = np.concatenate(
        [w for _, w in parts]
    )
    return d_nodes, d_wts


def double_layer_eval(
    mesh: BoundaryMesh, values: np.ndarray, spatial: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Double-layer potential of the density values at (spatial[i], times[i]).

    Cells within a cell diameter of an observation point are nearly
    singular and get a locally graded in-face quadrature.  Points sharing
    a time share one time rule (every step's nodes, one weight column
    per step) and one pass over their standard and refined cell rules.
    """
    out = np.zeros(len(times))
    obs, cells = np.nonzero(mesh._near_mask(spatial))
    near = [(spatial[i], c, mesh._refined_rule(c, spatial[i])) for i, c in zip(obs, cells)]
    for t in np.unique(times):
        taus = [tau for tau in mesh.box.t0 + mesh.ht * np.arange(mesh.n_steps) if tau < t]
        if not taus:
            continue
        parts = [mesh._delta_rule(t - min(tau + mesh.ht, t), t - tau) for tau in taus]
        d_nodes, d_wts = _time_rule(parts)
        at_t = np.flatnonzero(times == t)
        # passes of at most n_cells points, as many as a block has rows, bound the tables
        for group in np.array_split(at_t, -(-len(at_t) // mesh.n_cells)):
            pairs = np.flatnonzero(np.isin(obs, group))
            classes, tables, near_tables = mesh._tables(
                spatial[group], d_nodes, [near[j] for j in pairs]
            )
            grid = dense(tables, classes, mesh.cell_rule.T, d_wts)
            grid[group.searchsorted(obs[pairs]), cells[pairs]] = math.prod(near_tables) @ d_wts
            out[group] = np.einsum("pcs,sc->p", grid, values[: len(taus)])
    return out


def solve_density(mesh: BoundaryMesh, g: np.ndarray) -> tuple[np.ndarray, dict]:
    """Solve phi = 2 W[phi] - 2 g at the collocation points.

    g has shape (n_steps, n_cells) and must vanish at the initial time
    by construction of the boundary split.  W is block lower triangular
    and Toeplitz in the step lag, so step i solves (I - 2 B0) phi_i =
    2 sum_{k<i} B_{i-k} phi_k - 2 g_i with one LU factorization of
    I - 2 B0 for all steps.  Returns the piecewise-constant density,
    phi[k, c] on step k + 1 and cell c, and the max residual of the
    discrete equation; a non-finite density raises RuntimeError.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (mesh.n_steps, mesh.n_cells):
        raise ValueError("boundary data shape must be (n_steps, n_cells)")
    B0 = mesh.block(0)
    lu = lu_factor(np.eye(mesh.n_cells) - 2.0 * B0, check_finite=False)
    phi = np.zeros_like(g)
    residual = 0.0
    for i in range(mesh.n_steps):
        acc = np.zeros(mesh.n_cells)
        for k in range(i):
            acc += mesh.block(i - k) @ phi[k]
        rhs = 2.0 * acc - 2.0 * g[i]
        phi[i] = lu_solve(lu, rhs, check_finite=False)
        residual = max(residual, np.max(np.abs(rhs + 2.0 * (B0 @ phi[i]) - phi[i])))
    if not np.all(np.isfinite(phi)):
        raise RuntimeError("density values must be finite")
    return phi, {"residual": float(residual)}


@dataclass(frozen=True)
class LiftGrid:
    """Tensor rule of the box at t0 with the weighted f0 values on it.

    values[i_1, ..., i_n] = w f0 at the node (nodes[0][i_1], ...), with w
    the product weight; the weighted axis's rule carries |y|^a.
    """

    t0: float
    nodes: tuple
    values: np.ndarray

    @classmethod
    def build(cls, params: KernelParams, box: BoxDomain, f0, m: int = 32) -> "LiftGrid":
        """f0 maps an (p, n) array of spatial points to p values."""
        nodes, weights = zip(*(
            weighted_rule(box.lo[i], box.hi[i], params.a if i == box.n - 1 else 0.0, m)
            for i in range(box.n)
        ))
        pts, wts = tensor_rule(nodes, weights)
        values = wts * np.asarray(f0(pts), dtype=float)
        return cls(box.t0, nodes, values.reshape([len(x) for x in nodes]))


def initial_lift(
    params: KernelParams, grid: LiftGrid, spatial: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """v(X,t) = int_Q Gamma(X,t;Y,t0) f0(Y) |y|^a dY at every (spatial[i], times[i]).

    Gamma is the product of u_tilde on the weighted axis and 1-D heat
    kernels on the free axes, so the grid is contracted one axis at a
    time, the weighted axis first; zero at t <= t0.  Each axis' kernel
    rows come from one table over the points' (coordinate, lag) classes,
    and the points are contracted in chunks.
    """
    out = np.zeros(len(times))
    live = np.flatnonzero(times > grid.t0)
    if not len(live):
        return out
    lags, t_index = np.unique(times[live] - grid.t0, return_inverse=True)
    kernels = []
    for i, nodes in enumerate(grid.nodes):
        # the classes' kernel rows: a one-node rule of unit weight per grid node
        cls, x, lag = axis_classes(spatial[live, i], t_index, lags)
        ones = np.ones(len(x) * len(nodes))
        rows = table(
            params, i, False, np.repeat(x, len(nodes)), np.tile(nodes, len(x)), ones, 1,
            np.repeat(lag, len(nodes))[:, None],
        )
        kernels.append((cls, rows.reshape(len(x), len(nodes))))
    flat = grid.values.reshape(-1, len(grid.nodes[-1]))
    # chunks of points whose partial contractions hold at most CHUNK_POINTS values
    step, (weighted, kern) = max(1, CHUNK_POINTS // len(flat)), kernels[-1]
    for p0 in range(0, len(live), step):
        p = slice(p0, p0 + step)
        acc = (kern[weighted[p]] @ flat.T).reshape(-1, *grid.values.shape[:-1])
        for cls, gauss in reversed(kernels[:-1]):
            acc = np.einsum("p...i,pi->p...", acc, gauss[cls[p]])
        out[live[p]] = acc
    return out


@dataclass(frozen=True)
class DirichletSolution:
    """Evaluator u = offset + initial lift + double layer of the density.

    The constant offset is split off the data before the solve:
    constants are exact solutions, so removing one costs nothing and
    makes constant data reproduce to round-off.  lift holds the weighted
    f0 grid, built once per solution.
    """

    mesh: BoundaryMesh
    density: np.ndarray
    offset: float
    info: dict
    lift: LiftGrid

    def evaluate(self, points) -> np.ndarray:
        """u at a sequence of SpaceTimePoints, as an array."""
        points = list(points)
        spatial = np.array([xi.spatial for xi in points]).reshape(len(points), self.mesh.box.n)
        times = np.array([xi.t for xi in points], dtype=float)
        v = initial_lift(self.mesh.params, self.lift, spatial, times)
        w = double_layer_eval(self.mesh, self.density, spatial, times)
        return self.offset + v + w

    def __call__(self, xi: SpaceTimePoint) -> float:
        return float(self.evaluate([xi])[0])


def solve_dirichlet(
    params: KernelParams,
    box: BoxDomain,
    f,
    d_space: int,
    n_steps: int,
) -> DirichletSolution:
    """Dirichlet problem with data f on the parabolic boundary.

    f maps ((p, n) spatial array, time) to p values.  The initial part
    is lifted by the kernel convolution; the lateral remainder g (which
    vanishes at t0) is solved by the density equation.
    """
    mesh = BoundaryMesh(box, params, d_space=d_space, n_steps=n_steps)
    offset = float(np.mean(np.asarray(f(mesh.centers, box.t0), dtype=float)))

    def f0(pts):
        return np.asarray(f(pts, box.t0), dtype=float) - offset

    lift = LiftGrid.build(params, box, f0)
    spatial = np.tile(mesh.centers, (mesh.n_steps, 1))
    times = np.repeat(mesh.step_times, mesh.n_cells)
    lifted = initial_lift(params, lift, spatial, times).reshape(mesh.n_steps, mesh.n_cells)
    g = np.array([np.asarray(f(mesh.centers, t), dtype=float) for t in mesh.step_times])
    g = g - offset - lifted
    density, info = solve_density(mesh, g)
    return DirichletSolution(mesh, density, offset, info, lift)


def u0_identity(
    params: KernelParams,
    box: BoxDomain,
    xi: SpaceTimePoint,
    eps: float | None = None,
) -> float:
    """Constant-density double-layer value via the volume identity.

    u0(xi) = -lim_{e->0} int_Q Gamma(X,t;Y,t-e)|y|^a dY, which factors
    per axis: closed-form error functions on the free axes and a 1-D
    weighted quadrature on the weighted axis.  Returns -1 inside,
    -1/2 on faces, -1/4 at corners (including initial-time junctions),
    0 outside.
    """
    if xi.t < box.t0 or xi.t > box.t1:
        return 0.0
    time_factor = 0.5 if xi.t == box.t0 else 1.0
    scale = max(h - l for l, h in zip(box.lo, box.hi))
    dists = []
    for i in range(box.n):
        for c in (box.lo[i], box.hi[i]):
            d = abs(xi.spatial[i] - c)
            if d > 0.0:
                dists.append(d)
    dmin = min(dists) if dists else scale
    if eps is None:
        eps = min((dmin / 13.0) ** 2, (1e-3 * scale) ** 2)
    prod = time_factor
    for i in range(box.n - 1):
        x = xi.spatial[i]
        s = 2.0 * math.sqrt(eps)
        prod *= 0.5 * (erf((box.hi[i] - x) / s) - erf((box.lo[i] - x) / s))
    # weighted axis: restrict to the kernel's support window
    w = 9.0 * math.sqrt(2.0 * eps)
    lo = max(box.lo[-1], xi.x - w)
    hi = min(box.hi[-1], xi.x + w)
    if lo >= hi:
        return 0.0
    nodes, weights = weighted_rule(lo, hi, params.a, 48)
    prod *= float(np.sum(weights * u_tilde(params, xi.x, nodes, eps)))
    return -prod

