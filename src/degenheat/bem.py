"""Dirichlet solver on space-time boxes via the double-layer potential.

The double-layer potential with density phi over the lateral boundary
is u(xi) = int_0^t int_{dQ} dGamma/dnu(Y) phi |y|^a dsigma dtau.  Its
interior boundary limit satisfies u = PV[phi] - phi/2, so the Dirichlet
density solves the Volterra fixed point phi = 2 PV[phi] - 2 g, which is
a contraction in a time-discounted sup norm.  Discretization: densities
piecewise constant per (face cell, time step), collocation at cell
centers and step endpoints.  The kernel matrix depends on observation
and source times only through the step lag, so it is assembled as
Toeplitz-in-time blocks; the lag-0 block integrates the time variable
on a graded mesh toward coincidence.  A box whose y-range contains 0
gets y = 0 as an extra cell edge, so no cell straddles the plane.

On faces lying on the degenerate plane y = 0 the raw normal derivative
of Gamma does not exist for a != 0; there the kernel is the limit of
|y|^a D_y Gamma as y -> 0 (weighted_normal_limit_vec).  Every other
face takes the normal component of grad Gamma, with |y|^a in the
quadrature weights: Gamma (x_i - y_i)/(2d) on a face normal to a free
axis, and on one normal to the weighted axis also the profile's chain
term, the only place F' is needed.  _dl_rows makes these switches for
every caller.

Lag-0 near/far split.  A cell pair is near when the observation point
lies within the source cell's diameter of the cell (_near_mask); near
pairs take all GRADED_LEVELS levels of the graded time rule.  A far
pair has |X - Y| >= r at every source node, r the smallest cell
diameter.  For observation points in the closed box and d <= 1, its
integrand (kernel times |w|, summed over the cell's nodes) is at most

    K(d) = 2 c_na (1 + Y^2)^{|a|/2} (1 + R)^2 S d^{-q} e^{-r^2/(4d)},
    q = (n + a)/2 + 1 + |a|,

with Y the largest |y| of the box, R = max(Y, box diagonal) and S the
largest cell sum of |w| max(1, |y|^{-max(a, 0)}) over its nodes (|w|
alone on y = 0).  K takes d^{-(n+a)/2-1} from grad Gamma, the profile
envelopes |F(s)| <= 2 (1 + |s|)^{|a|/2} and |s|^{max(a,0)} |F'(s)| <=
(1 + |s|)^{|a|/2} with |s| <= Y^2/d, and, on y = 0, the weighted normal
limit's (|x|/d)^{1-a} d^{-(n+a)/2}.  K increases for d < r^2/(4q), so
graded nodes at d <= d_c add at most d_c K(d_c).  The far cutoff d_c
is the first graded level end of the lag-0 rule at which d_c K(d_c) is
below FAR_TAIL times the largest near entry, itself a lower bound on
the block's largest entry.  Far pairs drop the levels below d_c, in the
lag-0 block and in the graded step of a point evaluation alike.

Initial lift.  Gamma factorizes over axes, so the lift of f0 at many
points is a contraction of the weighted f0 grid with 1-D kernel
matrices: Gaussians on the free axes, u_tilde on the weighted axis
(LiftGrid, initial_lift).  The double layer at many points is one pass
(double_layer_eval): one standard-rule kernel call per step and distinct
probe time, and one for the refined rules of all near cells.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .geometry import BoxDomain
from .kernel import gamma_fs_vec, gamma_grad_y_vec, u_tilde, weighted_normal_limit_vec
from .params import KernelParams, SpaceTimePoint
from .quadrature import gauss_legendre, graded_breakpoints, tensor_rule, weighted_rule

CONTRACTION_WINDOWS = 4.0
# Gauss points per panel and free axis in every cell rule
CELL_NODES = 6
# Gauss points per time panel, and panels of the graded rule toward d = 0
TIME_NODES = 8
GRADED_LEVELS = 24
# bound on a far pair's dropped lag-0 part, relative to the block's largest entry
FAR_TAIL = 1e-18
# observation x source node x time points per kernel call
CHUNK_POINTS = 1 << 16


def _dl_rows(params: KernelParams, obs_sp, dts, src, weights, normal_axis, on_plane) -> np.ndarray:
    """Weighted double-layer kernel dGamma/dnu(Y) |y|^a at source nodes.

    obs_sp (p, n) observation points seen by every node, or (p, s, n)
    with one per node; dts (k,) time lags, src (s, n) nodes with signed
    quadrature weights (s,); normal_axis and on_plane give each node's
    face, per node or one value for all.  Returns the (p, k, s) rows with
    the weights folded in.  Off the plane, grad Gamma is evaluated only at
    nodes of faces normal to the weighted axis and Gamma at the others;
    the weighted normal limit only on the plane.
    """
    s = len(src)
    on = np.broadcast_to(on_plane, s)
    axis = np.broadcast_to(normal_axis, s)
    # off the plane, a normal along a free axis needs only Gamma (x_i - y_i)/(2d);
    # along the weighted axis the profile's chain term F' x/d joins it
    free = np.flatnonzero(~on & (axis != params.n - 1))
    weighted = np.flatnonzero(~on & (axis == params.n - 1))
    per_node = obs_sp.ndim == 3
    obs = obs_sp[:, None, :, :] if per_node else obs_sp[:, None, None, :]
    dt = dts[None, :, None]
    if len(weighted):
        seen = obs[:, :, weighted] if per_node else obs
        grad_y = gamma_grad_y_vec(params, seen, 0.0, src[None, None, weighted], -dt)[..., -1]
    if len(free):
        seen = obs[:, :, free] if per_node else obs
        diff = seen - src[None, None, free]
        along = np.take_along_axis(diff, axis[free][None, None, :, None], axis=-1)[..., 0]
        half = np.divide(0.5, dt, out=np.zeros_like(dt), where=dt > 0.0)
        grad_free = gamma_fs_vec(params, seen, 0.0, src[None, None, free], -dt) * (along * half)
    # allocated after the kernel calls, whose temporaries then peak without it;
    # filled in place to stay C-contiguous, so later sums keep their order
    comp = np.empty((len(obs_sp), len(dts), s))
    if len(weighted):
        comp[:, :, weighted] = grad_y
    if len(free):
        comp[:, :, free] = grad_free
    if np.any(on):
        seen = obs[:, :, on] if per_node else obs
        diff = seen[..., :-1] - src[None, None, on, :-1]
        shape = (len(obs_sp), len(dts), diff.shape[2])
        comp[:, :, on] = weighted_normal_limit_vec(
            params,
            np.broadcast_to(seen[..., -1], shape),
            np.broadcast_to(dt, shape),
            np.sum(diff * diff, axis=-1),
        )
    comp *= weights
    return comp


def _chunks(total: int, per_item: int) -> list[slice]:
    """Slices of range(total) with at most CHUNK_POINTS // per_item items each."""
    step = max(1, CHUNK_POINTS // max(per_item, 1))
    return [slice(i, i + step) for i in range(0, total, step)]


@dataclass(frozen=True)
class _PairNodes:
    """Quadrature nodes of (observation point, cell) pairs, flattened.

    Node j lies in cell pair owner[j] and is seen from obs[j].
    """

    obs: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    axes: np.ndarray
    on_plane: np.ndarray
    owner: np.ndarray
    n_pairs: int

    def values(self, params: KernelParams, d_nodes, d_wts, keep=slice(None)) -> np.ndarray:
        """Time-integrated kernel sums per pair, over the nodes keep selects."""
        obs, nodes, weights = self.obs[keep], self.nodes[keep], self.weights[keep]
        axes, on, owner = self.axes[keep], self.on_plane[keep], self.owner[keep]
        out = np.zeros(self.n_pairs)
        for sl in _chunks(len(nodes), len(d_nodes)):
            rows = _dl_rows(
                params, obs[None, sl], d_nodes, nodes[sl], weights[sl], axes[sl], on[sl]
            )
            out += np.bincount(owner[sl], weights=d_wts @ rows[0], minlength=self.n_pairs)
        return out


@dataclass
class BoundaryMesh:
    """Lateral-boundary cells of a box with per-cell quadrature.

    d_space cells per axis per face (one more on the weighted axis when
    the box straddles y = 0 and no edge falls on it), n_steps uniform
    time steps.  The top face
    t = t1 carries no data (it is not part of the parabolic boundary).
    Cell c spans cell_lo[c] to cell_hi[c], equal on its normal axis.
    Cells on faces normal to the weighted axis at y = 0 are flagged
    (use_limit): their kernel is the weighted normal limit.  Once the
    lag-0 near pairs are built, lag0_split holds the near/far pair and
    time-node counts, the far cutoff and its tail bound relative to the
    largest near entry.
    """

    box: BoxDomain
    params: KernelParams
    d_space: int = 8
    n_steps: int = 12
    _blocks: dict = field(default_factory=dict, repr=False)
    _near0: tuple | None = field(default=None, repr=False)
    lag0_split: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.box.n != self.params.n:
            raise ValueError("box dimension must match params.n")
        if self.d_space < 1 or self.n_steps < 1:
            raise ValueError("mesh must have at least one cell and step")
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
        n = self.box.n
        corners, axes, signs, limits = [], [], [], []
        for axis, side, coord in self.box.faces():
            free = [i for i in range(n) if i != axis]
            edges = [self._edges(i) for i in free]
            # cell indices along the free axes of a face, the first varying slowest
            idx = np.indices([len(e) - 1 for e in edges]).reshape(n - 1, -1)
            face = np.full((2, idx.shape[1], n), float(coord))  # low and high cell corners
            for j, i in enumerate(free):
                face[:, :, i] = edges[j][idx[j]], edges[j][idx[j] + 1]
            corners.append(face)
            axes += [axis] * idx.shape[1]
            signs += [-1.0 if side == 0 else 1.0] * idx.shape[1]
            limits += [axis == n - 1 and coord == 0.0] * idx.shape[1]
        self.cell_lo, self.cell_hi = np.concatenate(corners, axis=1)
        self.centers = 0.5 * (self.cell_lo + self.cell_hi)
        self.normal_axis = np.array(axes)
        self.normal_sign = np.array(signs)
        self.use_limit = np.array(limits)
        rules = [
            self._cell_rule(c, [[panel] for panel in zip(self.cell_lo[c], self.cell_hi[c])])
            for c in range(len(axes))
        ]
        self.src_nodes = np.array([pts for pts, _ in rules])
        self.src_weights = np.array([w for _, w in rules])
        self.ht = (self.box.t1 - self.box.t0) / self.n_steps
        # midpoint collocation: first-order densities see a second-order
        # consistent right-hand side
        self.step_times = self.box.t0 + self.ht * (np.arange(self.n_steps) + 0.5)

    @property
    def n_cells(self) -> int:
        return len(self.centers)

    def _cell_rule(self, idx: int, panels: list) -> tuple[np.ndarray, np.ndarray]:
        """Tensor quadrature of cell idx from a list of (lo, hi) panels per axis.

        Each panel of a free axis gets a CELL_NODES-point rule, weighted by
        |y|^a on the weighted axis; off the plane, a face normal to that
        axis scales the weights by |coord|^a.  Weights carry the normal's sign.
        """
        n, a, m = self.box.n, self.params.a, CELL_NODES
        axis = self.normal_axis[idx]
        nodes, wts = [], []
        for i in range(n):
            if i == axis:
                continue
            parts = [
                weighted_rule(p0, p1, a, m) if i == n - 1 else gauss_legendre(p0, p1, m)
                for p0, p1 in panels[i]
            ]
            nodes.append(np.concatenate([x for x, _ in parts]))
            wts.append(np.concatenate([w for _, w in parts]))
        pts, weight = tensor_rule(nodes, wts)
        coord = float(self.cell_lo[idx, axis])
        pts = np.insert(pts, axis, coord, axis=1)
        if axis == n - 1 and not self.use_limit[idx]:
            weight *= abs(coord) ** a
        return pts, self.normal_sign[idx] * weight

    def _refined_rule(self, idx: int, obs_sp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell rule on panels graded toward the foot of obs_sp.

        Used for nearly singular evaluation close to the boundary; on each
        free axis the panels halve toward the projection of the
        observation point onto the cell.
        """
        lo, hi = self.cell_lo[idx], self.cell_hi[idx]
        perp = abs(obs_sp[self.normal_axis[idx]] - lo[self.normal_axis[idx]])
        panels = [[] for _ in range(self.box.n)]
        for i in range(self.box.n):
            f = min(max(obs_sp[i], lo[i]), hi[i])
            scale = max(perp, 1e-4 * (hi[i] - lo[i]))
            for edge in (lo[i], hi[i]):
                span = abs(f - edge)
                if span > 0.0:
                    levels = max(1, min(40, int(math.ceil(math.log2(span / scale))) + 2))
                    b = [*graded_breakpoints(edge, f, levels - 1), f]
                    panels[i] += [(min(p, q), max(p, q)) for p, q in zip(b, b[1:]) if p != q]
        return self._cell_rule(idx, panels)

    def _near_mask(self, obs_sp: np.ndarray) -> np.ndarray:
        """(p, cells) mask: the cell lies within its own diameter of obs_sp[i]."""
        gap = np.maximum(
            np.maximum(self.cell_lo - obs_sp[:, None, :], obs_sp[:, None, :] - self.cell_hi), 0.0
        )
        diam2 = np.sum((self.cell_hi - self.cell_lo) ** 2, axis=1)
        return np.sum(gap * gap, axis=2) < diam2

    def _pairs(self, obs_sp: np.ndarray, cells: np.ndarray, rules: list) -> _PairNodes:
        """Flatten one (nodes, weights) rule per (obs_sp[i], cells[i]) pair."""
        n = self.box.n
        sizes = [len(w) for _, w in rules]
        owner = np.repeat(np.arange(len(rules)), sizes)
        return _PairNodes(
            obs=np.repeat(obs_sp, sizes, axis=0).reshape(-1, n),
            nodes=np.concatenate([np.empty((0, n))] + [pts for pts, _ in rules]),
            weights=np.concatenate([np.empty(0)] + [w for _, w in rules]),
            axes=self.normal_axis[cells][owner],
            on_plane=self.use_limit[cells][owner],
            owner=owner,
            n_pairs=len(rules),
        )

    def _cell_values(self, obs_sp: np.ndarray, d_nodes, d_wts) -> np.ndarray:
        """Standard-rule cell integrals over the time rule, shape (p, cells)."""
        m, q, n = self.src_nodes.shape
        src, wts = self.src_nodes.reshape(m * q, n), self.src_weights.reshape(-1)
        axes, limit = np.repeat(self.normal_axis, q), np.repeat(self.use_limit, q)
        out = np.empty((len(obs_sp), m))
        for sl in _chunks(len(obs_sp), len(d_nodes) * m * q):
            rows = _dl_rows(self.params, obs_sp[sl], d_nodes, src, wts, axes, limit)
            out[sl] = np.einsum("pkmq,k->pm", rows.reshape(-1, len(d_nodes), m, q), d_wts)
        return out

    def _delta_rule(self, d_lo: float, d_hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature in the time offset; graded when the interval touches 0.

        The graded rule lists its levels in order: nodes
        [TIME_NODES j, TIME_NODES (j+1)) lie in d_hi [2^-(j+1), 2^-j].
        """
        if d_lo <= 1e-14 * self.ht:
            b = graded_breakpoints(-d_hi, 0.0, GRADED_LEVELS)
            ns, ws = zip(*(gauss_legendre(p0, p1, TIME_NODES) for p0, p1 in zip(b[:-1], b[1:])))
            return -np.concatenate(ns), np.concatenate(ws)
        return gauss_legendre(d_lo, d_hi, TIME_NODES)

    def _far_cutoff(self, d_hi: float, scale: float) -> tuple[float, float]:
        """Far cutoff d_c on the graded rule of d_hi, and its tail bound over scale.

        d_c = d_hi 2^-j for the first level j that passes the far tail
        test of the module doc: d_c K(d_c) <= FAR_TAIL scale, with
        d_c <= min(1, r^2/(4q)).  (0, 0) when no level does.
        """
        n, a = self.box.n, self.params.a
        q = 0.5 * (n + a) + 1.0 + abs(a)
        r2 = float(np.min(np.sum((self.cell_hi - self.cell_lo) ** 2, axis=1)))
        lo, hi = np.array(self.box.lo), np.array(self.box.hi)
        y_max = max(abs(lo[-1]), abs(hi[-1]))
        reach = max(float(np.linalg.norm(hi - lo)), y_max)
        y = np.where(self.use_limit[:, None], 1.0, np.abs(self.src_nodes[..., -1]))
        node = np.where(self.use_limit[:, None], 1.0, np.maximum(1.0, y ** -max(a, 0.0)))
        mass = float(np.max(np.sum(np.abs(self.src_weights) * node, axis=1)))
        log_k = (
            math.log(2.0 * self.params.c_na * mass)
            + 0.5 * abs(a) * math.log1p(y_max * y_max)
            + 2.0 * math.log1p(reach)
        )
        if scale > 0.0 and mass > 0.0:
            for j in range(1, GRADED_LEVELS):
                d_c = d_hi * 0.5 ** j
                log_tail = log_k + (1.0 - q) * math.log(d_c) - r2 / (4.0 * d_c)
                if d_c <= min(1.0, r2 / (4.0 * q)) and log_tail <= math.log(FAR_TAIL * scale):
                    return d_c, math.exp(log_tail) / scale
        return 0.0, 0.0

    def _lag0_near(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Near pairs (obs cells, src cells) and their lag-0 entries on every level.

        Collocation at step midpoints: lag 0 sees only the half step
        before the collocation time.  Also fills lag0_split.
        """
        if self._near0 is None:
            d_nodes, d_wts = self._delta_rule(0.0, 0.5 * self.ht)
            obs, cells = np.nonzero(self._near_mask(self.centers))
            rules = [(self.src_nodes[c], self.src_weights[c]) for c in cells]
            near = self._pairs(self.centers[obs], cells, rules).values(self.params, d_nodes, d_wts)
            d_c, tail = self._far_cutoff(0.5 * self.ht, float(np.max(np.abs(near))))
            self._near0 = (obs, cells, near)
            self.lag0_split = {
                "near_pairs": len(cells),
                "far_pairs": self.n_cells**2 - len(cells),
                "near_time_nodes": len(d_nodes),
                "far_cutoff": d_c,
                "far_tail_bound": tail,
            }
            self.lag0_split["far_time_nodes"] = self._far_nodes(0.5 * self.ht)
        return self._near0

    def _far_nodes(self, d_hi: float) -> int:
        """Leading nodes of the graded rule of d_hi that a far cell keeps.

        Those of the levels that reach above the far cutoff; every level
        ends at or below it from there on.
        """
        self._lag0_near()
        d_c = self.lag0_split["far_cutoff"]
        levels = 0
        while levels < GRADED_LEVELS and d_hi * 0.5**levels > d_c:
            levels += 1
        return TIME_NODES * levels

    def block(self, lag: int) -> np.ndarray:
        """Kernel block for time lag: (obs cells) x (src cells).

        Entry = int over the lag's time-offset window and the source
        cell of the weighted double-layer kernel.  At lag 0, near pairs
        take every graded level and far pairs the levels above the far
        cutoff.
        """
        if lag in self._blocks:
            return self._blocks[lag]
        if lag == 0:
            obs, cells, near = self._lag0_near()
            d_nodes, d_wts = self._delta_rule(0.0, 0.5 * self.ht)
            k = self._far_nodes(0.5 * self.ht)
            blockmat = self._cell_values(self.centers, d_nodes[:k], d_wts[:k])
            blockmat[obs, cells] = near
        else:
            d_nodes, d_wts = self._delta_rule((lag - 0.5) * self.ht, (lag + 0.5) * self.ht)
            blockmat = self._cell_values(self.centers, d_nodes, d_wts)
        self._blocks[lag] = blockmat
        return blockmat


@dataclass(frozen=True)
class BoundaryDensity:
    """Piecewise-constant density: values[k, c] on step k+1, cell c."""

    mesh: BoundaryMesh
    values: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise RuntimeError("density values must be finite")


def double_layer_eval(
    mesh: BoundaryMesh, values: np.ndarray, spatial: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Double-layer potential of the density values at (spatial[i], times[i]).

    Cells within a cell diameter of an observation point are nearly
    singular and get a locally graded in-face quadrature.  Points sharing
    a time share each step's time rule and one standard-rule kernel call;
    the refined rules of their near cells share one more.
    """
    out = np.zeros(len(times))
    box = mesh.box
    inside = np.all((spatial >= box.lo) & (spatial <= box.hi), axis=1)
    obs, cells = np.nonzero(mesh._near_mask(spatial))
    rules = [mesh._refined_rule(c, spatial[i]) for i, c in zip(obs, cells)]
    near = mesh._pairs(spatial[obs], cells, rules)
    for t in np.unique(times):
        group = np.flatnonzero(times == t)
        local = np.full(len(times), -1)
        local[group] = np.arange(len(group))
        pairs = np.flatnonzero(local[obs] >= 0)
        keep = np.flatnonzero(local[obs][near.owner] >= 0)
        for k in range(mesh.n_steps):
            tau0 = box.t0 + k * mesh.ht
            if tau0 >= t:
                break
            d_lo, d_hi = t - min(tau0 + mesh.ht, t), t - tau0
            d_nodes, d_wts = mesh._delta_rule(d_lo, d_hi)
            # far cells drop the graded levels below the lag-0 far cutoff,
            # whose bound holds for observation points in the closed box
            graded = len(d_nodes) > TIME_NODES
            live = mesh._far_nodes(d_hi) if graded and inside[group].all() else len(d_nodes)
            cell_vals = mesh._cell_values(spatial[group], d_nodes[:live], d_wts[:live])
            refined = near.values(mesh.params, d_nodes, d_wts, keep)
            cell_vals[local[obs[pairs]], cells[pairs]] = refined[pairs]
            out[group] += cell_vals @ values[k]
    return out


def _weighted_sup(mesh: BoundaryMesh, values: np.ndarray) -> float:
    """Sup norm discounted in time, exp(-4 (t - t0)/window)."""
    window = (mesh.box.t1 - mesh.box.t0) / CONTRACTION_WINDOWS
    disc = np.exp(-4.0 * (mesh.step_times - mesh.box.t0) / window)
    return float(np.max(disc[:, None] * np.abs(values)))


def _apply_volterra(mesh: BoundaryMesh, values: np.ndarray) -> np.ndarray:
    """W[phi] at all collocation points using the Toeplitz lag blocks."""
    out = np.zeros_like(values)
    for i in range(mesh.n_steps):
        acc = np.zeros(mesh.n_cells)
        for k in range(i + 1):
            acc += mesh.block(i - k) @ values[k]
        out[i] = acc
    return out


def solve_density(
    mesh: BoundaryMesh,
    g: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 400,
    method: str = "march",
) -> tuple[BoundaryDensity, dict]:
    """Solve phi = 2 W[phi] - 2 g at the collocation points.

    g has shape (n_steps, n_cells) and must vanish at the initial time
    by construction of the boundary split.  method 'march' does block
    forward substitution in time with inner Picard per block (same
    fixed point as the global iteration, far fewer kernel sweeps) and
    reports the inner iterations per step; 'picard' iterates globally
    and reports the contraction ratio in the time-discounted sup norm.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (mesh.n_steps, mesh.n_cells):
        raise ValueError("boundary data shape must be (n_steps, n_cells)")
    info: dict = {"method": method, "ratios": []}
    if method == "march":
        phi = np.zeros_like(g)
        info["inner_iterations"] = []
        B0 = mesh.block(0)
        for i in range(mesh.n_steps):
            acc = np.zeros(mesh.n_cells)
            for k in range(i):
                acc += mesh.block(i - k) @ phi[k]
            c = 2.0 * acc - 2.0 * g[i]
            cur = c.copy()
            for it in range(200):
                new = 2.0 * (B0 @ cur) + c
                step = np.max(np.abs(new - cur))
                cur = new
                if step < tol:
                    break
            else:
                raise RuntimeError("inner Picard stalled; mesh too coarse in time")
            info["inner_iterations"].append(it + 1)
            phi[i] = cur
    elif method == "picard":
        phi = -2.0 * g
        prev_step = None
        bad = 0
        for it in range(max_iter):
            new = 2.0 * _apply_volterra(mesh, phi) - 2.0 * g
            step = _weighted_sup(mesh, new - phi)
            if prev_step is not None and prev_step > 0.0:
                ratio = step / prev_step
                info["ratios"].append(ratio)
                bad = bad + 1 if ratio >= 1.0 else 0
                if bad >= 5:
                    raise RuntimeError(
                        "Picard iteration not contracting; mesh too coarse"
                    )
            prev_step = step
            phi = new
            if step < tol:
                break
        else:
            raise RuntimeError("Picard iteration did not converge")
        info["iterations"] = it + 1
    else:
        raise ValueError("method must be 'march' or 'picard'")
    residual = 2.0 * _apply_volterra(mesh, phi) - 2.0 * g - phi
    info["residual"] = float(np.max(np.abs(residual)))
    return BoundaryDensity(mesh, phi), info


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
        rules = [
            weighted_rule(box.lo[i], box.hi[i], params.a if i == box.n - 1 else 0.0, m)
            for i in range(box.n)
        ]
        pts, wts = tensor_rule([r.nodes for r in rules], [r.weights for r in rules])
        values = wts * np.asarray(f0(pts), dtype=float)
        shape = [len(r.nodes) for r in rules]
        return cls(box.t0, tuple(r.nodes for r in rules), values.reshape(shape))


def initial_lift(
    params: KernelParams, grid: LiftGrid, spatial: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """v(X,t) = int_Q Gamma(X,t;Y,t0) f0(Y) |y|^a dY at every (spatial[i], times[i]).

    Gamma is the product of u_tilde on the weighted axis and 1-D heat
    kernels on the free axes, so the grid is contracted one axis at a
    time, the weighted axis first; zero at t <= t0.
    """
    out = np.zeros(len(times))
    live = np.flatnonzero(times > grid.t0)
    if not len(live):
        return out
    x, dt = spatial[live], times[live] - grid.t0
    kern = u_tilde(params, x[:, -1:], grid.nodes[-1][None, :], dt[:, None])
    free_shape = grid.values.shape[:-1]
    acc = (kern @ grid.values.reshape(-1, kern.shape[1]).T).reshape(len(live), *free_shape)
    for i in reversed(range(len(grid.nodes) - 1)):
        d = x[:, i : i + 1] - grid.nodes[i][None, :]
        gauss = np.exp(-d * d / (4.0 * dt[:, None])) / np.sqrt(4.0 * math.pi * dt[:, None])
        acc = np.einsum("p...i,pi->p...", acc, gauss)
    out[live] = acc
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
    density: BoundaryDensity
    offset: float
    info: dict
    lift: LiftGrid

    def evaluate(self, points) -> np.ndarray:
        """u at a sequence of SpaceTimePoints, as an array."""
        points = list(points)
        spatial = np.array([xi.spatial for xi in points]).reshape(len(points), self.mesh.box.n)
        times = np.array([xi.t for xi in points], dtype=float)
        v = initial_lift(self.mesh.params, self.lift, spatial, times)
        w = double_layer_eval(self.mesh, self.density.values, spatial, times)
        return self.offset + v + w

    def __call__(self, xi: SpaceTimePoint) -> float:
        return float(self.evaluate([xi])[0])


def solve_dirichlet(
    params: KernelParams,
    box: BoxDomain,
    f,
    d_space: int = 8,
    n_steps: int = 12,
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
    rule = weighted_rule(lo, hi, params.a, 48)
    vals = u_tilde(params, xi.x, rule.nodes, eps)
    prod *= float(np.sum(rule.weights * vals))
    return -prod

