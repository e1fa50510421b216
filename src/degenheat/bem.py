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
on a graded mesh toward coincidence.

On faces lying on the degenerate plane y = 0 the raw normal derivative
of Gamma does not exist for a != 0; there the kernel is the limit of
|y|^a D_y Gamma as y -> 0 (weighted_normal_limit_vec).  Every other
face takes the normal component of grad Gamma, with |y|^a in the
quadrature weights.  _dl_rows makes this switch for every caller.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .geometry import BoxDomain
from .kernel import gamma_fs, gamma_fs_vec, gamma_grad_y_vec, u_tilde, weighted_normal_limit_vec
from .params import KernelParams, SpaceTimePoint
from .quadrature import gauss_legendre, graded_breakpoints, tensor_rule, weighted_rule

CONTRACTION_WINDOWS = 4.0
# Gauss points per panel and free axis in every cell rule
CELL_NODES = 6


class AmbiguityWarning(UserWarning):
    """Probe point within mesh resolution of a corner or face."""


def _dl_rows(params: KernelParams, obs_sp, dts, src, weights, normal_axis, on_plane) -> np.ndarray:
    """Weighted double-layer kernel dGamma/dnu(Y) |y|^a at source nodes.

    obs_sp (p, n) observation points, dts (k,) time lags, src (s, n)
    nodes with signed quadrature weights (s,); normal_axis and on_plane
    give each node's face, per node or one value for all.  Returns the
    (p, k, s) rows with the weights folded in.  grad Gamma is evaluated
    only at nodes off the plane, the weighted normal limit only on it.
    """
    s = len(src)
    on = np.broadcast_to(on_plane, s)
    off = np.flatnonzero(~on)
    obs = obs_sp[:, None, None, :]
    dt = dts[None, :, None]
    if len(off):
        grad = gamma_grad_y_vec(params, obs, 0.0, src[None, None, off], -dt)
        normal = grad[:, :, np.arange(len(off)), np.broadcast_to(normal_axis, s)[off]]
        del grad
    # allocated after the kernel call, whose temporaries then peak without it;
    # filled in place to stay C-contiguous, so later sums keep their order
    comp = np.empty((len(obs_sp), len(dts), s))
    if len(off):
        comp[:, :, off] = normal
    if np.any(on):
        diff = obs[..., :-1] - src[None, None, on, :-1]
        shape = (len(obs_sp), len(dts), diff.shape[2])
        comp[:, :, on] = weighted_normal_limit_vec(
            params,
            np.broadcast_to(obs[..., -1], shape),
            np.broadcast_to(dt, shape),
            np.sum(diff * diff, axis=-1),
        )
    comp *= weights
    return comp


@dataclass
class BoundaryMesh:
    """Lateral-boundary cells of a box with per-cell quadrature.

    d_space cells per axis per face, n_steps uniform time steps.  The
    top face t = t1 carries no data (it is not part of the parabolic
    boundary).  Cell c spans cell_lo[c] to cell_hi[c], equal on its
    normal axis.  Cells on faces normal to the weighted axis at y = 0
    are flagged (use_limit): their kernel is the weighted normal limit.
    """

    box: BoxDomain
    params: KernelParams
    d_space: int = 8
    n_steps: int = 12
    _blocks: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.box.n != self.params.n:
            raise ValueError("box dimension must match params.n")
        if self.d_space < 1 or self.n_steps < 1:
            raise ValueError("mesh must have at least one cell and step")
        self._build_cells()

    def _build_cells(self) -> None:
        n, d = self.box.n, self.d_space
        # cell indices along the free axes of a face, the first varying slowest
        idx = np.indices((d,) * (n - 1)).reshape(n - 1, -1)
        corners, axes, signs, limits = [], [], [], []
        for axis, side, coord in self.box.faces():
            face = np.full((2, idx.shape[1], n), float(coord))  # low and high cell corners
            for j, i in enumerate([i for i in range(n) if i != axis]):
                edges = np.linspace(self.box.lo[i], self.box.hi[i], d + 1)
                face[:, :, i] = edges[idx[j]], edges[idx[j] + 1]
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

    def _near_cells(self, obs_sp: np.ndarray) -> np.ndarray:
        """Cells whose face region lies within a cell diameter of obs."""
        gap = np.maximum(np.maximum(self.cell_lo - obs_sp, obs_sp - self.cell_hi), 0.0)
        diam2 = np.sum((self.cell_hi - self.cell_lo) ** 2, axis=1)
        return np.flatnonzero(np.sum(gap * gap, axis=1) < diam2)

    def _kernel_rows(self, obs_sp: np.ndarray, dts: np.ndarray) -> np.ndarray:
        """Standard per-cell quadrature rows, shape (p, k, cells, q)."""
        m, q, n = self.src_nodes.shape
        src, wts = self.src_nodes.reshape(m * q, n), self.src_weights.reshape(-1)
        axes, limit = np.repeat(self.normal_axis, q), np.repeat(self.use_limit, q)
        rows = _dl_rows(self.params, obs_sp, dts, src, wts, axes, limit)
        return rows.reshape(obs_sp.shape[0], len(dts), m, q)

    def _delta_rule(self, d_lo: float, d_hi: float, m: int = 8) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature in the time offset; graded when the interval touches 0."""
        if d_lo <= 1e-14 * self.ht:
            b = graded_breakpoints(-d_hi, 0.0, 24)
            ns, ws = zip(*(gauss_legendre(p0, p1, m) for p0, p1 in zip(b[:-1], b[1:])))
            return -np.concatenate(ns), np.concatenate(ws)
        return gauss_legendre(d_lo, d_hi, m)

    def block(self, lag: int) -> np.ndarray:
        """Kernel block for time lag: (obs cells) x (src cells).

        Entry = int over the lag's time-offset window and the source
        cell of the weighted double-layer kernel.
        """
        if lag in self._blocks:
            return self._blocks[lag]
        # collocation at step midpoints: lag-0 sees only the half step
        # before the collocation time
        d_lo = max(lag - 0.5, 0.0) * self.ht
        d_nodes, d_wts = self._delta_rule(d_lo, (lag + 0.5) * self.ht)
        rows = self._kernel_rows(self.centers, d_nodes)
        blockmat = np.einsum("pkmq,k->pm", rows, d_wts)
        self._blocks[lag] = blockmat
        return blockmat


@dataclass(frozen=True)
class BoundaryDensity:
    """Piecewise-constant density: values[k, c] on step k+1, cell c."""

    mesh: BoundaryMesh
    values: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density values must be finite")


def dl_kernel_entry(
    params: KernelParams,
    obs: SpaceTimePoint,
    src_spatial,
    src_t: float,
    normal_axis: int,
    normal_sign: float,
) -> float:
    """Pointwise weighted double-layer kernel dGamma/dnu(Y) |y|^a.

    One entry of _dl_rows: on a face lying on the degeneracy plane
    (normal along the weighted axis, y = 0) the weighted-limit kernel,
    which already contains the |y|^a factor.
    """
    src = np.asarray(src_spatial, dtype=float)
    on_plane = normal_axis == params.n - 1 and src[-1] == 0.0
    weight = normal_sign * (1.0 if on_plane else abs(src[-1]) ** params.a)
    dt = np.array([obs.t - src_t])
    row = _dl_rows(params, obs.spatial[None, :], dt, src[None, :], weight, normal_axis, on_plane)
    return float(row[0, 0, 0])


def double_layer_eval(mesh: BoundaryMesh, phi: BoundaryDensity, xi: SpaceTimePoint) -> float:
    """Evaluate the double-layer potential of phi at an off-boundary point.

    Cells within a cell diameter of the observation point are nearly
    singular and get a locally graded in-face quadrature.
    """
    t = xi.t
    near = mesh._near_cells(xi.spatial)
    near_quads = {idx: mesh._refined_rule(idx, xi.spatial) for idx in near}
    total = 0.0
    for k in range(mesh.n_steps):
        tau0 = mesh.box.t0 + k * mesh.ht
        tau1 = tau0 + mesh.ht
        if tau0 >= t:
            break
        d_lo = max(t - min(tau1, t), 0.0)
        d_hi = t - tau0
        if d_hi <= 0.0:
            continue
        d_nodes, d_wts = mesh._delta_rule(d_lo, d_hi)
        rows = mesh._kernel_rows(xi.spatial[None, :], d_nodes)
        cell_vals = np.einsum("kmq,k->m", rows[0], d_wts)
        for idx, (pts, wts) in near_quads.items():
            axis, limit = mesh.normal_axis[idx], mesh.use_limit[idx]
            r = _dl_rows(mesh.params, xi.spatial[None, :], d_nodes, pts, wts, axis, limit)
            cell_vals[idx] = float(np.einsum("ks,k->", r[0], d_wts))
        total += float(np.dot(cell_vals, phi.values[k]))
    return total


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
    fixed point as the global iteration, far fewer kernel sweeps);
    'picard' iterates globally and reports the contraction ratio in
    the time-discounted sup norm.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (mesh.n_steps, mesh.n_cells):
        raise ValueError("boundary data shape must be (n_steps, n_cells)")
    info: dict = {"method": method, "ratios": []}
    if method == "march":
        phi = np.zeros_like(g)
        B0 = mesh.block(0)
        for i in range(mesh.n_steps):
            acc = np.zeros(mesh.n_cells)
            for k in range(i):
                acc += mesh.block(i - k) @ phi[k]
            c = 2.0 * acc - 2.0 * g[i]
            cur = c.copy()
            for _ in range(200):
                new = 2.0 * (B0 @ cur) + c
                step = np.max(np.abs(new - cur))
                cur = new
                if step < tol:
                    break
            else:
                raise RuntimeError("inner Picard stalled; mesh too coarse in time")
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


def initial_lift(
    params: KernelParams, box: BoxDomain, f0, xi: SpaceTimePoint, m: int = 32
) -> float:
    """v(X,t) = int_Q Gamma(X,t;Y,t0) f0(Y) |y|^a dY (kernel convolution).

    f0 maps an (p, n) array of spatial points to p values.
    """
    dt = xi.t - box.t0
    if dt <= 0.0:
        return 0.0
    rules = [
        weighted_rule(box.lo[i], box.hi[i], params.a if i == box.n - 1 else 0.0, m)
        for i in range(box.n)
    ]
    pts, wts = tensor_rule([r.nodes for r in rules], [r.weights for r in rules])
    # Gamma = product of 1-D kernels; the |y|^a weight is in the rule,
    # so multiply the unweighted kernel factors per axis
    vals = np.ones(len(pts))
    for i in range(box.n - 1):
        d = pts[:, i] - xi.spatial[i]
        vals *= np.exp(-d * d / (4.0 * dt)) / math.sqrt(4.0 * math.pi * dt)
    vals *= u_tilde(params, xi.x, pts[:, -1], dt)
    return float(np.sum(wts * vals * np.asarray(f0(pts), dtype=float)))


@dataclass(frozen=True)
class DirichletSolution:
    """Evaluator u = offset + initial lift + double layer of the density.

    The constant offset is split off the data before the solve:
    constants are exact solutions, so removing one costs nothing and
    makes constant data reproduce to round-off.
    """

    mesh: BoundaryMesh
    density: BoundaryDensity
    f0: object
    offset: float
    info: dict

    def __call__(self, xi: SpaceTimePoint) -> float:
        v = initial_lift(self.mesh.params, self.mesh.box, self.f0, xi)
        return self.offset + v + double_layer_eval(self.mesh, self.density, xi)


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

    g = np.empty((mesh.n_steps, mesh.n_cells))
    for i, t in enumerate(mesh.step_times):
        lifted = np.array(
            [
                initial_lift(params, box, f0, SpaceTimePoint.from_spatial(c, t))
                for c in mesh.centers
            ]
        )
        g[i] = np.asarray(f(mesh.centers, t), dtype=float) - offset - lifted
    density, info = solve_density(mesh, g)
    return DirichletSolution(mesh, density, f0, offset, info)


def u0_identity(
    params: KernelParams,
    box: BoxDomain,
    xi: SpaceTimePoint,
    eps: float | None = None,
    resolution: float = 0.0,
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
            if resolution > 0.0 and 0.0 < d < resolution:
                warnings.warn(
                    f"probe within resolution {resolution} of a face",
                    AmbiguityWarning,
                )
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


def green_function_box(
    params: KernelParams,
    box: BoxDomain,
    xi: SpaceTimePoint,
    zeta: SpaceTimePoint,
) -> float:
    """Green function of the box: Gamma minus the lifted boundary data.

    zeta must lie inside the box strictly after t0 so that its trace on
    the parabolic boundary is continuous.
    """
    if xi.t <= zeta.t:
        return 0.0
    if not box.contains(zeta):
        raise ValueError("pole must lie inside the box")

    def f(pts, t):
        return gamma_fs_vec(params, pts, t, zeta.spatial, zeta.t)

    sol = solve_dirichlet(params, box, f)
    return gamma_fs(params, xi, zeta) - sol(xi)
