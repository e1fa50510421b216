"""Heat-ball mean-value operators and the Harnack-quotient experiment.

The solid mean of u at xi0 with radius parameter r averages u over the
heat ball against the kernel E = |y|^a |grad_Y Gamma|^2 / Gamma^2,
normalized by phi(r).  Constants, functions affine in the free
coordinates, and time-shifted fundamental solutions are reproduced
exactly up to quadrature error.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import HeatBall, heat_ball_sample, heat_ball_threshold
from .kernel import gamma_fs_vec, gamma_grad_y_vec
from .params import KernelParams, SpaceTimePoint
from .quadrature import gauss_legendre, graded_breakpoints, legendre_rule, weighted_rule

TOP_BUFFER = 1e-4
# y-points per depth in the slice scan of _y_intervals
SCAN_POINTS = 801
# points per batched kernel call in _slab_integral; bounds its memory,
# since the points of a whole slab grow like density^(n+2)
BATCH_POINTS = 2**17


def phi_weight(params: KernelParams, x0: float, r: float) -> float:
    """Normalizing weight (4 pi r)^{(n+a)/2} (1 + x0^2/r)^{a/2}."""
    if not r > 0.0:
        raise ValueError("radius parameter must be positive")
    n, a = params.n, params.a
    return (4.0 * math.pi * r) ** ((n + a) / 2.0) * (1.0 + x0 * x0 / r) ** (a / 2.0)


def _section_radius2(
    params: KernelParams, xi0: SpaceTimePoint, log_theta: float, delta, ys
) -> np.ndarray:
    """Squared free-coordinate radius of the heat-ball slice at depth delta.

    At source time t0 - delta and weighted coordinate y, membership reads
    |X0' - Y'|^2 < R^2(delta, y); negative values mean an empty slice.
    delta broadcasts against ys, so one call covers many depths.
    """
    ys = np.asarray(ys, dtype=float)
    sp = np.empty(ys.shape + (params.n,))
    sp[..., :-1] = np.asarray(xi0.x_prime, dtype=float)
    sp[..., -1] = ys
    gam = gamma_fs_vec(params, xi0.spatial, xi0.t, sp, xi0.t - np.asarray(delta))
    with np.errstate(divide="ignore"):
        log_gam = np.where(gam > 0.0, np.log(np.maximum(gam, 1e-300)), -np.inf)
    return 4.0 * delta * (log_gam - log_theta)


def _section_depth(
    params: KernelParams, xi0: SpaceTimePoint, log_theta: float, depth_ub: float
) -> float:
    """Depth of the heat ball's bottom, to the last double.

    The bottom is bracketed by an occupied and an empty depth, starting
    from [depth_ub * 1e-6, depth_ub].  Each kernel call tests evenly
    spaced trial depths over the y-scan and keeps the deepest occupied
    trial and the next one, until the ends are adjacent doubles; the
    empty end is returned.  The trial count is the square root of the
    scan's point count, rounded up to a power of two: 32 for 513 points.
    A call then evaluates about len(ys)^1.5 points (16k, not a full
    batch) and still narrows the bracket 31-fold, so the ~55 bits down
    to one ulp take 11-12 calls.
    """
    w = math.sqrt(2.0 * params.n * depth_ub) + abs(xi0.x)
    ys = xi0.x + np.linspace(-w, w, 513)
    trials = 1 << math.isqrt(len(ys)).bit_length()
    lo, hi = depth_ub * 1e-6, depth_ub
    while np.nextafter(lo, hi) < hi:
        trial = np.linspace(lo, hi, trials)
        occupied = np.any(_section_radius2(params, xi0, log_theta, trial[:, None], ys) > 0.0, axis=1)
        if occupied[-1]:
            raise RuntimeError("bounding depth does not enclose the heat ball")
        k = max(np.flatnonzero(occupied), default=0)
        lo, hi = trial[k], trial[k + 1]
    return float(hi)


def _y_intervals(
    params: KernelParams,
    xi0: SpaceTimePoint,
    log_theta: float,
    deltas: np.ndarray,
    y_lo: float,
    y_hi: float,
) -> list[list[tuple[float, float]]]:
    """The y-intervals of the nonempty slice at each depth in deltas.

    One scan call locates the runs of occupied scan points at every
    depth; each run end is then bisected between its last occupied scan
    point and the empty neighbour, all ends of all depths together.
    """
    ys = np.linspace(y_lo, y_hi, SCAN_POINTS)
    inside = _section_radius2(params, xi0, log_theta, deltas[:, None], ys) > 0.0
    edge = np.diff(inside.astype(np.int8), axis=1, prepend=0, append=0)
    # run k of depth row[k] covers the scan points first[k]..last[k]
    row, first = np.nonzero(edge == 1)
    last = np.nonzero(edge == -1)[1] - 1
    # (inside endpoint, outside endpoint) brackets; a run touching the
    # end of the scan keeps that end
    a = ys[np.concatenate([first, last])]
    b = ys[np.concatenate([np.maximum(first - 1, 0), np.minimum(last + 1, SCAN_POINTS - 1)])]
    depth = deltas[np.concatenate([row, row])]
    for _ in range(45):
        mid = 0.5 * (a + b)
        good = _section_radius2(params, xi0, log_theta, depth, mid) > 0.0
        a = np.where(good, mid, a)
        b = np.where(good, b, mid)
    roots = 0.5 * (a + b)
    lo, hi = roots[: len(row)], roots[len(row) :]
    out: list[list[tuple[float, float]]] = [[] for _ in deltas]
    for k in np.flatnonzero(hi > lo):
        out[row[k]].append((float(lo[k]), float(hi[k])))
    return out


def _y_rule(lo: float, hi: float, a: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights absorbing the |y|^{-a} cusp of the y-marginal.

    The integrand passed to the rule is |y|^{2a}|grad Gamma|^2/Gamma^2
    times the slice integral, which is smooth across y = 0.
    """
    if lo < 0.0 < hi:
        n1, w1 = _y_rule(lo, 0.0, a, m)
        n2, w2 = _y_rule(0.0, hi, a, m)
        return np.concatenate([n1, n2]), np.concatenate([w1, w2])
    if abs(lo) < 1e-300 or abs(hi) < 1e-300:
        # Jacobi rule for the cusp at 0, clustered rule for the
        # square-root edge at the far endpoint
        mid = 0.5 * (lo + hi)
        inner = (lo, mid) if abs(lo) < abs(hi) else (mid, hi)
        outer = (mid, hi) if abs(lo) < abs(hi) else (lo, mid)
        rule = weighted_rule(inner[0], inner[1], -a, m)
        n2, w2 = _y_rule(outer[0], outer[1], a, m)
        return np.concatenate([rule.nodes, n2]), np.concatenate([rule.weights, w2])
    x, w = legendre_rule(m)
    # clustered map with vanishing Jacobian at the edges; the slice
    # radius vanishes like a square root there
    s = 0.5 * (3.0 * x - x**3)
    js = 1.5 * (1.0 - x**2)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = mid + half * s
    weights = w * js * half * np.abs(nodes) ** (-a)
    return nodes, weights


def _delta_panels(d_lo: float, d_hi: float, levels: int):
    """Geometric panels on [d_lo, d_hi] clustered toward both endpoints."""
    mid = 0.5 * (d_lo + d_hi)
    left = graded_breakpoints(mid, d_lo, levels - 1)
    right = graded_breakpoints(mid, d_hi, levels - 1)
    bp = [d_lo, *left[:0:-1], mid, *right[1:], d_hi]
    return list(zip(bp[:-1], bp[1:]))


def _runs(labels: np.ndarray):
    """(start, stop) of each run of equal consecutive nonnegative labels."""
    edges = np.flatnonzero(np.diff(labels, prepend=-1, append=-1))
    return zip(edges[:-1], edges[1:])


def _chunks(sizes, budget: int):
    """(start, stop) of consecutive items whose sizes sum to at most budget.

    An item larger than the budget forms a chunk of its own.
    """
    start, total = 0, 0
    for i, size in enumerate(sizes):
        if total + size > budget and i > start:
            yield start, i
            start, total = i, 0
        total += size
    if len(sizes) > start:
        yield start, len(sizes)


def _slab_integral(
    params: KernelParams,
    u,
    xi0: SpaceTimePoint,
    log_theta: float,
    panels: list[tuple[float, float]],
    y_lo: float,
    y_hi: float,
    m: int,
) -> float:
    """Integral of u * E over the heat ball between the depths of panels.

    Each depth panel gets an m-point Gauss-Legendre rule, and all depth
    nodes are evaluated together: one scan call and one call per
    bisection step find the slice intervals of every node
    (_y_intervals), one section-radius call covers the y-nodes of every
    interval, and one Gamma and one grad Gamma call cover every
    quadrature point (_add_slices).  u is called once per depth node, at
    that node's time.  Past BATCH_POINTS points per call, the nodes are
    split into consecutive groups.  Each (node, interval) slice is
    reduced with the same array shapes, and the node sums accumulated in
    the same order, as integrating node by node would, so the result is
    the same to the bit.
    """
    n = params.n
    if n not in (2, 3):
        raise NotImplementedError("section quadrature supports n = 2 and n = 3")
    rules = [gauss_legendre(p0, p1, m) for p0, p1 in panels]
    deltas = np.concatenate([d for d, _ in rules])
    wds = np.concatenate([w for _, w in rules])
    intervals = []
    for g0, g1 in _chunks([SCAN_POINTS] * len(deltas), BATCH_POINTS):
        intervals += _y_intervals(params, xi0, log_theta, deltas[g0:g1], y_lo, y_hi)
    # one y-rule per (depth node, interval), in node order
    slices = [
        (node, *_y_rule(lo, hi, params.a, m))
        for node, ivs in enumerate(intervals)
        for lo, hi in ivs
    ]
    if not slices:
        return 0.0
    sid = np.repeat(np.arange(len(slices)), [len(yn) for _, yn, _ in slices])
    node = np.array([k for k, _, _ in slices])[sid]
    yn = np.concatenate([yn for _, yn, _ in slices])
    yw = np.concatenate([yw for _, _, yw in slices])
    rr = _section_radius2(params, xi0, log_theta, deltas[node], yn)
    keep = rr > 0.0
    sid, node, yn, yw, rad = sid[keep], node[keep], yn[keep], yw[keep], np.sqrt(rr[keep])
    acc = np.zeros(len(deltas))
    runs = list(_runs(node))
    row_points = m if n == 2 else 2 * m * m
    for c0, c1 in _chunks([(s1 - s0) * row_points for s0, s1 in runs], BATCH_POINTS):
        at = slice(runs[c0][0], runs[c1 - 1][1])
        _add_slices(params, u, xi0, deltas, m, sid[at], node[at], yn[at], yw[at], rad[at], acc)
    total = 0.0
    for wd, node_acc in zip(wds, acc):
        total += wd * node_acc
    return total


def _add_slices(
    params: KernelParams,
    u,
    xi0: SpaceTimePoint,
    deltas: np.ndarray,
    m: int,
    sid: np.ndarray,
    node: np.ndarray,
    yn: np.ndarray,
    yw: np.ndarray,
    rad: np.ndarray,
    acc: np.ndarray,
) -> None:
    """Add the integral over each (depth node, interval) slice to acc[node].

    Each row is a y-node yn with weight yw and slice radius rad; rows
    come grouped by slice sid, and slices by depth node.
    """
    n = params.n
    gx, gw = legendre_rule(m)
    xp0 = np.asarray(xi0.x_prime, dtype=float)
    tau = xi0.t - deltas[node]
    if n == 2:
        # slice is an interval in the single free coordinate
        off = np.outer(rad, gx)
        pts = np.empty((len(yn), m, 2))
        pts[..., 0] = xp0[0] + off
        pts[..., 1] = yn[:, None]
        sw = rad[:, None] * gw[None, :]
        tau = tau[:, None]
    else:
        # slice is a disk; tensor radius-angle rule
        ang = 2.0 * math.pi * (np.arange(2 * m) + 0.5) / (2 * m)
        rho = rad[:, None, None] * (gx[None, :, None] + 1.0) / 2.0
        pts = np.empty((len(yn), m, 2 * m, 3))
        pts[..., 0] = xp0[0] + rho * np.cos(ang)
        pts[..., 1] = xp0[1] + rho * np.sin(ang)
        pts[..., 2] = yn[:, None, None]
        sw = (
            rho
            * (rad[:, None, None] / 2.0)
            * gw[None, :, None]
            * (2.0 * math.pi / (2 * m))
        )
        tau = tau[:, None, None]
    gam = gamma_fs_vec(params, xi0.spatial, xi0.t, pts, tau)
    grad = gamma_grad_y_vec(params, xi0.spatial, xi0.t, pts, tau)
    wg2 = np.sum(grad * grad, axis=-1) * np.abs(pts[..., -1]) ** (2.0 * params.a)
    uv = np.empty(pts.shape[:-1])
    for s0, s1 in _runs(node):
        uv[s0:s1] = u(pts[s0:s1].reshape(-1, n), xi0.t - deltas[node[s0]]).reshape(
            uv[s0:s1].shape
        )
    vals = uv * wg2 / gam**2
    axes = tuple(range(1, vals.ndim))
    for s0, s1 in _runs(sid):
        inner = np.sum(vals[s0:s1] * sw[s0:s1], axis=axes)
        acc[node[s0]] += float(np.sum(yw[s0:s1] * inner))


def _u_by_time(u, spatial: np.ndarray, times: np.ndarray) -> np.ndarray:
    """u at each (spatial row, time) pair, one call of u per distinct time."""
    out = np.empty(len(times))
    for t in np.unique(times):
        at = times == t
        out[at] = u(spatial[at], t)
    return out


def solid_mean(
    params: KernelParams,
    u,
    xi0: SpaceTimePoint,
    r: float,
    density: int = 12,
) -> float:
    """Mean of u over the heat ball of radius parameter r at xi0.

    u is a callable u(spatial_points, t) vectorized over rows.  The
    kernel pole sits at the top of the ball; the slab above depth
    r * 1e-4 carries mass of order delta log^2 delta, so it is
    integrated directly on geometrically graded panels down to a
    machine-negligible sliver rather than truncated.

    The bulk panels and the pole panels are integrated in one batched
    pass over all their depth nodes (_slab_integral), so the kernel is
    called a few dozen times per mean and u once per depth node.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    phi = phi_weight(params, xi0.x, r)
    depth_ub, radius = HeatBall(xi0, r, params).bounding_box()
    log_theta = math.log(heat_ball_threshold(params, xi0.x, r))
    depth = _section_depth(params, xi0, log_theta, depth_ub)
    delta0 = r * TOP_BUFFER
    panels = _delta_panels(delta0, depth, max(8, density))
    # pole: 32 slabs halving toward the pole time, two panels each
    for j in range(32):
        panels += _delta_panels(delta0 * 0.5 ** (j + 1), delta0 * 0.5**j, 1)
    y_lo, y_hi = xi0.x - radius, xi0.x + radius
    return _slab_integral(params, u, xi0, log_theta, panels, y_lo, y_hi, density) / phi


@dataclass(frozen=True)
class MonotonicityReport:
    radii: list[float]
    means: list[float]
    nonincreasing: bool
    max_violation: float
    gap_constant: float | None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def mean_derivative_sign(
    params: KernelParams,
    u,
    xi0: SpaceTimePoint,
    radii,
    density: int = 12,
    tol: float = 1e-4,
    mass_in_ball: float | None = None,
) -> MonotonicityReport:
    """Check that r -> solid_mean(u, r) is nonincreasing.

    Valid for u with nonpositive 𝓛-image (potentials of nonnegative
    measures).  When the measure mass inside the largest ball is given,
    the empirical constant of the quantitative mean-value gap between
    consecutive radii is reported.
    """
    radii = sorted(float(r) for r in radii)
    if len(radii) < 2:
        raise ValueError("need at least two radii")
    means = [solid_mean(params, u, xi0, r, density) for r in radii]
    diffs = np.diff(means)
    scale = max(abs(m) for m in means) or 1.0
    max_violation = float(max(0.0, np.max(diffs) / scale))
    gap_constant = None
    if mass_in_ball is not None and mass_in_ball > 0.0:
        r_lo, r_hi = radii[0], radii[-1]
        denom = (
            1.0 / phi_weight(params, xi0.x, r_lo)
            - 1.0 / phi_weight(params, xi0.x, r_hi)
        ) * mass_in_ball
        if denom > 0.0:
            gap_constant = float((means[0] - means[-1]) / denom)
    return MonotonicityReport(
        radii=radii,
        means=[float(m) for m in means],
        nonincreasing=max_violation <= tol,
        max_violation=max_violation,
        gap_constant=gap_constant,
    )


@dataclass(frozen=True)
class HarnackReport:
    r: float
    bottom_average: float
    interior_inf: float
    quotient: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def harnack_quotient(
    params: KernelParams, r: float, u, density: int = 24
) -> HarnackReport:
    """Bottom-slice weighted average of u over the interior infimum.

    u must be nonnegative and parabolic on the lens region of size 2r
    around the origin.  The average runs over {|X|^2 <= 3(n+a)r/4} at
    time -3r/2 with the |x|^a weight on the last coordinate; the
    infimum is sampled over the heat ball of radius 3r/4 at the origin.
    """
    if params.n != 2:
        raise NotImplementedError("harnack experiment supports n = 2")
    if not r > 0.0:
        raise ValueError("radius parameter must be positive")
    rho0 = math.sqrt(3.0 * (params.n + params.a) * r / 4.0)
    t_bot = -1.5 * r
    rule = weighted_rule(-rho0, rho0, params.a, max(8, density))
    gx, gw = legendre_rule(max(8, density))
    half = np.sqrt(np.maximum(rho0 * rho0 - rule.nodes * rule.nodes, 0.0))
    live = half > 0.0
    ys, ws, half = rule.nodes[live], rule.weights[live], half[live]
    pts = np.empty((len(ys), len(gx), 2))
    pts[..., 0] = half[:, None] * gx
    pts[..., 1] = ys[:, None]
    # one call of u for the whole bottom slice
    uv = u(pts.reshape(-1, 2), t_bot).reshape(len(ys), len(gx))
    num = 0.0
    den = 0.0
    for wk, sk, uk in zip(ws, half, uv):
        num += wk * float(np.sum(gw * sk * uk))
        den += wk * 2.0 * sk
    if den <= 0.0:
        raise RuntimeError("empty bottom slice")
    avg = num / den
    origin = SpaceTimePoint(x_prime=(0.0,) * (params.n - 1), x=0.0, t=0.0)
    sample = heat_ball_sample(HeatBall(origin, 0.75 * r, params), density)
    vals = _u_by_time(u, sample.spatial, sample.times)
    inf_val = float(np.min(vals))
    if inf_val <= 0.0 and avg > 0.0:
        raise RuntimeError("interior infimum vanished with positive average")
    return HarnackReport(
        r=r,
        bottom_average=float(avg),
        interior_inf=inf_val,
        quotient=float(avg / inf_val) if inf_val != 0.0 else math.inf,
    )
