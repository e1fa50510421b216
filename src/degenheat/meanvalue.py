"""Heat-ball mean-value operators and the Harnack-quotient experiment.

The solid mean of u at xi0 with radius parameter r averages u over the
heat ball against the kernel E = |y|^a |grad_Y Gamma|^2 / Gamma^2,
normalized by phi(r) = 1 / theta(r), theta the heat-ball threshold.
The heat ball and E are read in log space: a section of the ball is
|X0' - Y'|^2 < 4 delta (log Gamma - log theta), and E is computed as
|y|^a |grad_Y log Gamma|^2.  L_a does not change under a shift in time,
so the mean keeps one clock, t0 at 0: the kernel sees the lag delta
below t0, u the time -delta.  The mean is one weighted sum over rows, a
row being one (depth node, y-node) pair and its free-coordinate slice.
Constants, functions affine in the free coordinates, and time-shifted
fundamental solutions are reproduced exactly up to quadrature error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HeatBall, heat_ball_sample, heat_ball_threshold
from .kernel import grad_log_gamma_vec, log_gamma_vec
from .params import KernelParams, SpaceTimePoint
from .quadrature import CALL_WORDS, CHUNK_POINTS, check_fits, chunk_bytes, chunks, gauss_legendre
from .quadrature import graded_breakpoints, legendre_rule, weighted_rule

TOP_BUFFER = 1e-4
# y-points per depth in the slice scan of _y_intervals
SCAN_POINTS = 801
# peak bytes of solid_mean per y-node of its slab quadrature, besides one kernel call:
# tracemalloc read up to 117 a y-node on y = 0 (n = 2, densities 32-96), where a
# slice takes 4 density y-nodes
Y_NODE_BYTES = 120


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
    log_gam = log_gamma_vec(params, xi0.spatial, delta, sp, 0.0)
    return 4.0 * delta * (log_gam - log_theta)


def _section_depth(
    params: KernelParams, xi0: SpaceTimePoint, log_theta: float, depth_ub: float
) -> float:
    """Depth of the heat ball's bottom, to the last double.

    The bottom is bracketed by an occupied and an empty depth, starting
    from [depth_ub * 1e-6, depth_ub].  Each kernel call tests evenly
    spaced trial depths over the y-scan and keeps the deepest occupied
    trial and the next one, until the ends are adjacent doubles; the
    empty end is returned.  A call tests as many trials as fit in
    CHUNK_POINTS points, 31 for 513, and narrows the bracket 30-fold, so
    the ~55 bits down to one ulp take 11-12 calls; it tests at least 3,
    the fewest that narrow it.
    """
    w = math.sqrt(2.0 * params.n * depth_ub) + abs(xi0.x)
    ys = xi0.x + np.linspace(-w, w, 513)
    trials = max(3, CHUNK_POINTS // len(ys))
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

    A scan locates the runs of occupied scan points at every depth, in
    calls over as many depths as fit in CHUNK_POINTS points; each run end
    is then bisected between its last occupied scan point and the empty
    neighbour, all ends of all depths together, in calls of at most
    CHUNK_POINTS ends.
    """
    ys = np.linspace(y_lo, y_hi, SCAN_POINTS)
    runs = []
    for g0, g1 in chunks([SCAN_POINTS] * len(deltas), CHUNK_POINTS):
        inside = _section_radius2(params, xi0, log_theta, deltas[g0:g1, None], ys) > 0.0
        edge = np.diff(inside.astype(np.int8), axis=1, prepend=0, append=0)
        # run k of depth row[k] covers the scan points first[k]..last[k]
        row, first = np.nonzero(edge == 1)
        runs.append((row + g0, first, np.nonzero(edge == -1)[1] - 1))
    row, first, last = (np.concatenate(c) for c in zip(*runs))
    # (inside endpoint, outside endpoint) brackets; a run touching the
    # end of the scan keeps that end
    a = ys[np.concatenate([first, last])]
    b = ys[np.concatenate([np.maximum(first - 1, 0), np.minimum(last + 1, SCAN_POINTS - 1)])]
    depth = deltas[np.concatenate([row, row])]
    for c0 in range(0, len(a), CHUNK_POINTS):
        at = slice(c0, c0 + CHUNK_POINTS)
        for _ in range(45):
            mid = 0.5 * (a[at] + b[at])
            good = _section_radius2(params, xi0, log_theta, depth[at], mid) > 0.0
            a[at] = np.where(good, mid, a[at])
            b[at] = np.where(good, b[at], mid)
    roots = 0.5 * (a + b)
    lo, hi = roots[: len(row)], roots[len(row) :]
    out: list[list[tuple[float, float]]] = [[] for _ in deltas]
    for k in np.flatnonzero(hi > lo):
        out[row[k]].append((float(lo[k]), float(hi[k])))
    return out


def _y_rule(lo: float, hi: float, a: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights absorbing the |y|^{-a} cusp of the y-marginal.

    The integrand passed to the rule is |y|^{2a}|grad log Gamma|^2
    times the slice integral, which is smooth across y = 0.
    """
    if lo < 0.0 < hi:
        n1, w1 = _y_rule(lo, 0.0, a, m)
        n2, w2 = _y_rule(0.0, hi, a, m)
        return np.concatenate([n1, n2]), np.concatenate([w1, w2])
    if 0.0 in (lo, hi):
        # Jacobi rule for the cusp at 0, clustered rule for the
        # square-root edge at the far endpoint
        mid = 0.5 * (lo + hi)
        inner = (lo, mid) if abs(lo) < abs(hi) else (mid, hi)
        outer = (mid, hi) if abs(lo) < abs(hi) else (lo, mid)
        n1, w1 = weighted_rule(inner[0], inner[1], -a, m)
        n2, w2 = _y_rule(outer[0], outer[1], a, m)
        return np.concatenate([n1, n2]), np.concatenate([w1, w2])
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
    nodes are evaluated together: a scan and one bisection pass find the
    slice intervals of every node (_y_intervals), section-radius calls
    cover the y-nodes of every interval, and grad log Gamma calls every
    quadrature point (_slice_sums).  Every kernel call holds at most
    CHUNK_POINTS points, but a slice-sum call takes the rows of whole
    depth nodes, so that u is called once per depth node: a node whose
    rows exceed CHUNK_POINTS points is a call of its own.  The integral
    is one weighted sum over rows, (depth node, y-node) pairs, of their
    slice integrals, so it does not depend on the grouping.
    """
    rules = [gauss_legendre(p0, p1, m) for p0, p1 in panels]
    deltas = np.concatenate([d for d, _ in rules])
    wds = np.concatenate([w for _, w in rules])
    intervals = _y_intervals(params, xi0, log_theta, deltas, y_lo, y_hi)
    # one y-rule per (depth node, interval), in node order
    slices = [
        (node, *_y_rule(lo, hi, params.a, m))
        for node, ivs in enumerate(intervals)
        for lo, hi in ivs
    ]
    if not slices:  # a heat ball has volume: no section is a numerical failure
        raise RuntimeError("the heat ball has no sections")
    node = np.repeat([k for k, _, _ in slices], [len(yn) for _, yn, _ in slices])
    yn = np.concatenate([yn for _, yn, _ in slices])
    yw = np.concatenate([yw for _, _, yw in slices])
    rr = np.empty(len(yn))
    for c0 in range(0, len(yn), CHUNK_POINTS):
        at = slice(c0, c0 + CHUNK_POINTS)
        rr[at] = _section_radius2(params, xi0, log_theta, deltas[node[at]], yn[at])
    keep = rr > 0.0
    node, yn, yw, rad = node[keep], yn[keep], yw[keep], np.sqrt(rr[keep])
    sums = np.empty(len(node))
    runs = list(_runs(node))
    row_points = m if params.n == 2 else 2 * m * m
    for c0, c1 in chunks([(s1 - s0) * row_points for s0, s1 in runs], CHUNK_POINTS):
        at = slice(runs[c0][0], runs[c1 - 1][1])
        sums[at] = _slice_sums(params, u, xi0, deltas[node[at]], yn[at], rad[at], m)
    return float(np.sum(wds[node] * yw * sums))


def _slice_rule(x_prime, yn: np.ndarray, rad: np.ndarray, m: int):
    """Points and weights of the free-coordinate slices centred on x_prime.

    Row k is the slice at weighted coordinate yn[k] with radius rad[k]:
    an interval for one free coordinate (m Gauss points), a disk for two
    (m radii by 2m angles).  Returns points with the coordinate axis
    last and weights that broadcast against them without it.
    """
    gx, gw = legendre_rule(m)
    xp = np.asarray(x_prime, dtype=float)
    if len(xp) == 1:
        pts = np.empty((len(yn), m, 2))
        pts[..., 0] = xp[0] + np.outer(rad, gx)
        sw = rad[:, None] * gw[None, :]
    else:
        ang = 2.0 * math.pi * (np.arange(2 * m) + 0.5) / (2 * m)
        rho = rad[:, None, None] * (gx[None, :, None] + 1.0) / 2.0
        pts = np.empty((len(yn), m, 2 * m, 3))
        pts[..., 0] = xp[0] + rho * np.cos(ang)
        pts[..., 1] = xp[1] + rho * np.sin(ang)
        sw = rho * (rad[:, None, None] / 2.0) * gw[None, :, None] * (2.0 * math.pi / (2 * m))
    pts[..., -1] = yn.reshape((-1,) + (1,) * (pts.ndim - 2))
    return pts, sw


def _slice_sums(params: KernelParams, u, xi0: SpaceTimePoint, lag, yn, rad, m: int) -> np.ndarray:
    """Integral of u |y|^{2a} |grad_Y log Gamma|^2 over each row's slice.

    Row k is the slice at depth lag[k] below t0, weighted coordinate
    yn[k] and radius rad[k]; rows come grouped by depth, and the
    y-rule's weights carry the remaining |y|^{-a} of E.  The kernel sees
    the lags, u the times -lag.
    """
    pts, sw = _slice_rule(xi0.x_prime, yn, rad, m)
    grad = grad_log_gamma_vec(
        params, xi0.spatial, lag.reshape((-1,) + (1,) * (pts.ndim - 2)), pts, 0.0
    )
    wg2 = np.sum(grad * grad, axis=-1) * np.abs(pts[..., -1]) ** (2.0 * params.a)
    uv = np.empty(pts.shape[:-1])
    for s0, s1 in _runs(lag):
        at = slice(s0, s1)
        uv[at] = u(pts[at].reshape(-1, params.n), -lag[s0]).reshape(uv[at].shape)
    return np.sum(uv * wg2 * sw, axis=tuple(range(1, uv.ndim)))


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
    density: int,
) -> float:
    """Mean of u over the heat ball of radius parameter r at xi0.

    u is a callable u(spatial_points, t) vectorized over rows, t taken
    from xi0.t (t = -delta).  The kernel pole sits at the top of the
    ball; the slab above depth r * 1e-4 carries mass of order
    delta log^2 delta, so it is integrated directly on geometrically
    graded panels down to a machine-negligible sliver, not truncated.

    The bulk panels and the pole panels are integrated in one batched
    pass over all their depth nodes (_slab_integral), so the kernel is
    called about a hundred times per mean (67 at density 2, 84 at 6, 125
    at 12) and u once per depth node.  A density whose pass would not fit
    in physical memory raises ValueError before any kernel call: the
    pass is charged its y-nodes and one kernel call.
    """
    if params.n not in (2, 3):
        raise ValueError("section quadrature supports n = 2 and n = 3")
    if density <= 0:
        raise ValueError("density must be positive")
    # 4 density y-nodes per depth node at most, and a slice-sum call over the rows of
    # one depth node at least; as a float, a huge density is inf
    d = float(density)
    row_points = d if params.n == 2 else 2.0 * d * d
    need = Y_NODE_BYTES * 4.0 * (2.0 * max(8.0, d) + 64.0) * d * d
    need += chunk_bytes(4.0 * d * row_points, CALL_WORDS)
    check_fits(need, f"heat-ball mean at density {density}")
    theta = heat_ball_threshold(params, xi0.x, r)
    # the ball's shape depends only on the lag below t0: box it at t0 = 0
    depth_ub, radius = HeatBall(SpaceTimePoint(xi0.x_prime, xi0.x, 0.0), r, params).bounding_box()
    log_theta = math.log(theta)
    depth = _section_depth(params, xi0, log_theta, depth_ub)
    delta0 = r * TOP_BUFFER
    panels = _delta_panels(delta0, depth, max(8, density))
    # pole: 32 slabs halving toward the pole time, two panels each
    for j in range(32):
        panels += _delta_panels(delta0 * 0.5 ** (j + 1), delta0 * 0.5**j, 1)
    y_lo, y_hi = xi0.x - radius, xi0.x + radius
    return _slab_integral(params, u, xi0, log_theta, panels, y_lo, y_hi, density) * theta


@dataclass(frozen=True)
class HarnackReport:
    r: float
    bottom_average: float
    interior_inf: float
    quotient: float


def harnack_quotient(params: KernelParams, r: float, u, density: int) -> HarnackReport:
    """Bottom-slice weighted average of u over the interior infimum.

    u must be nonnegative and parabolic on the lens region of size 2r
    around the origin.  The average runs over {|X|^2 <= 3(n+a)r/4} at
    time -3r/2 with the |x|^a weight on the last coordinate; the
    infimum is sampled over the heat ball of radius 3r/4 at the origin.
    """
    if params.n != 2:
        raise ValueError("harnack experiment supports n = 2")
    if not r > 0.0:
        raise ValueError("radius parameter must be positive")
    # sampled first: an oversized density is refused before any other work
    origin = SpaceTimePoint(x_prime=(0.0,) * (params.n - 1), x=0.0, t=0.0)
    sample = heat_ball_sample(HeatBall(origin, 0.75 * r, params), density)
    rho0 = math.sqrt(3.0 * (params.n + params.a) * r / 4.0)
    t_bot = -1.5 * r
    m = max(8, density)
    yn, yw = weighted_rule(-rho0, rho0, params.a, m)
    half = np.sqrt(np.maximum(rho0 * rho0 - yn * yn, 0.0))
    live = half > 0.0
    pts, sw = _slice_rule((0.0,), yn[live], half[live], m)
    # one call of u for the whole bottom slice
    uv = u(pts.reshape(-1, 2), t_bot).reshape(pts.shape[:-1])
    num = np.sum(yw[live] * np.sum(uv * sw, axis=1))
    den = np.sum(yw[live] * np.sum(sw, axis=1))
    if den <= 0.0:
        raise RuntimeError("empty bottom slice")
    avg = num / den
    vals = _u_by_time(u, sample.spatial, sample.times)
    inf_val = float(np.min(vals))
    if inf_val <= 0.0:
        raise RuntimeError("interior infimum of u is not positive")
    return HarnackReport(
        r=r, bottom_average=float(avg), interior_inf=inf_val, quotient=float(avg / inf_val)
    )
