"""Level-set regions of the kernel: heat balls, shells, boxes.

The heat ball of radius parameter r at xi0 = (X0, t0) is the superlevel
set {zeta : Gamma(xi0; zeta) > theta(r)} with the threshold

    theta(r) = (4 pi r)^{-(n+a)/2} (1 + x0^2/r)^{-a/2},

which is strictly decreasing in r, so balls nest.  Shells are the
closed regions between consecutive level surfaces theta(lambda^k) and
theta(lambda^{k+1}).  Sampling is by a deterministic lattice inside a
bounding box derived from the a = 0 ball and grown until its boundary
is clean.  heat_ball_samples samples concentric balls (the outer balls
of the shells of a Wiener series and of its lambda sweep) in one pass
that takes Gamma on each lattice as a product of separable.table rows,
one per axis; HeatBall.bounding_box and heat_ball_sample are one ball.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .kernel import gamma_fs_vec
from .params import KernelParams, SpaceTimePoint
from .quadrature import CALL_WORDS, CHUNK_POINTS, Lattice, box_lattice, cell_centres, check_fits
from .quadrature import chunks, tensor_rule
from .separable import table


def heat_ball_threshold(params: KernelParams, x0: float, r: float) -> float:
    """theta(r) at a centre of weighted coordinate x0; RuntimeError where it underflows to 0."""
    if not r > 0.0:
        raise ValueError("radius parameter must be positive")
    theta = (4.0 * math.pi * r) ** (-(params.n + params.a) / 2.0) * (
        1.0 + x0 * x0 / r
    ) ** (-params.a / 2.0)
    if theta == 0.0:
        raise RuntimeError(f"heat-ball threshold underflows at r={r:g}, x0={x0:g}")
    return theta


@dataclass(frozen=True)
class HeatBall:
    center: SpaceTimePoint
    r: float
    params: KernelParams

    def __post_init__(self) -> None:
        if not self.r > 0.0:
            raise ValueError("radius parameter must be positive")

    @property
    def threshold(self) -> float:
        return heat_ball_threshold(self.params, self.center.x, self.r)

    def contains_vec(self, spatial, t, threshold) -> np.ndarray:
        """Points where Gamma(centre; point) exceeds threshold.

        threshold is the ball's own (self.threshold), or an array that
        broadcasts against the points, to test them against concentric balls.
        """
        gam = gamma_fs_vec(
            self.params, self.center.spatial, self.center.t, spatial, t
        )
        return gam > threshold

    def bounding_box(self) -> tuple[float, float]:
        """(time depth below t0, spatial radius) certified to contain the ball."""
        depth, radius = _bounding_boxes([self])
        return float(depth[0]), float(radius[0])


def _bounding_boxes(balls: list[HeatBall]) -> tuple[np.ndarray, np.ndarray]:
    """(time depth below t0, spatial radius) of boxes certified to contain the balls.

    The balls share the first one's centre and params.  Each box starts
    from the exact a = 0 box (depth r, radius^2 = 2 n r / e) inflated by
    the (1 + x0^2/r)^{|a|/2} weight correction and a safety factor, then
    grows by 1.3 while a face probe (9 per axis) lies in its ball; each
    round tests the boxes still growing in kernel calls over as many
    whole balls' probes as fit in CHUNK_POINTS, or one ball alone.
    """
    ball = balls[0]
    n, a = ball.params.n, ball.params.a
    c_sp, t0 = ball.center.spatial, ball.center.t
    # the profile factor F contributes at most a power |s|^{|a|/2}
    # relative to the Gaussian; a safety factor of 2.0 covers it at these scales
    inflate = [(1.0 + ball.center.x ** 2 / b.r) ** (abs(a) / 2.0) * 2.0 for b in balls]
    depth = np.array([b.r * f for b, f in zip(balls, inflate)])
    radius = np.array([math.sqrt(2.0 * n * b.r / math.e) * f for b, f in zip(balls, inflate)])
    threshold = np.array([b.threshold for b in balls])
    # the grid points with a spatial index at either end or the time index at the bottom
    grid = tensor_rule([np.arange(9)] * (n + 1))
    face = grid[np.any(grid[:, :n] % 8 == 0, axis=1) | (grid[:, n] == 0)]
    growing = np.arange(len(balls))
    for _ in range(60):
        offs = np.linspace(-radius[growing], radius[growing], 9, axis=-1)
        times = np.linspace(t0 - depth[growing], t0 - depth[growing] * 1e-12, 9, axis=-1)
        probes = offs[:, face[:, :n]] + c_sp, times[:, face[:, n]], threshold[growing, None]
        hit = [
            ball.contains_vec(*(p[g0:g1] for p in probes)).any(axis=1)
            for g0, g1 in chunks([len(face)] * len(growing), CHUNK_POINTS)
        ]
        growing = growing[np.concatenate(hit)]
        if not len(growing):
            return depth, radius
        depth[growing] *= 1.3
        radius[growing] *= 1.3
    raise RuntimeError("heat ball bounding box failed to stabilize")


def heat_ball_samples(balls: list[HeatBall], density: int, tries: int) -> list[Lattice]:
    """The atoms of each ball's box lattice that lie inside the ball.

    The balls share the first one's centre and params.  Each box is the
    ball's bounding box below the centre, with density cells per axis; a
    lattice without a member is tried again at twice the density, up to
    tries densities.  Gamma(centre; .) on a box lattice is at each lag a
    product of one row per axis: a round makes one separable.table call
    per axis over the (cell centre, lag) pairs of as many of the balls
    still empty as fit in CHUNK_POINTS pairs, or one alone, and builds a
    ball's box_lattice only where the product of its rows has a member.
    It is charged those calls (CALL_WORDS a pair) and 8 (2n + 3) bytes a
    lattice point, for the product, the lattice and its members, and
    raises ValueError first if that exceeds physical memory.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    depth, radius = _bounding_boxes(balls)
    ball = balls[0]
    params, n, c_sp, t0 = ball.params, ball.params.n, ball.center.spatial, ball.center.t
    samples: list = [None] * len(balls)
    for attempt in range(tries):
        empty = [i for i, s in enumerate(samples) if s is None]
        if not empty:
            break
        dens = density * 2**attempt
        # floats, so that a huge density overflows to inf and is refused
        pairs, points = float(dens) ** 2, math.prod([float(dens)] * (n + 1))
        calls = CALL_WORDS * min(len(empty) * pairs, max(float(CHUNK_POINTS), pairs))
        check_fits(8.0 * (calls + (2 * n + 3) * points), f"heat-ball lattice at density {dens:.4g}")
        for c0, c1 in chunks([dens * dens] * len(empty), CHUNK_POINTS):
            group = empty[c0:c1]
            # a key per (ball, cell centre): a one-node rule of unit weight at the ball's lags
            lags = [t0 - cell_centres(t0 - depth[i], t0, dens)[0] for i in group]
            rows = []
            for k, c in enumerate(c_sp):
                nodes = np.concatenate([cell_centres(c - r, c + r, dens)[0] for r in radius[group]])
                x, ones = np.full(len(nodes), c), np.ones(len(nodes))
                sums = table(params, k, False, x, nodes, ones, 1, np.repeat(lags, dens, axis=0))
                rows.append(sums.reshape(len(group), dens, dens))
            for i, *axes in zip(group, *rows):
                # Gamma on the ball's lattice, time varying fastest as in box_lattice, a
                # temporary gone before the lattice is built
                inside = reduce(lambda p, q: p[..., None, :] * q, axes).ravel() > balls[i].threshold
                if np.any(inside):
                    box = box_lattice(c_sp - radius[i], c_sp + radius[i], t0 - depth[i], t0, dens)
                    samples[i] = box._replace(spatial=box.spatial[inside], times=box.times[inside])
    if any(s is None for s in samples):
        raise RuntimeError(f"no heat-ball samples found at density {density * 2 ** (tries - 1)}")
    return samples


def heat_ball_sample(ball: HeatBall, density: int) -> Lattice:
    """The atoms of the ball's box lattice at this density that lie inside the ball."""
    return heat_ball_samples([ball], density, 1)[0]


@dataclass(frozen=True)
class Shell:
    """Closed region between the level surfaces at lambda^k and lambda^{k+1}."""

    center: SpaceTimePoint
    lam: float
    k: int
    params: KernelParams

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie in (0, 1)")
        if self.k < 1:
            raise ValueError("shell index must be >= 1")

    @property
    def outer_radius(self) -> float:
        return self.lam ** self.k

    @property
    def inner_radius(self) -> float:
        return self.lam ** (self.k + 1)

    def thresholds(self) -> tuple[float, float]:
        """(lower, upper) Gamma thresholds; lower = outer surface."""
        lo = heat_ball_threshold(self.params, self.center.x, self.outer_radius)
        hi = heat_ball_threshold(self.params, self.center.x, self.inner_radius)
        return lo, hi

    def contains_vec(self, spatial, t) -> np.ndarray:
        gam = gamma_fs_vec(
            self.params, self.center.spatial, self.center.t, spatial, t
        )
        lo, hi = self.thresholds()
        return (gam >= lo) & (gam <= hi)


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned spatial box with time span [t0, t0 + T].

    The last spatial axis is the weighted y-axis.  The parabolic
    boundary is the lateral surface over (t0, t0+T] plus the initial
    closed box at t0.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    t0: float
    t1: float

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal length")
        if not all(a < b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box must be nonempty")
        if not self.t0 < self.t1:
            raise ValueError("time span must be nonempty")

    @property
    def n(self) -> int:
        return len(self.lo)

    def contains(self, zeta: SpaceTimePoint) -> bool:
        """zeta lies in the open box over (t0, t1]."""
        inside = (zeta.spatial > self.lo) & (zeta.spatial < self.hi)
        return self.t0 < zeta.t <= self.t1 and bool(np.all(inside))

    def faces(self) -> list[tuple[int, int, float]]:
        """(axis, side, coordinate) for all 2n lateral faces; side in {0,1}."""
        out = []
        for axis in range(self.n):
            out.append((axis, 0, self.lo[axis]))
            out.append((axis, 1, self.hi[axis]))
        return out
