"""Level-set regions of the kernel: heat balls, shells, boxes.

The heat ball of radius parameter r at xi0 = (X0, t0) is the superlevel
set {zeta : Gamma(xi0; zeta) > theta(r)} with the threshold

    theta(r) = (4 pi r)^{-(n+a)/2} (1 + x0^2/r)^{-a/2},

which is strictly decreasing in r, so balls nest.  Shells are the
closed regions between consecutive level surfaces theta(lambda^k) and
theta(lambda^{k+1}).  Sampling is by a deterministic lattice inside a
bounding box derived from the a = 0 ball and grown until its boundary
is clean.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import gamma_fs_vec
from .params import KernelParams, SpaceTimePoint
from .quadrature import Lattice, box_lattice, tensor_rule


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

    def contains_vec(self, spatial, t) -> np.ndarray:
        gam = gamma_fs_vec(
            self.params, self.center.spatial, self.center.t, spatial, t
        )
        return gam > self.threshold

    def bounding_box(self) -> tuple[float, float]:
        """(time depth below t0, spatial radius) certified to contain the ball.

        Starts from the exact a = 0 box (depth r, radius^2 = 2 n r / e)
        inflated by the (1 + x0^2/r)^{|a|/2} weight correction and a
        safety factor, then grows until a boundary sweep finds no
        members.
        """
        n, a = self.params.n, self.params.a
        inflate = (1.0 + self.center.x ** 2 / self.r) ** (abs(a) / 2.0)
        # the profile factor F contributes at most a power |s|^{|a|/2}
        # relative to the Gaussian; 2.0 covers it at these scales
        safety = 2.0
        depth = self.r * inflate * safety
        radius = math.sqrt(2.0 * n * self.r / math.e) * inflate * safety
        for _ in range(60):
            if not self._boundary_hit(depth, radius):
                return depth, radius
            depth *= 1.3
            radius *= 1.3
        raise RuntimeError("heat ball bounding box failed to stabilize")

    def _boundary_hit(self, depth: float, radius: float, m: int = 9) -> bool:
        c_sp = self.center.spatial
        t0 = self.center.t
        n = self.params.n
        offs = np.linspace(-radius, radius, m)
        pts = tensor_rule([offs] * n + [np.linspace(t0 - depth, t0 - depth * 1e-12, m)])
        on_face = np.zeros(len(pts), dtype=bool)
        for i in range(n):
            on_face |= np.abs(np.abs(pts[:, i]) - radius) < 1e-12
        on_face |= np.abs(pts[:, -1] - (t0 - depth)) < 1e-12
        pts = pts[on_face]
        spatial = pts[:, :n] + c_sp
        return bool(np.any(self.contains_vec(spatial, pts[:, -1])))


def heat_ball_sample(ball: HeatBall, density: int) -> Lattice:
    """The atoms of the ball's box lattice that lie inside the ball.

    The box is the bounding box below the centre, with density cells
    per axis; the returned Lattice keeps its cell sides.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    depth, radius = ball.bounding_box()
    c_sp, t0 = ball.center.spatial, ball.center.t
    box = box_lattice(c_sp - radius, c_sp + radius, t0 - depth, t0, density)
    mask = ball.contains_vec(box.spatial, box.times)
    if not np.any(mask):
        raise RuntimeError("no heat-ball samples found; density too low")
    return box._replace(spatial=box.spatial[mask], times=box.times[mask])


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

    def outer_ball(self) -> HeatBall:
        return HeatBall(self.center, self.outer_radius, self.params)


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
