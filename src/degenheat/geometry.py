"""Level-set regions of the kernel: heat balls, shells, cylinders, boxes.

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
from .quadrature import tensor_rule


def heat_ball_threshold(params: KernelParams, x0: float, r: float) -> float:
    if not r > 0.0:
        raise ValueError("radius parameter must be positive")
    return (4.0 * math.pi * r) ** (-(params.n + params.a) / 2.0) * (
        1.0 + x0 * x0 / r
    ) ** (-params.a / 2.0)


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

    def contains(self, zeta: SpaceTimePoint) -> bool:
        if zeta.t >= self.center.t:
            return False
        return bool(self.contains_vec(zeta.spatial, zeta.t))

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


@dataclass(frozen=True)
class HeatBallSample:
    """Deterministic lattice sample of a heat ball with cell volumes."""

    spatial: np.ndarray
    times: np.ndarray
    cell_volume: float
    h_space: float = 0.0
    h_time: float = 0.0

    @property
    def total_volume(self) -> float:
        return self.cell_volume * len(self.times)


def heat_ball_sample(ball: HeatBall, density: int) -> HeatBallSample:
    """Lattice points of the bounding box that lie inside the ball.

    density is the cell count per axis; each point carries the
    space-time cell volume.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    depth, radius = ball.bounding_box()
    n = ball.params.n
    c_sp = ball.center.spatial
    t0 = ball.center.t
    axes = []
    for _ in range(n):
        h = 2.0 * radius / density
        axes.append(np.linspace(-radius + h / 2.0, radius - h / 2.0, density))
    ht = depth / density
    axes.append(np.linspace(t0 - depth + ht / 2.0, t0 - ht / 2.0, density))
    pts = tensor_rule(axes)
    spatial = pts[:, :n] + c_sp
    times = pts[:, -1]
    mask = ball.contains_vec(spatial, times)
    if not np.any(mask):
        raise RuntimeError("no heat-ball samples found; density too low")
    hs = 2.0 * radius / density
    cell_volume = hs ** n * ht
    return HeatBallSample(spatial[mask], times[mask], cell_volume, hs, ht)


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

    def contains(self, zeta: SpaceTimePoint) -> bool:
        if zeta.t >= self.center.t:
            return False
        return bool(self.contains_vec(zeta.spatial, zeta.t))

    def outer_ball(self) -> HeatBall:
        return HeatBall(self.center, self.outer_radius, self.params)


@dataclass(frozen=True)
class Cylinder:
    """Closed cylinder {-c1 r^2 <= t - t0 <= 0, |X - X0| <= c2 r}."""

    center: SpaceTimePoint
    r: float
    c1: float = 1.0
    c2: float = 1.0

    def contains(self, zeta: SpaceTimePoint) -> bool:
        dt = zeta.t - self.center.t
        if dt > 0.0 or dt < -self.c1 * self.r ** 2:
            return False
        dist = float(np.linalg.norm(zeta.spatial - self.center.spatial))
        return dist <= self.c2 * self.r


def lens_region_contains(params: KernelParams, r: float, X, t: float) -> bool:
    """Membership in Q(r) = {-3r/4 < t < 0, |X|^2 < 2(n+a) t log(-t/r)}."""
    if not r > 0.0:
        raise ValueError("r must be positive")
    if not -3.0 * r / 4.0 < t < 0.0:
        return False
    X = np.asarray(X, dtype=float)
    rhs = 2.0 * (params.n + params.a) * t * math.log(-t / r)
    return float(np.sum(X * X)) < rhs


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

    def contains_spatial(self, spatial, tol: float = 0.0) -> np.ndarray:
        spatial = np.atleast_2d(np.asarray(spatial, dtype=float))
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((spatial > lo - tol) & (spatial < hi + tol), axis=1)

    def contains(self, zeta: SpaceTimePoint) -> bool:
        if not self.t0 < zeta.t <= self.t1:
            return False
        return bool(self.contains_spatial(zeta.spatial)[0])

    def classify_spatial(self, spatial, tol: float = 1e-10) -> str:
        """'interior', 'face', 'corner' (edge of >= 2 faces) or 'exterior'."""
        spatial = np.asarray(spatial, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        if np.any(spatial < lo - tol) or np.any(spatial > hi + tol):
            return "exterior"
        on = np.sum(
            (np.abs(spatial - lo) <= tol) | (np.abs(spatial - hi) <= tol)
        )
        if on == 0:
            return "interior"
        return "face" if on == 1 else "corner"

    def faces(self) -> list[tuple[int, int, float]]:
        """(axis, side, coordinate) for all 2n lateral faces; side in {0,1}."""
        out = []
        for axis in range(self.n):
            out.append((axis, 0, self.lo[axis]))
            out.append((axis, 1, self.hi[axis]))
        return out
