"""Shared parameter and point types for the weighted heat operator.

The operator is L_a u = D_t(|y|^a u) - div(|y|^a grad u) on R^n x R,
with the weight acting on the last spatial coordinate y and a in (-1, 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class KernelParams:
    """Dimension and weight exponent, with derived constants.

    nu = (a - 1)/2 is the Bessel order of the kernel profile and
    c_na = 2^(-1-a) (4 pi)^(-(n-1)/2) the kernel normalization.
    """

    n: int
    a: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        if not -1.0 < self.a < 1.0:
            raise ValueError(f"weight exponent a must lie in (-1, 1), got {self.a}")

    @property
    def nu(self) -> float:
        return (self.a - 1.0) / 2.0

    @property
    def c_na(self) -> float:
        return 2.0 ** (-1.0 - self.a) * (4.0 * math.pi) ** (-(self.n - 1) / 2.0)


@dataclass(frozen=True)
class SpaceTimePoint:
    """A point (x', x, t): free coordinates, weighted coordinate, time."""

    x_prime: tuple[float, ...]
    x: float
    t: float

    def __post_init__(self) -> None:
        vals = (*self.x_prime, self.x, self.t)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("space-time point must have finite coordinates")

    @property
    def spatial(self) -> np.ndarray:
        return np.array((*self.x_prime, self.x), dtype=float)

    @classmethod
    def from_spatial(cls, spatial, t: float) -> "SpaceTimePoint":
        spatial = tuple(float(v) for v in spatial)
        return cls(spatial[:-1], spatial[-1], float(t))
