"""Shared parameter and point types for the weighted heat operator.

The operator is L_a u = D_t(|y|^a u) - div(|y|^a grad u) on R^n x R,
with the weight acting on the last spatial coordinate y and a in (-1, 1).
number and numbers are the one policy for a number that a config or a
domain primitive holds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def number(value, label: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """value as a float if it is an int or float, not a bool, inside (lo, hi), so finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not lo < value < hi:
        raise ValueError(f"{label} must be a number in ({lo:g}, {hi:g}), got {value!r}")
    return float(value)


def numbers(values, label: str, size: int = 0) -> list[float]:
    """A nonempty list or tuple of numbers, of exactly size entries if size is given."""
    if not isinstance(values, (list, tuple)) or not values or len(values) != (size or len(values)):
        raise ValueError(f"{label} must be a list of {size or 'some'} numbers")
    return [number(v, label) for v in values]


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
