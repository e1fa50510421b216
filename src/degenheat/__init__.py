"""Potential theory toolkit for the weighted heat operator."""

from .bem import solve_dirichlet, u0_identity
from .capacity import DiscreteMeasure, capacity_lp, flat_set_capacity
from .geometry import BoxDomain, HeatBall, Shell
from .kernel import gamma_fs, gamma_fs_vec, mass_integral, semigroup_residual
from .meanvalue import harnack_quotient, solid_mean
from .params import KernelParams, SpaceTimePoint
from .wiener import DomainDescriptor, wiener_series

__version__ = "0.1.0"

__all__ = [
    "BoxDomain",
    "DiscreteMeasure",
    "DomainDescriptor",
    "HeatBall",
    "KernelParams",
    "Shell",
    "SpaceTimePoint",
    "capacity_lp",
    "flat_set_capacity",
    "gamma_fs",
    "gamma_fs_vec",
    "harnack_quotient",
    "mass_integral",
    "semigroup_residual",
    "solid_mean",
    "solve_dirichlet",
    "u0_identity",
    "wiener_series",
    "__version__",
]
