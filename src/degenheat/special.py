"""The kernel profile F and its derivative F'.

The fundamental solution of the weighted heat operator carries the profile

    F(s) = e^{-s/2} (|s|/4)^{-nu} [I_nu(|s|/2) + sgn(s) I_{-nu}(|s|/2)],

with nu = (a-1)/2 in (-1, 0), and F(0) = 1/Gamma(nu+1) as the removable
limit.  With w = |s|/2 and h = w/2, each entry takes one of four branches.

- |s| <= 1e-150: the s = 0 limit.
- s > 0, w <= 30: the power series of I_{+-nu} (DLMF 10.25.2) in q = h^2,

      F  = e^{-w} [A + h^{1-a} B],
      F' = -1/2 e^{-w} [A + h^{1-a} B - h A1 - h^{-a} C],

  where A, B, A1 and C are entire in q with coefficients
  1/(k! Gamma(k+mu+1)) for mu = nu, -nu, nu+1 and -nu-1.
- s < 0, w <= 30: I_nu - I_{-nu} = -(2/pi) sin(nu pi) K_nu, with the
  exponentially scaled K of scipy.special.kve.
- w > 30, either sign: the large-argument series that I_nu, I_{-nu} and
  K_nu share (DLMF 10.40.1-2).  With z = -2/s, g = 1 for s > 0 and
  g = -sin(nu pi) for s < 0,

      F  = g pi^{-1/2} h^{-a/2} sum_k a_k(nu) z^k,
      F' = -1/2 g pi^{-1/2} h^{-a/2} sum_k [a_k(nu) - a_k(nu+1)] z^k.

  The difference coefficients have their own recurrence, so F' does not
  cancel two nearly equal sums at large |s|.

All sums are Horner sums over coefficient tables, which are built once
per order on first use.  A call sums as many terms as its largest q
(series) or smallest w (asymptotic) needs for every dropped term to lie
below 1e-17 of the largest kept one, so an entry's last bit can depend on
the other entries of its call.  Against 40-digit mpmath, over a in
[-0.95, 0.95] and 1e-8 <= |s| <= 1e13, F is within 4e-14 relative and F'
within 1e-12 for |a| >= 0.05; the worst of both is in the kve branch, and
F' loses relative accuracy as a -> 0, where it vanishes identically.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from scipy import special as sps

from .params import KernelParams

# w = |s|/2 at which the power series hands over to the asymptotic series
_CROSSOVER = 30.0

# below this |s| the profile is indistinguishable from its s=0 limit
# (corrections are O(|s|^{1-a}) <= 1e-15 for a < 0.9) and the direct
# formulas hit 0*inf in double precision
_PROFILE_EPS = 1e-150

# table lengths: q <= 225 needs at most 46 series terms (51 at w = 36,
# six past the crossover) and w >= 30 at most 21 asymptotic terms; the
# asymptotic terms keep falling up to k ~ 2w = 60
_SERIES_TERMS = 56
_ASYMPTOTIC_TERMS = 26
_LOG_TAIL = math.log(1e-17)


class _Tables(NamedTuple):
    series: np.ndarray  # rows A, B, A1, C; column k holds the q^k coefficient
    asymptotic: np.ndarray  # rows a_k(nu) and a_k(nu) - a_k(nu+1)
    # log|coefficient| of the two tables, -inf where a coefficient is 0
    log_series: np.ndarray
    log_asymptotic: np.ndarray


@functools.lru_cache(maxsize=64)
def _tables(nu: float) -> _Tables:
    series = np.array(
        [
            [1.0 / (math.factorial(k) * math.gamma(k + mu + 1.0)) for k in range(_SERIES_TERMS)]
            for mu in (nu, -nu, nu + 1.0, -nu - 1.0)
        ]
    )
    # a_k(mu) = prod_{j<=k} (4 mu^2 - (2j-1)^2) / (k! 8^k); the difference
    # d_k = a_k(nu) - a_k(nu+1) follows from the two products by
    # d_k = [(x - c_k) d_{k-1} + (x - y) b_{k-1}] / (8k), x - y = -4(2 nu + 1)
    x, y = 4.0 * nu * nu, 4.0 * (nu + 1.0) ** 2
    x_minus_y = -4.0 * (2.0 * nu + 1.0)
    a, b, d = [1.0], [1.0], [0.0]
    for k in range(1, _ASYMPTOTIC_TERMS):
        c = float((2 * k - 1) ** 2)
        d.append(((x - c) * d[-1] + x_minus_y * b[-1]) / (8.0 * k))
        a.append(a[-1] * (x - c) / (8.0 * k))
        b.append(b[-1] * (y - c) / (8.0 * k))
    asymptotic = np.array([a, d])
    with np.errstate(divide="ignore"):
        tables = _Tables(series, asymptotic, np.log(series), np.log(np.abs(asymptotic)))
    for table in tables:
        table.flags.writeable = False  # shared by every caller of this order
    return tables


def _term_count(log_coef: np.ndarray, log_x: float) -> int:
    """Leading terms of the rows sum_k c_k x^k that a call must sum.

    Keeps every term up to the last one, in any row, that lies within
    1e-17 of its row's largest term.  Past that point each term is less
    than half the one before (the power series at q <= 225, and the
    asymptotic series at w >= 30 within its table), so the dropped tail
    is below 2e-17 of the largest term.
    """
    terms = log_coef + log_x * np.arange(log_coef.shape[-1])
    keep = terms >= terms.max(axis=-1, keepdims=True) + _LOG_TAIL
    return int(np.nonzero(keep & np.isfinite(terms))[-1].max(initial=0)) + 1


def _horner(coef: np.ndarray, x: np.ndarray, count: int) -> np.ndarray:
    """sum_{k<count} coef[..., k] x^k for every row of coef, in place."""
    acc = np.empty(coef.shape[:-1] + x.shape)
    acc[...] = coef[..., count - 1, None]
    for k in range(count - 2, -1, -1):
        acc *= x
        acc += coef[..., k, None]
    return acc


def _power_series(params: KernelParams, s: np.ndarray, prime: bool) -> np.ndarray:
    """F, or F' when prime, at s > 0 from the power series in q = (s/4)^2."""
    tables = _tables(params.nu)
    rows = 4 if prime else 2
    w = s / 2.0
    h = w / 2.0
    q = h * h
    count = _term_count(tables.log_series[:rows], math.log(q.max()))
    a, b, *derivative = _horner(tables.series[:rows], q, count)
    p = h ** (-params.a)
    bracket = a + h * p * b
    if prime:
        a1, c = derivative
        return -0.5 * np.exp(-w) * (bracket - h * a1 - p * c)
    return np.exp(-w) * bracket


def _macdonald(params: KernelParams, s: np.ndarray, prime: bool) -> np.ndarray:
    """F, or F' when prime, at s < 0 from the scaled Macdonald function."""
    nu = params.nu
    w = -s / 2.0
    # I_nu - I_{-nu} = -(2/pi) sin(nu pi) K_nu, and K is even in its
    # order, so K_{nu+1} = K_{|nu+1|}
    bracket = sps.kve(nu, w)
    if prime:
        bracket -= sps.kve(nu + 1.0, w)
    scale = -0.5 if prime else 1.0
    return scale * (w / 2.0) ** (-nu) * (-2.0 * math.sin(nu * math.pi) / math.pi) * bracket


def _asymptotic(params: KernelParams, s: np.ndarray, prime: bool) -> np.ndarray:
    """F, or F' when prime, from the large-argument series in z = -2/s."""
    tables = _tables(params.nu)
    z = -2.0 / s
    z_max = np.abs(z).max()
    # z = 0 at s = +-inf, where the leading term is the whole sum
    count = _term_count(tables.log_asymptotic[int(prime)], math.log(z_max)) if z_max > 0.0 else 1
    total = _horner(tables.asymptotic[int(prime)], z, count)
    g = np.where(s > 0.0, 1.0, -math.sin(params.nu * math.pi))
    scale = -0.5 if prime else 1.0
    return scale * g / math.sqrt(math.pi) * (0.25 * np.abs(s)) ** (-0.5 * params.a) * total


def _profile(params: KernelParams, s, prime: bool) -> np.ndarray:
    """F, or F' when prime, elementwise over the branches of the module doc."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    small = np.abs(s) <= 2.0 * _CROSSOVER
    pos = s > _PROFILE_EPS
    neg = s < -_PROFILE_EPS
    zero = ~pos & ~neg
    if np.any(zero):
        out[zero] = _f_prime_at_zero(params) if prime else 1.0 / math.gamma(params.nu + 1.0)
    for mask, branch in (
        (pos & small, _power_series),
        (neg & small, _macdonald),
        (~small, _asymptotic),
    ):
        if np.any(mask):
            out[mask] = branch(params, s[mask], prime)
    return out


def f_profile_vec(params: KernelParams, s) -> np.ndarray:
    """Kernel profile F(s) for an array of signed arguments."""
    return _profile(params, s, False)


def f_profile(params: KernelParams, z_signed: float) -> float:
    """Kernel profile F at a signed scalar argument; F(0) = 1/Gamma(nu+1)."""
    return float(f_profile_vec(params, float(z_signed)))


def f_profile_prime_vec(params: KernelParams, s) -> np.ndarray:
    """dF/ds for an array of signed arguments; s = 0 entries get the limit.

    From the derivative recurrences of I_nu,

      F'(s) = -1/2 e^{-s/2} (|s|/4)^{-nu}
              [(I_nu + sgn I_{-nu}) - (sgn I_{nu+1} + I_{-nu-1})](|s|/2).

    At s = 0 the limit is -1/(2 Gamma(nu+1)) for a < 0, zero for a = 0,
    and +inf for a > 0 (the |s|^{1-a} term has unbounded slope).
    """
    return _profile(params, s, True)


def _f_prime_at_zero(params: KernelParams) -> float:
    if params.a > 0.0:
        return math.inf
    if params.a == 0.0:
        return 0.0
    return -0.5 / math.gamma(params.nu + 1.0)


def f_profile_prime(params: KernelParams, z_signed: float) -> float:
    """dF/ds at a signed scalar argument (limit value at s = 0)."""
    return float(f_profile_prime_vec(params, float(z_signed)))
