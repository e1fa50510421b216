"""Modified Bessel functions and the kernel profile F.

The fundamental solution of the weighted heat operator carries the profile

    F(s) = e^{-s/2} (|s|/4)^{-nu} [I_nu(|s|/2) + sgn(s) I_{-nu}(|s|/2)],

with nu = (a-1)/2 in (-1, 0), and F(0) = 1/Gamma(nu+1) as the removable
limit.  Only orders nu, -nu, nu+1, -nu-1 are needed, all in (-2, 2).

I_nu is evaluated by the defining power series for w <= 30 and by the
large-argument asymptotic expansion beyond.  For s < 0 the bracket is a
difference of nearly equal Bessel terms; it is rewritten through the
Macdonald function, I_nu - I_{-nu} = -(2/pi) sin(nu pi) K_nu, and
evaluated with the exponentially scaled K to avoid cancellation and
overflow.  The scaled forms make a separate log-space path unnecessary.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special as sps

from .params import KernelParams

SERIES_CROSSOVER = 30.0

# below this |s| the profile is indistinguishable from its s=0 limit
# (corrections are O(|s|^{1-a}) <= 1e-15 for a < 0.9) and the direct
# formulas hit 0*inf in double precision
_PROFILE_EPS = 1e-150

_SERIES_TERMS = 90
_ASYMPTOTIC_TERMS = 26


def _series_i_scaled(nu: float, w: np.ndarray) -> np.ndarray:
    """e^{-w} I_nu(w) by the power series; for w <= SERIES_CROSSOVER."""
    half = w / 2.0
    q = half * half
    coef = 1.0 / math.gamma(nu + 1.0)
    acc = np.full_like(w, coef)
    term = np.full_like(w, coef)
    for k in range(1, _SERIES_TERMS):
        term = term * q / (k * (k + nu))
        acc += term
        if np.all(np.abs(term) <= 1e-18 * np.abs(acc)):
            break
    with np.errstate(divide="ignore"):
        lead = np.where(w > 0.0, half, 1.0) ** nu
        lead = np.where(w > 0.0, lead, _order_zero_limit(nu, w))
    return lead * acc * np.exp(-w)


def _order_zero_limit(nu: float, w: np.ndarray) -> np.ndarray:
    """Value of (w/2)^nu at w = 0: 0 for nu > 0, 1 for nu = 0, inf below."""
    if nu > 0.0:
        fill = 0.0
    elif nu == 0.0:
        fill = 1.0
    else:
        fill = math.inf
    return np.full_like(w, fill)


def _asymptotic_i_scaled(nu: float, w: np.ndarray) -> np.ndarray:
    """e^{-w} I_nu(w) by the large-argument expansion; for w >= crossover."""
    mu = 4.0 * nu * nu
    acc = np.ones_like(w)
    term = np.ones_like(w)
    for k in range(1, _ASYMPTOTIC_TERMS):
        term = term * -(mu - (2 * k - 1) ** 2) / (8.0 * k) / w
        acc += term
        if np.all(np.abs(term) <= 1e-18 * np.abs(acc)):
            break
    return acc / np.sqrt(2.0 * math.pi * w)


def bessel_i_scaled(nu: float, w) -> float | np.ndarray:
    """Exponentially scaled modified Bessel function e^{-w} I_nu(w).

    Supports w >= 0 elementwise; orders with nu > -2 (poles of
    Gamma(k+nu+1) at nu <= -2 are not handled).
    """
    if not nu > -2.0:
        raise ValueError(f"order must satisfy nu > -2, got {nu}")
    arr = np.asarray(w, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("argument must be nonnegative")
    small = arr <= SERIES_CROSSOVER
    out = np.empty_like(arr)
    if np.any(small):
        out[small] = _series_i_scaled(nu, arr[small])
    if np.any(~small):
        out[~small] = _asymptotic_i_scaled(nu, arr[~small])
    if np.ndim(w) == 0:
        return float(out)
    return out


def f_profile_vec(params: KernelParams, s) -> np.ndarray:
    """Kernel profile F(s) for an array of signed arguments."""
    s = np.asarray(s, dtype=float)
    nu = params.nu
    out = np.empty_like(s)

    pos = s > _PROFILE_EPS
    neg = s < -_PROFILE_EPS
    zero = ~pos & ~neg
    if np.any(zero):
        out[zero] = 1.0 / math.gamma(nu + 1.0)
    if np.any(pos):
        sp = s[pos]
        w = sp / 2.0
        bracket = bessel_i_scaled(nu, w) + bessel_i_scaled(-nu, w)
        out[pos] = (sp / 4.0) ** (-nu) * bracket
    if np.any(neg):
        sn = -s[neg]
        w = sn / 2.0
        # I_nu - I_{-nu} = -(2/pi) sin(nu pi) K_nu, with scaled K
        coef = -2.0 * math.sin(nu * math.pi) / math.pi
        out[neg] = (sn / 4.0) ** (-nu) * coef * sps.kve(nu, w)
    return out


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
    s = np.asarray(s, dtype=float)
    nu = params.nu
    out = np.empty_like(s)

    pos = s > _PROFILE_EPS
    neg = s < -_PROFILE_EPS
    zero = ~pos & ~neg
    if np.any(zero):
        out[zero] = _f_prime_at_zero(params)
    if np.any(pos):
        sp = s[pos]
        w = sp / 2.0
        bracket = (
            bessel_i_scaled(nu, w)
            + bessel_i_scaled(-nu, w)
            - bessel_i_scaled(nu + 1.0, w)
            - bessel_i_scaled(-nu - 1.0, w)
        )
        out[pos] = -0.5 * (sp / 4.0) ** (-nu) * bracket
    if np.any(neg):
        sn = -s[neg]
        w = sn / 2.0
        # (I_nu - I_{-nu}) + (I_{nu+1} - I_{-nu-1}) via scaled K;
        # K is even in its order, so K_{nu+1} = K_{|nu+1|}.
        coef = -2.0 * math.sin(nu * math.pi) / math.pi
        bracket = coef * (sps.kve(nu, w) - sps.kve(nu + 1.0, w))
        out[neg] = -0.5 * (sn / 4.0) ** (-nu) * bracket
    return out


def _f_prime_at_zero(params: KernelParams) -> float:
    if params.a > 0.0:
        return math.inf
    if params.a == 0.0:
        return 0.0
    return -0.5 / math.gamma(params.nu + 1.0)


def f_profile_prime(params: KernelParams, z_signed: float) -> float:
    """dF/ds at a signed scalar argument (limit value at s = 0)."""
    return float(f_profile_prime_vec(params, float(z_signed)))
