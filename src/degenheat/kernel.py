"""Fundamental solution of the weighted heat operator and its identities.

With nu = (a-1)/2 and c_na = 2^{-1-a}(4 pi)^{-(n-1)/2}, the kernel is

    Gamma(X,t;Y,tau) = c_na d^{-(n+a)/2} e^{-|X-Y|^2/(4d)} F(x y / d),

for d = t - tau > 0 and zero otherwise; x, y are the weighted-axis
coordinates of X, Y and F is the Bessel profile from special.  Every
Gamma quantity comes from one log-space core: log_gamma_vec (log Gamma,
-inf where d <= 0) and grad_log_gamma_vec (grad_Y log Gamma).  Gamma is
the exp of the first, and derivatives are Gamma grad log Gamma.  The
kernel factorizes over axes: the free axes carry classical 1-D heat
kernels (heat_kernel_1d) and the weighted axis carries the 1-D kernel
u_tilde, which is what the normalization and semigroup identities
integrate.  The double layer differentiates one factor: u_tilde_dy =
u_tilde D_y log u_tilde, or on y = 0 its weighted limit
weighted_normal_limit_vec.
"""
from __future__ import annotations

import math

import numpy as np

from .params import KernelParams, SpaceTimePoint
from .quadrature import integrate_weighted_interval
from .special import f_profile_prime_vec, f_profile_vec

# spatial truncation for Gaussian integrals, in standard deviations
TRUNCATION_STD = 9.0


def _head(log_c: float, k: float, dist2, dt, *coords):
    """Causal selection and log-prefactor shared by every kernel entry point.

    Broadcasts the arrays together and returns their shape, the index of
    the live entries dt > 0 (the boolean mask, or a full view when every
    entry is live, so nothing is gathered), and on the live entries the
    lag d, head = log c - (k/2) log d - dist2/(4d) and the coords.
    Callers pass dist2 and dt as temporaries, so neither outlives the
    caller's use of the returned arrays.
    """
    dist2, dt, *coords = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (dist2, dt, *coords))
    )
    live = dt > 0.0
    sel = ... if live.all() else live
    d = dt[sel]
    head = log_c - 0.5 * k * np.log(d) - dist2[sel] / (4.0 * d)
    return (dt.shape, sel, d, head, *(c[sel] for c in coords))


def _gamma_head(params: KernelParams, obs_sp, obs_t, src_sp, src_t):
    """_head of Gamma over broadcastable arrays of spatial points (last axis = coords)."""
    obs_sp = np.asarray(obs_sp, dtype=float)
    src_sp = np.asarray(src_sp, dtype=float)
    return _head(
        math.log(params.c_na),
        params.n + params.a,
        np.sum((obs_sp - src_sp) ** 2, axis=-1),
        np.asarray(obs_t, dtype=float) - np.asarray(src_t, dtype=float),
        obs_sp[..., -1],
        src_sp[..., -1],
    )


def _u_tilde_head(params: KernelParams, x, y, dt):
    """_head of u_tilde, whose prefactor is 2^{-1-a} d^{-(1+a)/2}."""
    x, y, k = np.asarray(x, dtype=float), np.asarray(y, dtype=float), 1.0 + params.a
    return _head(-k * math.log(2.0), k, (x - y) ** 2, dt, x, y)


def _log_kernel(params: KernelParams, shape, sel, d, head, x, y) -> np.ndarray:
    """head + log F(x y / d) on the live entries of _head, -inf elsewhere."""
    out = np.full(shape, -np.inf)
    with np.errstate(over="ignore"):
        out[sel] = head + np.log(f_profile_vec(params, x * y / d))
    return out


def _chain(params: KernelParams, x, d, s, prof) -> np.ndarray:
    """F'(s) x / (d F(s)), the profile's term of D_y log Gamma at s = x y / d.

    prof is F(s).  The term vanishes identically when x = 0 (s is frozen
    at 0), even where F' has no finite limit.
    """
    with np.errstate(invalid="ignore"):
        return np.where(x == 0.0, 0.0, f_profile_prime_vec(params, s) * x / (d * prof))


def log_gamma_vec(params: KernelParams, obs_sp, obs_t, src_sp, src_t) -> np.ndarray:
    """log Gamma over broadcastable arrays of spatial points; -inf where t <= tau."""
    return _log_kernel(params, *_gamma_head(params, obs_sp, obs_t, src_sp, src_t))


def grad_log_gamma_vec(params: KernelParams, obs_sp, obs_t, src_sp, src_t) -> np.ndarray:
    """grad_Y log Gamma, vectorized; coordinate axis last, zero where t <= tau.

    Every axis carries (x_i - y_i)/(2 d); the weighted axis adds the
    profile's chain term F'(s) x/(d F(s)), s = x y / d.
    """
    diff = np.asarray(obs_sp, dtype=float) - np.asarray(src_sp, dtype=float)
    shape, sel, d, _, x, y = _gamma_head(params, obs_sp, obs_t, src_sp, src_t)
    live = np.broadcast_to(diff, shape + diff.shape[-1:])[sel] / (2.0 * d[..., None])
    s = x * y / d
    live[..., -1] += _chain(params, x, d, s, f_profile_vec(params, s))
    out = np.zeros(shape + (params.n,))
    out[sel] = live
    return out


def gamma_fs_vec(params: KernelParams, obs_sp, obs_t, src_sp, src_t) -> np.ndarray:
    """Gamma over broadcastable arrays of spatial points (last axis = coords)."""
    with np.errstate(over="ignore"):
        return np.exp(log_gamma_vec(params, obs_sp, obs_t, src_sp, src_t))


def gamma_fs(params: KernelParams, xi: SpaceTimePoint, zeta: SpaceTimePoint) -> float:
    """Fundamental solution Gamma(xi; zeta); zero for t <= tau."""
    return float(
        gamma_fs_vec(params, xi.spatial, xi.t, zeta.spatial, zeta.t)
    )


def gamma_grad_y_vec(params: KernelParams, obs_sp, obs_t, src_sp, src_t) -> np.ndarray:
    """grad_Y Gamma = Gamma grad_Y log Gamma, vectorized; coordinate axis last.

    At a source on y = 0 with a != 0 the double layer takes the weighted
    normal limit instead.
    """
    gam = gamma_fs_vec(params, obs_sp, obs_t, src_sp, src_t)
    return gam[..., None] * grad_log_gamma_vec(params, obs_sp, obs_t, src_sp, src_t)


def heat_kernel_1d(x, y, dt) -> np.ndarray:
    """Classical 1-D heat kernel (4 pi d)^{-1/2} e^{-(x-y)^2/(4d)}; zero where dt <= 0.

    Gamma is the product of u_tilde with one such factor per free axis.
    """
    dt = np.asarray(dt, dtype=float)
    live = dt > 0.0
    d = np.where(live, dt, 1.0)
    norm = np.where(live, 1.0 / np.sqrt(4.0 * math.pi * d), 0.0)
    return np.exp(-((x - y) ** 2) / (4.0 * d)) * norm


def u_tilde(params: KernelParams, x, y, dt) -> np.ndarray:
    """1-D weighted-axis kernel: 2^{-1-a} d^{-(1+a)/2} e^{-(x-y)^2/4d} F(xy/d).

    Gamma is the product of u_tilde with classical 1-D heat kernels on
    the free axes.
    """
    with np.errstate(over="ignore"):
        return np.exp(_log_kernel(params, *_u_tilde_head(params, x, y, dt)))


def u_tilde_dy(params: KernelParams, x, y, dt) -> np.ndarray:
    """D_y u_tilde = u_tilde D_y log u_tilde: (x - y)/(2d) plus the chain term.

    The chain term is zero at x = 0.  At y = 0 with a != 0 the derivative
    has no finite limit; weighted_normal_limit_vec takes its place there.
    """
    shape, sel, d, head, x, y = _u_tilde_head(params, x, y, dt)
    out = np.zeros(shape)
    s = x * y / d
    with np.errstate(over="ignore", invalid="ignore"):
        prof = f_profile_vec(params, s)
        dlog = (x - y) / (2.0 * d) + _chain(params, x, d, s, prof)
        out[sel] = np.exp(head) * prof * dlog
    return out


def weighted_normal_limit_vec(params: KernelParams, x, dt) -> np.ndarray:
    """lim_{y->0} |y|^a D_y u_tilde at lags dt = t - tau.

    Equals 2^{-1-a} (1-a) 4^{a-1}/Gamma((3-a)/2) d^{-(1+a)/2} (x/d)
    (|x|/d)^{-a} e^{-x^2/(4d)}; zero when x = 0 or d <= 0.  Times the
    free axes' heat kernels it is the limit of |y|^a D_y Gamma.
    """
    x = np.asarray(x, dtype=float)
    # x = 0 entries are zero: masked like acausal ones
    shape, sel, d, head, x = _head(0.0, 1.0 + params.a, x * x, np.where(x != 0.0, dt, 0.0), x)
    out = np.zeros(shape)
    if not d.size:
        return out
    a = params.a
    const = 2.0 ** (-1.0 - a) * (1.0 - a) * 4.0 ** (a - 1.0) / math.gamma((3.0 - a) / 2.0)
    with np.errstate(over="ignore"):
        out[sel] = const * (x / d) * np.exp(head - a * np.log(np.abs(x) / d))
    return out


def mass_integral(params: KernelParams, x_point, t: float) -> float:
    """int Gamma(X,t;Y,0) |y|^a dY, which the kernel normalizes to 1.

    The integrand factorizes exactly into (n-1) classical Gaussian
    marginals and one weighted u_tilde marginal, each reduced to an
    adaptive 1-D weighted quadrature over a 9-sigma window.
    """
    if not t > 0.0:
        raise ValueError("mass integral needs t > 0")
    x_prime, x = x_point
    x_prime = np.atleast_1d(np.asarray(x_prime, dtype=float))
    if x_prime.size != params.n - 1:
        raise ValueError("x_prime must have length n-1")
    sigma = math.sqrt(2.0 * t)
    radius = TRUNCATION_STD * sigma
    result = 1.0
    for xi in x_prime:
        result *= integrate_weighted_interval(
            lambda yv: heat_kernel_1d(xi, yv, t),
            xi - radius,
            xi + radius,
            0.0,
            tol=1e-8 / (2 * params.n),
        )
    lo = min(x, 0.0) - radius
    hi = max(x, 0.0) + radius
    result *= integrate_weighted_interval(
        lambda yv: u_tilde(params, x, yv, t),
        lo,
        hi,
        params.a,
        tol=1e-8 / (2 * params.n),
    )
    return result


def semigroup_residual(
    params: KernelParams,
    x: float,
    eta: float,
    t: float,
    s: float,
) -> float:
    """Relative defect of the Chapman-Kolmogorov identity for u_tilde.

    Returns |u(x,eta,t+s) - int u(x,y,t) u(y,eta,s) |y|^a dy| / u(x,eta,t+s).
    """
    if not (t > 0.0 and s > 0.0):
        raise ValueError("semigroup residual needs t, s > 0")
    ref = float(u_tilde(params, x, eta, t + s))
    radius = TRUNCATION_STD * math.sqrt(2.0 * max(t, s))
    lo = min(x, eta, 0.0) - radius
    hi = max(x, eta, 0.0) + radius
    composed = integrate_weighted_interval(
        lambda yv: u_tilde(params, x, yv, t) * u_tilde(params, yv, eta, s),
        lo,
        hi,
        params.a,
        tol=1e-8 * ref / 4.0,
    )
    return abs(composed - ref) / ref


def bounds_sandwich(
    params: KernelParams, obs_sp, obs_t, src_sp, src_t
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gamma together with its structural two-sided envelopes, over arrays of pairs.

    Returns (lower, Gamma, upper), each zero where t <= tau.  The
    envelopes use the Gaussian rates 1/(2d) (lower) and 1/(6d) (upper)
    on the weighted axis with the max/min of the two (1 + x^2/d)^{-a/2},
    (1 + y^2/d)^{-a/2} factors, and unit constants; the contract is
    ratio-boundedness, not pointwise ordering.  They are formed in log
    space, and an overflow on the weighted axis raises FloatingPointError.
    """
    shape, sel, d, head, x, y = _gamma_head(params, obs_sp, obs_t, src_sp, src_t)
    with np.errstate(over="ignore"):  # Gamma as gamma_fs_vec forms it, from this head
        gam = np.exp(_log_kernel(params, shape, sel, d, head, x, y))
    lower, upper = np.zeros(shape), np.zeros(shape)
    with np.errstate(over="raise"):
        # head is log Gamma's prefactor, c_na and the rate 1/(4d) on every axis;
        # the envelopes drop c_na's 2^{-1-a} and put the weighted axis at rate
        # 1/(2d) (lower) or 1/(6d) (upper)
        head = head + (1.0 + params.a) * np.log(2.0)
        dy2 = (x - y) ** 2 / d
        log_weight = -0.5 * params.a * np.log1p(np.stack([x * x, y * y]) / d)
        lower[sel] = np.exp(head - dy2 / 4.0 + log_weight.max(axis=0))
        upper[sel] = np.exp(head + dy2 / 12.0 + log_weight.min(axis=0))
    return lower, gam, upper
