"""Fundamental solution of the weighted heat operator and its identities.

With nu = (a-1)/2 and c_na = 2^{-1-a}(4 pi)^{-(n-1)/2}, the kernel is

    Gamma(X,t;Y,tau) = c_na d^{-(n+a)/2} e^{-|X-Y|^2/(4d)} F(x y / d),

for d = t - tau > 0 and zero otherwise; x, y are the weighted-axis
coordinates of X, Y and F is the Bessel profile from special.  The
kernel factorizes over axes: the free axes carry classical 1-D heat
kernels and the weighted axis carries the 1-D kernel u_tilde, which is
what the normalization and semigroup identities integrate.
"""
from __future__ import annotations

import math

import numpy as np

from .params import KernelParams, SpaceTimePoint
from .quadrature import integrate_weighted_interval
from .special import f_profile_prime_vec, f_profile_vec

# spatial truncation for Gaussian integrals, in standard deviations
TRUNCATION_STD = 9.0


class SingularAxisError(ValueError):
    """Raised when the raw y-derivative is requested on the weighted axis
    at y = 0 with a != 0; the weighted_normal_limit is the defined object
    there."""


def _head(log_c: float, k: float, dist2, dt, *coords):
    """Causal mask and log-prefactor shared by every kernel entry point.

    Broadcasts the arrays together and returns the mask dt > 0, and on
    its live entries the lag d and head = log c - (k/2) log d - dist2/(4d),
    followed by the broadcast coords.  Callers pass dist2 and dt as
    temporaries, so neither outlives this call.
    """
    dist2, dt, *coords = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (dist2, dt, *coords))
    )
    live = dt > 0.0
    d = dt[live]
    head = log_c - 0.5 * k * np.log(d) - dist2[live] / (4.0 * d)
    return (live, d, head, *coords)


def _profile_kernel(params: KernelParams, live, d, head, x, y) -> np.ndarray:
    """exp(head) F(x y / d) on the live entries of _head, zero elsewhere."""
    out = np.zeros(live.shape)
    if np.any(live):
        s = x[live] * y[live] / d
        with np.errstate(over="ignore"):
            out[live] = np.exp(head + np.log(f_profile_vec(params, s)))
    return out


def gamma_fs_vec(params: KernelParams, obs_sp, obs_t, src_sp, src_t) -> np.ndarray:
    """Gamma over broadcastable arrays of spatial points (last axis = coords)."""
    obs_sp = np.asarray(obs_sp, dtype=float)
    src_sp = np.asarray(src_sp, dtype=float)
    return _profile_kernel(
        params,
        *_head(
            math.log(params.c_na),
            params.n + params.a,
            np.sum((obs_sp - src_sp) ** 2, axis=-1),
            np.asarray(obs_t) - np.asarray(src_t),
            obs_sp[..., -1],
            src_sp[..., -1],
        ),
    )


def gamma_fs(params: KernelParams, xi: SpaceTimePoint, zeta: SpaceTimePoint) -> float:
    """Fundamental solution Gamma(xi; zeta); zero for t <= tau."""
    return float(
        gamma_fs_vec(params, xi.spatial, xi.t, zeta.spatial, zeta.t)
    )


def gamma_grad_y_vec(
    params: KernelParams, obs_sp, obs_t, src_sp, src_t
) -> np.ndarray:
    """grad_Y Gamma, vectorized; output has the coordinate axis last.

    All axes carry Gamma (x_i - y_i)/(2 d); the weighted axis adds the
    profile chain term F'(xy/d) x/d.  No singular-axis checks here; the
    scalar wrapper enforces them.
    """
    obs_sp = np.asarray(obs_sp, dtype=float)
    src_sp = np.asarray(src_sp, dtype=float)
    diff = obs_sp - src_sp
    live, d, head, x, y = _head(
        math.log(params.c_na),
        params.n + params.a,
        np.sum(diff * diff, axis=-1),
        np.asarray(obs_t, dtype=float) - np.asarray(src_t, dtype=float),
        obs_sp[..., -1],
        src_sp[..., -1],
    )
    out = np.zeros(live.shape + (params.n,))
    if not np.any(live):
        return out
    s = x[live] * y[live] / d
    prof = f_profile_vec(params, s)
    prof_prime = f_profile_prime_vec(params, s)
    with np.errstate(over="ignore"):
        base = np.exp(head)
    diff_b = np.broadcast_to(diff, out.shape)[live]
    vec = prof[:, None] * diff_b / (2.0 * d[:, None])
    # the chain term vanishes identically when x = 0 (s is frozen at 0),
    # even where F' has no finite limit
    xl = x[live]
    with np.errstate(invalid="ignore"):
        chain = np.where(xl == 0.0, 0.0, prof_prime * xl / d)
    vec[:, -1] += chain
    out[live] = base[:, None] * vec
    return out


def gamma_grad_y(
    params: KernelParams, xi: SpaceTimePoint, zeta: SpaceTimePoint
) -> np.ndarray:
    """grad_Y Gamma(xi; zeta) as a length-n vector; requires t > tau.

    At y = 0 the raw derivative on the weighted axis only exists when
    a = 0 or the profile argument is frozen (x = 0); otherwise the
    weighted_normal_limit is the canonical object and this raises.
    """
    if not xi.t > zeta.t:
        raise ValueError("gradient defined for t > tau only")
    if zeta.x == 0.0 and params.a != 0.0 and xi.x != 0.0:
        raise SingularAxisError(
            "raw y-derivative unavailable at y=0 for a != 0; "
            "use weighted_normal_limit"
        )
    return np.asarray(
        gamma_grad_y_vec(params, xi.spatial, xi.t, zeta.spatial, zeta.t)
    )


def weighted_normal_limit(
    params: KernelParams, xi: SpaceTimePoint, y_prime, tau: float
) -> float:
    """lim_{y->0} |y|^a D_y Gamma(xi; (y', y), tau) for t > tau.

    Equals c_na (1-a) 4^{a-1}/Gamma((3-a)/2) d^{-(n+a)/2} (x/d)
    (|x|/d)^{-a} e^{-(|x'-y'|^2 + x^2)/(4d)}; zero when x = 0.
    """
    if not xi.t > tau:
        raise ValueError("limit defined for t > tau only")
    diff = np.asarray(xi.x_prime, dtype=float) - np.asarray(y_prime, dtype=float)
    return float(weighted_normal_limit_vec(params, xi.x, xi.t - tau, np.sum(diff * diff)))


def weighted_normal_limit_vec(
    params: KernelParams, x, dt, dist2_rest
) -> np.ndarray:
    """Vectorized weighted normal limit; dist2_rest = |x'-y'|^2 per point."""
    x = np.asarray(x, dtype=float)
    # x = 0 entries are zero: masked like acausal ones
    live, d, head, x = _head(
        0.0,
        params.n + params.a,
        np.asarray(dist2_rest, dtype=float) + x * x,
        np.where(x != 0.0, dt, 0.0),
        x,
    )
    out = np.zeros(live.shape)
    if not np.any(live):
        return out
    a = params.a
    const = params.c_na * (1.0 - a) * 4.0 ** (a - 1.0) / math.gamma((3.0 - a) / 2.0)
    xl = x[live]
    with np.errstate(over="ignore"):
        out[live] = const * (xl / d) * np.exp(head - a * np.log(np.abs(xl) / d))
    return out


def u_tilde(params: KernelParams, x, y, dt) -> np.ndarray:
    """1-D weighted-axis kernel: 2^{-1-a} d^{-(1+a)/2} e^{-(x-y)^2/4d} F(xy/d).

    Gamma is the product of u_tilde with classical 1-D heat kernels on
    the free axes.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    a = params.a
    return _profile_kernel(
        params, *_head(-(1.0 + a) * math.log(2.0), 1.0 + a, (x - y) ** 2, dt, x, y)
    )


def mass_integral(params: KernelParams, x_point, t: float, tol: float = 1e-8) -> float:
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
    norm = 1.0 / math.sqrt(4.0 * math.pi * t)
    for xi in x_prime:
        result *= integrate_weighted_interval(
            lambda yv: norm * np.exp(-((xi - yv) ** 2) / (4.0 * t)),
            xi - radius,
            xi + radius,
            0.0,
            tol=tol / (2 * params.n),
        )
    lo = min(x, 0.0) - radius
    hi = max(x, 0.0) + radius
    result *= integrate_weighted_interval(
        lambda yv: u_tilde(params, x, yv, t),
        lo,
        hi,
        params.a,
        tol=tol / (2 * params.n),
    )
    return result


def semigroup_residual(
    params: KernelParams,
    x: float,
    eta: float,
    t: float,
    s: float,
    tol: float = 1e-8,
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
        tol=tol * ref / 4.0,
    )
    return abs(composed - ref) / ref


def bounds_sandwich(
    params: KernelParams, xi: SpaceTimePoint, zeta: SpaceTimePoint
) -> tuple[float, float, float]:
    """Gamma together with its structural two-sided envelopes.

    The envelopes use the Gaussian rates 1/(2d) (lower) and 1/(6d)
    (upper) on the weighted axis with the max/min of the two
    (1 + x^2/d)^{-a/2}, (1 + y^2/d)^{-a/2} factors, and unit constants;
    the contract is ratio-boundedness, not pointwise ordering.
    """
    d = xi.t - zeta.t
    value = gamma_fs(params, xi, zeta)
    if d <= 0.0:
        return (0.0, 0.0, 0.0)
    a = params.a
    xp = np.asarray(xi.x_prime, dtype=float)
    yp = np.asarray(zeta.x_prime, dtype=float)
    dist2_rest = float(np.sum((xp - yp) ** 2))
    gauss_rest = (4.0 * math.pi * d) ** (-(params.n - 1) / 2.0) * math.exp(
        -dist2_rest / (4.0 * d)
    )
    x, y = xi.x, zeta.x
    fx = (1.0 + x * x / d) ** (-a / 2.0)
    fy = (1.0 + y * y / d) ** (-a / 2.0)
    dy2 = (x - y) ** 2
    base = d ** (-(1.0 + a) / 2.0)
    lower = gauss_rest * base * math.exp(-dy2 / (2.0 * d)) * max(fx, fy)
    upper = gauss_rest * base * math.exp(-dy2 / (6.0 * d)) * min(fx, fy)
    return (lower, value, upper)
