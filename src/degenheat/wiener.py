"""Wiener-series regularity tester.

The series term at scale k is the discrete capacity of the complement
of the domain inside the Gamma-level shell A(xi0, lambda^k), scaled by
lambda^{-k(n+a)/2} (1 + x0^2/lambda^k)^{-a/2}, which is (4 pi)^{(n+a)/2}
times the heat-ball threshold theta(lambda^k).  Divergence of the
series marks the boundary point as regular; any finite-k verdict is
heuristic and the thresholds are surfaced in the report.  The shells of
lambda and of its sweep values are concentric about xi0, so a series
and its sweep are sampled in one pass (geometry.heat_ball_samples) and
their LPs built from one capacity_lp call, in the pole's time frame
(xi0 at t = 0; L_a is invariant under time shifts): only the domain
test sees absolute times.  DomainDescriptor reads each primitive's fields
once, through params.number and numbers, into a membership test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .capacity import CapacityResult, capacity_lp, lp_report
from .geometry import HeatBall, Shell, heat_ball_samples, heat_ball_threshold
from .params import KernelParams, SpaceTimePoint, number, numbers

TERM_FLOOR = 1e-12
TAIL_LEN = 5
DIV_FRACTION = 0.1
CONV_RATIO = 0.7
CONV_R2 = 0.9

_OPS = {
    "union": np.logical_or,
    "intersect": np.logical_and,
    "subtract": lambda mask, other: mask & ~other,
}


def _membership(prim: dict):
    """prim's membership test, a function of (spatial, times), its fields read once.

    The test raises ValueError unless box corners hold n numbers and a
    normal or center n + 1, n being the width of the points' last axis.
    """
    kind, flip = prim["type"], prim.get("complement", False)
    if not isinstance(flip, bool):
        raise ValueError(f"primitive 'complement' must be a boolean, got {flip!r}")
    sized = []  # (vector, its length less n)

    def vector(key: str, extra: int) -> np.ndarray:
        vec = np.array(numbers(prim[key], f"{kind} {key}"))
        sized.append((vec, extra))
        return vec

    if kind in ("box", "time-slab"):
        t0, t1 = numbers(prim["t"], f"{kind} t", 2)
    if kind == "box":
        lo, hi = vector("lo", 0), vector("hi", 0)

        def test(spatial, times):
            return (times > t0) & (times < t1) & np.all((spatial > lo) & (spatial < hi), axis=-1)

    elif kind == "time-slab":

        def test(spatial, times):
            return (times > t0) & (times < t1)

    elif kind == "half-space":
        normal, offset = vector("normal", 1), number(prim["offset"], "half-space offset")

        def test(spatial, times):
            return spatial @ normal[:-1] + times * normal[-1] < offset

    elif kind == "cusp":
        center, shape = vector("center", 1), prim["profile"]["kind"]
        if shape not in ("power", "exp"):
            raise ValueError(f"unknown cusp profile {shape!r}")
        c, p = numbers(prim["profile"]["params"], "cusp profile params", 2)

        def test(spatial, times):
            dt = center[-1] - times
            dist = np.linalg.norm(spatial - center[:-1], axis=-1)
            with np.errstate(divide="ignore", over="ignore"):
                if shape == "power":
                    rad = c * np.maximum(dt, 0.0) ** p
                else:
                    rad = c * np.exp(-p / np.maximum(dt, 1e-300))
            return (dt > 0.0) & (dist < rad)

    else:
        raise ValueError(f"unknown primitive type {kind!r}")

    def mask(spatial, times):
        n = spatial.shape[-1]
        if any(len(vec) != n + extra for vec, extra in sized):
            raise ValueError(f"{kind} primitive: corners need n = {n} numbers, others n + 1")
        return test(spatial, times) ^ flip

    return mask


@dataclass(frozen=True)
class DomainDescriptor:
    """Open space-time set built from primitives folded left-to-right.

    ops[i] combines the running set with primitives[i + 1]; each
    primitive may carry a "complement" flag.  Membership uses strict
    inequalities throughout.  Construction reads each primitive once.
    """

    primitives: tuple
    ops: tuple = ()

    def __post_init__(self) -> None:
        if not self.primitives:
            raise ValueError("need at least one primitive")
        if len(self.ops) != len(self.primitives) - 1:
            raise ValueError("need exactly one op per extra primitive")
        for op in self.ops:
            if op not in _OPS:
                raise ValueError(f"unknown op {op!r}")
        object.__setattr__(self, "_masks", [_membership(prim) for prim in self.primitives])

    def contains_vec(self, spatial, times) -> np.ndarray:
        spatial = np.atleast_2d(np.asarray(spatial, dtype=float))
        times = np.asarray(times, dtype=float)
        mask = self._masks[0](spatial, times)
        for op, test in zip(self.ops, self._masks[1:]):
            mask = _OPS[op](mask, test(spatial, times))
        return mask

    def contains(self, zeta: SpaceTimePoint) -> bool:
        return bool(
            self.contains_vec(zeta.spatial[None, :], np.array([zeta.t]))[0]
        )

    @classmethod
    def time_slab(cls, t0: float, t1: float) -> "DomainDescriptor":
        return cls(({"type": "time-slab", "t": [t0, t1]},))


def shell_weight(params: KernelParams, x0: float, lam: float, k: int) -> float:
    """(4 pi)^{(n+a)/2} theta(lambda^k): the scale of the shell-k term."""
    return (4.0 * math.pi) ** ((params.n + params.a) / 2.0) * heat_ball_threshold(
        params, x0, lam**k
    )


def shell_term(
    params: KernelParams, x0: float, lam: float, k: int, res: CapacityResult | None
) -> tuple[float, float, float, CapacityResult | None]:
    """(cap, weight, term, lp) of shell k from its LP: the capacity of the domain
    complement in the shell, shell_weight, their product and the LP.

    res is None when the shell holds no atom of the complement; cap and term are then 0.
    """
    weight = shell_weight(params, x0, lam, k)
    if res is None:
        return 0.0, weight, 0.0, None
    return res.cap_estimate, weight, res.cap_estimate * weight, res


def shell_terms(
    params: KernelParams,
    xi0: SpaceTimePoint,
    pairs,
    domain: DomainDescriptor,
    density: int,
) -> list[tuple[float, float, float, CapacityResult | None]]:
    """shell_term of each shell (lambda, k) in pairs, from one sampling pass and one LP call.

    The shells of every lambda are concentric about xi0, so their outer
    balls share one heat_ball_samples pass.  A shell keeps the atoms of
    its outer ball's lattice in the shell and outside the domain; the
    lattice doubles its density up to three times while it is empty (the
    certified bounding box is loose for deep shells).
    """
    pole = SpaceTimePoint(xi0.x_prime, xi0.x, 0.0)  # the pole's time frame
    shells = [Shell(pole, lam, k, params) for lam, k in pairs]
    balls = [HeatBall(pole, shell.outer_radius, params) for shell in shells]
    sets = []
    for shell, sample in zip(shells, heat_ball_samples(balls, density, 4)):
        keep = shell.contains_vec(sample.spatial, sample.times)
        keep &= ~domain.contains_vec(sample.spatial, sample.times + xi0.t)
        sets.append(sample._replace(spatial=sample.spatial[keep], times=sample.times[keep]))
    results = iter(capacity_lp(params, [s for s in sets if len(s.times)]))
    return [
        shell_term(params, xi0.x, shell.lam, shell.k, next(results) if len(s.times) else None)
        for shell, s in zip(shells, sets)
    ]


@dataclass(frozen=True)
class WienerReport:
    lam: float
    terms: list
    partial_sums: list
    verdict: str
    thresholds: dict
    lambda_sweep: dict = field(default_factory=dict)


def classify_terms(terms) -> str:
    """Heuristic series verdict from finitely many weighted terms."""
    terms = np.asarray([t for t in terms], dtype=float)
    pos = terms > TERM_FLOOR
    ks = np.flatnonzero(pos)
    if len(ks) == 0:
        return "likely-irregular"
    # the scale is the first term above the floor: empty first shells carry none
    theta_div = DIV_FRACTION * terms[ks[0]]
    tail = terms[-TAIL_LEN:]
    if np.mean(tail) >= theta_div:
        return "likely-regular"
    if len(ks) >= 3:
        logs = np.log(terms[pos])
        slope, intercept = np.polyfit(ks, logs, 1)
        fit = slope * ks + intercept
        ss_res = float(np.sum((logs - fit) ** 2))
        ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        if math.exp(slope) <= CONV_RATIO and r2 >= CONV_R2:
            return "likely-irregular"
    return "inconclusive"


def _check_boundary_point(
    domain: DomainDescriptor, xi0: SpaceTimePoint, n: int
) -> None:
    if domain.contains(xi0):
        raise ValueError("point lies inside the domain, not on its boundary")
    rng = np.random.default_rng(0)
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        offs = rng.uniform(-eps, eps, (512, n + 1))
        # a time offset below the spacing of the doubles near xi0.t would round away
        offs[:, n] *= max(1.0, 4.0 * np.spacing(abs(xi0.t)) / eps)
        hit = domain.contains_vec(
            np.asarray(xi0.spatial) + offs[:, :n], xi0.t + offs[:, n]
        )
        if not np.any(hit):
            raise ValueError("no domain points found near the probe; not a boundary point")


def wiener_series(
    params: KernelParams,
    xi0: SpaceTimePoint,
    domain: DomainDescriptor,
    lam: float,
    k_max: int,
    density: int,
    sweep: tuple,
) -> WienerReport:
    """Weighted shell capacities k = 1..k_max with a heuristic verdict.

    Each row of terms holds k, cap, weight, term and lp, the lp_report
    of the shell's capacity LP.  The sweep argument lists extra lambda
    values; their verdicts are reported alongside (the true series
    diverges for one lambda exactly when it diverges for all).  The
    shells of lambda and of each distinct sweep value go to one
    shell_terms call.  A k_max at which the inner level of a last shell
    underflows to 0, or its heat-ball threshold overflows, raises
    ValueError before any shell is built.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    # lambda first, then each sweep value not yet seen: every series in one pass
    lams = list(dict.fromkeys((lam, *sweep)))
    # shell k lies between the levels lambda^k and lambda^(k+1), both positive, and
    # theta grows as the level falls, so the deepest inner threshold is the largest
    deepest = min(lams) ** (k_max + 1)
    try:
        fits = deepest > 0.0 and math.isfinite(heat_ball_threshold(params, xi0.x, deepest))
    except OverflowError:
        fits = False
    if not fits:
        raise ValueError(
            f"k_max {k_max} is too large: the heat-ball threshold at level "
            f"{min(lams):g}^{k_max + 1} = {deepest:g} is out of range"
        )
    _check_boundary_point(domain, xi0, params.n)
    ks = range(1, k_max + 1)
    results = shell_terms(params, xi0, [(lv, k) for lv in lams for k in ks], domain, density)
    terms = [term for _, _, term, _ in results]
    verdicts = {lv: classify_terms(terms[i * k_max : (i + 1) * k_max]) for i, lv in enumerate(lams)}
    rows = [
        {"k": k, "cap": cap, "weight": weight, "term": term, "lp": lp_report(res)}
        for k, (cap, weight, term, res) in zip(ks, results)
    ]
    return WienerReport(
        lam=lam,
        terms=rows,
        partial_sums=list(accumulate(row["term"] for row in rows)),
        verdict=verdicts[lam],
        thresholds={
            "div_fraction": DIV_FRACTION,
            "tail_len": TAIL_LEN,
            "conv_ratio": CONV_RATIO,
            "conv_r2": CONV_R2,
            "term_floor": TERM_FLOOR,
        },
        lambda_sweep={lv: verdicts[lv] for lv in sweep},
    )

