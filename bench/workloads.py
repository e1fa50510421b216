"""Seeded job generators and reference checks for the CLI commands, and the workloads.

Each of the four commands (`dirichlet`, `capacity`, `wiener`,
`meanvalue`) has an endless sequence of jobs.  Job i of a command is a
pure function of (command, seed, i), so two runs on one seed feed the
CLI byte-identical configs.  Discrete choices that change the code path
a job takes (box on or off the degenerate plane, centre near or away
from it, the value of `a` in `meanvalue`) cycle with k = seed + i: a run
of several jobs of a command sees every branch in turn, and a run of one
job (a `meanvalue` job is long) takes the branch its seed selects.

A workload is a fixed mix of commands, run in whole rounds.  Two mixes
split the library by call size: `large_calls` (BEM solves on large
kernel arrays, one large dense LP per level) and `small_calls` (dozens
of small LPs and heat-ball samples per job, ~24k kernel calls of ~20
points per mean).  A change that helps one regime and costs the other
shows as a gain on one workload and a loss on the other.  A run takes
about 40 s of jobs, so the machine's load swings average out within it.

The number of jobs in a run is fixed by the workload and the run length
alone (`Workload.jobs`), never by how fast the code is: two commits on
one seed run the same configs, so their `attempted` and `failed` counts
compare as they stand.

References are computed here, from closed forms and scipy's Bessel
functions, and never from the library under test: a change that broke
the kernel would otherwise break value and reference alike.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from scipy import special as sps

# acceptance bounds: criteria 07, 08, 10 and 13
DIRICHLET_REL = 1e-2
CAPACITY_REL = 0.02
MEAN_REL = 1e-3
REGULAR = "likely-regular"


def gamma_ref(a: float, n: int, xi, zeta) -> float:
    """Gamma(xi; zeta) for points [x_1..x_{n-1}, y, t], straight from its formula.

    Gamma = c_na d^{-(n+a)/2} exp(-|X-Y|^2/4d) F(xy/d) with the profile
    F(s) = e^{-s/2} (|s|/4)^{-nu} [I_nu + sgn(s) I_{-nu}](|s|/2), nu = (a-1)/2;
    for s < 0 the bracket is -(2/pi) sin(nu pi) K_nu.
    """
    d = xi[-1] - zeta[-1]
    if d <= 0.0:
        return 0.0
    nu = 0.5 * (a - 1.0)
    c_na = 2.0 ** (-1.0 - a) * (4.0 * math.pi) ** (-(n - 1) / 2.0)
    dist2 = sum((p - q) ** 2 for p, q in zip(xi[:n], zeta[:n]))
    s = xi[n - 1] * zeta[n - 1] / d
    w = abs(s) / 2.0
    if s == 0.0:
        prof = 1.0 / math.gamma(nu + 1.0)
    elif s > 0.0:
        prof = (w / 2.0) ** (-nu) * (sps.ive(nu, w) + sps.ive(-nu, w))
    else:
        coef = -2.0 * math.sin(nu * math.pi) / math.pi
        prof = (w / 2.0) ** (-nu) * coef * sps.kve(nu, w)
    return c_na * d ** (-(n + a) / 2.0) * math.exp(-dist2 / (4.0 * d)) * prof


def weighted_area(a: float, lo, hi) -> float:
    """Weighted volume of a rectangle, int |y|^a over [lo, hi] (last axis weighted)."""

    def prim(y: float) -> float:
        return math.copysign(abs(y) ** (1.0 + a), y) / (1.0 + a)

    return (hi[0] - lo[0]) * (prim(hi[1]) - prim(lo[1]))


@dataclass(frozen=True)
class Check:
    ok: bool
    err: float  # worst relative error; 0.0 where the job has no numeric reference
    detail: str


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _worst(errs: list[float]) -> float:
    return math.nan if any(math.isnan(e) for e in errs) else max(errs)


def _rows(csv_text: str) -> list[list[str]]:
    return [line.split(",") for line in csv_text.strip().splitlines()[1:]]


# ------------------------------------------------------------- dirichlet


def dirichlet_config(rng: random.Random, k: int) -> dict:
    """Criterion-12 mesh; even k off the plane, odd k with a face on y = 0."""
    a = rng.uniform(-0.5, 0.5)
    x0 = rng.uniform(-0.5, 0.5)
    y0 = 0.2 if k % 2 == 0 else 0.0
    lo, hi = [x0, y0], [x0 + 1.0, y0 + 1.0]
    pole = [x0 + rng.uniform(0.2, 0.8), y0 + rng.uniform(0.2, 0.8), -rng.uniform(0.2, 0.4)]
    probes = [
        [x0 + rng.uniform(0.25, 0.75), y0 + rng.uniform(0.25, 0.75), rng.uniform(0.3, 0.9)]
        for _ in range(2)
    ]
    # one probe within one cell (h = 1/8) of a face: the refined near-cell
    # path.  Its error reaches ~1.2e-2 there, so some jobs miss the bound.
    axis, side = rng.randrange(2), rng.randrange(2)
    gap = rng.uniform(0.03, 0.12)
    near = [x0 + rng.uniform(0.3, 0.7), y0 + rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.9)]
    near[axis] = (lo[axis] + gap) if side == 0 else (hi[axis] - gap)
    probes.append(near)
    return {
        "params": {"n": 2, "a": a},
        "box": {"lo": lo, "hi": hi, "t0": 0.0, "t1": 1.0},
        "d_space": 8,
        "n_steps": 12,
        "data": "gamma",
        "pole": pole,
        "probes": probes,
    }


def dirichlet_check(cfg: dict, payload: dict, csv_text: str) -> Check:
    a = cfg["params"]["a"]
    rows = _rows(csv_text)
    if len(rows) != len(cfg["probes"]):
        return Check(False, math.nan, f"{len(rows)} rows for {len(cfg['probes'])} probes")
    worst = _worst(
        [_rel(float(row[3]), gamma_ref(a, 2, p, cfg["pole"])) for p, row in zip(cfg["probes"], rows)]
    )
    return Check(worst <= DIRICHLET_REL, worst, f"max rel err {worst:.3e}")


# -------------------------------------------------------------- capacity


def capacity_config(rng: random.Random, k: int) -> dict:
    """Flat 2 x 2 square at time 0, coarse/fine lattice pair 16/32."""
    lo = [rng.uniform(-1.5, 0.5), rng.uniform(-1.5, 0.5)]
    return {
        "params": {"n": 2, "a": rng.uniform(-0.5, 0.5)},
        "set": {"kind": "flat", "lo": lo, "hi": [lo[0] + 2.0, lo[1] + 2.0], "tau": 0.0},
        "density": 16,
    }


def capacity_check(cfg: dict, payload: dict, csv_text: str) -> Check:
    rows = _rows(csv_text)
    if len(rows) != 1:
        return Check(False, math.nan, f"{len(rows)} rows, want 1")
    spec = cfg["set"]
    err = _rel(float(rows[0][3]), weighted_area(cfg["params"]["a"], spec["lo"], spec["hi"]))
    return Check(err <= CAPACITY_REL, err, f"rel err vs weighted area {err:.3e}")


# ---------------------------------------------------------------- wiener


def wiener_config(rng: random.Random, k: int) -> dict:
    """Criterion-13 setup: a point on the initial face of the README box.

    The job cost falls by half from y = 0.3 to y = 1.1, so y cycles
    through eight bands with k.
    """
    band = k % 8
    return {
        "params": {"n": 2, "a": 0.3},
        "xi0": [rng.uniform(0.1, 0.9), rng.uniform(0.3 + 0.1 * band, 0.4 + 0.1 * band), 0.0],
        "lambda": 0.5,
        "k_max": 12,
        "density": 10,
        "sweep": [0.3, 0.7],
        "domain": {
            "primitives": [{"type": "box", "lo": [0.0, 0.2], "hi": [1.0, 1.2], "t": [0.0, 1.0]}],
            "ops": [],
        },
    }


def wiener_check(cfg: dict, payload: dict, csv_text: str) -> Check:
    verdicts = [payload.get("verdict")] + list(payload.get("lambda_sweep", {}).values())
    rows = _rows(csv_text)
    ok = (
        len(verdicts) == 1 + len(cfg["sweep"])
        and all(v == REGULAR for v in verdicts)
        and len(rows) == cfg["k_max"]
    )
    return Check(ok, 0.0, f"verdicts {verdicts}")


# ------------------------------------------------------------- meanvalue


def meanvalue_config(rng: random.Random, k: int) -> dict:
    """One radius, constant and Gamma-pole cases; centres cycle near/away x a."""
    a = (-0.5, 0.3)[k % 2]
    y = rng.uniform(0.02, 0.1) if (k // 2) % 2 == 0 else rng.uniform(0.5, 0.9)
    return {
        "params": {"n": 2, "a": a},
        "xi0": [rng.uniform(0.2, 0.8), y, 0.0],
        "radii": [rng.uniform(0.01, 0.05)],
        "density": 6,
        "pole": [rng.uniform(0.2, 0.8), rng.uniform(0.3, 0.8), -0.5],
    }


def meanvalue_check(cfg: dict, payload: dict, csv_text: str) -> Check:
    a = cfg["params"]["a"]
    want = {"one": 1.0, "gamma": gamma_ref(a, 2, cfg["xi0"], cfg["pole"])}
    rows = _rows(csv_text)
    if sorted(row[0] for row in rows) != sorted(want):
        return Check(False, math.nan, f"cases {[row[0] for row in rows]}")
    worst = _worst([_rel(float(row[2]), want[row[0]]) for row in rows])
    return Check(worst <= MEAN_REL, worst, f"max rel err {worst:.3e}")


@dataclass(frozen=True)
class Command:
    """A CLI subcommand (also the command name), its config source and check."""

    name: str
    make: object
    check: object
    job_s: float  # median job wall of the seed code on a 2-core x86-64 VM

    def config(self, seed: int, i: int) -> dict:
        return self.make(random.Random(f"{self.name}:{seed}:{i}"), seed + i)


COMMANDS = {
    c.name: c
    for c in (
        Command("dirichlet", dirichlet_config, dirichlet_check, job_s=2.7),
        Command("capacity", capacity_config, capacity_check, job_s=8.4),
        Command("wiener", wiener_config, wiener_check, job_s=1.6),
        Command("meanvalue", meanvalue_config, meanvalue_check, job_s=17.0),
    )
}


@dataclass(frozen=True)
class Workload:
    """A fixed mix of jobs: `round` lists (command, jobs per round).

    Each count is a multiple of the branches its command cycles through
    (dirichlet 2, wiener 8), so every round balances them.
    """

    name: str
    round: tuple

    def jobs(self, seconds: float) -> list[tuple[Command, int]]:
        """(command, job index) of a run of `seconds`: the whole rounds that fit at job_s, at least one."""
        round_s = sum(COMMANDS[c].job_s * n for c, n in self.round)
        rounds = max(1, int(seconds / round_s))
        return [(COMMANDS[c], i) for c, n in self.round for i in range(rounds * n)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("large_calls", (("dirichlet", 8), ("capacity", 2))),
        Workload("small_calls", (("wiener", 16), ("meanvalue", 1))),
    )
}
