"""Batch front-end: JSON config in, CSV/JSON envelopes out.

Exit codes: 0 success, 1 check failure, 2 config error, 3 numerical
failure (non-convergence, a non-finite value, or an overflow on finite
but extreme input).  The library raises ValueError for a bad argument
and RuntimeError for a numerical failure; main maps KeyError, TypeError
and ValueError to exit 2, and RuntimeError and ArithmeticError
(OverflowError, ZeroDivisionError) to exit 3, each with a single stderr
line: the warnings of a failed run are not printed.  Commands run
serially: --workers is accepted and must be at least 1, but it changes
nothing, so identical configs produce identical CSV bytes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bem import solve_dirichlet, u0_identity
from .capacity import (
    CapacityResult,
    box_lattice,
    capacity_lp,
    check_matrix_fits,
    flat_lattice,
    flat_set_capacity,
)
from .geometry import BoxDomain
from .kernel import (
    bounds_sandwich,
    gamma_fs,
    gamma_fs_vec,
    gamma_grad_y_vec,
    mass_integral,
    semigroup_residual,
)
from .meanvalue import harnack_quotient, solid_mean
from .params import KernelParams, SpaceTimePoint
from .wiener import DomainDescriptor, wiener_series


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: KernelParams
    raw: dict

    @classmethod
    def load(cls, command: str, path: str, tol: float | None) -> "RunConfig":
        # an integer literal beyond the range of a double reads as infinity, as 1e400 does
        parse_int = lambda s: int(s) if math.isfinite(float(s)) else float(s)
        try:
            raw = json.loads(Path(path).read_text(), parse_int=parse_int)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        block = raw.get("params")
        if not isinstance(block, dict) or "n" not in block or "a" not in block:
            raise ConfigError("config needs params: {n, a}")
        params = KernelParams(n=_count(block["n"], "params.n"), a=float(block["a"]))
        if tol is not None:
            raw = {**raw, "tol": tol}
        if "tol" in raw:
            _tol(raw["tol"])
        return cls(command=command, params=params, raw=raw)

    @property
    def digest(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class ResultEnvelope:
    command: str
    config_digest: str
    version: str
    wall_time_s: float
    payload: dict
    diagnostics: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float)) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _count(value, label: str) -> int:
    """A count field: a positive integral number, not a boolean or infinity."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < 1:
        raise ConfigError(f"{label} must be a positive integer, got {value!r}")
    return int(value)


def _tol(value, upper: float = math.inf) -> float:
    """A tolerance field: a number in (0, upper), so finite, and not a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value < upper:
        raise ConfigError(f"tol must be a number in (0, {upper:g}), got {value!r}")
    return float(value)


def _point(coords, n: int, label: str) -> SpaceTimePoint:
    coords = [float(c) for c in coords]
    if len(coords) != n + 1:
        raise ConfigError(f"{label} needs {n + 1} coordinates")
    return SpaceTimePoint(x_prime=tuple(coords[: n - 1]), x=coords[n - 1], t=coords[n])


def _box(cfg: dict, n: int) -> BoxDomain:
    lo, hi = [float(v) for v in cfg["lo"]], [float(v) for v in cfg["hi"]]
    t0, t1 = float(cfg["t0"]), float(cfg["t1"])
    if len(lo) != n or len(hi) != n:
        raise ConfigError(f"box corners need {n} coordinates")
    if not all(math.isfinite(v) for v in (*lo, *hi, t0, t1)):
        raise ConfigError("box coordinates must be finite")
    return BoxDomain(lo=tuple(lo), hi=tuple(hi), t0=t0, t1=t1)


# ---------------------------------------------------------------- commands


def cmd_kernel(config: RunConfig) -> tuple[dict, dict, list, list]:
    n = config.params.n
    points = config.raw.get("points")
    if not isinstance(points, list) or not points:
        raise ConfigError("kernel command needs a nonempty points list")
    pairs = [
        (_point(p["xi"], n, "xi"), _point(p["zeta"], n, "zeta")) for p in points
    ]

    def row(pair):
        xi, zeta = pair
        if xi.t <= zeta.t:
            return list(xi.spatial) + [xi.t] + list(zeta.spatial) + [zeta.t] + [0.0] * (n + 3)
        gam = gamma_fs(config.params, xi, zeta)
        grad = gamma_grad_y_vec(config.params, xi.spatial, xi.t, zeta.spatial, zeta.t)
        lower, _, upper = bounds_sandwich(config.params, xi, zeta)
        return (
            list(xi.spatial)
            + [xi.t]
            + list(zeta.spatial)
            + [zeta.t]
            + [gam]
            + [float(g) for g in np.ravel(grad)]
            + [lower, upper]
        )

    rows = [row(pair) for pair in pairs]
    bad = [i for i, r in enumerate(rows) if not all(math.isfinite(v) for v in r)]
    if bad:
        raise RuntimeError(f"non-finite kernel output at point {bad[0]}")
    header = (
        [f"xi_{i}" for i in range(n)]
        + ["xi_t"]
        + [f"zeta_{i}" for i in range(n)]
        + ["zeta_t"]
        + ["gamma"]
        + [f"grad_{i}" for i in range(n)]
        + ["env_lower", "env_upper"]
    )
    return {"rows": len(rows)}, {}, header, rows


def cmd_check(config: RunConfig) -> tuple[dict, dict, list, list]:
    tol = _tol(config.raw.get("tol", 1e-6))
    perturb = float(config.raw.get("perturb", 1.0))
    mass_points = config.raw.get("mass_points", [])
    semis = config.raw.get("semigroup", [])
    if not mass_points and not semis:
        raise ConfigError("check command needs mass_points or semigroup entries")
    n = config.params.n
    if any(not isinstance(e, list) or len(e) != n + 1 for e in mass_points):
        raise ConfigError(f"each mass_points entry needs {n + 1} coordinates")
    if any(not isinstance(e, list) or len(e) != 4 for e in semis):
        raise ConfigError("each semigroup entry needs 4 values: x, eta, t, s")
    if not all(math.isfinite(float(v)) for e in (*mass_points, *semis) for v in e):
        raise ConfigError("mass_points and semigroup values must be finite")
    rows = []
    failures = 0
    for entry in mass_points:
        xp, x, t = entry[: n - 1], entry[n - 1], entry[-1]
        val = mass_integral(config.params, (xp, x), float(t)) * perturb
        err = abs(val - 1.0)
        ok = err <= tol
        failures += not ok
        rows.append(["mass", err, int(ok)])
    for entry in semis:
        x, eta, t, s = map(float, entry)
        res = semigroup_residual(config.params, x, eta, t, s) * perturb
        ok = res <= tol
        failures += not ok
        rows.append(["semigroup", res, int(ok)])
    return (
        {"checks": len(rows), "failures": failures},
        {"tol": tol},
        ["check", "residual", "passed"],
        rows,
    )


def cmd_dirichlet(config: RunConfig) -> tuple[dict, dict, list, list]:
    params = config.params
    box = _box(config.raw.get("box", {}), params.n)
    d_space = _count(config.raw.get("d_space", 6), "dirichlet d_space")
    n_steps = _count(config.raw.get("n_steps", 8), "dirichlet n_steps")
    data = config.raw.get("data", "constant")
    if data == "constant":
        c = float(config.raw.get("constant", 1.0))

        def f(pts, t):
            return np.full(len(np.atleast_2d(pts)), c)

        def ref(xi):
            return c

    elif data == "gamma":
        pole = _point(config.raw.get("pole", ()), params.n, "pole")
        if pole.t >= box.t0:
            raise ConfigError("pole must sit strictly before the box")

        def f(pts, t):
            return gamma_fs_vec(params, np.atleast_2d(pts), t, pole.spatial, pole.t)

        def ref(xi):
            return gamma_fs(params, xi, pole)

    else:
        raise ConfigError(f"unknown data kind {data!r}")
    probes = [_point(p, params.n, "probe") for p in config.raw.get("probes", [])]
    if not probes:
        raise ConfigError("dirichlet command needs probe points")
    # the solution is only defined inside the box; u0_probes sit on faces by design
    outside = [xi for xi in probes if not box.contains(xi)]
    if outside:
        xi = outside[0]
        raise ConfigError(
            f"probe {[*xi.spatial, xi.t]} lies outside the open box or outside (t0, t1]"
        )
    sol = solve_dirichlet(params, box, f, d_space=d_space, n_steps=n_steps)
    rows = []
    for xi, got in zip(probes, sol.evaluate(probes)):
        want = ref(xi)
        rows.append(list(xi.spatial) + [xi.t, got, want, abs(got - want)])
    for coords in config.raw.get("u0_probes", []):
        xi = _point(coords, params.n, "u0 probe")
        rows.append(list(xi.spatial) + [xi.t, u0_identity(params, box, xi), math.nan, math.nan])
    diags = {
        "residual": sol.info["residual"],
        "cells": sol.mesh.n_cells,
        "steps": sol.mesh.n_steps,
        "inner_iterations": sol.info["inner_iterations"],
        "lag0": sol.mesh.lag0_split,
    }
    header = (
        [f"probe_{i}" for i in range(params.n)] + ["probe_t", "value", "reference", "abs_err"]
    )
    return {"rows": len(rows)}, diags, header, rows


def cmd_capacity(config: RunConfig) -> tuple[dict, dict, list, list]:
    params = config.params
    spec = config.raw.get("set")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("capacity command needs a set block with a kind")
    kind = spec["kind"]
    if kind not in ("flat", "box"):
        raise ConfigError(f"unknown set kind {kind!r}")
    tau = float(spec["tau"]) if kind == "flat" else 0.0
    # a flat set's corners are checked as those of a box over [tau, tau + 1]
    box = _box(spec if kind == "box" else {**spec, "t0": tau, "t1": tau + 1.0}, params.n)
    density = _count(config.raw.get("density", 16), "capacity density")
    # the LP stops at this relative duality gap, so it must be below 1
    tol = _tol(config.raw.get("tol", 1e-8), upper=1.0)
    # the fine level has the most atoms: density^n per slice, density slices for a box;
    # a float product overflows to inf instead of raising, so a huge density exits 2
    check_matrix_fits(math.prod([2.0 * density] * (params.n + (kind == "box"))))

    def run(dens: int) -> CapacityResult:
        if kind == "flat":
            pts, times, h = flat_lattice(box.lo, box.hi, tau, dens)
            return capacity_lp(params, pts, times, h, h * h, tol=tol, refinement_level=dens)
        sp, tm, hs, ht = box_lattice(box.lo, box.hi, box.t0, box.t1, dens)
        return capacity_lp(params, sp, tm, hs, ht, tol=tol, refinement_level=dens)

    levels = [run(density), run(2 * density)]
    coarse, fine = (res.cap_estimate for res in levels)
    extrapolated = 2.0 * fine - coarse
    oracle = flat_set_capacity(params, box.lo, box.hi) if kind == "flat" else math.nan
    rows = [[density, coarse, fine, extrapolated, oracle]]
    diags = {
        "density_pair": [density, 2 * density],
        "levels": [
            {
                "density": res.refinement_level,
                "atoms": len(res.equilibrium.masses),
                "lp_rows": res.lp_rows,
                "near_pairs": res.near_pairs,
                "lp_iterations": res.lp_iterations,
                "max_constraint_violation": res.max_constraint_violation,
            }
            for res in levels
        ],
    }
    return (
        {"cap_extrapolated": extrapolated},
        diags,
        ["density", "cap_coarse", "cap_fine", "cap_extrapolated", "oracle"],
        rows,
    )


def cmd_wiener(config: RunConfig) -> tuple[dict, dict, list, list]:
    params = config.params
    xi0 = _point(config.raw.get("xi0", ()), params.n, "xi0")
    dom_block = config.raw.get("domain")
    if not isinstance(dom_block, dict):
        raise ConfigError("wiener command needs a domain descriptor")
    domain = DomainDescriptor(tuple(dom_block["primitives"]), tuple(dom_block.get("ops", ())))
    lam = float(config.raw.get("lambda", 0.5))
    k_max = _count(config.raw.get("k_max", 12), "wiener k_max")
    density = _count(config.raw.get("density", 10), "wiener density")
    sweep = tuple(float(v) for v in config.raw.get("sweep", ()))
    report = wiener_series(params, xi0, domain, lam=lam, k_max=k_max, density=density, sweep=sweep)
    rows = [
        [lam, row["k"], row["cap"], row["weight"], row["term"], s]
        for row, s in zip(report.terms, report.partial_sums)
    ]
    return (
        {"verdict": report.verdict, "lambda_sweep": report.lambda_sweep},
        {"thresholds": report.thresholds},
        ["lambda", "k", "cap", "weight", "term", "partial_sum"],
        rows,
    )


def cmd_meanvalue(config: RunConfig) -> tuple[dict, dict, list, list]:
    params = config.params
    xi0 = _point(config.raw.get("xi0", ()), params.n, "xi0")
    radii = [float(r) for r in config.raw.get("radii", [])]
    if not radii or not all(0.0 < r < math.inf for r in radii):
        raise ConfigError("meanvalue command needs positive finite radii")
    density = _count(config.raw.get("density", 8), "meanvalue density")

    def one(pts, t):
        return np.ones(len(np.atleast_2d(pts)))

    cases = [("one", one, 1.0)]
    if "pole" in config.raw:
        pole = _point(config.raw["pole"], params.n, "pole")
        if pole.t >= xi0.t:
            raise ConfigError("pole must sit strictly before xi0 in time")

        def ug(pts, t):
            return gamma_fs_vec(params, np.atleast_2d(pts), t, pole.spatial, pole.t)

        cases.append(("gamma", ug, gamma_fs(params, xi0, pole)))

    rows = []
    for name, u, want in cases:
        for r in radii:
            mean = solid_mean(params, u, xi0, r, density=density)
            rows.append([name, r, mean, want, abs(mean - want) / abs(want)])
    worst = max(row[-1] for row in rows)
    return (
        {"max_rel_err": worst},
        {"density": density},
        ["case", "r", "mean", "reference", "rel_err"],
        rows,
    )


def cmd_harnack(config: RunConfig) -> tuple[dict, dict, list, list]:
    params = config.params
    if params.n != 2:
        raise ConfigError("harnack command supports n = 2")
    r = float(config.raw.get("r", 0.02))
    if not r > 0.0:
        raise ConfigError("harnack r must be positive")
    pole = _point(config.raw.get("pole", ()), params.n, "pole")
    density = _count(config.raw.get("density", 24), "harnack density")

    def u(pts, t):
        return gamma_fs_vec(params, np.atleast_2d(pts), t, pole.spatial, pole.t)

    reports = [harnack_quotient(params, r, u, density=dens) for dens in (density, 2 * density)]
    rows = [
        [dens, rep.bottom_average, rep.interior_inf, rep.quotient]
        for dens, rep in zip([density, 2 * density], reports)
    ]
    drift = abs(reports[1].quotient - reports[0].quotient) / reports[0].quotient
    return (
        {"quotient": reports[1].quotient, "refinement_drift": drift},
        {"density_pair": [density, 2 * density]},
        ["density", "bottom_average", "interior_inf", "quotient"],
        rows,
    )


_COMMANDS = {
    "kernel": cmd_kernel,
    "check": cmd_check,
    "dirichlet": cmd_dirichlet,
    "capacity": cmd_capacity,
    "wiener": cmd_wiener,
    "meanvalue": cmd_meanvalue,
    "harnack": cmd_harnack,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="degenheat")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    try:
        # warnings are held until the command succeeds, so a failure prints one line
        with warnings.catch_warnings(record=True) as held:
            config = RunConfig.load(args.command, args.config, args.tol)
            if args.workers < 1:
                raise ConfigError("workers must be at least 1")
            start = time.monotonic()
            payload, diags, header, rows = _COMMANDS[args.command](config)
            elapsed = time.monotonic() - start
    except KeyError as exc:
        print(f"config error: missing key {exc}", file=sys.stderr)
        return 2
    except (TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for w in held:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    envelope = ResultEnvelope(
        command=args.command,
        config_digest=config.digest,
        version=__version__,
        wall_time_s=elapsed,
        payload=payload,
        diagnostics=diags,
    )
    (out / f"{args.command}.json").write_text(envelope.to_json() + "\n")
    _write_csv(out / f"{args.command}.csv", header, rows)
    if args.command == "check" and payload.get("failures", 0) > 0:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
