"""Batch front-end: JSON config in, CSV/JSON envelopes out.

Exit codes: 0 success, 1 check failure, 2 config error, 3 numerical
failure (non-convergence or a non-finite kernel value).  Identical
configs produce identical CSV bytes regardless of worker count; workers
only parallelize independent sub-tasks and results are reduced in fixed
task order.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bem import solve_dirichlet, u0_identity
from .capacity import box_lattice, capacity_lp, flat_lattice, flat_set_capacity
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
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        block = raw.get("params")
        if not isinstance(block, dict) or "n" not in block or "a" not in block:
            raise ConfigError("config needs params: {n, a}")
        try:
            params = KernelParams(n=int(block["n"]), a=float(block["a"]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if tol is not None:
            if not tol > 0.0:
                raise ConfigError("tolerance override must be positive")
            raw = {**raw, "tol": tol}
        if "tol" in raw and not float(raw["tol"]) > 0.0:
            raise ConfigError("tolerance must be positive")
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
        return json.dumps(
            {
                "command": self.command,
                "config_digest": self.config_digest,
                "version": self.version,
                "wall_time_s": self.wall_time_s,
                "payload": self.payload,
                "diagnostics": self.diagnostics,
            },
            indent=2,
        )


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float)) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _map_ordered(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _point(coords, n: int, label: str) -> SpaceTimePoint:
    coords = [float(c) for c in coords]
    if len(coords) != n + 1:
        raise ConfigError(f"{label} needs {n + 1} coordinates")
    return SpaceTimePoint(x_prime=tuple(coords[: n - 1]), x=coords[n - 1], t=coords[n])


def _box(cfg: dict, n: int) -> BoxDomain:
    try:
        lo, hi = cfg["lo"], cfg["hi"]
        t0, t1 = float(cfg["t0"]), float(cfg["t1"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"box block invalid: {exc}") from exc
    if len(lo) != n or len(hi) != n:
        raise ConfigError(f"box corners need {n} coordinates")
    return BoxDomain(lo=tuple(map(float, lo)), hi=tuple(map(float, hi)), t0=t0, t1=t1)


# ---------------------------------------------------------------- commands


def cmd_kernel(config: RunConfig, workers: int) -> tuple[dict, dict, list, list]:
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

    rows = _map_ordered(row, pairs, workers)
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


def cmd_check(config: RunConfig, workers: int) -> tuple[dict, dict, list, list]:
    tol = float(config.raw.get("tol", 1e-6))
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


def cmd_dirichlet(config: RunConfig, workers: int) -> tuple[dict, dict, list, list]:
    params = config.params
    box = _box(config.raw.get("box", {}), params.n)
    d_space = int(config.raw.get("d_space", 6))
    n_steps = int(config.raw.get("n_steps", 8))
    if d_space < 1 or n_steps < 1:
        raise ConfigError("dirichlet d_space and n_steps must be at least 1")
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
    sol = solve_dirichlet(params, box, f, d_space=d_space, n_steps=n_steps)
    rows = []
    for xi in probes:
        got = sol(xi)
        want = ref(xi)
        rows.append(list(xi.spatial) + [xi.t, got, want, abs(got - want)])
    for coords in config.raw.get("u0_probes", []):
        xi = _point(coords, params.n, "u0 probe")
        rows.append(list(xi.spatial) + [xi.t, u0_identity(params, box, xi), math.nan, math.nan])
    diags = {"residual": sol.info["residual"]}
    header = (
        [f"probe_{i}" for i in range(params.n)] + ["probe_t", "value", "reference", "abs_err"]
    )
    return {"rows": len(rows)}, diags, header, rows


def cmd_capacity(config: RunConfig, workers: int) -> tuple[dict, dict, list, list]:
    params = config.params
    spec = config.raw.get("set")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("capacity command needs a set block with a kind")
    density = int(config.raw.get("density", 16))
    if density < 1:
        raise ConfigError("capacity density must be at least 1")
    tol = float(config.raw.get("tol", 1e-8))

    def run(dens: int) -> float:
        if spec["kind"] == "flat":
            pts, times, h = flat_lattice(spec["lo"], spec["hi"], float(spec["tau"]), dens)
            return capacity_lp(params, pts, times, h, h * h, tol=tol).cap_estimate
        if spec["kind"] == "box":
            sp, tm, hs, ht = box_lattice(
                spec["lo"], spec["hi"], float(spec["t0"]), float(spec["t1"]), dens
            )
            return capacity_lp(params, sp, tm, hs, ht, tol=tol).cap_estimate
        raise ConfigError(f"unknown set kind {spec['kind']!r}")

    coarse, fine = _map_ordered(run, [density, 2 * density], workers)
    extrapolated = 2.0 * fine - coarse
    oracle = (
        flat_set_capacity(params, spec["lo"], spec["hi"])
        if spec["kind"] == "flat"
        else math.nan
    )
    rows = [[density, coarse, fine, extrapolated, oracle]]
    return (
        {"cap_extrapolated": extrapolated},
        {"density_pair": [density, 2 * density]},
        ["density", "cap_coarse", "cap_fine", "cap_extrapolated", "oracle"],
        rows,
    )


def cmd_wiener(config: RunConfig, workers: int) -> tuple[dict, dict, list, list]:
    params = config.params
    xi0 = _point(config.raw.get("xi0", ()), params.n, "xi0")
    dom_block = config.raw.get("domain")
    if not isinstance(dom_block, dict):
        raise ConfigError("wiener command needs a domain descriptor")
    try:
        domain = DomainDescriptor(
            tuple(dom_block["primitives"]), tuple(dom_block.get("ops", ()))
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"domain descriptor invalid: {exc}") from exc
    lam = float(config.raw.get("lambda", 0.5))
    k_max = int(config.raw.get("k_max", 12))
    density = int(config.raw.get("density", 10))
    sweep = tuple(float(v) for v in config.raw.get("sweep", ()))
    try:
        report = wiener_series(
            params, xi0, domain, lam=lam, k_max=k_max, density=density, sweep=sweep
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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


def cmd_meanvalue(config: RunConfig, workers: int) -> tuple[dict, dict, list, list]:
    params = config.params
    xi0 = _point(config.raw.get("xi0", ()), params.n, "xi0")
    radii = [float(r) for r in config.raw.get("radii", [])]
    if not radii:
        raise ConfigError("meanvalue command needs radii")
    if not all(r > 0.0 for r in radii):
        raise ConfigError("meanvalue radii must be positive")
    density = int(config.raw.get("density", 8))
    if density < 1:
        raise ConfigError("meanvalue density must be at least 1")

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

    tasks = [(name, u, want, r) for name, u, want in cases for r in radii]

    def run(task):
        name, u, want, r = task
        mean = solid_mean(params, u, xi0, r, density=density)
        return [name, r, mean, want, abs(mean - want) / abs(want)]

    rows = _map_ordered(run, tasks, workers)
    worst = max(row[-1] for row in rows)
    return (
        {"max_rel_err": worst},
        {"density": density},
        ["case", "r", "mean", "reference", "rel_err"],
        rows,
    )


def cmd_harnack(config: RunConfig, workers: int) -> tuple[dict, dict, list, list]:
    params = config.params
    if params.n != 2:
        raise ConfigError("harnack command supports n = 2")
    r = float(config.raw.get("r", 0.02))
    if not r > 0.0:
        raise ConfigError("harnack r must be positive")
    pole = _point(config.raw.get("pole", ()), params.n, "pole")
    density = int(config.raw.get("density", 24))
    if density < 1:
        raise ConfigError("harnack density must be at least 1")

    def u(pts, t):
        return gamma_fs_vec(params, np.atleast_2d(pts), t, pole.spatial, pole.t)

    reports = _map_ordered(
        lambda dens: harnack_quotient(params, r, u, density=dens),
        [density, 2 * density],
        workers,
    )
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
        p.add_argument(
            "--workers",
            type=int,
            default=int(os.environ.get("DEGENHEAT_WORKERS", "1")),
        )
        p.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    try:
        config = RunConfig.load(args.command, args.config, args.tol)
        if args.workers < 1:
            raise ConfigError("workers must be at least 1")
        start = time.monotonic()
        payload, diags, header, rows = _COMMANDS[args.command](config, args.workers)
        elapsed = time.monotonic() - start
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    envelope = ResultEnvelope(
        command=args.command,
        config_digest=config.digest,
        version=__version__,
        wall_time_s=elapsed,
        payload=payload,
        diagnostics={**diags, "workers": args.workers},
    )
    (out / f"{args.command}.json").write_text(envelope.to_json() + "\n")
    _write_csv(out / f"{args.command}.csv", header, rows)
    if args.command == "check" and payload.get("failures", 0) > 0:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
