"""Batch front-end: JSON config in, CSV/JSON envelopes out.

Exit codes: 0 success, 1 check failure, 2 config error, 3 numerical
failure.  Each command first reads its fields through params.number and
params.numbers, the one number policy, and _count, _point and _box,
built on them; DomainDescriptor reads a domain primitive's fields the
same way.  main maps KeyError, TypeError and ValueError (a bad config or
library argument, an --out that is a file) and OSError (outputs that
cannot be written) to exit 2, and RuntimeError, ArithmeticError and
MemoryError (non-convergence, a non-finite value, an overflow on finite
but extreme input, an allocation that cannot be met) to exit 3, each
with a single stderr line: the warnings of a failed run are not printed.
Commands run serially: --workers must be at least 1 but changes
nothing, so identical configs produce identical CSV bytes.  L_a does not
change under a shift in time, so each command computes in the frame of
one time origin (dirichlet's box t0, meanvalue's xi0, the capacity set's
start, and in wiener_series xi0), subtracted once where the config is
read: only domain tests and the CSV's time columns see absolute times.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bem import solve_dirichlet, u0_identity
from .capacity import capacity_lp, check_matrix_fits, flat_set_capacity, lp_report
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
from .params import KernelParams, SpaceTimePoint, number, numbers
from .quadrature import box_lattice, flat_lattice
from .wiener import DomainDescriptor, wiener_series


@dataclass(frozen=True)
class RunConfig:
    params: KernelParams
    raw: dict

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        # an integer literal beyond the range of a double reads as infinity, as 1e400 does
        parse_int = lambda s: int(s) if math.isfinite(float(s)) else float(s)
        try:
            raw = json.loads(Path(path).read_text(), parse_int=parse_int)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        block = raw.get("params")
        if not isinstance(block, dict) or "n" not in block or "a" not in block:
            raise ValueError("config needs params: {n, a}")
        params = KernelParams(n=_count(block["n"], "params.n"), a=number(block["a"], "params.a"))
        return cls(params=params, raw=raw)

    @property
    def digest(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        # 17 significant digits, so that every double round-trips
        cells = (f"{float(v):.17g}" if isinstance(v, (int, float)) else str(v) for v in row)
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _count(value, label: str) -> int:
    """A count field: a positive number that is whole."""
    if not number(value, label, 0.0).is_integer():
        raise ValueError(f"{label} must be a positive integer, got {value!r}")
    return int(value)


def _point(coords, n: int, label: str) -> SpaceTimePoint:
    *spatial, t = numbers(coords, label, n + 1)
    return SpaceTimePoint.from_spatial(spatial, t)


def _frame(xi: SpaceTimePoint, label: str, origin: float, origin_label: str) -> SpaceTimePoint:
    """xi with its time measured from origin; ValueError where that time overflows."""
    if not math.isfinite(xi.t - origin):
        raise ValueError(f"{label} time {xi.t:g} lies too far from {origin_label} {origin:g}")
    return replace(xi, t=xi.t - origin)


def _box(cfg: dict, n: int) -> BoxDomain:
    lo, hi = numbers(cfg["lo"], "box lo", n), numbers(cfg["hi"], "box hi", n)
    t0, t1 = number(cfg["t0"], "box t0"), number(cfg["t1"], "box t1")
    return BoxDomain(lo=tuple(lo), hi=tuple(hi), t0=t0, t1=t1)


def _pole_field(params: KernelParams, pole: SpaceTimePoint):
    """u = Gamma(., pole) as a field u(points, t), the data of the Gamma-pole cases."""
    return lambda pts, t: gamma_fs_vec(params, np.atleast_2d(pts), t, pole.spatial, pole.t)


# ---------------------------------------------------------------- commands


def cmd_kernel(config: RunConfig) -> tuple[dict, dict, list, list]:
    n = config.params.n
    points = config.raw.get("points")
    if not isinstance(points, list) or not points:
        raise ValueError("kernel command needs a nonempty points list")
    # one (pairs, n + 1) array per side, one call per quantity over all pairs
    xi, zeta = (
        np.array([numbers(p[side], side, n + 1) for p in points]) for side in ("xi", "zeta")
    )
    args = (config.params, xi[:, :n], xi[:, n], zeta[:, :n], zeta[:, n])
    lower, gam, upper = bounds_sandwich(*args)
    rows = np.column_stack([xi, zeta, gam, gamma_grad_y_vec(*args), lower, upper])
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise RuntimeError(f"non-finite kernel output at point {bad[0]}")
    header = [f"{side}_{i}" for side in ("xi", "zeta") for i in [*range(n), "t"]]
    header += ["gamma", *(f"grad_{i}" for i in range(n)), "env_lower", "env_upper"]
    return {"rows": len(rows)}, {}, header, rows.tolist()


def cmd_check(config: RunConfig) -> tuple[dict, dict, list, list]:
    tol = number(config.raw.get("tol", 1e-6), "tol", 0.0)
    n = config.params.n
    mass_points = [_point(e, n, "mass_points entry") for e in config.raw.get("mass_points", [])]
    semis = [numbers(e, "semigroup [x, eta, t, s]", 4) for e in config.raw.get("semigroup", [])]
    if not mass_points and not semis:
        raise ValueError("check command needs mass_points or semigroup entries")
    residuals = [
        ("mass", abs(mass_integral(config.params, (p.x_prime, p.x), p.t) - 1.0))
        for p in mass_points
    ] + [("semigroup", semigroup_residual(config.params, *e)) for e in semis]
    rows = [[name, res, int(res <= tol)] for name, res in residuals]
    return (
        {"checks": len(rows), "failures": sum(1 - passed for *_, passed in rows)},
        {"tol": tol},
        ["check", "residual", "passed"],
        rows,
    )


def cmd_dirichlet(config: RunConfig) -> tuple[dict, dict, list, list]:
    params = config.params
    box = _box(config.raw.get("box", {}), params.n)
    if not math.isfinite(box.t1 - box.t0):
        raise ValueError(f"box t1 {box.t1:g} lies too far from box t0 {box.t0:g}")
    # the frame, t0 at 0: absolute times would round the lags, and values drift with t0
    frame = replace(box, t0=0.0, t1=box.t1 - box.t0)
    d_space = _count(config.raw.get("d_space", 6), "dirichlet d_space")
    n_steps = _count(config.raw.get("n_steps", 8), "dirichlet n_steps")
    data = config.raw.get("data", "constant")
    if data == "constant":
        c = number(config.raw.get("constant", 1.0), "dirichlet constant")

        def f(pts, t):
            return np.full(len(np.atleast_2d(pts)), c)

        def ref(xi):
            return c

    elif data == "gamma":
        pole = _point(config.raw.get("pole", ()), params.n, "pole")
        pole = _frame(pole, "pole", box.t0, "box t0")
        if pole.t >= 0.0:
            raise ValueError("pole must sit strictly before the box")
        f = _pole_field(params, pole)

        def ref(xi):
            return gamma_fs(params, xi, pole)

    else:
        raise ValueError(f"unknown data kind {data!r}")
    probes = [_point(p, params.n, "probe") for p in config.raw.get("probes", [])]
    u0_probes = [_point(p, params.n, "u0 probe") for p in config.raw.get("u0_probes", [])]
    if not probes:
        raise ValueError("dirichlet command needs probe points")
    # the solution is only defined inside the box; u0_probes sit on faces by design
    for xi in probes:
        if not box.contains(xi):
            raise ValueError(f"probe {[*xi.spatial, xi.t]} lies outside the open box or (t0, t1]")
    sol = solve_dirichlet(params, frame, f, d_space=d_space, n_steps=n_steps)
    # the solution and the reference see frame times, the rows the config's own
    framed = [_frame(xi, "probe", box.t0, "box t0") for xi in probes]
    rows = [
        [*xi.spatial, xi.t, got, want, abs(got - want)]
        for xi, got, want in zip(probes, sol.evaluate(framed), map(ref, framed))
    ]
    for xi in u0_probes:
        u0 = u0_identity(params, frame, _frame(xi, "u0 probe", box.t0, "box t0"))
        rows.append([*xi.spatial, xi.t, u0, math.nan, math.nan])
    diags = {
        "residual": sol.info["residual"],
        "cells": sol.mesh.n_cells,
        "steps": sol.mesh.n_steps,
    }
    header = (
        [f"probe_{i}" for i in range(params.n)] + ["probe_t", "value", "reference", "abs_err"]
    )
    return {"rows": len(rows)}, diags, header, rows


def cmd_capacity(config: RunConfig) -> tuple[dict, dict, list, list]:
    params = config.params
    spec = config.raw.get("set")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("capacity command needs a set block with a kind")
    kind = spec["kind"]
    if kind not in ("flat", "box"):
        raise ValueError(f"unknown set kind {kind!r}")
    # a flat set's corners are checked as those of a box over [0, 1], the lattice's frame
    box = _box(spec if kind == "box" else {**spec, "t0": 0.0, "t1": 1.0}, params.n)
    density = _count(config.raw.get("density", 16), "capacity density")
    # the fine level has the most atoms: density^n per slice, density slices for a box,
    # at best folded to atoms / 2^(n-1) orbits of at most 2 rows each; a float product
    # overflows to inf instead of raising, so a huge density exits 2
    atoms = math.prod([2.0 * density] * (params.n + (kind == "box")))
    orbits = atoms / 2 ** (params.n - 1)
    check_matrix_fits(2.0 * orbits, orbits, atoms)

    pair = [density, 2 * density]
    # the frame: each lattice starts at time 0
    if kind == "flat":
        lattices = [flat_lattice(box.lo, box.hi, dens) for dens in pair]
    else:
        lattices = [box_lattice(box.lo, box.hi, 0.0, box.t1 - box.t0, dens) for dens in pair]
    levels = capacity_lp(params, lattices)
    coarse, fine = (res.cap_estimate for res in levels)
    extrapolated = 2.0 * fine - coarse
    oracle = flat_set_capacity(params, box.lo, box.hi) if kind == "flat" else math.nan
    rows = [[density, coarse, fine, extrapolated, oracle]]
    diags = {
        "density_pair": pair,
        "levels": [{"density": dens, **lp_report(res)} for dens, res in zip(pair, levels)],
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
        raise ValueError("wiener command needs a domain descriptor")
    domain = DomainDescriptor(tuple(dom_block["primitives"]), tuple(dom_block.get("ops", ())))
    lam = number(config.raw.get("lambda", 0.5), "wiener lambda", 0.0, 1.0)
    k_max = _count(config.raw.get("k_max", 12), "wiener k_max")
    density = _count(config.raw.get("density", 10), "wiener density")
    sweep = tuple(number(v, "wiener sweep", 0.0, 1.0) for v in config.raw.get("sweep", ()))
    report = wiener_series(params, xi0, domain, lam=lam, k_max=k_max, density=density, sweep=sweep)
    rows = [
        [lam, row["k"], row["cap"], row["weight"], row["term"], s]
        for row, s in zip(report.terms, report.partial_sums)
    ]
    return (
        {"verdict": report.verdict, "lambda_sweep": report.lambda_sweep},
        {
            "thresholds": report.thresholds,
            "shells": [{"k": row["k"], **row["lp"]} for row in report.terms],
        },
        ["lambda", "k", "cap", "weight", "term", "partial_sum"],
        rows,
    )


def cmd_meanvalue(config: RunConfig) -> tuple[dict, dict, list, list]:
    params = config.params
    centre = _point(config.raw.get("xi0", ()), params.n, "xi0")
    # the frame of solid_mean, which gives u times measured from xi0.t
    xi0 = replace(centre, t=0.0)
    radii = [number(r, "meanvalue radius", 0.0) for r in config.raw.get("radii", [])]
    if not radii:
        raise ValueError("meanvalue command needs radii")
    density = _count(config.raw.get("density", 8), "meanvalue density")

    def one(pts, t):
        return np.ones(len(np.atleast_2d(pts)))

    cases = [("one", one, 1.0)]
    if "pole" in config.raw:
        pole = _frame(_point(config.raw["pole"], params.n, "pole"), "pole", centre.t, "xi0 time")
        if pole.t >= 0.0:
            raise ValueError("pole must sit strictly before xi0 in time")
        cases.append(("gamma", _pole_field(params, pole), gamma_fs(params, xi0, pole)))

    rows = []
    for name, u, want in cases:
        # a pole far from xi0 leaves the gamma case no reference; the one case
        # runs first, so a y or radius that breaks the numerics exits 3, not 2
        if not want > 0.0:
            raise ValueError("Gamma(xi0; pole) is 0: the pole gives no reference mean")
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
    r = number(config.raw.get("r", 0.02), "harnack r", 0.0)
    pole = _point(config.raw.get("pole", ()), params.n, "pole")
    # u vanishes on the bottom slice unless the pole is earlier
    if not pole.t < -1.5 * r:
        raise ValueError("pole must sit strictly before the bottom slice t = -3r/2")
    density = _count(config.raw.get("density", 24), "harnack density")
    u = _pole_field(params, pole)
    # the fine level first, so that harnack_quotient refuses its lattice before any work
    pair = [density, 2 * density]
    fine, coarse = (harnack_quotient(params, r, u, density=dens) for dens in pair[::-1])
    rows = [
        [dens, rep.bottom_average, rep.interior_inf, rep.quotient]
        for dens, rep in zip(pair, (coarse, fine))
    ]
    drift = abs(fine.quotient - coarse.quotient) / coarse.quotient
    return (
        {"quotient": fine.quotient, "refinement_drift": drift},
        {"density_pair": pair},
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="degenheat")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # warnings are held until the command succeeds, so a failure prints one line
        with warnings.catch_warnings(record=True) as held:
            config = RunConfig.load(args.config)
            if args.workers < 1:
                raise ValueError("workers must be at least 1")
            out = Path(args.out)
            if out.exists() and not out.is_dir():
                raise ValueError(f"--out {args.out} exists and is not a directory")
            start = time.monotonic()
            payload, diags, header, rows = _COMMANDS[args.command](config)
            elapsed = time.monotonic() - start
    except KeyError as exc:
        print(f"config error: missing key {exc}", file=sys.stderr)
        return 2
    except (TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    envelope = {
        "command": args.command,
        "config_digest": config.digest,
        "version": __version__,
        "wall_time_s": elapsed,
        "payload": payload,
        "diagnostics": diags,
    }
    try:  # the envelope is strict JSON: a non-finite payload or diagnostic is a failure
        text = json.dumps(envelope, indent=2, allow_nan=False) + "\n"
    except ValueError:
        print("numerical failure: non-finite value in the payload or diagnostics", file=sys.stderr)
        return 3
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.command}.json").write_text(text)
        _write_csv(out / f"{args.command}.csv", header, rows)
    except OSError as exc:
        print(f"config error: cannot write the outputs: {exc}", file=sys.stderr)
        return 2
    for w in held:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if args.command == "check" and payload.get("failures", 0) > 0:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
