"""CLI tests: exit codes, envelopes, deterministic CSV output."""
from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenheat import cli, kernel, meanvalue
from degenheat.cli import main
from degenheat.params import KernelParams
from degenheat.quadrature import CHUNK_POINTS

PARAMS = {"n": 2, "a": 0.3}


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, cmd, cfg, *extra):
    cfgp = write_cfg(tmp_path, f"{cmd}.json", cfg)
    out = tmp_path / f"out_{cmd}"
    code = main([cmd, "--config", cfgp, "--out", str(out), *extra])
    return code, out


KERNEL_CFG = {
    "params": PARAMS,
    "points": [
        {"xi": [0.5, 0.7, 0.5], "zeta": [0.3, 0.4, 0.1]},
        {"xi": [0.5, 0.7, 0.1], "zeta": [0.3, 0.4, 0.5]},
    ],
}


def test_kernel_envelope_and_rows(tmp_path):
    code, out = run(tmp_path, "kernel", KERNEL_CFG)
    assert code == 0
    env = json.loads((out / "kernel.json").read_text())
    blob = json.dumps(KERNEL_CFG, sort_keys=True, separators=(",", ":"))
    assert env["config_digest"] == hashlib.sha256(blob.encode()).hexdigest()
    assert env["command"] == "kernel"
    assert env["payload"]["rows"] == 2
    lines = (out / "kernel.csv").read_text().splitlines()
    assert lines[0].startswith("xi_0,")
    # acausal pair produces an all-zero tail
    tail = lines[2].split(",")[6:]
    assert all(float(v) == 0.0 for v in tail)
    # 17 significant digits round-trip doubles exactly
    gamma = float(lines[1].split(",")[6])
    assert f"{gamma:.17g}" in lines[1]


def test_kernel_classical_closed_form(tmp_path):
    cfg = {
        "params": {"n": 2, "a": 0.0},
        "points": [{"xi": [0.5, 0.7, 0.5], "zeta": [0.3, 0.4, 0.1]}],
    }
    code, out = run(tmp_path, "kernel", cfg)
    assert code == 0
    row = (out / "kernel.csv").read_text().splitlines()[1].split(",")
    dt = 0.4
    want = math.exp(-(0.04 + 0.09) / (4 * dt)) / (4 * math.pi * dt)
    assert float(row[6]) == pytest.approx(want, rel=1e-12)


def test_kernel_far_across_plane(tmp_path):
    # x y < 0 with |x y|/d = 2.5e11: Gamma underflows to 0 and the
    # gradient stays finite (scipy's kve is NaN at such arguments)
    cfg = {"params": PARAMS, "points": [{"xi": [0.1, 0.5, 1e-12], "zeta": [0.1, -0.5, 0]}]}
    code, out = run(tmp_path, "kernel", cfg)
    assert code == 0
    header, row = (out / "kernel.csv").read_text().splitlines()[:2]
    values = dict(zip(header.split(","), map(float, row.split(","))))
    assert values["gamma"] == 0.0
    assert all(math.isfinite(values[f"grad_{i}"]) for i in range(2))


@pytest.mark.parametrize("a", [-0.5, 0.3])
def test_kernel_subnormal_lag_exits_3(tmp_path, a):
    # x y / d overflows at a subnormal lag: Gamma and its gradient are not
    # finite, which is a numerical failure, not a result
    point = {"xi": [0.1, 0.5, 1e-310], "zeta": [0.1, 0.5, 0]}
    path = write_cfg(tmp_path, "kernel.json", {"params": {"n": 2, "a": a}, "points": [point]})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cmd = ["kernel", "--config", path, "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-m", "degenheat.cli", *cmd],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "numerical failure" in proc.stderr
    assert not (tmp_path / "out" / "kernel.csv").exists()


def test_determinism_across_workers(tmp_path):
    code1, out1 = run(tmp_path, "kernel", KERNEL_CFG)
    csv1 = (out1 / "kernel.csv").read_bytes()
    cfgp = write_cfg(tmp_path, "k2.json", KERNEL_CFG)
    out2 = tmp_path / "out2"
    assert main(["kernel", "--config", cfgp, "--out", str(out2), "--workers", "4"]) == 0
    assert (out2 / "kernel.csv").read_bytes() == csv1
    assert main(["kernel", "--config", cfgp, "--out", str(out2), "--workers", "0"]) == 2


def test_check_pass_and_sensitivity(tmp_path):
    cfg = {
        "params": PARAMS,
        "mass_points": [[0.5, 0.7, 0.3]],
        "semigroup": [[0.4, 0.6, 0.2, 0.3]],
        "tol": 1e-6,
    }
    code, _ = run(tmp_path, "check", cfg)
    assert code == 0
    # both residuals are a few ulps, not 0, so a tolerance of 1e-300 fails them
    code, out = run(tmp_path, "check", {**cfg, "tol": 1e-300})
    assert code == 1
    env = json.loads((out / "check.json").read_text())
    assert env["payload"]["failures"] == 2


def test_config_errors(tmp_path):
    assert run(tmp_path, "kernel", {"params": {"n": 2, "a": 1.5}, "points": []})[0] == 2
    assert run(tmp_path, "kernel", {"params": PARAMS, "points": []})[0] == 2
    assert run(tmp_path, "check", {"params": PARAMS})[0] == 2
    assert (
        run(
            tmp_path,
            "kernel",
            {"params": PARAMS, "points": [{"xi": [0.5, 0.7], "zeta": [0, 0, 0]}]},
        )[0]
        == 2
    )
    out = tmp_path / "missing_out"
    assert main(["kernel", "--config", str(tmp_path / "nope.json"), "--out", str(out)]) == 2


BOX = {"lo": [0, 0.2], "hi": [1, 1.2], "t0": 0, "t1": 1}
XI0 = [0.5, 0.7, 0.0]
BOX_DOMAIN = {"primitives": [{"type": "box", "lo": [0, 0.2], "hi": [1, 1.2], "t": [0, 1]}]}
CUSP = {"type": "cusp", "center": XI0, "profile": {"kind": "power", "params": [0.5, 0.5]}}
# the box with a cusp-shaped thorn below XI0, cut off at t = -1
THORN_DOMAIN = {
    "primitives": [*BOX_DOMAIN["primitives"], CUSP, {"type": "time-slab", "t": [-1, 1]}],
    "ops": ["union", "intersect"],
}


# one small valid config per command; the fuzz test breaks one field of it
SMALL_CONFIGS = {
    "kernel": KERNEL_CFG,
    "check": {
        "params": PARAMS,
        "mass_points": [[0.5, 0.7, 0.3]],
        "semigroup": [[0.4, 0.6, 0.2, 0.3]],
        "tol": 1e-6,
    },
    "dirichlet": {
        "params": PARAMS,
        "box": BOX,
        "data": "constant",
        "constant": 1.0,
        "probes": [[0.5, 0.7, 0.5]],
        "u0_probes": [[0.5, 0.7, 0.5]],
        "d_space": 2,
        "n_steps": 2,
    },
    "capacity": {
        "params": PARAMS,
        "set": {"kind": "flat", "lo": [0, 0], "hi": [1, 1]},
        "density": 2,
        "tol": 1e-8,
    },
    "wiener": {
        "params": PARAMS,
        "xi0": XI0,
        "domain": THORN_DOMAIN,
        "lambda": 0.5,
        "k_max": 2,
        "density": 4,
        "sweep": [0.5],
    },
    "meanvalue": {
        "params": PARAMS,
        "xi0": XI0,
        "radii": [0.02],
        "density": 2,
        "pole": [0.3, 0.4, -0.5],
    },
    "harnack": {"params": PARAMS, "r": 0.02, "pole": [0.0, 0.0, -0.1], "density": 4},
}

@pytest.mark.parametrize(
    "cmd,cfg",
    [
        ("check", {"params": PARAMS, "mass_points": [[0.5, 0.7]]}),
        ("dirichlet", {"params": PARAMS, "box": BOX, "data": "gamma", "probes": [[0.5, 0.7, 0.5]]}),
        (
            "capacity",
            {
                "params": PARAMS,
                "set": {"kind": "flat", "lo": [0, 0], "hi": [1, 1]},
                "density": 0,
            },
        ),
        (
            "meanvalue",
            {"params": PARAMS, "xi0": [0.5, 0.7, 0.0], "radii": [0.02], "pole": [0.3, 0.4, 0.0]},
        ),
        # Gamma(xi0; pole) underflows to 0, so the gamma case has no reference
        (
            "meanvalue",
            {
                "params": PARAMS,
                "xi0": [0.5, 0.5, 0.0],
                "radii": [0.02],
                "density": 4,
                "pole": [50.0, 0.5, -0.001],
            },
        ),
        ("meanvalue", {"params": PARAMS, "xi0": [0.5, 0.7, 0.0], "radii": [0.02], "density": 0}),
        ("meanvalue", {"params": PARAMS, "xi0": [0.5, 0.7, 0.0], "radii": [0.0]}),
        ("harnack", {"params": PARAMS, "pole": [0.0, 0.0, -0.1], "density": 0}),
        ("harnack", {"params": PARAMS, "pole": [0.0, 0.0, -0.1], "r": 0.0}),
        ("harnack", {"params": {"n": 3, "a": 0.3}, "pole": [0.0, 0.0, 0.0, -0.1]}),
        (
            "meanvalue",
            {"params": {"n": 4, "a": 0.3}, "xi0": [0.5, 0.5, 0.5, 0.7, 0.0], "radii": [0.02]},
        ),
        ("dirichlet", {"params": PARAMS, "box": BOX, "probes": [[0.5, 0.7, 0.5]], "d_space": 0}),
        ("dirichlet", {"params": PARAMS, "box": BOX, "probes": [[0.5, 0.7, 0.5]], "n_steps": 0}),
        (
            "dirichlet",
            {"params": PARAMS, "box": {**BOX, "hi": [0, 1.2]}, "probes": [[0.5, 0.7, 0.5]]},
        ),
        (
            "dirichlet",
            {"params": PARAMS, "box": {**BOX, "t0": 1, "t1": 0}, "probes": [[0.5, 0.7, 0.5]]},
        ),
        ("dirichlet", {"params": PARAMS, "box": {**BOX, "lo": 0}, "probes": [[0.5, 0.7, 0.5]]}),
        ("dirichlet", {"params": PARAMS, "box": BOX, "probes": [[2, 0.7, 0.5]]}),
        ("dirichlet", {"params": PARAMS, "box": BOX, "probes": [[0, 0.7, 0.5]]}),
        ("dirichlet", {"params": PARAMS, "box": BOX, "probes": [[0.5, 0.7, 0]]}),
        ("dirichlet", {"params": PARAMS, "box": BOX, "probes": [[0.5, 0.7, 1.5]]}),
        (
            "capacity",
            {
                "params": PARAMS,
                "set": {"kind": "box", "lo": [0, 0], "hi": [1, 1], "t0": 0, "t1": 1},
                "density": 64,
            },
        ),
        (
            "capacity",
            {"params": PARAMS, "set": {"kind": "flat", "lo": [0], "hi": [1]}},
        ),
        (
            "capacity",
            {"params": PARAMS, "set": {"kind": "flat", "lo": [1, 1], "hi": [0, 0]}},
        ),
        ("capacity", {"params": PARAMS, "set": {"kind": "box", **BOX, "t1": 0}}),
        ("kernel", {"params": PARAMS, "points": [{"xi": [0.5, 0.7, 0.5]}]}),
        ("kernel", {"params": PARAMS, "points": [{"xi": [0.5, "x", 0.5], "zeta": [0, 0, 0]}]}),
        ("kernel", {"params": PARAMS, "points": [[0.5, 0.7, 0.5]]}),
        ("kernel", {**KERNEL_CFG, "params": {"n": 2, "a": None}}),
        ("check", {"params": PARAMS, "mass_points": [[0.5, 0.7, 0.3]], "tol": "abc"}),
        ("check", {"params": PARAMS, "semigroup": [["a", 1, 1, 1]]}),
        ("check", {"params": PARAMS, "mass_points": [[0.5, 0.7, -0.3]]}),
        ("check", {"params": PARAMS, "semigroup": [[0.4, 0.6, 0.0, 0.3]]}),
        (
            "wiener",
            {
                "params": PARAMS,
                "xi0": XI0,
                "domain": {"primitives": [{"type": "box", "lo": [0, 0.2], "t": [0, 1]}]},
            },
        ),
        ("wiener", {"params": PARAMS, "xi0": XI0, "domain": BOX_DOMAIN, "k_max": 0}),
        ("meanvalue", {"params": PARAMS, "xi0": XI0, "radii": "abc"}),
        ("dirichlet", {"params": PARAMS, "box": BOX, "probes": [[0.5, 0.7, 0.5]], "d_space": "x"}),
        ("harnack", {"params": PARAMS, "pole": [0.0, 0.0, -0.1], "density": "x"}),
        (
            "capacity",
            {
                "params": PARAMS,
                "set": {"kind": "flat", "lo": [0, 0], "hi": [1, 1]},
                "density": math.inf,
            },
        ),
        ("meanvalue", {"params": PARAMS, "xi0": XI0, "radii": [0.02], "density": 1.5}),
        ("dirichlet", {"params": PARAMS, "box": BOX, "probes": [[0.5, 0.7, 0.5]], "n_steps": True}),
        ("kernel", {**KERNEL_CFG, "params": {"n": 2, "a": 10**400}}),
        ("check", {"params": PARAMS, "mass_points": [[0.5, 10**400, 0.3]]}),
        ("kernel", {**KERNEL_CFG, "params": {"n": -math.inf, "a": 0.3}}),
        ("check", {"params": PARAMS, "semigroup": [[0.4, math.nan, 0.2, 0.3]]}),
        (
            "wiener",
            {
                "params": PARAMS,
                "xi0": XI0,
                "domain": {
                    "primitives": [
                        BOX_DOMAIN["primitives"][0],
                        {**CUSP, "profile": {"kind": "power", "params": [0.5]}},
                    ],
                    "ops": ["union"],
                },
            },
        ),
        (
            "wiener",
            {
                "params": PARAMS,
                "xi0": XI0,
                "domain": {
                    "primitives": [
                        BOX_DOMAIN["primitives"][0],
                        {**CUSP, "profile": {"kind": "cone", "params": [0.5, 0.5]}},
                    ],
                    "ops": ["union"],
                },
            },
        ),
        ("check", {"params": PARAMS, "mass_points": [[0.5, 0.7, 0.3]], "tol": True}),
        ("check", {"params": PARAMS, "mass_points": [[0.5, 0.7, 0.3]], "tol": math.inf}),
        ("dirichlet", {**SMALL_CONFIGS["dirichlet"], "constant": math.inf}),
        ("dirichlet", {**SMALL_CONFIGS["dirichlet"], "constant": math.nan}),
        ("harnack", {**SMALL_CONFIGS["harnack"], "r": math.inf}),
        ("harnack", {**SMALL_CONFIGS["harnack"], "pole": [0.0, 0.0, -0.025]}),
        ("wiener", {**SMALL_CONFIGS["wiener"], "lambda": "0.5"}),
        ("meanvalue", {**SMALL_CONFIGS["meanvalue"], "radii": [True]}),
        ("dirichlet", {**SMALL_CONFIGS["dirichlet"], "constant": "2"}),
        ("kernel", {**KERNEL_CFG, "params": {"n": 2, "a": "0.3"}}),
        (
            "wiener",
            {
                "params": PARAMS,
                "xi0": XI0,
                "domain": {
                    "primitives": [
                        BOX_DOMAIN["primitives"][0],
                        {**CUSP, "profile": {"kind": "power", "params": [math.inf, 0.5]}},
                    ],
                    "ops": ["union"],
                },
            },
        ),
        ("harnack", {**SMALL_CONFIGS["harnack"], "density": 10**6}),
        (
            "wiener",
            {
                **SMALL_CONFIGS["wiener"],
                "xi0": [0.5, 1.5, 0.0],
                # read as [0, 1] if coerced: xi0 would sit on the box's initial face
                "domain": {
                    "primitives": [{"type": "box", "lo": ["0", True], "hi": [1, 2], "t": [0, 1]}]
                },
            },
        ),
        *(
            (
                "wiener",
                {
                    **SMALL_CONFIGS["wiener"],
                    "domain": {
                        "primitives": [{**BOX_DOMAIN["primitives"][0], "complement": flag}]
                    },
                },
            )
            for flag in ("no", 0, 1.0, None)
        ),
        # at n = 2, corners of 1 number and a center of 2 (n + 1 are needed)
        (
            "wiener",
            {
                **SMALL_CONFIGS["wiener"],
                "domain": {"primitives": [{**BOX_DOMAIN["primitives"][0], "lo": [0], "hi": [1]}]},
            },
        ),
        (
            "wiener",
            {
                **SMALL_CONFIGS["wiener"],
                "domain": {
                    "primitives": [BOX_DOMAIN["primitives"][0], {**CUSP, "center": [0.5, 0.0]}],
                    "ops": ["union"],
                },
            },
        ),
        # t1 - t0 overflows: the frame box would span [0, inf]
        (
            "dirichlet",
            {
                **SMALL_CONFIGS["dirichlet"],
                "box": {**BOX, "t0": -1e308, "t1": 1e308},
                "probes": [[0.5, 0.7, 0.0]],
            },
        ),
    ],
    ids=[
        "check-short-mass-point",
        "dirichlet-gamma-no-pole",
        "capacity-density-0",
        "meanvalue-late-pole",
        "meanvalue-pole-gamma-0",
        "meanvalue-density-0",
        "meanvalue-radius-0",
        "harnack-density-0",
        "harnack-r-0",
        "harnack-n-3",
        "meanvalue-n-4",
        "dirichlet-d-space-0",
        "dirichlet-n-steps-0",
        "dirichlet-empty-box",
        "dirichlet-reversed-time",
        "dirichlet-scalar-corner",
        "dirichlet-probe-outside",
        "dirichlet-probe-on-face",
        "dirichlet-probe-at-t0",
        "dirichlet-probe-after-t1",
        "capacity-box-density-64",
        "capacity-short-corner",
        "capacity-empty-set",
        "capacity-box-no-time-span",
        "kernel-no-zeta",
        "kernel-non-numeric-coordinate",
        "kernel-point-as-list",
        "params-a-null",
        "check-tol-string",
        "check-semigroup-string",
        "check-mass-negative-t",
        "check-semigroup-t-0",
        "wiener-box-no-hi",
        "wiener-k-max-0",
        "meanvalue-radii-string",
        "dirichlet-d-space-string",
        "harnack-density-string",
        "capacity-density-infinity",
        "meanvalue-density-fraction",
        "dirichlet-n-steps-true",
        "params-a-400-digits",
        "check-mass-point-400-digits",
        "params-n-minus-infinity",
        "check-semigroup-nan",
        "wiener-cusp-one-param",
        "wiener-cusp-unknown-kind",
        "check-tol-true",
        "check-tol-infinity",
        "dirichlet-constant-inf",
        "dirichlet-constant-nan",
        "harnack-r-infinity",
        "harnack-late-pole",
        "wiener-lambda-string",
        "meanvalue-radius-true",
        "dirichlet-constant-string",
        "params-a-string",
        "wiener-cusp-infinite-radius",
        "harnack-density-million",
        "wiener-box-string-and-bool-corner",
        "wiener-complement-no",
        "wiener-complement-0",
        "wiener-complement-1.0",
        "wiener-complement-null",
        "wiener-box-short-corners",
        "wiener-cusp-short-center",
        "dirichlet-infinite-time-span",
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, cmd, cfg):
    assert run(tmp_path, cmd, cfg)[0] == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


MISSING = object()
BAD_VALUES = [MISSING, None, "x", True, [], {}, -1, -0.5, math.inf, -math.inf, math.nan, 1.5]


def _paths(node, prefix=()):
    """Every key or index path into a JSON value, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _broken(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg


# one field of a small config set to a finite extreme: an absurd capacity
# density is a config error, an overflow inside the numerics exits 3
EXTREMES = [
    ("capacity", ("density",), 1e300, 2),
    *[
        ("check", path, v, 3)
        for path in (("mass_points", 0, 1), ("semigroup", 0, 0), ("semigroup", 0, 1))
        for v in (1e300, -1e300)
    ],
    ("dirichlet", ("box", "lo", 0), -1e300, 3),
    ("dirichlet", ("box", "lo", 1), -1e300, 3),
    ("dirichlet", ("box", "hi", 0), 1e300, 3),
    *[("kernel", ("points", 0, side, 1), v, 3) for side in ("xi", "zeta") for v in (1e300, -1e300)],
    ("meanvalue", ("xi0", 1), 1e300, 3),
    ("meanvalue", ("xi0", 1), -1e300, 3),
    # the heat-ball mean sees only lags, so the `one` case computes at
    # t0 = 1e300; the `gamma` case then finds Gamma(xi0; pole) = 0, a config error
    ("meanvalue", ("xi0", 2), 1e300, 2),
    ("meanvalue", ("radii", 0), 1e300, 3),
]


# these configs overflow by design: their RuntimeWarnings must not become
# errors here, and main holds them back so the failure prints one line
@pytest.mark.filterwarnings("default::RuntimeWarning")
@pytest.mark.parametrize(
    "cmd,path,value,code",
    EXTREMES,
    ids=[f"{cmd}-{'-'.join(map(str, path))}={value:g}" for cmd, path, value, _ in EXTREMES],
)
def test_extreme_finite_value_exits_cleanly(tmp_path, capsys, cmd, path, value, code):
    assert run(tmp_path, cmd, _broken(SMALL_CONFIGS[cmd], path, value))[0] == code
    err = capsys.readouterr().err.splitlines()
    prefix = {2: "config error: ", 3: "numerical failure: "}[code]
    assert len(err) == 1 and err[0].startswith(prefix)


def test_unmet_allocation_exits_3(tmp_path, capsys, monkeypatch):
    # past its memory check, the section rule's leggauss asks numpy for tebibytes,
    # which no allocation meets
    monkeypatch.setattr(meanvalue, "check_fits", lambda need, what: None)
    cfg = {**SMALL_CONFIGS["meanvalue"], "density": 10**6}
    assert run(tmp_path, "meanvalue", cfg)[0] == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")


@pytest.mark.parametrize("cmd", sorted(SMALL_CONFIGS))
def test_small_configs_run(tmp_path, cmd):
    code, out = run(tmp_path, cmd, SMALL_CONFIGS[cmd])
    assert code == 0
    # the envelope is strict JSON: no NaN or Infinity
    json.loads((out / f"{cmd}.json").read_text(), parse_constant=_no_constant)


def test_vanished_harnack_infimum_exits_3(tmp_path, capsys):
    # u underflows to 0 on the whole interior sample, and on the bottom slice:
    # the quotient has no finite value, which is a numerical failure
    cfg = {"params": PARAMS, "r": 0.02, "pole": [30.0, 0.0, -0.04], "density": 4}
    code, out = run(tmp_path, "harnack", cfg)
    assert code == 3 and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")


def test_non_finite_envelope_exits_3(tmp_path, capsys, monkeypatch):
    # a command that reports NaN writes no files and exits 3 with one line
    def nan_payload(config):
        return {"value": math.nan}, {"inf": math.inf}, ["value"], [[1.0]]

    monkeypatch.setitem(cli._COMMANDS, "kernel", nan_payload)
    code, out = run(tmp_path, "kernel", KERNEL_CFG)
    assert code == 3 and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")


def test_unusable_out_exits_2(tmp_path, capsys, monkeypatch):
    # an --out that names a file is refused before the command runs; one whose
    # parent is a file fails while the outputs are written.  Both exit 2 with one line
    ran = []
    command = lambda config: ran.append(config) or ({}, {}, ["k"], [])
    monkeypatch.setitem(cli._COMMANDS, "kernel", command)
    notadir = tmp_path / "notadir"
    notadir.write_text("keep")
    cfgp = write_cfg(tmp_path, "kernel.json", KERNEL_CFG)
    for out, runs in ((notadir, 0), (notadir / "sub", 1)):
        assert main(["kernel", "--config", cfgp, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert len(ran) == runs
    assert notadir.read_text() == "keep"


def test_kernel_one_call_over_all_pairs(tmp_path, monkeypatch):
    # 2,000 pairs, causal and acausal, some observations on y = 0:
    # gamma_grad_y_vec runs once, and each row matches the one-pair calls
    from degenheat.kernel import bounds_sandwich, gamma_grad_y_vec

    rng = np.random.default_rng(23)
    obs, src = rng.normal(size=(2, 2000, 3))
    obs[::7, 1] = 0.0
    points = [{"xi": o, "zeta": s} for o, s in zip(obs.tolist(), src.tolist())]
    cfg = {"params": PARAMS, "points": points}
    calls = []

    def counted(*args):
        calls.append(args)
        return gamma_grad_y_vec(*args)

    monkeypatch.setattr(cli, "gamma_grad_y_vec", counted)
    code, out = run(tmp_path, "kernel", cfg)
    assert code == 0 and len(calls) == 1
    rows = np.loadtxt(out / "kernel.csv", delimiter=",", skiprows=1)
    params = KernelParams(**PARAMS)
    for row, o, s in zip(rows, obs, src):
        lower, gam, upper = bounds_sandwich(params, o[:2], o[2], s[:2], s[2])
        want = [*o, *s, gam, *gamma_grad_y_vec(params, o[:2], o[2], s[:2], s[2]), lower, upper]
        np.testing.assert_allclose(row, want, rtol=1e-13, atol=0.0)


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("cmd", sorted(SMALL_CONFIGS))
@settings(max_examples=30, deadline=10_000, derandomize=True, database=None)
@given(data=st.data())
def test_fuzz_one_broken_field(cmd, data):
    cfg = SMALL_CONFIGS[cmd]
    path = data.draw(st.sampled_from(list(_paths(cfg))), label="path")
    value = data.draw(st.sampled_from(BAD_VALUES), label="value")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfgp = write_cfg(Path(tmp), "cfg.json", _broken(cfg, path, value))
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(err):
            code = main([cmd, "--config", cfgp, "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            lines = err.getvalue().splitlines()
            prefix = {2: "config error: ", 3: "numerical failure: "}[code]
            assert len(lines) == 1 and lines[0].startswith(prefix), lines
            assert not out.exists()
        elif code == 0:
            json.loads((out / f"{cmd}.json").read_text(), parse_constant=_no_constant)


def test_oversized_capacity_exits_2_before_allocating(tmp_path, capsys):
    cfg = {
        "params": PARAMS,
        "set": {"kind": "box", "lo": [0, 0], "hi": [1, 1], "t0": 0, "t1": 1},
        "density": 64,
    }
    tracemalloc.start()
    try:
        code = run(tmp_path, "capacity", cfg)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    assert "GiB" in capsys.readouterr().err


def test_oversized_wiener_density_exits_2_before_sampling(tmp_path, capsys):
    # the first lattice of a shell would need terabytes: refused before it is built
    cfg = {**SMALL_CONFIGS["wiener"], "density": 4000}
    tracemalloc.start()
    try:
        code = run(tmp_path, "wiener", cfg)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and "GiB" in err[0]


def _physical_memory(monkeypatch, mib):
    # the memory checks read physical memory through os.sysconf; report mib MiB
    sysconf = os.sysconf
    pages = (mib << 20) // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name))


def test_sampling_check_charges_only_attempts_that_run(tmp_path, capsys, monkeypatch):
    # 12 MiB holds a first attempt at density 8 (one kernel call and a lattice of
    # CHUNK_POINTS points, 4.8 MiB) but not the fourth at 64 (64^3 points, 16 MiB);
    # every shell fills at density 8, so no doubling is built or checked.  At
    # density 64 the first attempt is refused.
    _physical_memory(monkeypatch, 12)
    assert run(tmp_path, "wiener", {**SMALL_CONFIGS["wiener"], "density": 8})[0] == 0
    assert run(tmp_path, "wiener", {**SMALL_CONFIGS["wiener"], "density": 64})[0] == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "heat-ball lattice at density 64" in err[0]


def test_dirichlet_refuses_block_pass_before_allocating(tmp_path, capsys, monkeypatch):
    # 32 MiB holds the criterion-12 mesh's block pass (32 cells, about 2 MiB
    # charged) but not that of the n = 3 cube at d_space 8 (384 cells, 147,456
    # entries, about 37 MiB), which is refused before any array is built
    _physical_memory(monkeypatch, 32)
    cfg = {**SMALL_CONFIGS["dirichlet"], "d_space": 8, "n_steps": 12}
    assert run(tmp_path, "dirichlet", cfg)[0] == 0
    cube = {
        **cfg,
        "params": {"n": 3, "a": 0.3},
        "box": {"lo": [0, 0, 0.2], "hi": [1, 1, 1.2], "t0": 0, "t1": 1},
        "probes": [[0.5, 0.5, 0.7, 0.5]],
        "u0_probes": [],
    }
    tracemalloc.start()
    try:
        code = run(tmp_path, "dirichlet", cube)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 20
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: BEM mesh of 384 cells")
    assert "GiB" in err[0]


def test_meanvalue_refuses_density_before_any_kernel_call(tmp_path, capsys, monkeypatch):
    # the slab quadrature at density 2 is charged about 4.2 MiB, almost all of it
    # for one kernel call: it runs in 8 MiB and is refused in 4 MiB before
    # anything is built; a density of 10^6 is refused on any machine
    _physical_memory(monkeypatch, 8)
    assert run(tmp_path, "meanvalue", SMALL_CONFIGS["meanvalue"])[0] == 0
    _physical_memory(monkeypatch, 4)
    tracemalloc.start()
    try:
        code = run(tmp_path, "meanvalue", SMALL_CONFIGS["meanvalue"])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 20
    monkeypatch.undo()
    assert run(tmp_path, "meanvalue", {**SMALL_CONFIGS["meanvalue"], "density": 10**6})[0] == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line, density in zip(err, (2, 10**6)):
        assert line.startswith(f"config error: heat-ball mean at density {density} needs")


# one bench config per command (seed 1, job 0 of bench/workloads.py)
BENCH_CONFIGS = {
    "dirichlet": {
        "params": {"n": 2, "a": -0.1293879007470634},
        "box": {
            "lo": [0.005721177615564899, 0.0], "hi": [1.0057211776155648, 1.0], "t0": 0, "t1": 1
        },
        "d_space": 8,
        "n_steps": 12,
        "data": "gamma",
        "pole": [0.79725843608561, 0.4960023197807736, -0.33524055243564854],
        "probes": [
            [0.29149440278814587, 0.4139708950842217, 0.8847239459199272],
            [0.6195848017248476, 0.3178164669235092, 0.807266088965956],
            [0.8916914996292514, 0.5173696240804265, 0.5825734088045038],
        ],
    },
    "capacity": {
        "params": {"n": 2, "a": 0.20519930049117807},
        "set": {
            "kind": "flat",
            "lo": [0.3576474270731438, -0.7622185810352857],
            "hi": [2.357647427073144, 1.2377814189647143],
        },
        "density": 16,
    },
    "wiener": {
        "params": {"n": 2, "a": 0.3},
        "xi0": [0.15827597617166111, 0.4658548196974417, 0.0],
        "lambda": 0.5,
        "k_max": 12,
        "density": 10,
        "sweep": [0.3, 0.7],
        "domain": {"primitives": [{"type": "box", "lo": [0, 0.2], "hi": [1, 1.2], "t": [0, 1]}]},
    },
    "meanvalue": {
        "params": {"n": 2, "a": 0.3},
        "xi0": [0.40239687898576737, 0.07527457890714882, 0.0],
        "radii": [0.04065032630326956],
        "density": 6,
        "pole": [0.5336952177246608, 0.733015997415813, -0.5],
    },
}
KERNEL_ENTRIES = (
    "u_tilde", "u_tilde_dy", "heat_kernel_1d", "log_gamma_vec", "grad_log_gamma_vec", "gamma_fs_vec"
)
# library functions whose kernel calls exceed CHUNK_POINTS by design, and why.  (A
# capacity set whose class pairs alone exceed it is a _class_tables call of its own,
# so that no entry of a set depends on a split; no set of these configs does.)
OVER_CHUNK = {
    "_section_depth": "32 trial depths times 513 scan points, 16,416: 32 is the root of "
    "the scan rounded up to a power of two, and the bisection needs 11-12 such calls",
}


@pytest.mark.parametrize(
    "cmd,cfg",
    [pytest.param(c, cfg, id=f"small-{c}") for c, cfg in SMALL_CONFIGS.items()]
    + [pytest.param(c, cfg, id=f"bench-{c}") for c, cfg in BENCH_CONFIGS.items()],
)
def test_no_kernel_call_exceeds_the_chunk(tmp_path, monkeypatch, cmd, cfg):
    # every kernel entry point, wrapped in each module that holds it, records the
    # points of each call and the library functions on the stack above it
    calls = []
    modules = [m for name, m in sys.modules.items() if name.startswith("degenheat.")]
    for name in KERNEL_ENTRIES:
        real = getattr(kernel, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            out = _real(*args, **kwargs)
            frame, callers = sys._getframe(1), set()
            while frame is not None:
                if frame.f_globals.get("__name__", "").startswith("degenheat."):
                    callers.add(frame.f_code.co_name)
                frame = frame.f_back
            width = out.shape[-1] if _name == "grad_log_gamma_vec" else 1
            calls.append((out.size // width, callers))
            return out

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    assert run(tmp_path, cmd, cfg)[0] == 0
    assert calls
    over = [(points, callers) for points, callers in calls if points > CHUNK_POINTS]
    assert all(callers & set(OVER_CHUNK) for _, callers in over), over
    if cmd == "meanvalue":
        assert {points for points, _ in over} == {32 * 513}


def test_wiener_refuses_k_max_whose_levels_underflow(tmp_path, capsys):
    # 0.3^2001 underflows to 0: the last shell of the sweep value 0.3 has no inner level
    cfg = {**SMALL_CONFIGS["wiener"], "sweep": [0.3, 0.7], "k_max": 2000}
    assert run(tmp_path, "wiener", cfg)[0] == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: k_max 2000 ")


def test_wiener_refuses_k_max_whose_threshold_overflows(tmp_path, capsys):
    # 0.3^561 and 0.3^601 are positive, but the heat-ball threshold there, about
    # (4 pi r)^(-(n+a)/2), overflows a float: refused before any shell is sampled
    for k_max in (560, 600):
        cfg = {**SMALL_CONFIGS["wiener"], "domain": BOX_DOMAIN, "sweep": [0.3, 0.7], "k_max": k_max}
        assert run(tmp_path, "wiener", cfg)[0] == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: k_max {k_max} "), err


def test_wiener_refuses_huge_k_max_at_once(tmp_path):
    # refused before the (lambda, k) list is built; a build of 2 x 10^7 shells would
    # take gigabytes, so the run gets a 1 GiB address space of its own
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    cfg = write_cfg(tmp_path, "wiener.json", {**SMALL_CONFIGS["wiener"], "k_max": 10**7})
    argv = ["wiener", "--config", cfg, "--out", str(tmp_path / "out")]
    code = (
        "import sys, time; from degenheat.cli import main; start = time.perf_counter(); "
        f"code = main({argv!r}); print(code, time.perf_counter() - start)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, preexec_fn=limit, capture_output=True, text=True,
        timeout=120,
    )
    exit_code, seconds = out.stdout.split()
    assert exit_code == "2" and float(seconds) < 1.0
    assert out.stderr.startswith("config error: k_max 10000000 ")


def test_harnack_refuses_fine_lattice_before_coarse_level(tmp_path, capsys, monkeypatch):
    # at density 32 the coarse lattice (5.5 MiB) fits in 12 MiB and the fine one
    # (64^3 points, 16 MiB) does not: the fine level runs first and is refused,
    # so the coarse level is never computed
    _physical_memory(monkeypatch, 12)
    densities, quotient = [], cli.harnack_quotient

    def recorded(*args, density):
        densities.append(density)
        return quotient(*args, density=density)

    monkeypatch.setattr(cli, "harnack_quotient", recorded)
    assert run(tmp_path, "harnack", {**SMALL_CONFIGS["harnack"], "density": 32})[0] == 2
    assert densities == [64]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "heat-ball lattice at density 64" in err[0]


def test_capacity_with_oracle(tmp_path):
    cfg = {
        "params": PARAMS,
        "set": {"kind": "flat", "lo": [0, 0], "hi": [1, 1]},
        "density": 8,
    }
    code, out = run(tmp_path, "capacity", cfg)
    assert code == 0
    row = (out / "capacity.csv").read_text().splitlines()[1].split(",")
    extrapolated, oracle = float(row[3]), float(row[4])
    assert abs(extrapolated - oracle) / oracle < 0.1
    levels = json.loads((out / "capacity.json").read_text())["diagnostics"]["levels"]
    assert [lev["density"] for lev in levels] == [8, 16]
    for lev in levels:
        # the free axis folds the level in half; on a flat n = 2 level every set row
        # is bounded by its collar row, so the LP sees one collar row per orbit
        assert lev["atoms"] == lev["density"] ** 2
        assert lev["mirror_axes"] == [0]
        assert lev["lp_rows"] + lev["dropped_rows"] == 2 * lev["lp_cols"]
        assert lev["lp_rows"] == lev["lp_cols"] == lev["atoms"] // 2
        assert lev["atoms"] < lev["near_pairs"] <= 50 * lev["atoms"]
        assert lev["lp_iterations"] > 0
        assert abs(lev["max_constraint_violation"]) <= 1e-6


def test_capacity_sees_only_lags():
    # Gamma sees only lags, so a set moved in time keeps its caps to the bit:
    # a box over [1e8, 1e8 + 1] against one over [0, 1]
    params = KernelParams(n=2, a=0.3)
    side = {"lo": [0, 0.5], "hi": [1, 1.5]}

    def caps(spec, density):
        *_, rows = cli.cmd_capacity(cli.RunConfig(params, {"set": spec, "density": density}))
        return rows[0][1:4]

    box = {"kind": "box", **side}
    assert caps({**box, "t0": 1e8, "t1": 1e8 + 1}, 4) == caps({**box, "t0": 0.0, "t1": 1.0}, 4)


def test_flat_set_has_no_time(tmp_path):
    # a flat set sits at time 0, its lattice's frame: a tau in the set block is not read
    spec = {"kind": "flat", "lo": [0, 0.5], "hi": [1, 1.5]}
    written = []
    for extra in ({}, {"tau": 0.0}, {"tau": 1e8}):
        cfg = {"params": PARAMS, "set": {**spec, **extra}, "density": 4}
        code, out = run(tmp_path, "capacity", cfg)
        assert code == 0
        written.append((out / "capacity.csv").read_bytes())
    assert written[0] == written[1] == written[2]


# a time that overflows when measured from the command's origin: 1e308 - (-1e308)
FRAME_OVERFLOWS = {
    "meanvalue": {
        **SMALL_CONFIGS["meanvalue"],
        "xi0": [0.5, 0.7, 1e308],
        "pole": [0.3, 0.4, -1e308],
    },
    "dirichlet": {
        **SMALL_CONFIGS["dirichlet"],
        "box": {**BOX, "t0": 1e308, "t1": 1.5e308},
        "data": "gamma",
        "pole": [0.3, 0.4, -1e308],
        "probes": [[0.5, 0.7, 1.2e308]],
    },
}


@pytest.mark.parametrize("cmd", sorted(FRAME_OVERFLOWS))
def test_frame_overflow_names_the_point(tmp_path, capsys, cmd):
    assert run(tmp_path, cmd, FRAME_OVERFLOWS[cmd])[0] == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: pole time "), err


@pytest.mark.parametrize(
    "spec,density",
    [
        ({"kind": "flat", "lo": [0, 0.5], "hi": [1, 1.5]}, 4),
        ({"kind": "box", "lo": [0, 0.5], "hi": [1, 1.5], "t0": 0.0, "t1": 1.0}, 2),
    ],
    ids=["flat", "box"],
)
def test_capacity_solves_both_levels_in_one_call(tmp_path, monkeypatch, spec, density):
    # the coarse and fine lattices go to one capacity_lp call, and each level's
    # cap is the one a call on its lattice alone gives
    calls, lp = [], cli.capacity_lp

    def counted(params, lattices):
        calls.append(list(lattices))
        return lp(params, lattices)

    monkeypatch.setattr(cli, "capacity_lp", counted)
    code, out = run(tmp_path, "capacity", {"params": PARAMS, "set": spec, "density": density})
    assert code == 0 and len(calls) == 1 and len(calls[0]) == 2
    row = (out / "capacity.csv").read_text().splitlines()[1].split(",")
    params = KernelParams(**PARAMS)
    for got, lattice in zip(row[1:3], calls[0]):
        alone = lp(params, [lattice])[0].cap_estimate
        assert float(got) == pytest.approx(alone, rel=1e-13)


def test_dirichlet_constant(tmp_path):
    cfg = {
        "params": PARAMS,
        "box": BOX,
        "data": "constant",
        "constant": 2.0,
        "probes": [[0.5, 0.7, 0.5]],
        "u0_probes": [[0.5, 0.7, 0.5]],
        "d_space": 4,
        "n_steps": 4,
    }
    code, out = run(tmp_path, "dirichlet", cfg)
    assert code == 0
    lines = (out / "dirichlet.csv").read_text().splitlines()
    assert float(lines[1].split(",")[5]) <= 1e-12  # abs error against constant
    assert float(lines[2].split(",")[3]) == pytest.approx(-1.0, abs=5e-3)
    env = json.loads((out / "dirichlet.json").read_text())
    diags = env["diagnostics"]
    assert diags["residual"] <= 1e-10
    assert diags["cells"] == 16 and diags["steps"] == 4
    assert "inner_iterations" not in diags


# a time step long against a cell: the spectral radius of 2 B0 exceeds 1,
# so a fixed-point iteration on each step would not converge
COARSE_STEPS = [
    {
        "params": {"n": 2, "a": -0.5},
        "box": {"lo": [0, -0.005], "hi": [0.01, 0.005], "t0": 0, "t1": 1},
        "pole": [0.005, 0.002, -0.1],
        "probes": [[0.005, 0.001, 0.5]],
        "d_space": 2,
        "n_steps": 1,
    },
    {
        "params": {"n": 2, "a": 0.3},
        "box": {"lo": [0, 0.02], "hi": [0.1, 0.12], "t0": 0, "t1": 1},
        "pole": [0.05, 0.07, -0.1],
        "probes": [[0.05, 0.07, 0.5]],
        "d_space": 4,
        "n_steps": 2,
    },
]


@pytest.mark.parametrize("cfg", COARSE_STEPS, ids=["straddling-1-step", "off-plane-2-steps"])
def test_dirichlet_coarse_steps(tmp_path, cfg):
    code, out = run(tmp_path, "dirichlet", {**cfg, "data": "gamma"})
    assert code == 0
    row = (out / "dirichlet.csv").read_text().splitlines()[1].split(",")
    assert all(math.isfinite(float(v)) for v in row)
    env = json.loads((out / "dirichlet.json").read_text())
    assert env["diagnostics"]["residual"] <= 1e-12


def test_dirichlet_bad_u0_probe_exits_before_solving(tmp_path, monkeypatch):
    # a malformed u0 probe is a config error found before any numerics
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_dirichlet ran on a config with a malformed u0 probe")

    monkeypatch.setattr(cli, "solve_dirichlet", no_solve)
    cfg = {**SMALL_CONFIGS["dirichlet"], "u0_probes": [[0.5]]}
    assert run(tmp_path, "dirichlet", cfg)[0] == 2


@pytest.mark.parametrize("n", [2, 3])
def test_dirichlet_straddling_box(tmp_path, n):
    # the box's y-range contains the degenerate plane y = 0
    free = [0.5] * (n - 1)
    cfg = {
        "params": {"n": n, "a": 0.3},
        "box": {"lo": [0] * (n - 1) + [-0.5], "hi": [1] * (n - 1) + [0.5], "t0": 0, "t1": 1},
        "data": "gamma",
        "pole": free + [0.1, -0.3],
        "probes": [free + [0.0, 0.5], free + [-0.2, 0.75], free + [0.25, 0.75]],
        "d_space": 3 if n == 2 else 1,
        "n_steps": 4 if n == 2 else 2,
    }
    code, out = run(tmp_path, "dirichlet", cfg)
    assert code == 0
    rows = [line.split(",") for line in (out / "dirichlet.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3
    assert all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize(
    "xi0",
    [
        [0.3665049361700835, 0.7100074836267756, 0.0],
        [0.45462389219406607, 0.5940345500541954, 0.0],
    ],
)
def test_wiener_lps_that_stalled_from_the_old_start_converge(tmp_path, xi0):
    # two bench wiener jobs (seed 203 job 1, seed 205 job 13) each have one LP, 31 x 22
    # and 28 x 22, on which linprog started from x = s = 1 stalled with the dual
    # residual above LP_TOL and exited 3; from Mehrotra's start both converge
    cfg = {
        "params": {"n": 2, "a": 0.3},
        "xi0": xi0,
        "lambda": 0.5,
        "k_max": 12,
        "density": 10,
        "sweep": [0.3, 0.7],
        "domain": {"primitives": [{"type": "box", "lo": [0, 0.2], "hi": [1, 1.2], "t": [0, 1]}]},
    }
    code, out = run(tmp_path, "wiener", cfg)
    assert code == 0
    payload = json.loads((out / "wiener.json").read_text())["payload"]
    assert payload["verdict"] == "likely-regular"
    assert set(payload["lambda_sweep"].values()) == {"likely-regular"}


def test_wiener_report(tmp_path):
    cfg = {
        "params": PARAMS,
        "xi0": [0.5, 0.7, 0.0],
        "domain": {
            "primitives": [
                {"type": "box", "lo": [0, 0.2], "hi": [1, 1.2], "t": [0, 1]}
            ]
        },
        "k_max": 6,
        "density": 8,
    }
    code, out = run(tmp_path, "wiener", cfg)
    assert code == 0
    env = json.loads((out / "wiener.json").read_text())
    assert env["payload"]["verdict"] == "likely-regular"
    lines = (out / "wiener.csv").read_text().splitlines()
    assert lines[0] == "lambda,k,cap,weight,term,partial_sum"
    assert len(lines) == 7
    # one LP per shell, and its sizes and check as capacity_lp reported them
    shells = env["diagnostics"]["shells"]
    assert [shell["k"] for shell in shells] == list(range(1, 7))
    for shell in shells:
        assert shell["atoms"] > 0
        # shell and complement are symmetric about xi0's free coordinate
        assert shell["mirror_axes"] == [0]
        assert shell["lp_cols"] < shell["atoms"]
        assert shell["lp_rows"] + shell["dropped_rows"] == 2 * shell["lp_cols"]
        assert shell["lp_rows"] >= shell["lp_cols"]
        assert shell["lp_iterations"] > 0
        assert abs(shell["max_constraint_violation"]) <= 1e-6
    # a deleted past leaves every shell without atoms: no LP ran, so nothing is measured
    past = {**cfg, "domain": {"primitives": [{"type": "time-slab", "t": [-10, 0]}]}, "k_max": 2}
    code, out = run(tmp_path, "wiener", past)
    assert code == 0
    shells = json.loads((out / "wiener.json").read_text())["diagnostics"]["shells"]
    assert shells == [
        {
            "k": k,
            "atoms": 0,
            "lp_rows": None,
            "lp_cols": None,
            "dropped_rows": None,
            "mirror_axes": None,
            "near_pairs": None,
            "lp_iterations": None,
            "max_constraint_violation": None,
        }
        for k in (1, 2)
    ]
    # interior point: boundary precondition fails as a config error
    bad = {**cfg, "xi0": [0.5, 0.7, 0.5]}
    assert run(tmp_path, "wiener", bad)[0] == 2


def _readme_example(cmd: str) -> dict:
    # cut out of README as the CI steps cut them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    pattern = rf"Example config \(`{cmd}\.json`\):\s*```json\n(.*?)```"
    return json.loads(re.search(pattern, readme, re.S).group(1))


def test_readme_dirichlet_example_reproduces_gamma(tmp_path):
    code, out = run(tmp_path, "dirichlet", _readme_example("dirichlet"))
    assert code == 0
    rows = [line.split(",") for line in (out / "dirichlet.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3 and all(float(r[-1]) < 2e-4 for r in rows[:2])
    assert float(rows[2][3]) == pytest.approx(-0.5, abs=1e-12)


def test_readme_capacity_example_extrapolates_to_the_oracle(tmp_path):
    code, out = run(tmp_path, "capacity", _readme_example("capacity"))
    assert code == 0
    (row,) = [line.split(",") for line in (out / "capacity.csv").read_text().splitlines()[1:]]
    assert row[0] == "16"
    cap, oracle = float(row[3]), float(row[4])
    assert abs(cap - oracle) <= 0.01 * oracle


def test_readme_wiener_example_unchanged_by_time_shift(tmp_path):
    # xi0 and the domain moved together in time: the boundary check probes no
    # time offset that rounds away near xi0.t, and the series sees only lags
    def outputs(T):
        cfg = _readme_example("wiener")
        cfg["xi0"][-1] += T
        for prim in cfg["domain"]["primitives"]:
            prim["t"] = [T + t for t in prim["t"]]
        code, out = run(tmp_path, "wiener", cfg)
        assert code == 0, T
        payload = json.loads((out / "wiener.json").read_text())["payload"]
        return (out / "wiener.csv").read_text(), payload

    base = outputs(0.0)
    for T in (1e8, 1e12, 1e14):
        assert outputs(T) == base, T


# Gamma data at n = 2, a = 0.3: two probes and a u0 probe on a face; a mean
# about xi0 with a pole 0.05 before it.  Every time is an offset from t = 0.
SHIFT_CONFIGS = {
    "dirichlet": {
        "params": PARAMS,
        "box": {"lo": [0.1, 0.2], "hi": [1.1, 1.2], "t0": 0.0, "t1": 1.0},
        "data": "gamma",
        "pole": [0.6, 0.8, -0.3],
        "probes": [[0.15, 0.7, 0.9], [0.6, 0.7, 0.5]],
        "u0_probes": [[0.1, 0.7, 0.5]],
        "d_space": 4,
        "n_steps": 6,
    },
    "meanvalue": {
        "params": PARAMS,
        "xi0": [0.5, 0.7, 0.0],
        "pole": [0.45, 0.65, -0.05],
        "radii": [0.02],
        "density": 6,
    },
}


def _moved(cfg: dict, move) -> dict:
    """cfg with move applied to every time: the box's t0 and t1 and each point's last entry."""
    cfg = json.loads(json.dumps(cfg))
    for key in ("t0", "t1"):
        if "box" in cfg:
            cfg["box"][key] = move(cfg["box"][key])
    for point in [cfg.get("pole"), cfg.get("xi0"), *cfg.get("probes", []), *cfg.get("u0_probes", [])]:
        if point is not None:
            point[-1] = move(point[-1])
    return cfg


@pytest.mark.parametrize("T", [1e8, 1e12, 1e14])
@pytest.mark.parametrize("cmd", sorted(SHIFT_CONFIGS))
def test_time_shift_equals_twin_at_rounded_offsets(tmp_path, cmd, T):
    # each command computes from its time origin, so a run shifted by T equals,
    # to the bit, a run at T = 0 whose offsets are those of the shifted config as
    # rounded near T; only the CSV's time column differs
    shifted = _moved(SHIFT_CONFIGS[cmd], lambda t: T + t)
    twin = _moved(shifted, lambda t: t - T)
    outputs = []
    for cfg in (shifted, twin):
        code, out = run(tmp_path, cmd, cfg)
        assert code == 0
        env = json.loads((out / f"{cmd}.json").read_text())
        rows = [line.split(",") for line in (out / f"{cmd}.csv").read_text().splitlines()]
        if cmd == "dirichlet":
            rows = [row[:2] + row[3:] for row in rows]
        outputs.append((rows, env["payload"], env["diagnostics"]))
    assert outputs[0] == outputs[1]
    # the first probe's error and the gamma case's relative error stay at their
    # T = 0 size (3.5e-4 and 3.0e-4); in absolute times they had reached 7.3e-3
    # and 2.2e-2 at T = 1e14
    rows = outputs[0][0]
    assert float(rows[1][-1] if cmd == "dirichlet" else rows[2][-1]) <= 4e-4


def test_meanvalue_suite(tmp_path):
    cfg = {
        "params": PARAMS,
        "xi0": [0.5, 0.7, 0.0],
        "radii": [0.02],
        "density": 6,
        "pole": [0.3, 0.4, -0.5],
    }
    code, out = run(tmp_path, "meanvalue", cfg)
    assert code == 0
    env = json.loads((out / "meanvalue.json").read_text())
    assert env["payload"]["max_rel_err"] < 1e-3


def test_harnack_drift(tmp_path):
    cfg = {
        "params": PARAMS,
        "r": 0.02,
        "pole": [0.0, 0.0, -0.1],
        "density": 16,
    }
    code, out = run(tmp_path, "harnack", cfg)
    assert code == 0
    env = json.loads((out / "harnack.json").read_text())
    assert env["payload"]["refinement_drift"] < 0.2


def _config_keys(tree: ast.Module) -> set[str]:
    """The string keys that cli.py reads, by subscript or .get, from the config or its blocks.

    A block is config.raw, or a name bound to a read of a block: by assignment,
    or as the parameter of a cli function that a call passes such a read.
    """
    funcs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    blocks = {"raw"}

    def key(node):
        """(receiver, key) if node is receiver["key"] or receiver.get("key", ...)."""
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            return node.value, node.slice.value
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            return node.func.value, node.args[0].value
        return None

    def is_block(node) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "raw":
            return True
        if isinstance(node, ast.Name):
            return node.id in blocks
        return is_read(node)

    def is_read(node) -> bool:
        found = key(node)
        return found is not None and isinstance(found[1], str) and is_block(found[0])

    while True:
        before = len(blocks)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and is_read(node.value):
                blocks |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in funcs:
                params = funcs[node.func.id].args.args
                blocks |= {p.arg for p, arg in zip(params, node.args) if is_read(arg)}
        if len(blocks) == before:
            return {key(node)[1] for node in ast.walk(tree) if is_read(node)}


def test_every_config_key_is_in_the_readme():
    # a field that the CLI reads and README does not name is a knob only its tests know
    root = Path(__file__).resolve().parents[1]
    keys = _config_keys(ast.parse((root / "src" / "degenheat" / "cli.py").read_text()))
    assert {"params", "n", "tol", "set", "kind", "primitives", "radii"} <= keys, keys
    spans = re.findall(r"`([^`\n]+)`", (root / "README.md").read_text())
    words = {w for span in spans for w in re.findall(r"[A-Za-z_]\w*", span)}
    assert sorted(keys - words) == []
