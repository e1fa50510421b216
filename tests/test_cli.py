"""CLI tests: exit codes, envelopes, deterministic CSV output."""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenheat.cli import main

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
    bad = {**cfg, "perturb": 1.001}
    code, out = run(tmp_path, "check", bad)
    assert code == 1
    env = json.loads((out / "check.json").read_text())
    assert env["payload"]["failures"] >= 1


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
    cfgp = write_cfg(tmp_path, "negtol.json", KERNEL_CFG)
    assert main(["kernel", "--config", cfgp, "--out", str(out), "--tol", "-1"]) == 2


BOX = {"lo": [0, 0.2], "hi": [1, 1.2], "t0": 0, "t1": 1}
XI0 = [0.5, 0.7, 0.0]
BOX_DOMAIN = {"primitives": [{"type": "box", "lo": [0, 0.2], "hi": [1, 1.2], "t": [0, 1]}]}
CUSP = {"type": "cusp", "center": XI0, "profile": {"kind": "power", "params": [0.5, 0.5]}}
# the box with a cusp-shaped thorn below XI0, cut off at t = -1
THORN_DOMAIN = {
    "primitives": [*BOX_DOMAIN["primitives"], CUSP, {"type": "time-slab", "t": [-1, 1]}],
    "ops": ["union", "intersect"],
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
                "set": {"kind": "flat", "lo": [0, 0], "hi": [1, 1], "tau": 0.0},
                "density": 0,
            },
        ),
        (
            "meanvalue",
            {"params": PARAMS, "xi0": [0.5, 0.7, 0.0], "radii": [0.02], "pole": [0.3, 0.4, 0.0]},
        ),
        ("meanvalue", {"params": PARAMS, "xi0": [0.5, 0.7, 0.0], "radii": [0.02], "density": 0}),
        ("meanvalue", {"params": PARAMS, "xi0": [0.5, 0.7, 0.0], "radii": [0.0]}),
        ("harnack", {"params": PARAMS, "pole": [0.0, 0.0, -0.1], "density": 0}),
        ("harnack", {"params": PARAMS, "pole": [0.0, 0.0, -0.1], "r": 0.0}),
        ("harnack", {"params": {"n": 3, "a": 0.3}, "pole": [0.0, 0.0, 0.0, -0.1]}),
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
            {"params": PARAMS, "set": {"kind": "flat", "lo": [0], "hi": [1], "tau": 0.0}},
        ),
        (
            "capacity",
            {"params": PARAMS, "set": {"kind": "flat", "lo": [1, 1], "hi": [0, 0], "tau": 0.0}},
        ),
        ("capacity", {"params": PARAMS, "set": {"kind": "flat", "lo": [0, 0], "hi": [1, 1]}}),
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
                "set": {"kind": "flat", "lo": [0, 0], "hi": [1, 1], "tau": 0.0},
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
        (
            "capacity",
            {
                "params": PARAMS,
                "set": {"kind": "flat", "lo": [0, 0], "hi": [1, 1], "tau": 0.0},
                "tol": 1,
            },
        ),
        (
            "capacity",
            {
                "params": PARAMS,
                "set": {"kind": "flat", "lo": [0, 0], "hi": [1, 1], "tau": 0.0},
                "tol": math.nan,
            },
        ),
    ],
    ids=[
        "check-short-mass-point",
        "dirichlet-gamma-no-pole",
        "capacity-density-0",
        "meanvalue-late-pole",
        "meanvalue-density-0",
        "meanvalue-radius-0",
        "harnack-density-0",
        "harnack-r-0",
        "harnack-n-3",
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
        "capacity-flat-no-tau",
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
        "capacity-tol-1",
        "capacity-tol-nan",
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, cmd, cfg):
    assert run(tmp_path, cmd, cfg)[0] == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


# one small valid config per command; the fuzz test breaks one field of it
SMALL_CONFIGS = {
    "kernel": KERNEL_CFG,
    "check": {
        "params": PARAMS,
        "mass_points": [[0.5, 0.7, 0.3]],
        "semigroup": [[0.4, 0.6, 0.2, 0.3]],
        "tol": 1e-6,
        "perturb": 1.0,
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
        "set": {"kind": "flat", "lo": [0, 0], "hi": [1, 1], "tau": 0.0},
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
    ("meanvalue", ("xi0", 2), 1e300, 3),
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


@pytest.mark.parametrize("cmd", sorted(SMALL_CONFIGS))
def test_small_configs_run(tmp_path, cmd):
    assert run(tmp_path, cmd, SMALL_CONFIGS[cmd])[0] == 0


@pytest.mark.parametrize("cmd", sorted(SMALL_CONFIGS))
@settings(max_examples=30, deadline=10_000, derandomize=True, database=None)
@given(data=st.data())
def test_fuzz_one_broken_field(cmd, data):
    cfg = SMALL_CONFIGS[cmd]
    path = data.draw(st.sampled_from(list(_paths(cfg))), label="path")
    value = data.draw(st.sampled_from(BAD_VALUES), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        cfgp = write_cfg(Path(tmp), "cfg.json", _broken(cfg, path, value))
        code = main([cmd, "--config", cfgp, "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)


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


def test_capacity_with_oracle(tmp_path):
    cfg = {
        "params": PARAMS,
        "set": {"kind": "flat", "lo": [0, 0], "hi": [1, 1], "tau": 0.0},
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
        # every row is active: a set row sees the earlier time nodes of nearby cells
        assert lev["atoms"] == lev["density"] ** 2
        assert lev["lp_rows"] == 2 * lev["atoms"]
        assert lev["atoms"] < lev["near_pairs"] <= 50 * lev["atoms"]
        assert lev["lp_iterations"] > 0
        assert abs(lev["max_constraint_violation"]) <= 1e-6


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
    assert len(diags["inner_iterations"]) == 4
    lag0 = diags["lag0"]
    assert lag0["near_pairs"] + lag0["far_pairs"] == 16 * 16
    assert lag0["near_time_nodes"] == 192 and 0 < lag0["far_time_nodes"] <= 192


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
    # interior point: boundary precondition fails as a config error
    bad = {**cfg, "xi0": [0.5, 0.7, 0.5]}
    assert run(tmp_path, "wiener", bad)[0] == 2


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
