"""CLI tests: exit codes, envelopes, deterministic CSV output."""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    env = json.loads((out2 / "kernel.json").read_text())
    assert env["diagnostics"]["workers"] == 4


def test_workers_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("DEGENHEAT_WORKERS", "3")
    code, out = run(tmp_path, "kernel", KERNEL_CFG)
    assert code == 0
    env = json.loads((out / "kernel.json").read_text())
    assert env["diagnostics"]["workers"] == 3


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
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, cmd, cfg):
    assert run(tmp_path, cmd, cfg)[0] == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


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
    assert env["diagnostics"]["residual"] <= 1e-10


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
