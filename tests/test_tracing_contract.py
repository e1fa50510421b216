"""The bench tracer wraps library names by (module, name); they must exist.

bench/tracing.py lists the traced entry points of each layer.  A
refactor that renames or drops one of them would silently stop the
bench from timing that layer, so every listed name must resolve, and
the commands must reach it through the name the tracer rebinds.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _tracing()
    assert tracing.FUNCTIONS
    for mod, name in tracing.FUNCTIONS:
        module = importlib.import_module(f"degenheat.{mod}")
        assert callable(getattr(module, name, None)), f"degenheat.{mod}.{name}"


def test_traced_methods_resolve():
    tracing = _tracing()
    assert tracing.METHODS
    for mod, cls, method in tracing.METHODS:
        klass = getattr(importlib.import_module(f"degenheat.{mod}"), cls, None)
        assert callable(getattr(klass, method, None)), f"degenheat.{mod}.{cls}.{method}"


def test_traced_names_are_on_the_cli_path(tmp_path):
    # every traced name must record a span when the commands run, or its
    # layer metrics read 0: the small config of each command, plus a
    # dirichlet box with a face on y = 0 for the weighted normal limit
    from test_cli import SMALL_CONFIGS

    from degenheat.cli import main

    plane_box = {"lo": [0, 0], "hi": [1, 1], "t0": 0, "t1": 1}
    jobs = [*SMALL_CONFIGS.items()]
    jobs.append(("dirichlet", {**SMALL_CONFIGS["dirichlet"], "box": plane_box}))
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for job, (cmd, cfg) in enumerate(jobs):
            path = tmp_path / f"{job}.json"
            path.write_text(json.dumps(cfg))
            tracer.job, tracer.enabled = job, True
            assert main([cmd, "--config", str(path), "--out", str(tmp_path / str(job))]) == 0
            tracer.enabled = False
    finally:
        tracer.uninstall()
    recorded = {tracer.names[span[0]] for span in tracer.spans}
    traced = [".".join(entry) for entry in (*tracing.FUNCTIONS, *tracing.METHODS)]
    assert [name for name in traced if name not in recorded] == []
    # per-layer accounting: the wiener job records one shell_term span per shell
    # of each distinct lambda (a sweep value equal to lambda is not run again),
    # and no job's capacity_lp time outside linprog is negative
    job = next(i for i, (cmd, _) in enumerate(jobs) if cmd == "wiener")
    cfg = SMALL_CONFIGS["wiener"]
    shell_id = tracer.names.index("wiener.shell_term")
    shells = sum(1 for span in tracer.spans if span[0] == shell_id and span[4] == job)
    assert shells == len({cfg["lambda"], *cfg["sweep"]}) * cfg["k_max"]
    assert all(m["capacity.matrix_s"] >= 0.0 for m in tracer._per_job().values())
