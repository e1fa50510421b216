"""The bench tracer wraps library names by (module, name); they must exist.

bench/tracing.py lists the traced entry points of each layer.  A
refactor that renames or drops one of them would silently stop the
bench from timing that layer, so every listed name must resolve.
"""
from __future__ import annotations

import importlib
import importlib.util
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
