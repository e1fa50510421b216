"""No test-only library surface.

Every public function, class and method under src/degenheat must be
referenced from the library outside its own definition (an import in
`__init__` counts, as the package's public API), or from bench/ (where
the tracer names its targets as strings), or be listed below with the
reason it stays.  A name that only its own test calls is a second copy
of a path the library already has.  Likewise every defaulted parameter
of a public function or method must be passed, by keyword or position,
by some call in src/ or bench/, or be listed with its reason: a knob
that only tests set is a second configuration of the same path.
README's Python example runs as written.
"""
from __future__ import annotations

import ast
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# qualified name -> why it stays although nothing in src/ or bench/ reaches it
KEPT = {
    "capacity.weighted_ball_volume": (
        "reference volume for test_cylinder_capacity_ratio_stable"
    ),
    "wiener.DomainDescriptor.time_slab": (
        "builds a time-slab descriptor without spelling out the primitive dict format"
    ),
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, first line, last line) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.lineno, item.end_lineno


def _references(tree: ast.Module, strings: bool):
    """(name, line) of every identifier use and imported name; string constants too if asked."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _unreferenced() -> set[str]:
    files = sorted((ROOT / "src" / "degenheat").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    refs = [
        (name, path, line)
        for path, tree in trees.items()
        for name, line in _references(tree, strings=False)
    ]
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        refs += [(name, path, line) for name, line in _references(tree, strings=True)]
    flagged = set()
    for path, tree in trees.items():
        for qualname, first, last in _definitions(tree, path.stem):
            name = qualname.rsplit(".", 1)[-1]
            if not any(
                ref == name and not (where == path and first <= line <= last)
                for ref, where, line in refs
            ):
                flagged.add(qualname)
    return flagged


def test_every_public_name_has_a_library_or_bench_caller():
    assert _unreferenced() == set(KEPT)


# qualified parameter -> why it keeps a default although no call in src/ or bench/ sets it
KEPT_KNOBS = {
    "bem.u0_identity.eps": "criterion 05 checks eps -> 0 at a corner",
    "bem.LiftGrid.build.m": "test_bem builds the lift reference on the same rule",
    "meanvalue.mean_derivative_sign.density": "public API, used by criteria 10 and 11",
    "meanvalue.mean_derivative_sign.mass_in_ball": "public API, used by criteria 10 and 11",
}


def _knobs(tree: ast.Module, module: str):
    """(qualified parameter, function name, position or None) of each defaulted parameter.

    The position counts the arguments a caller writes: self and cls are skipped,
    and keyword-only parameters have none.
    """
    funcs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            funcs.append((f"{module}.{node.name}", node, 0))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    funcs.append((f"{module}.{node.name}.{item.name}", item, 1 - static))
    for qualname, node, skip in funcs:
        if node.name.startswith("_"):
            continue
        args = node.args.posonlyargs + node.args.args
        first = len(args) - len(node.args.defaults)
        for pos in range(first, len(args)):
            yield f"{qualname}.{args[pos].arg}", node.name, pos - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield f"{qualname}.{arg.arg}", node.name, None


def _unset_knobs() -> set[str]:
    sources = sorted((ROOT / "src" / "degenheat").glob("*.py"))
    passed = set()  # (function name, keyword) and (function name, position)
    for path in sources + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed |= {(name, kw.arg) for kw in node.keywords}
                passed |= {(name, pos) for pos in range(len(node.args))}
    flagged = set()
    for path in sources:
        for qualname, name, pos in _knobs(ast.parse(path.read_text()), path.stem):
            if (name, qualname.rsplit(".", 1)[-1]) not in passed and (name, pos) not in passed:
                flagged.add(qualname)
    return flagged


def test_every_default_has_a_caller():
    assert _unset_knobs() == set(KEPT_KNOBS)


def test_readme_python_example_runs(capsys):
    # cut out of README as the CI step cuts its wiener.json example, so the
    # documented calls cannot drift from the library: Gamma, then a mean of u = 1
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"```python\n(.*?)```", readme, re.S)
    assert example, "README.md has no Python example"
    exec(compile(example.group(1), "README.md", "exec"), {})
    gamma, mean = (float(line) for line in capsys.readouterr().out.splitlines())
    assert math.isfinite(gamma) and gamma > 0.0
    assert abs(mean - 1.0) < 1e-3
