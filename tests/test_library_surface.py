"""No test-only library surface.

Every public function, class and method under src/degenheat must be
referenced from the library outside its own definition (an import in
`__init__` counts, as the package's public API), or from bench/ (where
the tracer names its targets as strings), or be listed below with the
reason it stays.  A name that only its own test calls is a second copy
of a path the library already has.
"""
from __future__ import annotations

import ast
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
