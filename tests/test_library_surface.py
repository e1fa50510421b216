"""No test-only library surface.

Every public function, class and method under src/degenheat must be
referenced from the library outside its own definition, or from bench/
(where the tracer names its targets as strings), or be listed below
with the reason it stays.  An import in `__init__` is an export, not a
caller, and a classmethod counts only where it is written
`<Class>.<name>`: a bare name would match a field or method of the same
name on another class.  A name that only its own test calls is a second
copy of a path the library already has.  Likewise every defaulted
parameter of a public function or method must be passed, by keyword or
position, by some call in src/ or bench/, and left out by another, or
be listed with its reason: a knob that only tests set is a second
configuration of the same path, and a default that every caller
overrides is a second value of a setting the CLI already owns.  A
positional parameter that every call in src/ and bench/ passes as the
same literal is a constant, and is flagged too.  Every attribute that
src/ sets on self is read somewhere in src/ or named in bench/.
README's Python example runs as written.
"""
from __future__ import annotations

import ast
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "degenheat").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
# the modules whose references and calls count; __init__ only re-exports
CALLERS = [path for path in SRC if path.name != "__init__.py"] + BENCH

# qualified name -> why it stays although nothing in src/ or bench/ reaches it
KEPT = {
    "capacity.weighted_ball_volume": (
        "reference volume for test_cylinder_capacity_ratio_stable"
    ),
    "wiener.DomainDescriptor.time_slab": (
        "builds a time-slab descriptor without spelling out the primitive dict format"
    ),
}


def _decorated(node: ast.FunctionDef, name: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name for d in node.decorator_list)


def _definitions(tree: ast.Module, module: str):
    """(qualified name, class or None, first line, last line) of each public
    function, class and method; the class is given for classmethods only."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", None, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        owner = node.name if _decorated(item, "classmethod") else None
                        qualname = f"{module}.{node.name}.{item.name}"
                        yield qualname, owner, item.lineno, item.end_lineno


def _references(tree: ast.Module, strings: bool):
    """(owner, name, line) of every identifier use and imported name, string
    constants too if asked; owner is the class name of `<Class>.<name>`, else None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield None, node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            yield owner, node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((None, alias.name, node.lineno) for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield None, node.value, node.lineno


def _unreferenced() -> set[str]:
    refs = [
        (owner, name, path, line)
        for path in CALLERS
        for owner, name, line in _references(ast.parse(path.read_text()), path in BENCH)
    ]
    flagged = set()
    for path in SRC:
        for qualname, cls, first, last in _definitions(ast.parse(path.read_text()), path.stem):
            name = qualname.rsplit(".", 1)[-1]
            if not any(
                ref == name
                and (cls is None or owner == cls)
                and not (where == path and first <= line <= last)
                for owner, ref, where, line in refs
            ):
                flagged.add(qualname)
    return flagged


def test_every_public_name_has_a_library_or_bench_caller():
    assert _unreferenced() == set(KEPT)


# qualified parameter -> why it keeps a default although no call in src/ or bench/ sets it
KEPT_KNOBS = {
    "bem.u0_identity.eps": "criterion 05 checks eps -> 0 at a corner",
    "bem.LiftGrid.build.m": "test_bem builds the lift reference on the same rule",
}


def _functions(tree: ast.Module, module: str):
    """(qualified name, node, skip) of each public function and method of a public class;
    skip is 1 where the first parameter is self or cls."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    skip = 1 - _decorated(item, "staticmethod")
                    yield f"{module}.{node.name}.{item.name}", item, skip


def _knobs(tree: ast.Module, module: str):
    """(qualified parameter, function name, position or None) of each defaulted parameter.

    The position counts the arguments a caller writes: self and cls are skipped,
    and keyword-only parameters have none.
    """
    for qualname, node, skip in _functions(tree, module):
        args = node.args.posonlyargs + node.args.args
        first = len(args) - len(node.args.defaults)
        for pos in range(first, len(args)):
            yield f"{qualname}.{args[pos].arg}", node.name, pos - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield f"{qualname}.{arg.arg}", node.name, None


def _calls():
    """(function name, keyword nodes by name, positional nodes) of every call in src/ and bench/."""
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                yield name, {kw.arg: kw.value for kw in node.keywords}, node.args


def _knob_faults() -> tuple[set[str], set[str]]:
    """The defaults that no call in src/ or bench/ passes, and those that none leaves out."""
    calls = list(_calls())
    unset, overridden = set(), set()
    for path in SRC:
        for qualname, name, pos in _knobs(ast.parse(path.read_text()), path.stem):
            param = qualname.rsplit(".", 1)[-1]
            given = [
                param in keys or (pos is not None and pos < len(args))
                for fname, keys, args in calls
                if fname == name
            ]
            if not any(given):
                unset.add(qualname)
            if all(given):
                overridden.add(qualname)
    return unset, overridden


def test_every_default_has_a_caller():
    assert _knob_faults()[0] == set(KEPT_KNOBS)


def test_every_default_is_relied_on():
    # no exemptions: a default that every caller overrides is a value only tests see
    assert _knob_faults()[1] == set()


def _literal(node) -> str | None:
    """repr of the value a literal argument node writes, None for any other node."""
    try:
        return repr(ast.literal_eval(node))
    except (TypeError, ValueError):
        return None


def _one_value_parameters() -> set[str]:
    """The positional parameters that every call in src/ and bench/ passes as one literal."""
    calls = list(_calls())
    flagged = set()
    for path in SRC:
        for qualname, node, skip in _functions(ast.parse(path.read_text()), path.stem):
            params = node.args.posonlyargs + node.args.args
            for pos, param in enumerate(params[skip:]):
                # a call passes the parameter at its position, unless a star comes first
                # and hides it, or by name; any other call passes no literal
                passed = [
                    None if any(isinstance(arg, ast.Starred) for arg in args[: pos + 1])
                    else _literal(args[pos]) if pos < len(args)
                    else _literal(keys[param.arg]) if param.arg in keys
                    else None
                    for fname, keys, args in calls
                    if fname == node.name
                ]
                if passed and None not in passed and len(set(passed)) == 1:
                    flagged.add(f"{qualname}.{param.arg}")
    return flagged


def test_no_parameter_takes_one_value():
    # a parameter that every caller sets to the same literal is a constant in disguise
    assert _one_value_parameters() == set()


def _write_only_attributes(src, bench) -> list[str]:
    """`<module>:<line> <name>` of each `self.<name> = ...` in src that no `.<name>` in
    src reads and that bench does not name."""
    trees = [(path.stem, ast.parse(path.read_text())) for path in src]
    read = {
        node.attr
        for _, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    read |= {name for path in bench for _, name, _ in _references(ast.parse(path.read_text()), True)}
    return [
        f"{module}:{node.lineno} {node.attr}"
        for module, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        and node.attr not in read
    ]


def test_every_attribute_is_read():
    # an attribute that only its own assignment names is state nothing uses
    assert _write_only_attributes(SRC, BENCH) == []


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
