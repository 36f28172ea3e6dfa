"""Rules on the library source itself."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mlp"


def test_no_assert_in_library():
    # python -O strips assert, so no invariant of the library may rest on one
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_indenting_json_encoder():
    # json.dumps(indent=...) runs CPython's pure-Python encoder; every command
    # lays its JSON out through record._layout instead. The AST sees calls
    # only, not the docstrings that name indent=2.
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert found == []


def test_no_unused_imports():
    # every name a module imports is used in it; __init__ re-exports its
    # imports, and a __future__ import is a directive
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name).partition(".")[0] not in used
                ]
    assert found == []


def _traced_locations() -> list[str]:
    """The `module:attr.path` names the benchmark's tracer wraps, read from
    the PATCHES table in benchmark/spans.py."""
    tree = ast.parse((SRC.parent.parent / "benchmark" / "spans.py").read_text(encoding="utf-8"))
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "PATCHES" for t in node.targets)
    )
    return [loc.value for entry in table.values for loc in entry.elts[0].elts]


def test_all_lists_the_package_imports():
    # mlp.__all__ is exactly what __init__ imports, plus __version__: a name
    # that goes from its module cannot stay exported
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exported = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    assert len(exported) == len(set(exported))
    assert set(exported) == imported | {"__version__"}


def test_tracer_locations_are_bound():
    # a refactor that moves a traced function would lose its span silently
    locations = _traced_locations()
    assert "record:ResultRecord.to_json" in locations
    missing = []
    for loc in locations:
        mod_name, _, path = loc.partition(":")
        owner = importlib.import_module(f"mlp.{mod_name}")
        try:
            for part in path.split("."):
                owner = inspect.getattr_static(owner, part)
        except AttributeError:
            missing.append(loc)
    assert missing == []


def test_readme_lists_every_module():
    # the README's module list names each module of the package, and no other
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^\* `mlp\.(\w+)`", readme, flags=re.MULTILINE)
    modules = [path.stem for path in SRC.glob("*.py") if path.stem != "__init__"]
    assert sorted(listed) == sorted(modules)


def test_library_writes_attributes_only_on_self():
    # an object is built whole or mutated by its own methods: no function
    # patches another object's fields after the fact
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert found == []
