"""Rules on the package's source text."""
import ast
import dataclasses
import pathlib

import ffsipp
from ffsipp import landscape

PACKAGE = pathlib.Path(ffsipp.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_no_bare_assert():
    # python -O strips assert statements, and invariant checks must still run.
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_public_name_only_tests_use():
    # Every public, undecorated function, class and method of the package is
    # named somewhere in the package, the benchmark or the demos, test files
    # left out: code that only the tests call is not kept. Decorated
    # definitions (click commands, properties, dataclasses) are reached
    # through their decorator.
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in (ROOT / "src" / "ffsipp", ROOT / "perfbench", ROOT / "demos")
        for path in sorted(folder.rglob("*.py"))
        if not path.name.startswith("test_")
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.is_relative_to(ROOT / "src")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not node.decorator_list
        and node.name not in used
    ]
    assert unused == []


def test_no_unused_import():
    # Every name an import in the package binds is read in that module;
    # ``from __future__ import annotations`` binds nothing that is read.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
                    for alias in node.names
                    if (name := alias.asname or alias.name.split(".")[0]) not in read
                ]
    assert found == []


def test_every_setting_is_read():
    # Every field of the scenario's settings is read, as an attribute,
    # somewhere in the package outside ``parse_scenario``: a setting that
    # nothing reads decides nothing, and is not kept.
    settings = (
        landscape.Scenario, landscape.ServiceType, landscape.VmType, landscape.ArrivalSpec,
        landscape.SlaSpec, landscape.Weights, landscape.OptimizerConfig,
    )
    read = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            if path.name == "landscape.py" and getattr(top, "name", None) == "parse_scenario":
                continue
            read.update(
                node.attr for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            )
    unread = [
        f"{cls.__name__}.{f.name}"
        for cls in settings
        for f in dataclasses.fields(cls)
        if f.name not in read
    ]
    assert unread == []
