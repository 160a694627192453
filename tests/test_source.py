"""Rules on the package's source text."""
import ast
import pathlib

import ffsipp

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
