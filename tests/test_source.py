"""Rules on the package's source text."""
import ast
import pathlib

import ffsipp

PACKAGE = pathlib.Path(ffsipp.__file__).parent


def test_no_bare_assert():
    # python -O strips assert statements, and invariant checks must still run.
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
