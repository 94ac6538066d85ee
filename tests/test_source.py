"""Source-level checks on the package."""

import ast
from pathlib import Path

import cicy_bundles

PACKAGE = Path(cicy_bundles.__file__).parent


def test_no_assert_statements():
    # checks that carry the argument must survive python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
