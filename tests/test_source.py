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


def test_verdicts_built_in_one_place():
    # every status comes from Trail.verdict
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "verdicts.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "Verdict"
             or getattr(node.func, "attr", None) == "Verdict")
    ]
    assert found == []


def test_no_answer_tables():
    # a value the kernel can compute has no transcribed copy: no module-level
    # dict literal whose values are all int constants
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, ast.Dict) and node.value.values
        and all(isinstance(v, ast.Constant) and type(v.value) is int
                for v in node.value.values)
    ]
    assert found == []
