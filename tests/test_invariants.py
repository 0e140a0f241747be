"""Invariants must survive python -O, which strips assert statements from
every module that pytest does not rewrite: the library, the reference
oracle the tests import and the scripts."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_has_no_assert_statements():
    library = sorted((ROOT / "src" / "convexlab").glob("*.py"))
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert library and scripts
    modules = [*library, ROOT / "tests" / "reference.py", *scripts]
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"plain asserts vanish under python -O: {found}"
