"""Repository-wide rules checked on the source text."""

import ast
from pathlib import Path

import endolift

SRC = Path(endolift.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert, so an invariant resting on one silently vanishes
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"
