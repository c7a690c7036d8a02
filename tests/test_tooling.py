"""Repository-wide rules checked on the source text."""

import ast
import sys
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


def test_package_imports_only_the_standard_library():
    # the package has no runtime dependencies; a third-party import (numpy
    # alone takes longer to import than the whole package) would add one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, f"non-stdlib imports in src: {found}"


def _unused_imports(path):
    """Names a file imports but neither reads nor lists in __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(Path(__file__).resolve().parent.glob("*.py")):
        found += _unused_imports(path)
    assert not found, f"unused imports: {found}"
