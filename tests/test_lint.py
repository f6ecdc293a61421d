"""Tier-1 lint without a linter: no module imports a name it never uses."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each name an import binds that no ``Name`` node reads.

    ``import a.b`` binds ``a``; ``from __future__`` imports are not names.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in bound.items() if name not in used)


def test_unused_imports_finds_each_unread_name():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                     "from json import dumps, loads\nprint(os.sep, loads)\n")
    assert unused_imports(tree) == [("dumps", 4), ("np", 3)]


def test_no_unused_imports():
    """Every module under src/, tests/ and scripts/ but the package ``__init__``."""
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for folder in ("src", "tests", "scripts")
             for path in sorted((ROOT / folder).rglob("*.py")) if path.name != "__init__.py"
             for name, line in unused_imports(ast.parse(path.read_text()))]
    assert found == []
