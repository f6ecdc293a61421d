"""Tier-1 lint without a linter: no module imports a name it never uses, no package
function imports, the emulator side imports nothing from the oracle, every
package reader of a JSON input checks its numbers with ``ci.number_array``, and
``spectrum`` writes no number with ``repr`` (``floatrepr`` does)."""
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


PACKAGE = ROOT / "src" / "dsfsim"
# The oracle is the independent referee, so no emulator-side module is built from
# its code; the rules both sides share (sector words, ladder signs, the CVS mask)
# live in ``ci``.
EMULATOR_SIDE = ("ci", "pauli", "operators", "emulator", "spectrum")


def function_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(function, line) of each import statement inside a function body."""
    return sorted((fn.name, node.lineno) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom)))


def imported_modules(tree: ast.Module) -> set[str]:
    """Dotted names of every module and name an import reads; ``.`` prefixes dropped."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            out.update([base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names])
    return out


def test_import_walkers_find_each_site():
    tree = ast.parse("import json\nfrom . import oracle\nfrom .ci import word\n"
                     "def f():\n    import math\n    def g():\n        from .x import y\n")
    assert function_imports(tree) == [("f", 5), ("f", 7), ("g", 7)]
    assert imported_modules(tree) == {"json", "math", "", "oracle", "ci", "ci.word",
                                      "x", "x.y"}


def test_no_imports_inside_package_functions():
    found = [f"{path.name}:{line} {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name, line in function_imports(ast.parse(path.read_text()))]
    assert found == []


def test_emulator_side_imports_nothing_from_the_oracle():
    found = [f"{module}: {name}" for module in EMULATOR_SIDE
             for name in imported_modules(ast.parse((PACKAGE / f"{module}.py").read_text()))
             if "oracle" in name.split(".")]
    assert found == []


# ``load_config``'s values go through the ``RunConfig`` rows, which use ``ci.is_number``.
JSON_READERS_EXEMPT = {"cli.load_config"}


def called_names(fn: ast.AST) -> set[str]:
    """Names of the functions ``fn`` calls, as ``f`` for ``f(...)`` and ``a.f(...)``."""
    return {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Attribute, ast.Name))}


def readers_without_number_check(tree: ast.Module, module: str) -> list[str]:
    """``module.function`` of each function that calls ``loads`` but not ``number_array``."""
    return sorted(f"{module}.{fn.name}" for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and "loads" in called_names(fn) and "number_array" not in called_names(fn))


def test_reader_walker_finds_each_site():
    tree = ast.parse("def a(t):\n    return json.loads(t)\n"
                     "def b(t):\n    return ci.number_array(json.loads(t))\n"
                     "def c(t):\n    return loads(t)['x']\n")
    assert readers_without_number_check(tree, "m") == ["m.a", "m.c"]


def test_every_json_reader_checks_its_numbers():
    found = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in readers_without_number_check(ast.parse(path.read_text()), path.stem)
             if name not in JSON_READERS_EXEMPT]
    assert found == []


def repr_sites(tree: ast.Module) -> list[int]:
    """Lines that write a value as its ``repr``: a ``repr(...)`` call, an ``!r``
    conversion or a string constant holding ``%r``."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "repr"
                   or isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
                   or isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and "%r" in node.value})


def test_repr_walker_finds_each_site():
    tree = ast.parse('a = repr(x)\nb = f"{x!r} {y}"\nc = "%r," % x\nd = f"{x!s}" + str(x)\n')
    assert repr_sites(tree) == [1, 2, 3]


def test_spectrum_writes_numbers_through_floatrepr():
    """``floatrepr`` is the one float-to-text path of the spectrum CSV and series
    JSON writers; its per-entry fallback is the only ``repr`` they reach."""
    assert repr_sites(ast.parse((PACKAGE / "spectrum.py").read_text())) == []
