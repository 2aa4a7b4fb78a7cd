"""No module of the package, test or script imports a name it never uses,
and no module of the package imports sympy when it is itself imported.

sympy is needed only for LaTeX output: two modules reach it, and only from
inside a function, so a text or JSON run never loads it.

No linter ships with the project's toolchain, so this is the unused-import
rule (F401) written against the standard library's ``ast``.  An import that
exists to re-export a name says so with ``# noqa: F401`` on its line.
The package's ``__init__.py`` is all re-exports and is left out.
"""

import ast
from pathlib import Path

import pytest

import oscquant

PACKAGE = Path(oscquant.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# The tests and the scripts, named by directory: ``tests/test_lm.py``.
OTHER_SOURCES = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _annotation_names(node):
    """Names inside an annotation, string annotations included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed)


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
    return used


def unused_imports(source: str) -> list[str]:
    """``"line: name"`` for each imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound in used or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            unused.append(f"{alias.lineno}: {bound}")
    return unused


def test_checker_flags_an_unused_import_and_honours_noqa():
    src = (
        "from __future__ import annotations\n"
        "import os\n"
        "from a import (\n"
        "    b,\n"
        "    c,  # noqa: F401\n"
        "    d as e,\n"
        ")\n"
        "def f(x: 'e') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(src) == ["4: b"]


@pytest.mark.parametrize(
    "path", MODULES + OTHER_SOURCES, ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}"
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# -- sympy stays at the edges ------------------------------------------------
#
# Coefficients are integer dicts with a native GCD and printer; sympy serves
# only the LaTeX output: the LaTeX helpers of ``report``, which read printed
# text back.  No other module reaches it, and no module imports it at import
# time.

SYMPY_MODULES = ("report.py",)


def _is_sympy(name) -> bool:
    return name == "sympy" or name.startswith("sympy.")


def _sympy_lines(nodes) -> list[int]:
    lines = []
    for node in nodes:
        if isinstance(node, ast.Import) and any(_is_sympy(a.name) for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and not node.level and _is_sympy(node.module or ""):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and any(
            isinstance(a, ast.Constant) and isinstance(a.value, str) and _is_sympy(a.value) for a in node.args
        ):
            lines.append(node.lineno)
    return sorted(lines)


def sympy_imports(source: str) -> list[int]:
    """Line numbers of every import of sympy, at any depth, dynamic ones included."""
    return _sympy_lines(ast.walk(ast.parse(source)))


def _import_time_nodes(node):
    """The nodes below ``node`` that run when it runs: all but the bodies of
    the functions and lambdas it defines (their defaults and decorators run)."""
    for field, value in ast.iter_fields(node):
        if field == "body" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield child
                yield from _import_time_nodes(child)


def import_time_sympy_imports(source: str) -> list[int]:
    """Line numbers of the imports of sympy that run when the module is imported."""
    return _sympy_lines(_import_time_nodes(ast.parse(source)))


def test_sympy_check_fires_on_a_small_source():
    src = (
        "import os, sympy.polys as sp\n"
        "from .coeffs import sympy_free\n"
        "def f():\n"
        "    from sympy import latex\n"
        "    return importlib.import_module('sympy')\n"
    )
    assert sympy_imports(src) == [1, 4, 5]
    assert sympy_imports("import sympyish\nfrom . import sympy\n") == []


def test_import_time_check_fires_on_a_small_source():
    src = (
        "import os\n"
        "from sympy import latex\n"
        "def f(x=__import__('sympy')):\n"
        "    import sympy\n"
        "    return lambda: importlib.import_module('sympy')\n"
        "class C:\n"
        "    import sympy.polys\n"
        "g = lambda: __import__('sympy')\n"
        "if os.sep:\n"
        "    import sympy as s\n"
    )
    assert import_time_sympy_imports(src) == [2, 3, 7, 10]
    assert sympy_imports(src) == [2, 3, 4, 5, 7, 8, 10]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name not in SYMPY_MODULES), ids=lambda p: p.name
)
def test_only_coeffs_and_report_import_sympy(path):
    assert sympy_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_sympy_at_import_time(path):
    assert import_time_sympy_imports(path.read_text(encoding="utf-8")) == []
