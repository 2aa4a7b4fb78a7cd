"""No module of the package imports a name it never uses.

No linter ships with the project's toolchain, so this is the unused-import
rule (F401) written against the standard library's ``ast``.  An import that
exists to re-export a name says so with ``# noqa: F401`` on its line.
``__init__.py`` is all re-exports and is left out.
"""

import ast
from pathlib import Path

import pytest

import oscquant

PACKAGE = Path(oscquant.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
