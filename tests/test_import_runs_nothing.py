"""Importing the package runs nothing but definitions.

A module body may bind names (functions, classes, constants, literal tables
built from them) but not act: this test parses every module of the package
with ``ast`` and fails on a top-level bare call statement (``register(...)``)
or a top-level ``for``/``while`` loop.  ``__main__.py`` is the one module
whose body is meant to run.
"""

import ast
from pathlib import Path

import pytest

import oscquant

PACKAGE = Path(oscquant.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__main__.py")


def import_time_actions(source: str) -> list[str]:
    """``"<line>: <kind>"`` for each top-level call statement or loop."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            found.append(f"{node.lineno}: call")
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            found.append(f"{node.lineno}: loop")
    return found


def test_checker_flags_calls_and_loops():
    src = (
        '"""doc"""\n'
        "import functools\n"
        "TABLE = {}\n"
        "def register(key, fn):\n"
        "    TABLE[key] = fn\n"
        "register('a', len)\n"
        "for key in ('b', 'c'):\n"
        "    register(key, functools.partial(len))\n"
        "while not TABLE:\n"
        "    pass\n"
        "ROWS = [(len, key) for key in ('a', 'b')]\n"
        "KEYS = tuple(TABLE)\n"
        "if __name__ == '__main__':\n"
        "    register('d', len)\n"
    )
    assert import_time_actions(src) == ["6: call", "7: loop", "9: loop"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_body_only_defines(path):
    assert import_time_actions(path.read_text(encoding="utf-8")) == []
