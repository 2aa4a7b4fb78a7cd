"""Only ``bialgebra`` declares the deformations.

``bialgebra.DEFORMATIONS`` is the one statement of which deformations
exist.  This test parses every other module of the package with ``ast`` and
fails when one states them again: a tuple, list or set literal of exactly
the keys ``"Uz"``, ``"IIn"`` and ``"IIs"``, or a ``KeyError`` subclass of
its own (the lookup ``bialgebra.deformation`` raises the one such class).
"""

import ast
from pathlib import Path

import pytest

import oscquant

PACKAGE = Path(oscquant.__file__).resolve().parent
# Every module but the registry's home.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "bialgebra.py")
KEYS = frozenset({"Uz", "IIn", "IIs"})


def _is_key_literal(node) -> bool:
    return (
        isinstance(node, (ast.Tuple, ast.List, ast.Set))
        and len(node.elts) == len(KEYS)
        and all(isinstance(e, ast.Constant) for e in node.elts)
        and {e.value for e in node.elts} == KEYS
    )


def _is_key_error_subclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        (isinstance(b, ast.Name) and b.id == "KeyError")
        or (isinstance(b, ast.Attribute) and b.attr == "KeyError")
        for b in node.bases
    )


def restatements(source: str) -> list[str]:
    """Line-numbered descriptions of every restatement of the registry."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if _is_key_literal(node):
            found.append((node.lineno, "literal of the deformation keys"))
        elif _is_key_error_subclass(node):
            found.append((node.lineno, f"KeyError subclass {node.name}"))
    return [f"line {n}: {what}" for n, what in sorted(found)]


def test_guard_fires_on_a_small_source():
    src = (
        "KEYS = ('Uz', 'IIn', 'IIs')\n"
        "ORDER = ['IIs', 'Uz', 'IIn']\n"
        "class UnknownThing(KeyError):\n"
        "    pass\n"
        "class Other(builtins.KeyError):\n"
        "    pass\n"
        "SOME = ('Uz', 'IIn')\n"
        "MORE = ('Uz', 'IIn', 'IIs', 'Iplus')\n"
        "BUILDERS = {'Uz': 1, 'IIn': 2, 'IIs': 3}\n"
        "class Fine(ValueError):\n"
        "    pass\n"
    )
    assert restatements(src) == [
        "line 1: literal of the deformation keys",
        "line 2: literal of the deformation keys",
        "line 3: KeyError subclass UnknownThing",
        "line 5: KeyError subclass Other",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_bialgebra_declares_the_deformations(path):
    assert restatements(path.read_text(encoding="utf-8")) == []
