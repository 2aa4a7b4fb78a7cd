"""Every identity check folds its differences in one place.

A check holds iff each labelled difference is zero; ``algebra.held`` is the
one function that turns ``(label, difference)`` pairs into ``(ok,
residuals)``.  This test parses the package's modules with ``ast`` and fails
on any other function that builds the pair by hand: one that returns
``not residuals, residuals``, or one that writes the one-liner
``[] if d.is_zero else [...]``.
"""

import ast
from pathlib import Path

import pytest

import oscquant

PACKAGE = Path(oscquant.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {"algebra.held"}


def _is_not_of(node, name) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.Not)
        and isinstance(node.operand, ast.Name)
        and node.operand.id == name
    )


def _is_hand_fold(node) -> bool:
    """``return not xs, xs`` or ``[] if d.is_zero else [...]``."""
    if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple):
        elts = node.value.elts
        return (
            len(elts) == 2
            and isinstance(elts[1], ast.Name)
            and _is_not_of(elts[0], elts[1].id)
        )
    return (
        isinstance(node, ast.IfExp)
        and isinstance(node.test, ast.Attribute)
        and node.test.attr == "is_zero"
        and isinstance(node.body, ast.List)
        and not node.body.elts
        and isinstance(node.orelse, ast.List)
    )


def hand_folds(source: str, module: str) -> list[str]:
    """``"module.function"`` for each function that folds a check by hand,
    unless it is the shared fold."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = f"{module}.{fn.name}"
        if name not in ALLOWED and any(_is_hand_fold(n) for n in ast.walk(fn)):
            found.append(name)
    return found


def test_checker_flags_a_hand_fold():
    src = (
        "def held(pairs):\n"
        "    residuals = [p for p in pairs if not p[-1].is_zero]\n"
        "    return not residuals, residuals\n"
        "def loop(ds):\n"
        "    bad = [d for d in ds if not d.is_zero]\n"
        "    return not bad, bad\n"
        "def one_liner(diff):\n"
        "    return diff.is_zero, [] if diff.is_zero else [('tag', diff)]\n"
        "def inline(d):\n"
        "    report(d, [] if d.is_zero else [d])\n"
        "def routed(d):\n"
        "    return held([('tag', d)])\n"
        "def other_shape(ok, residuals):\n"
        "    return ok, residuals\n"
    )
    assert hand_folds(src, "algebra") == ["algebra.loop", "algebra.one_liner", "algebra.inline"]
    assert hand_folds(src, "hopf") == [
        "hopf.held",
        "hopf.loop",
        "hopf.one_liner",
        "hopf.inline",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_checks_fold_through_held(path):
    assert hand_folds(path.read_text(encoding="utf-8"), path.stem) == []
