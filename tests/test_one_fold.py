"""Every identity check folds its differences in one place.

A check holds iff each labelled difference is zero; ``algebra.held`` is the
one function that turns ``(label, difference)`` pairs into ``(ok,
residuals)``.  This test parses the package's modules with ``ast`` and fails
on any other function that builds the pair by hand: one that returns
``not residuals, residuals``, or one that writes the one-liner
``[] if d.is_zero else [...]``.  A check function, one named ``*_check`` or
``qybe_exact_*``, returns no tuple display at all: its result is ``held``'s.
"""

import ast
from fnmatch import fnmatch
from pathlib import Path

import pytest

import oscquant

PACKAGE = Path(oscquant.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {"algebra.held"}
CHECK_NAMES = ("*_check", "qybe_exact_*")


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


def tuple_returns(source: str, module: str) -> list[str]:
    """``"module.function"`` for each check function that returns a tuple
    display, such as ``return ok, residuals``."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(fnmatch(fn.name, pattern) for pattern in CHECK_NAMES) and any(
            isinstance(n, ast.Return) and isinstance(n.value, ast.Tuple) for n in ast.walk(fn)
        ):
            found.append(f"{module}.{fn.name}")
    return found


def test_checker_flags_a_check_that_returns_a_tuple():
    src = (
        "def mcybe_check(r):\n"
        "    return invariant, residuals\n"
        "def refactorization_check(R):\n"
        "    if R is None:\n"
        "        return True, []\n"
        "    return held([('refactorization', R)])\n"
        "def qybe_exact_matrix(m):\n"
        "    return (m.is_zero, m)\n"
        "def qybe_exact_rep(key):\n"
        "    return qybe_exact_matrix(key)\n"
        "def inverse_check(R):\n"
        "    return held([('R*Rinv', R)])\n"
        "def necessity():\n"
        "    return True, []\n"
    )
    assert tuple_returns(src, "rmatrix") == [
        "rmatrix.mcybe_check",
        "rmatrix.refactorization_check",
        "rmatrix.qybe_exact_matrix",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_checks_fold_through_held(path):
    source = path.read_text(encoding="utf-8")
    assert hand_folds(source, path.stem) == []
    assert tuple_returns(source, path.stem) == []
