"""Rules are stated in one notation: text, read by ``expr.parse_element``.

A swap rule's tail, a relation's constant part or an expected invariant is
written as text over the letter names (``"z*a_minus^2"``,
``"2*A*M - Ap*Am - Am*Ap"``), never as a dict of exponent tuples beside a
comment that says the same thing.  This test parses the package's modules
with ``ast`` and fails on a tuple display of four or more integer literals,
negative ones included, outside the modules that define the monomial
layouts: ``algebra`` (the enveloping algebras' four slots), ``coeffs``
(coefficient monomials) and ``poisson`` (the coordinate rings' five slots).
"""

import ast
from pathlib import Path

import pytest

import oscquant

PACKAGE = Path(oscquant.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
LAYOUT_MODULES = {"algebra", "coeffs", "poisson"}
MIN_LENGTH = 4


def _is_int_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def exponent_tuples(source: str, module: str) -> list[str]:
    """``"module:line"`` for each tuple display of at least ``MIN_LENGTH``
    integer literals, in source order."""
    lines = {
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Tuple)
        and len(node.elts) >= MIN_LENGTH
        and all(_is_int_literal(e) for e in node.elts)
    }
    return [f"{module}:{line}" for line in sorted(lines)]


def test_guard_flags_a_small_source():
    src = (
        "TAILS = {\n"
        "    (3, 0): {(0, 1, 0, 0, 0): -z, (0, -1, 0, 0, 0): z},\n"
        "}\n"
        "def casimir():\n"
        "    return {(1, 0, 0, 1): 2}\n"
        "SHORT = (0, 1, 2)\n"
        "MIXED = (0, 1, n, 0)\n"
        "FLAGS = (True, False, True, False)\n"
        "RULES = {('m', 'a_plus'): 'z*a_plus'}\n"
        "SIGNED = (-1, +2, 0, 0)\n"
    )
    assert exponent_tuples(src, "m") == ["m:2", "m:5", "m:10"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_rules_are_stated_as_text(path):
    if path.stem in LAYOUT_MODULES:
        return
    assert exponent_tuples(path.read_text(encoding="utf-8"), path.stem) == []
