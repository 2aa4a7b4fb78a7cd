"""Rules are stated in one notation: text, read by ``expr``.

A swap rule's tail, a relation's constant part or an expected invariant is
written as text over the letter names (``"z*a_minus^2"``,
``"2*A*M - Ap*Am - Am*Ap"``), never as a dict of exponent tuples beside a
comment that says the same thing.  This test parses the package's modules
with ``ast`` and fails on a tuple display of four or more integer literals,
negative ones included, outside the modules that define the monomial
layouts: ``algebra`` (the enveloping algebras' four slots), ``coeffs``
(coefficient monomials) and ``poisson`` (the coordinate rings' five slots).

The stated structures (the Hopf presentations, the group coalgebra and the
universal R's exponents) are text with ``@`` for the tensor product, read by
``hopf.reader``: ``hopf`` and ``funalg`` neither import nor call ``tensor``
or ``spread``, and ``rmatrix._exponents`` branches on no key.  A sign
flipped in a copy of one presentation's text fails ``hopf-homomorphism``.
"""

import ast
import copy
from pathlib import Path

import pytest

import oscquant
from oscquant import cli, hopf
from oscquant.expr import MAX_BITS, ExprError, parse, parse_element

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


# -- the stated structures -------------------------------------------------

HAND_BUILT = {"tensor", "spread"}
STATED_MODULES = ("hopf", "funalg")


def hand_built(source: str) -> list[str]:
    """The names in ``HAND_BUILT`` that ``source`` imports or calls."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names if a.name in HAND_BUILT)
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in HAND_BUILT:
                found.add(name)
    return sorted(found)


def key_branches(source: str, function: str) -> list[int]:
    """The lines of ``function`` that branch on, or compare, its ``key``."""
    lines = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == function):
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.If, ast.IfExp, ast.While)):
                tested = node.test
            elif isinstance(node, ast.Compare):
                tested = node
            elif isinstance(node, ast.Match):
                tested = node.subject
            else:
                continue
            if any(isinstance(n, ast.Name) and n.id == "key" for n in ast.walk(tested)):
                lines.append(node.lineno)
    return sorted(set(lines))


def test_stated_guards_flag_a_small_source():
    src = (
        "from .algebra import held, spread\n"
        "def images(alg):\n"
        "    return algebra.tensor(alg.one(), alg.gen(0))\n"
        "def _exponents(key, alg):\n"
        "    if key == 'Uz':\n"
        "        return 1\n"
        "    return 2 if key in TABLE else 3\n"
        "def other(key):\n"
        "    if key == 'Uz':\n"
        "        return 0\n"
    )
    assert hand_built(src) == ["spread", "tensor"]
    assert key_branches(src, "_exponents") == [5, 7]
    assert key_branches(src, "other") == [9]
    assert hand_built("TEXT = {'A': 'A@1 + 1@A'}\n") == []


@pytest.mark.parametrize("module", STATED_MODULES)
def test_stated_structures_are_not_built_by_hand(module):
    assert hand_built((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) == []


def test_r_exponents_branch_on_no_key():
    assert key_branches((PACKAGE / "rmatrix.py").read_text(encoding="utf-8"), "_exponents") == []


# (key, part, entry, the entry's text with one sign flipped)
SIGN_FLIPS = [
    ("IIs", "images", "Ap", "Einv@Ap - Ap@1"),
    ("Uz", "images", "Am", "1@Am + Am@E - z*A@M*E"),
    ("IIn", "tails", ("Ap", "A"), "-Ap - yp*vm"),
]


def _homomorphism(key):
    (line,) = cli._run((key, ("hopf-homomorphism",)), 3)
    return line.status


@pytest.mark.parametrize("key, part, entry, flipped", SIGN_FLIPS, ids=[f[0] for f in SIGN_FLIPS])
def test_a_sign_flipped_presentation_fails_the_homomorphism_check(monkeypatch, key, part, entry, flipped):
    stated = copy.deepcopy(hopf._PRESENTATIONS[key])
    assert stated[part][entry] != flipped
    assert _homomorphism(key) == "pass"
    stated[part][entry] = flipped
    monkeypatch.setitem(hopf._PRESENTATIONS, key, stated)
    monkeypatch.setattr(hopf, "_cache", {})
    assert _homomorphism(key) == "fail"


# -- the tensor product in the grammar -------------------------------------


def test_at_binds_between_sum_and_product():
    alg = hopf.presentation("Uz", 2).alg
    assert parse_element(alg, "1@Am + Am@Ap + z*A@M*Ap") == (
        parse_element(alg, "(1@Am) + (Am@Ap) + ((z*A)@(M*Ap))")
    )
    assert parse("a@b@c") == ("@", ("@", ("name", "a"), ("name", "b")), ("name", "c"))


def test_a_scalar_factor_is_the_unit_with_the_field_one():
    alg = hopf.presentation("IIs", 2).alg
    unit, a = alg.unit_mono, (1, 0, 0, 0)
    assert parse_element(alg, "1@A").terms[(unit, a)] is alg.field.one
    assert parse_element(alg, "A@2").terms[(a, unit)] == alg.field.rational(2)


def test_at_refuses_factors_over_two_algebras():
    a, b = hopf.presentation("Uz", 2).alg.gen(0), hopf.presentation("IIs", 2).alg.gen(0)
    with pytest.raises(ValueError, match="cannot tensor"):
        a @ b


def test_at_counts_as_a_product_in_the_budget():
    with pytest.raises(ExprError, match=f"over the budget of {MAX_BITS} bits"):
        parse("x^600@x^600")
    parse("x^500@x^500")


@pytest.mark.parametrize("text", ["1@2", "z@z", "z@(1+z)"])
def test_at_between_scalars_is_an_expression_error(text):
    alg = hopf.presentation("IIs", 2).alg
    with pytest.raises(ExprError, match="an operator its operands do not support"):
        parse_element(alg, text)
