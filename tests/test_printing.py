"""The printed text of every container, pinned byte for byte.

Enveloping-algebra elements and their tensor powers, coordinate-ring
elements, group functions and free words all print as signed sums of
coefficient-times-monomial terms.  Every ``verify`` residual and every table
cell is such a sum, so these strings are fixed here exactly.  The sign rule
of such a sum (``+ -`` becomes ``-``) is written once, in
``algebra.signed_sum``; an ``ast`` check keeps it there.
"""

import ast
from pathlib import Path

import oscquant
from oscquant.algebra import AP, M, tensor
from oscquant.coeffs import CoefficientField
from oscquant.expr import parse_element
from oscquant.funalg import fun_presentation
from oscquant.hopf import presentation
from oscquant.poisson import GroupRing, group_str
from oscquant.report import latex_coeff, latex_group
from oscquant.rmatrix import FreeElement, universal_R


def test_enveloping_algebra_coproduct_image():
    p = presentation("IIn", 2)
    assert repr(p.images["A"]) == (
        "1 o A + A o 1 - h*yp*Am o M + h*bp*Ap o M"
        " - 1/2*h**2*x*yp*Am o M^2 - 1/2*h**2*x*bp*Ap o M^2"
    )
    assert repr(p.antipode["A"]) == (
        "-A - h*yp*Am*M + h*bp*Ap*M + 1/2*h**2*x*yp*Am*M^2 + 1/2*h**2*x*bp*Ap*M^2"
    )


def test_compound_coefficients_and_constants():
    alg = presentation("IIn", 2).alg
    one, x = alg.field.one, alg.field.param("x")
    e = (alg.gen(AP) * alg.gen(M)).scale(x + one) - alg.one().scale(x)
    assert repr(e) == "-x + (x + 1)*Ap*M"
    t = tensor(alg.gen(AP), alg.gen(M)).scale(one - x) + alg.tensor_unit(2).scale(x - 2)
    assert repr(t) == "x - 2 + (-x + 1)*Ap o M"


def test_arity_three_embedded_R_matrix():
    assert repr(universal_R("Uz", 3).embedded((0, 2))) == (
        "1 - h*z*Ap o 1 o A + h*z*A o 1 o Ap + h**2*z**2*Ap o 1 o A*Ap"
        " - 1/2*h**3*z**3*Ap o 1 o A*Ap^2 + 1/2*h**3*z**3*Ap^2 o 1 o A*Ap"
        " + 1/2*h**2*z**2*Ap^2 o 1 o A^2 - h**2*z**2*A*Ap o 1 o A*Ap"
        " + 1/2*h**2*z**2*A^2 o 1 o Ap^2 - h**3*z**3*Ap^2 o 1 o A^2*Ap"
        " + h**3*z**3*A*Ap o 1 o A*Ap^2 - 1/6*h**3*z**3*Ap^3 o 1 o A^3"
        " + 1/2*h**3*z**3*A*Ap^2 o 1 o A^2*Ap - 1/2*h**3*z**3*A^2*Ap o 1 o A*Ap^2"
        " + 1/6*h**3*z**3*A^3 o 1 o Ap^3"
    )


def test_coordinate_ring_element_with_inverse_E():
    f = fun_presentation("Uz")
    ring = f.alg
    z = ring.field.param("z")
    assert repr(f.antipode["a_plus"]) == "-E^-1*a_plus"
    assert repr(f.images["m"]) == "-E^-1*a_plus o a_minus + 1 o m + m o 1"
    e = f.antipode["a_plus"] * ring.coord("m").scale(z + ring.field.one) - ring.one().scale(z)
    assert repr(e) == "-z + (-z - 1)*E^-1*a_plus*m"


def test_two_site_group_function():
    # a function on two copies of the group is an arity-2 tensor over the
    # commutative ring, and prints like every tensor
    ring = GroupRing(CoefficientField.get("x", "y"), 2)
    second = ring.coord("m", 1) - ring.coord("theta", 1)
    f = parse_element(ring, "x*Einv*a_plus^2") * second + parse_element(ring, "x^2 - y + 1")
    assert repr(f) == "x**2 - y + 1 + x*E^-1*a_plus^2 o m - x*E^-1*a_plus^2 o theta"


def test_group_function_latex():
    # one walk for text and LaTeX: the power of E first, then theta, a_+,
    # a_-, m
    ring = GroupRing(CoefficientField.get("x"))
    f = parse_element(ring, "x*Einv^2*a_plus^2*m - theta*E + a_minus*m^3*E")
    assert group_str(f) == "-E*theta + x*Einv^2*a_plus^2*m + E*a_minus*m^3"
    assert latex_group(f) == (
        r"-e^{\theta} \, \theta + x \, e^{-2\theta} \, a_+^{2} \, m + e^{\theta} \, a_- \, m^{3}"
    )


def test_compound_coefficient_latex():
    field = CoefficientField.get("x", "y")
    x, y = field.param("x"), field.param("y")
    c = (x * field.rational(2) - y * field.rational(4)) / (x * field.rational(9) + y * field.rational(6))
    assert repr(c) == "(2/9*x - 4/9*y)/(x + 2/3*y)"
    assert latex_coeff(c) == r"\frac{2 \left(x - 2 y\right)}{3 \left(3 x + 2 y\right)}"


def test_free_words():
    field = CoefficientField.get("x")
    f = FreeElement(
        field,
        {("a", "b"): field.param("x") - field.one, (): field.rational(-3, 2), ("b",): field.one},
    )
    assert f.render() == "(-3/2)*1 + (1)*b + (x - 1)*a*b"


def test_every_zero_prints_as_0():
    alg = presentation("IIn", 2).alg
    field = CoefficientField.get("x")
    zeros = (
        alg.zero(),
        alg.tensor_zero(2),
        alg.tensor_zero(3),
        fun_presentation("Uz").alg.zero(),
        GroupRing(field, 2).zero(),
    )
    assert [repr(z) for z in zeros] == ["0"] * 5
    assert FreeElement(field, {}).render() == "0"


PACKAGE = Path(oscquant.__file__).resolve().parent


def sign_rule_functions(source: str, module: str) -> list[str]:
    """``"module.function"`` for each function that calls ``.replace("+ -", "- ")``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for call in ast.walk(node):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "replace"
                and [getattr(a, "value", None) for a in call.args] == ["+ -", "- "]
            ):
                found.append(f"{module}.{getattr(node, 'name', '<lambda>')}")
                break
    return found


def test_checker_flags_a_second_sign_rule():
    src = (
        "def signed_sum(bits):\n"
        "    return ' + '.join(bits).replace('+ -', '- ')\n"
        "class Table:\n"
        "    def row(self, bits):\n"
        "        return ' + '.join(bits).replace(\"+ -\", \"- \")\n"
        "def other(s):\n"
        "    return s.replace('+', '-')\n"
    )
    assert sign_rule_functions(src, "report") == ["report.signed_sum", "report.row"]


def test_the_sign_rule_lives_in_one_function():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += sign_rule_functions(path.read_text(encoding="utf-8"), path.stem)
    assert found == ["algebra.signed_sum"]
