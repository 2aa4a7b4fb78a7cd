"""Every linear extension goes through ``algebra.linear``.

The structure maps of the package (coproduct, antipode, the 3×3
representation, FRT evaluation of free words, the Poisson pull-back) are
fixed on keys and extended linearly.  ``algebra.linear`` is the one function
that sums ``c·image(k)`` over the terms of a container.  This test parses the
package's modules with ``ast`` and fails on any other function that does it
by hand: one with a ``for`` over ``<expr>.terms.items()`` whose body rebinds
a name as ``n = n + …`` or ``n = n - …``.  The second half tests ``linear``
directly on every kind of container.
"""

import ast
import math
from pathlib import Path

import pytest

import oscquant
from oscquant.algebra import AP, GEN_MONOS, M, UNIT_MONO, Algebra, Element, linear, tensor
from oscquant.coeffs import CoefficientField
from oscquant.funalg import fun_presentation
from oscquant.poisson import GroupRing
from oscquant.rmatrix import FreeElement, ScalarMatrix, rep3

PACKAGE = Path(oscquant.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {"algebra.linear"}


def _over_terms(loop) -> bool:
    """``for ... in <expr>.terms.items()``."""
    it = loop.iter
    return (
        isinstance(it, ast.Call)
        and not it.args
        and isinstance(it.func, ast.Attribute)
        and it.func.attr == "items"
        and isinstance(it.func.value, ast.Attribute)
        and it.func.value.attr == "terms"
    )


def _accumulates(node) -> bool:
    """``n = n + …``, ``n = n - …``, ``n += …`` or ``n -= …``."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.target, ast.Name) and isinstance(node.op, (ast.Add, ast.Sub))
    return (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, (ast.Add, ast.Sub))
        and isinstance(node.value.left, ast.Name)
        and node.value.left.id == node.targets[0].id
    )


def _is_hand_extension(node) -> bool:
    return (
        isinstance(node, ast.For)
        and _over_terms(node)
        and any(_accumulates(n) for stmt in node.body for n in ast.walk(stmt))
    )


def hand_extensions(source: str, module: str) -> list[str]:
    """``"module.function"`` for each function that extends a map linearly
    by hand, unless it is the shared extension."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = f"{module}.{fn.name}"
        if name not in ALLOWED and any(_is_hand_extension(n) for n in ast.walk(fn)):
            found.append(name)
    return found


def test_checker_flags_a_hand_extension():
    src = (
        "def linear(x, image, zero):\n"
        "    for k, c in x.terms.items():\n"
        "        zero = zero + image(k).scale(c)\n"
        "    return zero\n"
        "def delta(self, e):\n"
        "    out = self.zero()\n"
        "    for mono, c in e.terms.items():\n"
        "        out = out + self.delta_mono(mono).scale(c)\n"
        "    return out\n"
        "def nested(t):\n"
        "    total = 0\n"
        "    for key, c in t.terms.items():\n"
        "        for m in key:\n"
        "            total = total - image(m)\n"
        "    return total\n"
        "def augmented(x):\n"
        "    total = 0\n"
        "    for k, c in x.terms.items():\n"
        "        total += c\n"
        "    return total\n"
        "def routed(e):\n"
        "    return linear(e, image, zero)\n"
        "def other_loop(fs):\n"
        "    total = 0\n"
        "    for f in fs:\n"
        "        total = total + f\n"
        "    return total\n"
        "def other_target(x, rows):\n"
        "    for k, c in x.terms.items():\n"
        "        rows[k] = rows[k] + c\n"
        "def not_accumulating(x):\n"
        "    for k, c in x.terms.items():\n"
        "        y = k + c\n"
    )
    assert hand_extensions(src, "algebra") == ["algebra.delta", "algebra.nested", "algebra.augmented"]
    assert hand_extensions(src, "hopf") == [
        "hopf.linear",
        "hopf.delta",
        "hopf.nested",
        "hopf.augmented",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_maps_extend_through_linear(path):
    assert hand_extensions(path.read_text(encoding="utf-8"), path.stem) == []


# -- linear itself ----------------------------------------------------------


@pytest.fixture(scope="module")
def field():
    return CoefficientField.get("z")


def _by_hand(x, image, zero):
    total = zero
    for k, c in x.terms.items():
        total = total + image(k).scale(c)
    return total.truncate(zero.order)


def test_element_to_tensor_truncates_at_the_target_order(field):
    z = field.marked_param("z")
    exact = Algebra.classical(field)
    cut = Algebra.classical(field, order=1)
    x = exact.element({GEN_MONOS[AP]: z, GEN_MONOS[M]: field.rational(3)})
    zg = cut.gen(M).scale(z)

    def image(mono):
        # (1 + z M) ⊗ X: its z-part only survives under a z-free coefficient
        return tensor(cut.one() + zg, cut.monomial(mono))

    got = linear(x, image, cut.tensor_zero(2))
    assert got.alg is cut and got.arity == 2
    assert got == _by_hand(x, image, cut.tensor_zero(2))
    # z·(1 + zM)⊗Ap keeps only z·1⊗Ap at order 1; 3·(1 + zM)⊗M keeps both.
    assert got.terms == {
        (UNIT_MONO, GEN_MONOS[AP]): z,
        (UNIT_MONO, GEN_MONOS[M]): field.rational(3),
        (GEN_MONOS[M], GEN_MONOS[M]): 3 * z,
    }


def test_scalar_matrix(field):
    z = field.param("z")
    alg = Algebra.classical(field)
    x = alg.gen(AP) * alg.gen(M).scale(z) + alg.one().scale(2)
    got = rep3(tensor(x))
    assert isinstance(got, ScalarMatrix) and got.dim == 3
    # D(Ap) D(M) = 0, so only 2·1 is left.
    assert got == ScalarMatrix.identity(field, 3).scale(2)
    sq = linear(x, lambda mono: ScalarMatrix.identity(field, 3), ScalarMatrix.zero(field, 3))
    assert sq == ScalarMatrix.identity(field, 3).scale(z + 2)


def test_free_element_into_fun_algebra():
    ring = fun_presentation("Uz").alg
    field = ring.field
    f = FreeElement(field, {("a_plus", "theta"): field.one, (): field.rational(5)})
    got = f.into(ring)
    assert isinstance(got, Element) and got.alg is ring
    # a_plus theta = theta a_plus - z(E - 1) in the deformed ring
    want = ring.coord("a_plus") * ring.coord("theta") + ring.one().scale(5)
    assert got == want and got != ring.coord("theta") * ring.coord("a_plus") + 5
    image = lambda w: math.prod((ring.coord(n) for n in w), start=ring.one())
    assert got == _by_hand(f, image, ring.zero())


def test_group_function(field):
    ring = GroupRing(field)
    x = ring.from_expr("a_plus^2 + 3*m")
    images = {"a_plus": ring.from_expr("a_plus + m"), "m": ring.from_expr("theta")}

    def image(key):
        t, k, p, q, s = key[0]
        return math.prod([images["a_plus"]] * p + [images["m"]] * s, start=ring.one())

    got = linear(x, image, ring.zero())
    assert got == ring.from_expr("(a_plus + m)^2 + 3*theta")
    assert got == _by_hand(x, image, ring.zero())


def test_an_image_with_a_zero_coefficient_drops(field):
    z = field.param("z")
    alg = Algebra.classical(field)
    x = alg.gen(AP) - alg.gen(M)
    # Both keys map to the same image, so the sum cancels to no terms; a
    # key whose image is zero contributes nothing.
    got = linear(x, lambda mono: alg.gen(AP).scale(z), alg.zero())
    assert got.is_zero and got.terms == {}
    assert linear(alg.zero(), lambda mono: alg.one(), alg.zero()).is_zero
    half = linear(x, lambda mono: alg.gen(AP) if mono == GEN_MONOS[AP] else alg.zero(), alg.zero())
    assert half == alg.gen(AP)
