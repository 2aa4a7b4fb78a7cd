"""Every multiplicative extension goes through ``algebra.multiplicative``
and every linear one through ``algebra.linear``.

The structure maps of the package (coproduct, counit, antipode, the 3×3
representation, the Poisson pull-back) are fixed on letters, extended to
normal monomials by ``algebra.multiplicative`` and then to containers by
``algebra.linear``; FRT evaluation of free words is extended linearly only.
``algebra.linear`` is the one function that sums ``c·image(k)`` over the
terms of a container.  This test parses the package's modules with ``ast``
and fails on any other function that does it by hand: one with a ``for``
over ``<expr>.terms.items()`` whose body rebinds a name as ``n = n + …`` or
``n = n - …``.  It also fails on any function but ``multiplicative`` that
multiplies letter images by hand: one that takes ``prod`` and calls
``word_of``, or one that peels a letter with ``first_letter`` or
``last_letter`` and multiplies by something of the rest, the monomial from
``shift(..., -1)``.  The second half tests ``linear`` and
``multiplicative`` directly.
"""

import ast
import gc
import math
import weakref
from pathlib import Path

import pytest

import oscquant
from oscquant import hopf
from oscquant.algebra import (
    A,
    AM,
    AP,
    GEN_MONOS,
    M,
    UNIT_MONO,
    Algebra,
    TensorElement,
    linear,
    multiplicative,
    tensor,
)
from oscquant.coeffs import CoefficientField
from oscquant.expr import parse_element
from oscquant.funalg import fun_presentation
from oscquant.poisson import GroupRing
from oscquant.rmatrix import FreeElement, ScalarMatrix, rep3

PACKAGE = Path(oscquant.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {"algebra.linear"}
ALLOWED_MULTIPLICATIVE = {"algebra.multiplicative"}


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


# -- the multiplicative guard -------------------------------------------------


def _calls(node, name) -> bool:
    """A call of ``name`` or ``<expr>.name``."""
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _drops_a_letter(node) -> bool:
    """``shift(..., -1)``: a monomial with one letter taken off."""
    return _calls(node, "shift") and bool(node.args) and ast.unparse(node.args[-1]) == "-1"


def _multiplies_the_rest(fn) -> bool:
    """A product with a side that mentions the monomial left after a letter
    is peeled: a ``shift(..., -1)`` call or a name bound to one."""
    rest = {
        t.id
        for n in ast.walk(fn)
        if isinstance(n, ast.Assign) and _drops_a_letter(n.value)
        for t in n.targets
        if isinstance(t, ast.Name)
    }
    return any(
        isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.Mult)
        and any(
            _drops_a_letter(m) or (isinstance(m, ast.Name) and m.id in rest)
            for side in (n.left, n.right)
            for m in ast.walk(side)
        )
        for n in ast.walk(fn)
    )


def _is_hand_multiplicative(fn) -> bool:
    names = ("prod", "word_of", "first_letter", "last_letter")
    called = {name for n in ast.walk(fn) for name in names if _calls(n, name)}
    peels = bool(called & {"first_letter", "last_letter"})
    return {"prod", "word_of"} <= called or (peels and _multiplies_the_rest(fn))


def hand_multiplications(source: str, module: str) -> list[str]:
    """``"module.function"`` for each function that extends a letter map
    multiplicatively by hand, unless it is the shared extension."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = f"{module}.{fn.name}"
        if name not in ALLOWED_MULTIPLICATIVE and _is_hand_multiplicative(fn):
            found.append(name)
    return found


def test_checker_flags_a_hand_multiplication():
    # delta_mono and _mono_matrix as they were before multiplicative, with
    # the rewrite engine's peeling, a product over free words and a routed
    # map, none of which extends a letter map.
    src = (
        "def delta_mono(self, mono):\n"
        "    hit = self._delta_cache.get(mono)\n"
        "    if hit is None:\n"
        "        alg = self.alg\n"
        "        g = alg.first_letter(mono)\n"
        "        if g is None:\n"
        "            hit = alg.tensor_unit(2)\n"
        "        else:\n"
        "            rest = alg.shift(mono, g, -1)\n"
        "            hit = self.images[alg.letter_names[g]] * self.delta_mono(rest)\n"
        "        self._delta_cache[mono] = hit\n"
        "    return hit\n"
        "def _mono_matrix(gens, mono):\n"
        "    start = ScalarMatrix.identity(gens[A].field, 3)\n"
        "    return math.prod((gens[g] for g in Algebra.word_of(mono)), start=start)\n"
        "def mul_mono(self, m1, m2):\n"
        "    j = self.last_letter(m2)\n"
        "    out = {}\n"
        "    for mi, ci in self.mul_mono(m1, self.shift(m2, j, -1)).items():\n"
        "        for mo, co in self._mul_mono_gen(mi, j).items():\n"
        "            _acc(out, mo, ci * co)\n"
        "    return out\n"
        "def into(self, alg):\n"
        "    return linear(self, lambda w: math.prod(map(alg.coord, w), start=alg.one()), alg.zero())\n"
        "def routed(self, mono):\n"
        "    return self._delta(mono)\n"
    )
    assert hand_multiplications(src, "hopf") == ["hopf.delta_mono", "hopf._mono_matrix"]
    assert hand_multiplications(src.replace("delta_mono", "multiplicative"), "algebra") == ["algebra._mono_matrix"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_maps_extend_through_multiplicative(path):
    assert hand_multiplications(path.read_text(encoding="utf-8"), path.stem) == []


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
    x = exact.element({(GEN_MONOS[AP],): z, (GEN_MONOS[M],): field.rational(3)})
    zg = cut.gen(M).scale(z)

    def image(key):
        # (1 + z M) ⊗ X: its z-part only survives under a z-free coefficient
        return tensor(cut.one() + zg, cut.monomial(key[0]))

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
    got = rep3(x)
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
    assert isinstance(got, TensorElement) and got.arity == 1 and got.alg is ring
    # a_plus theta = theta a_plus - z(E - 1) in the deformed ring
    want = ring.coord("a_plus") * ring.coord("theta") + ring.one().scale(5)
    assert got == want and got != ring.coord("theta") * ring.coord("a_plus") + 5
    image = lambda w: math.prod((ring.coord(n) for n in w), start=ring.one())
    assert got == _by_hand(f, image, ring.zero())


def test_group_function(field):
    ring = GroupRing(field)
    x = parse_element(ring, "a_plus^2 + 3*m")
    images = {"a_plus": parse_element(ring, "a_plus + m"), "m": parse_element(ring, "theta")}

    def image(key):
        t, k, p, q, s = key[0]
        return math.prod([images["a_plus"]] * p + [images["m"]] * s, start=ring.one())

    got = linear(x, image, ring.zero())
    assert got == parse_element(ring, "(a_plus + m)^2 + 3*theta")
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
    half = linear(x, lambda key: alg.gen(AP) if key == (GEN_MONOS[AP],) else alg.zero(), alg.zero())
    assert half == alg.gen(AP)


# -- multiplicative itself ----------------------------------------------------


def test_a_morphism_is_the_product_of_its_letter_images():
    p = hopf.presentation("Uz", 3)
    alg = p.alg
    of = multiplicative(alg, lambda g: p.images[alg.letter_names[g]], alg.tensor_unit(2), alg.first_letter)
    mono = (1, 2, 1, 1)
    want = math.prod((p.images[alg.letter_names[g]] for g in alg.word_of(mono)), start=alg.tensor_unit(2))
    assert of(mono) == want
    assert of(UNIT_MONO) == alg.tensor_unit(2)


def test_an_anti_morphism_reverses_a_misordered_product():
    p = hopf.presentation("Uz", 3)
    alg = p.alg
    S = {g: p.antipode[name] for g, name in enumerate(alg.letter_names)}
    of = multiplicative(alg, S.__getitem__, alg.one(), alg.last_letter)
    # Am*Ap is misordered: its normal form is Ap*Am + M e^{z Ap}, and S of it
    # must come out as S(Ap) S(Am) once every monomial's image is reversed.
    got = linear(alg.gen(AM) * alg.gen(AP), lambda key: of(key[0]), alg.zero())
    assert got == S[AP] * S[AM]
    assert of((1, 1, 0, 0)) == S[AP] * S[A]


def test_a_second_call_returns_the_memoized_object(field):
    alg = Algebra.classical(field)
    of = multiplicative(alg, alg.letter, alg.one(), alg.first_letter)
    first = of((2, 0, 1, 1))
    assert first == alg.monomial((2, 0, 1, 1))
    assert of((2, 0, 1, 1)) is first
    # the walk stored every monomial on its way down
    assert of((1, 0, 1, 1)) is of((1, 0, 1, 1))


def test_the_function_and_its_memo_die_without_the_cyclic_collector(field):
    alg = Algebra.classical(field)
    gc.disable()
    try:
        of = multiplicative(alg, alg.letter, alg.one(), alg.first_letter)
        of((1, 1, 1, 1))
        ref = weakref.ref(of)
        del of
        assert ref() is None
    finally:
        gc.enable()


def test_a_presentation_and_its_memos_die_without_the_cyclic_collector():
    # built past the cache of presentation(), which holds its last results
    p = hopf._BUILDERS["IIs"](2)
    p.delta(p.alg.gen(AM) * p.alg.gen(AP))
    p.antipode_of(p.alg.gen(AM) * p.alg.gen(AP))
    p.counit_scalar((1, 1, 0, 0))
    gc.disable()
    try:
        ref = weakref.ref(p)
        del p
        assert ref() is None
    finally:
        gc.enable()
