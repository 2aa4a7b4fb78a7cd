"""Engine tests: PBW straightening, deformed rewriting, tensors, exp."""

import random
from fractions import Fraction
from itertools import product as _cartesian
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fold_per_term, lie_brackets
from oscquant.algebra import (
    A,
    AM,
    AP,
    GEN_MONOS,
    M,
    UNIT_MONO,
    Algebra,
    ScalarMatrix,
    TensorElement,
    _exp_sum,
    _Terms,
    apply_slot_map,
    embed,
    exp_series,
    tensor,
)
from oscquant.coeffs import Coefficient, CoefficientField
from oscquant.hopf import presentation
from oscquant.poisson import GroupRing
from oscquant.rmatrix import FreeElement, universal_R

F = CoefficientField.get("z")
CL = Algebra.classical(F)


def uz_algebra(order):
    """A deformed enveloping algebra with exponential-series rewrite tails.

    Relations: Ap*A = A*Ap - (exp(z*Ap)-1)/z, Am*A = A*Am + Am,
    Am*Ap = Ap*Am + M*exp(z*Ap); the parameter z carries the marker.
    """
    z = F.marked_param("z")
    t10 = {}
    for k in range(1, order + 2):
        t10[(0, k, 0, 0)] = -(z ** (k - 1)) * Fraction(1, factorial(k))
    t21 = {}
    for k in range(0, order + 1):
        t21[(0, k, 0, 1)] = z**k * Fraction(1, factorial(k))
    tails = {(AP, A): t10, (AM, A): {GEN_MONOS[AM]: F.one}, (AM, AP): t21}
    return Algebra(F, tails, order, "Uz(h4)")


UZ = uz_algebra(4)


def some_elements(alg, with_marker=True):
    monos = st.tuples(*(st.integers(0, 2) for _ in range(4)))
    scalars = [F.rational(1), F.rational(-1), F.rational(2), F.rational(1, 2)]
    if with_marker:
        scalars.append(F.marked_param("z"))
    coeffs = st.sampled_from(scalars)

    @st.composite
    def elem(draw):
        e = alg.zero()
        for _ in range(draw(st.integers(1, 3))):
            e = e + alg.monomial(draw(monos)).scale(draw(coeffs))
        return e

    return elem()


class TestClassicalPBW:
    def test_defining_relations(self):
        a, ap, am, m = CL.gens()
        assert a * ap - ap * a == ap
        assert a * am - am * a == -am
        assert am * ap - ap * am == m
        for g in (a, ap, am):
            assert m * g - g * m == CL.zero()

    def test_straightening_example(self):
        # Am*Ap*A = A*Ap*Am + A*M  (worked out by hand)
        got = CL.normalize_word((AM, AP, A))
        want = CL.monomial((1, 1, 1, 0)) + CL.monomial((1, 0, 0, 1))
        assert got == want

    def test_casimir_is_central(self):
        # 2*A*M - Ap*Am - Am*Ap, in PBW form 2*A*M - 2*Ap*Am - M.
        cas = 2 * CL.monomial((1, 0, 0, 1)) - 2 * CL.monomial((0, 1, 1, 0)) - CL.gen(M)
        for g in CL.gens():
            assert cas.commutator(g).is_zero

    def test_bracket_table_is_antisymmetric(self):
        table = lie_brackets(F)
        for i in range(4):
            for j in range(4):
                forward = CL.element({(m,): c for m, c in table[(i, j)].items()})
                backward = CL.element({(m,): c for m, c in table[(j, i)].items()})
                assert forward == -backward
                assert CL.gen(i).commutator(CL.gen(j)) == forward

    @settings(max_examples=50, deadline=None)
    @given(some_elements(CL), some_elements(CL), some_elements(CL))
    def test_associativity(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=50, deadline=None)
    @given(some_elements(CL), some_elements(CL), some_elements(CL))
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    def test_unit_and_zero(self):
        x = CL.monomial((1, 2, 0, 1)).scale(F.rational(3, 2))
        assert CL.one() * x == x
        assert x * CL.one() == x
        assert x * CL.zero() == CL.zero()
        assert x.scale(0).is_zero


class TestDeformedRewriting:
    def test_defining_relations_roundtrip(self):
        a, ap, am, m = UZ.gens()
        z = F.marked_param("z")
        exp_zap = exp_series(ap.scale(z))
        # [Am, Ap] = M * exp(z*Ap)
        assert am * ap - ap * am == m * exp_zap
        # [A, Ap] = (exp(z*Ap) - 1)/z  -- multiply through by z to compare
        assert (a * ap - ap * a).scale(z) == exp_zap - UZ.one()
        assert a * am - am * a == -am

    def test_classical_limit(self):
        a, ap, am, _ = UZ.gens()
        assert (am * ap - ap * am).h_part(0).terms == {(GEN_MONOS[M],): F.one}
        assert (a * ap - ap * a).h_part(0).terms == {(GEN_MONOS[AP],): F.one}

    def test_deformed_casimir_is_central(self):
        # 2*A*M + ((exp(-z*Ap)-1)/z)*Am + Am*((exp(-z*Ap)-1)/z)
        z = F.marked_param("z")
        em = UZ.zero()
        for k in range(1, UZ.order + 2):
            em = em + UZ.monomial((0, k, 0, 0)).scale((-1) ** k * z ** (k - 1) * Fraction(1, factorial(k)))
        am = UZ.gen(AM)
        cas = 2 * UZ.monomial((1, 0, 0, 1)) + em * am + am * em
        for g in UZ.gens():
            assert cas.commutator(g).is_zero

    @settings(max_examples=40, deadline=None)
    @given(some_elements(UZ), some_elements(UZ), some_elements(UZ))
    def test_associativity(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    def test_series_tails_need_an_order(self):
        z = F.marked_param("z")
        with pytest.raises(ValueError, match="truncation order"):
            Algebra(F, {(AP, A): {(0, 2, 0, 0): z}}, None)

    def test_unmarked_series_tails_are_rejected(self):
        with pytest.raises(ValueError, match="terminate"):
            Algebra(F, {(AP, A): {(0, 2, 0, 0): F.one}}, 4)


class TestConfluence:
    def all_words(self, max_len):
        words = [()]
        frontier = [()]
        for _ in range(max_len):
            frontier = [w + (g,) for w in frontier for g in range(4)]
            words.extend(frontier)
        return words

    def test_classical_both_strategies_agree(self):
        for w in self.all_words(4):
            assert CL.normalize_word(w) == CL.normalize_word(w, rightmost=True), w

    def test_deformed_both_strategies_agree_short(self):
        for w in self.all_words(3):
            assert UZ.normalize_word(w) == UZ.normalize_word(w, rightmost=True), w

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=4, max_size=6))
    def test_deformed_both_strategies_agree_random(self, w):
        w = tuple(w)
        assert UZ.normalize_word(w) == UZ.normalize_word(w, rightmost=True)

    def test_word_mono_roundtrip(self):
        assert Algebra.word_of((2, 0, 1, 3)) == (0, 0, 2, 3, 3, 3)
        assert Algebra.mono_of((0, 0, 2, 3, 3, 3)) == (2, 0, 1, 3)
        assert Algebra.mono_of(Algebra.word_of(UNIT_MONO)) == UNIT_MONO


class TestTensors:
    def test_tensor_product_and_swap(self):
        a, ap = CL.gen(A), CL.gen(AP)
        t = tensor(a, ap)
        assert t.swap() == tensor(ap, a)
        assert t.swap().swap() == t

    def test_slotwise_multiplication(self):
        a, ap, am = CL.gen(A), CL.gen(AP), CL.gen(AM)
        lhs = tensor(a, ap) * tensor(ap, am)
        assert lhs == tensor(a * ap, ap * am)

    def test_commutator_in_tensor_square(self):
        a, ap = CL.gen(A), CL.gen(AP)
        one = CL.one()
        left = tensor(a, one) + tensor(one, a)
        r = tensor(ap, a)
        # [A o 1 + 1 o A, Ap o A] = Ap o A  (first slot bracket only)
        assert left.commutator(r) == tensor(ap, a)

    def test_embed(self):
        a, ap = CL.gen(A), CL.gen(AP)
        t = tensor(a, ap)
        t13 = embed(t, (0, 2), 3)
        assert t13 == tensor(a, CL.one(), ap)

    def test_permute_cyclic(self):
        a, ap, am = CL.gen(A), CL.gen(AP), CL.gen(AM)
        t = tensor(a, ap, am)
        assert t.permute((1, 2, 0)) == tensor(ap, am, a)

    def test_an_element_is_its_arity_one_tensor(self):
        z = F.marked_param("z")
        for x in (UZ.gen(AM) * UZ.gen(AP), UZ.gen(A).scale(z) - 2, UZ.zero()):
            assert isinstance(x, TensorElement) and x.arity == 1
            assert all(len(k) == 1 for k in x.terms)
            assert UZ.element(x.terms) == x
            assert tensor(x) == x

    def test_tensor_of_tensors_is_associative(self):
        z = F.marked_param("z")
        a, b, c = UZ.gen(A) + UZ.gen(M).scale(z), UZ.gen(AM) * UZ.gen(AP), UZ.one() - UZ.gen(AP)
        flat = tensor(a, b, c)
        assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c)) == flat
        assert flat.arity == 3
        assert tensor(tensor(a, b), tensor(c, a)) == tensor(a, b, c, a)

    def test_contract(self):
        # scalar map sending 1 -> 1 and everything else -> 0 (a counit).
        def eps(mono):
            return F.one if mono == UNIT_MONO else F.zero

        a = CL.gen(A)
        t = tensor(CL.one(), a) + tensor(a, CL.one())
        assert t.contract(0, eps) == a
        assert t.contract(1, eps) == a

    def test_fold_slots(self):
        a, ap = CL.gen(A), CL.gen(AP)
        assert tensor(a, ap).fold_slots([None, None]) == a * ap
        flipmap = lambda mono: CL.monomial(mono).scale(2)
        assert tensor(a, ap).fold_slots([flipmap, None]) == 2 * a * ap

    @pytest.mark.parametrize("maps", [[None], [None, None, None], []])
    def test_fold_slots_takes_one_map_per_slot(self, maps):
        with pytest.raises(ValueError, match="2 maps"):
            tensor(CL.gen(A), CL.gen(AP)).fold_slots(maps)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tensor(CL.gen(A), CL.gen(AP)) + tensor(CL.gen(A), CL.gen(AP), CL.gen(M))


class TestExp:
    def test_group_like_inverse(self):
        alg = Algebra.classical(F, order=6)
        zm = alg.gen(M).scale(F.marked_param("z"))
        assert exp_series(zm) * exp_series(-zm) == alg.one()

    def test_exp_adds_for_commuting_exponents(self):
        alg = Algebra.classical(F, order=5)
        z = F.marked_param("z")
        x = alg.gen(AP).scale(z)
        y = alg.gen(M).scale(z)
        assert exp_series(x) * exp_series(y) == exp_series(x + y)

    def test_tensor_exp(self):
        alg = Algebra.classical(F, order=4)
        z = F.marked_param("z")
        t = tensor(alg.gen(AP), alg.gen(M)).scale(z)
        e = exp_series(t)
        assert e.terms[(UNIT_MONO, UNIT_MONO)] == F.one
        assert e.terms[((0, 1, 0, 0), (0, 0, 0, 1))] == z
        assert e.terms[((0, 2, 0, 0), (0, 0, 0, 2))] == z**2 * Fraction(1, 2)

    def test_exp_rejects_unmarked_argument(self):
        alg = Algebra.classical(F, order=4)
        with pytest.raises(ValueError, match="order-0"):
            exp_series(alg.gen(M))

    def test_exp_needs_order(self):
        with pytest.raises(ValueError, match="order"):
            exp_series(CL.gen(M).scale(F.marked_param("z")))

    def test_exp_series_truncates_no_container(self, monkeypatch):
        """``scale`` already truncates each term of the series, so no term
        is copied once more by ``_Terms.truncate``."""
        alg = presentation("Uz", 4).alg
        x = tensor(alg.gen(AP), alg.gen(A)).scale(alg.field.marked_param("z"))
        want = sum(((x**k).scale(Fraction(1, factorial(k))) for k in range(5)), alg.tensor_zero(2))
        calls = []
        truncate = _Terms.truncate

        def counted(self, order):
            calls.append(order)
            return truncate(self, order)

        monkeypatch.setattr(_Terms, "truncate", counted)
        assert exp_series(x) == want
        assert calls == []

    def test_exp_sum_of_a_nilpotent_matrix(self):
        n = ScalarMatrix.from_rows(F, [[F.rational(v) for v in row] for row in ([0, 1, 2], [0, 0, 3], [0, 0, 0])])
        eye = ScalarMatrix.identity(F, 3)
        assert _exp_sum(eye, lambda t: t * n, 3) == eye + n + (n * n).scale(Fraction(1, 2))

    def test_exp_sum_refuses_a_series_that_does_not_end(self):
        cycle = ScalarMatrix.from_rows(F, [[F.rational(v) for v in row] for row in ([0, 1, 0], [0, 0, 1], [1, 0, 0])])
        with pytest.raises(ValueError, match="terminate"):
            _exp_sum(ScalarMatrix.identity(F, 3), lambda t: t * cycle, 3)


class TestElementOps:
    def test_h_part_and_strip(self):
        z = F.marked_param("z")
        e = UZ.gen(A) + UZ.gen(AP).scale(z) + UZ.gen(AP).scale(z**2)
        assert e.h_part(0) == UZ.gen(A)
        assert e.h_part(1) == UZ.gen(AP).scale(F.param("z"))
        zs = F.param("z")
        assert e.strip_marker() == UZ.gen(A) + UZ.gen(AP).scale(zs + zs**2)

    def test_scale_params_marks_coefficients(self):
        e = CL.gen(AP).scale(F.param("z"))
        assert e.scale_params() == CL.gen(AP).scale(F.marked_param("z"))

    def test_cross_algebra_mixing_rejected(self):
        with pytest.raises(ValueError):
            CL.gen(A) + UZ.gen(A)

    def test_degree(self):
        assert (CL.monomial((1, 2, 0, 1)) + CL.gen(A)).max_slot_degree() == 4
        assert CL.zero().max_slot_degree() == 0


# -- the shared sparse linear-combination core --------------------------

OTHER_FIELD = CoefficientField.get("x", "bp", "yp")


def _free(field, *words):
    return FreeElement(field, {tuple(w.split()): field.rational(i + 1) for i, w in enumerate(words)})


def _matrix(field, dim, *cells):
    return ScalarMatrix(field, dim, {cell: field.rational(i + 2) for i, cell in enumerate(cells)})


def _containers(kind):
    """Two operands ``a``, ``b`` of one container kind, and operands of the
    same kind over another parent (or field) or of another shape."""
    z = F.marked_param("z")
    if kind == "Element":
        a = UZ.gen(A) + UZ.gen(AP).scale(z)
        b = UZ.gen(AM) * UZ.gen(AP) - 3
        return a, b, [CL.gen(A), Algebra.classical(OTHER_FIELD, 4).gen(A), tensor(UZ.gen(A), UZ.gen(A))]
    if kind == "TensorElement":
        a = tensor(UZ.gen(A), UZ.gen(AP)).scale(z)
        b = tensor(UZ.gen(AP), UZ.gen(M)) + tensor(UZ.one(), UZ.gen(A))
        return a, b, [tensor(CL.gen(A), CL.gen(AP)), tensor(UZ.gen(A), UZ.gen(A), UZ.gen(A))]
    if kind == "GroupRing":
        ring = GroupRing(F)
        a = ring.coord("a_plus") * ring.coord("E") + ring.coord("theta").scale(z)
        b = ring.coord("Einv") - ring.coord("m") * 2
        return a, b, [GroupRing(F).coord("m"), GroupRing(F, 2).coord("m"), GroupRing(OTHER_FIELD).coord("m")]
    if kind == "FreeElement":
        a = _free(F, "E a_plus", "m")
        b = _free(F, "a_plus E", "m", "")
        return a, b, [_free(OTHER_FIELD, "m")]
    a = _matrix(F, 3, (0, 1), (1, 1))
    b = _matrix(F, 3, (1, 1), (2, 0))
    return a, b, [_matrix(F, 9, (0, 1)), _matrix(OTHER_FIELD, 3, (0, 1))]


# A function on the group is a one-site tensor over the commutative ring.
CONTAINERS = ("Element", "TensorElement", "GroupRing", "FreeElement", "ScalarMatrix")


@pytest.mark.parametrize("kind", CONTAINERS)
def test_shared_linear_laws(kind):
    a, b, others = _containers(kind)
    assert type(a).__name__ == ("TensorElement" if kind in ("Element", "GroupRing") else kind)
    assert a + b - b == a
    assert (-a + a).is_zero
    assert a - a == 0 and a + 1 - a == 1
    assert a.scale(0).is_zero and (a * 0).is_zero
    for x in (a, b, a + b, a - b, a + b - b, a.scale(F.marked_param("z")), a * Fraction(1, 2)):
        assert all(not c.is_zero for c in x.terms.values())
    # int and Fraction scalars lift to coefficients of the container's field
    for x in (a + 2, 2 - a, a.scale(Fraction(1, 3)), Fraction(1, 3) * a, a / 3):
        assert all(isinstance(c, Coefficient) and c.field is F for c in x.terms.values())
    assert a / 3 == a.scale(Fraction(1, 3)) == Fraction(1, 3) * a
    for op in (lambda: a + OTHER_FIELD.one, lambda: a.scale(OTHER_FIELD.one), lambda: a == OTHER_FIELD.one):
        with pytest.raises(ValueError):
            op()
    for o in others:
        for op in (lambda: a + o, lambda: a - o, lambda: a * o, lambda: a == o):
            with pytest.raises(ValueError):
                op()


def test_scaling_a_matrix_of_elements_copies_no_entry(monkeypatch):
    """A matrix has no truncation order of its own, and scaling an element
    entry already truncates it at its algebra's order: no entry is copied
    again by a truncation at order None."""
    z = F.marked_param("z")
    a, ap = UZ.gen(A), UZ.gen(AP)
    rows = [[a, ap * a], [UZ.one(), a + ap.scale(z)]]
    want = ScalarMatrix.from_rows(F, [[e.scale(z) for e in row] for row in rows])
    calls = []
    truncate = _Terms.truncate

    def counted(self, order):
        calls.append(order)
        return truncate(self, order)

    monkeypatch.setattr(_Terms, "truncate", counted)
    got = ScalarMatrix.from_rows(F, rows).scale(z)
    assert None not in calls
    assert got == want


# -- the pair walk against a naive reference ------------------------------

_HZ, _Z = F.marked_param("z"), F.param("z")
# Multi-term numerators, valuations 0..5 (UZ truncates at 4), the field's
# unit itself and other unit-denominator rationals, and h-free real
# denominators.
WALK_COEFFS = [
    F.one,
    F.rational(-2),
    F.rational(1, 3),
    _HZ,
    F.one + _HZ + _HZ**2,
    _HZ**3 - 2 * _HZ**4,
    _HZ**5,
    _HZ**2 / (_Z + 1),
    (F.one + _HZ * _Z) / (_Z**2 + 3),
]


def walk_terms(arity):
    top = 2 if arity == 1 else 1
    mono = st.tuples(*(st.integers(0, top) for _ in range(4)))
    return st.dictionaries(st.tuples(*([mono] * arity)), st.sampled_from(WALK_COEFFS), min_size=1, max_size=3)


def _naive_acc(out, key, c):
    c = c if key not in out else out[key] + c
    if c.is_zero:
        out.pop(key, None)
    else:
        out[key] = c


def naive_product(alg, arity, lhs, rhs):
    """All pairs, every product truncated, accumulated in pair order."""
    order = alg.order
    out = {}
    for k1, c1 in lhs.items():
        for k2, c2 in rhs.items():
            c = (c1 * c2).truncate(order)
            for combo in _cartesian(*(alg.mul_mono(a, b).items() for a, b in zip(k1, k2))):
                cc = c
                for _, cs in combo:
                    cc = (cc * cs).truncate(order)
                _naive_acc(out, tuple(m for m, _ in combo), cc)
    return out


def naive_slot_map(alg, lhs, pos, f):
    out = {}
    for key, c in lhs.items():
        for k2, c2 in f(key[pos]).terms.items():
            _naive_acc(out, key[:pos] + k2 + key[pos + 1 :], (c * c2).truncate(alg.order))
    return out


def _slot_image(mono):
    """A linear map mono -> tensor square with coefficients of several valuations."""
    m = UZ.monomial(mono)
    return tensor(m, UZ.one()) + tensor(UZ.one(), m).scale(_HZ**2 - _HZ) + tensor(m, m).scale(_HZ**3)


def naive_tensor(*factors):
    """Every combination of terms multiplied out and truncated."""
    alg = factors[0].alg
    out = {}
    for combo in _cartesian(*(f.terms.items() for f in factors)):
        c = alg.field.one
        for _, cf in combo:
            c = c * cf
        _naive_acc(out, sum((k for k, _ in combo), ()), c.truncate(alg.order))
    return out


def tensor_scalars(case):
    """(algebra, coefficients to draw from): marked and unmarked monomials
    of several valuations, sums of them, and a marker-free denominator; only
    rationals in the exact algebra."""
    if case == "exact":
        return CL, [F.rational(v) for v in (1, -2, Fraction(1, 3), Fraction(5, 7))]
    alg = presentation(case, 3).alg
    field = alg.field
    h = [field.marked_param(n) for n in field.params]
    p = field.param(field.params[-1])
    return alg, [
        field.one,
        field.rational(-2),
        h[0],
        h[0] * h[-1],
        field.one + h[0] + h[-1] ** 2,
        h[0] ** 3 - 2 * h[-1] ** 4,
        h[-1] ** 2 / (p + 1),
    ]


@pytest.mark.parametrize("case", ["Uz", "IIn", "exact"])
def test_tensor_matches_naive(case):
    """Also the fused product-difference, at arity 2 and 3, against its two
    products, with four tensors and in commutator mode."""
    alg, scalars = tensor_scalars(case)
    rng = random.Random(case)

    def factor():
        return alg.element({(tuple(rng.randint(0, 2) for _ in range(4)),): rng.choice(scalars) for _ in range(rng.randint(1, 4))})

    for _ in range(25):
        factors = [factor() for _ in range(rng.choice([2, 3]))]
        got = tensor(*factors)
        assert got.arity == len(factors)
        assert list(got.terms.items()) == list(naive_tensor(*factors).items())
    for arity in (2, 3):
        for _ in range(3):
            x, y, z, w = (tensor(*(factor() for _ in range(arity))) for _ in range(4))
            assert x.product_difference(y, z, w) == x * y - z * w
            assert x.product_difference(y, y, x) == x * y - y * x


@pytest.mark.parametrize("key", ["Uz", "IIs"])
def test_commutator_mode_keeps_the_noncommuting_slots(key):
    """R₁₃ and R₂₃ share a slot whose products do not all commute, so the
    kernel must form those pairs and skip only the commuting ones."""
    R = universal_R(key, 3)
    r13, r23 = R.embedded((0, 2)), R.embedded((1, 2))
    got = r13.product_difference(r23, r23, r13)
    assert not got.is_zero
    assert got == r13.commutator(r23)


def test_product_difference_rejects_a_foreign_operand():
    x = tensor(UZ.gen(A), UZ.gen(AP))
    with pytest.raises(ValueError, match="shape mismatch"):
        x.product_difference(x, x, tensor(UZ.gen(A), UZ.gen(A), UZ.gen(A)))


class TestPairWalk:
    @settings(max_examples=40, deadline=None)
    @given(walk_terms(1), walk_terms(1))
    def test_element_product_matches_naive(self, a, b):
        got = UZ.element(a) * UZ.element(b)
        assert list(got.terms.items()) == list(naive_product(UZ, 1, a, b).items())

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3]), st.data())
    def test_tensor_product_matches_naive(self, arity, data):
        a, b = data.draw(walk_terms(arity)), data.draw(walk_terms(arity))
        got = TensorElement(UZ, arity, a) * TensorElement(UZ, arity, b)
        assert list(got.terms.items()) == list(naive_product(UZ, arity, a, b).items())

    @settings(max_examples=30, deadline=None)
    @given(walk_terms(2), st.sampled_from([0, 1]))
    def test_slot_map_matches_naive(self, a, pos):
        got = apply_slot_map(TensorElement(UZ, 2, a), pos, _slot_image)
        assert got.arity == 3
        assert list(got.terms.items()) == list(naive_slot_map(UZ, a, pos, _slot_image).items())

    def test_exact_products_match_naive(self):
        a = {((1, 0, 0, 0),): WALK_COEFFS[4], ((0, 1, 1, 0),): WALK_COEFFS[7], (UNIT_MONO,): F.one}
        b = {((0, 1, 0, 0),): WALK_COEFFS[8], ((0, 0, 1, 0),): F.one}
        got = CL.element(a) * CL.element(b)
        assert list(got.terms.items()) == list(naive_product(CL, 1, a, b).items())

    def test_marker_denominator_raises_in_slot_map(self):
        c = F.one / (F.one + F.hbar)
        assert c.den_has_marker
        t = TensorElement(UZ, 2, {(GEN_MONOS[A], UNIT_MONO): c})
        with pytest.raises(ValueError, match="denominator carries the marker"):
            apply_slot_map(t, 0, _slot_image)
        # also where every pair is above the order and nothing would survive
        high = F.hbar**6 / (F.one + F.hbar)
        t = TensorElement(UZ, 2, {(GEN_MONOS[A], UNIT_MONO): high})
        with pytest.raises(ValueError, match="denominator carries the marker"):
            apply_slot_map(t, 0, _slot_image)


# -- the accumulator of the tensor product kernel --------------------------

# Monomials whose products often meet at one key (A and M commute), and
# coefficients that cancel there: units, rationals over several q, so a
# running sum rescales, marked monomials, and real denominators.
SUM_MONOS = [UNIT_MONO, GEN_MONOS[A], GEN_MONOS[AP], GEN_MONOS[AM], GEN_MONOS[M], (1, 0, 0, 1)]
SUM_COEFFS = [
    F.one,
    -F.one,
    F.rational(1, 3),
    F.rational(-2, 5),
    _HZ,
    -_HZ,
    _HZ * Fraction(1, 6),
    _HZ**2 + _Z,
    _HZ / (_Z + 1),
    -_HZ / (_Z + 1),
]


def sum_terms(arity):
    key = st.tuples(*([st.sampled_from(SUM_MONOS)] * arity))
    return st.dictionaries(key, st.sampled_from(SUM_COEFFS), min_size=1, max_size=5)


def naive_commutator(alg, arity, x, y):
    """x·y − y·x over the pairs (k₁ of x, k₂ of y) whose slots do not all
    commute, in pair order, each pair adding k₁·k₂ and then −k₂·k₁."""
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            if any(alg.mul_mono(a, b) != alg.mul_mono(b, a) for a, b in zip(k1, k2)):
                for lhs, rhs in (({k1: c1}, {k2: c2}), ({k2: c2}, {k1: -c1})):
                    for key, c in naive_product(alg, arity, lhs, rhs).items():
                        _naive_acc(out, key, c)
    return out


class TestSums:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([UZ, CL]), st.sampled_from([1, 2, 3]), st.data())
    def test_kernel_matches_naive_in_term_order(self, alg, arity, data):
        a, b = data.draw(sum_terms(arity)), data.draw(sum_terms(arity))
        got = TensorElement(alg, arity, a) * TensorElement(alg, arity, b)
        assert list(got.terms.items()) == list(naive_product(alg, arity, a, b).items())
        assert all(type(c) is Coefficient for c in got.terms.values())

    def test_a_key_that_cancels_and_comes_back_moves_to_the_end(self):
        """A·M cancels at the fifth pair, and the last pair adds it again over
        another q, so it follows every key made in between."""
        am = (1, 0, 0, 1)
        a = {(GEN_MONOS[A],): F.one, (GEN_MONOS[M],): F.one, (UNIT_MONO,): F.one}
        b = {(GEN_MONOS[M],): _HZ / 3, (GEN_MONOS[A],): -_HZ / 3, (am,): F.rational(1, 5)}
        got = TensorElement(UZ, 1, a) * TensorElement(UZ, 1, b)
        assert list(got.terms.items()) == list(naive_product(UZ, 1, a, b).items())
        assert list(got.terms)[-1] == (am,)
        assert got.terms[(am,)] == F.rational(1, 5)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([UZ, CL]), st.sampled_from([1, 2, 3]), st.data())
    def test_commutator_mode_matches_naive_in_term_order(self, alg, arity, data):
        """The memo of commuting monomials leaves out exactly the pairs a
        fresh test would, and each pair left in adds its two products in
        turn; both can reorder the terms against x*y - y*x, so the order is
        checked against the naive commutator."""
        a, b = data.draw(sum_terms(arity)), data.draw(sum_terms(arity))
        x, y = TensorElement(alg, arity, a), TensorElement(alg, arity, b)
        got = x.product_difference(y, y, x)
        assert list(got.terms.items()) == list(naive_commutator(alg, arity, a, b).items())
        assert got == x * y - y * x

    @pytest.mark.parametrize("key", ["Uz", "IIn", "IIs"])
    def test_every_product_value_is_a_coefficient(self, key):
        R = universal_R(key, 3)
        r13, r23 = R.embedded((0, 2)), R.embedded((1, 2))
        for got in (R.expansion * R.inverse, r13 * r23, r13.product_difference(r23, r23, r13), r13.commutator(r23)):
            assert all(type(c) is Coefficient for c in got.terms.values())


# -- fold_slots against the per-term fold ----------------------------------


def _random_tensor(alg, arity, rng, terms=10):
    """Seeded terms of degree at most one per letter; slot 0 takes one of
    three monomials, so that terms share their slot-0 key."""
    z = alg.field.marked_param("z")
    heads = [tuple(rng.randrange(2) for _ in range(4)) for _ in range(3)]
    out = {}
    for _ in range(terms):
        key = (rng.choice(heads),) + tuple(tuple(rng.randrange(2) for _ in range(4)) for _ in range(arity - 1))
        out[key] = z ** rng.randrange(3) * rng.choice((-2, -1, 1, 3))
    return TensorElement(alg, arity, out)


@pytest.mark.parametrize("arity", [2, 3])
def test_fold_slots_equals_the_per_term_fold(arity):
    p = presentation("Uz", 4)
    alg = p.alg
    scaled = alg.field.marked_param("z") + 2
    choices = (None, p.antipode_mono, lambda m: alg.monomial(m).scale(scaled))
    rng = random.Random(20261019 + arity)
    for maps in _cartesian(choices, repeat=arity):
        t = _random_tensor(alg, arity, rng)
        assert t.fold_slots(list(maps)) == fold_per_term(t, maps)


def test_fold_slots_makes_one_product_per_slot0_key(monkeypatch):
    alg = presentation("Uz", 4).alg
    t = _random_tensor(alg, 2, random.Random(7), terms=30)
    heads = {k[0] for k in t.terms}
    assert len(heads) < len(t.terms)
    calls = []
    product = TensorElement._product

    def counted(self, other, *args, **kwargs):
        calls.append(self)
        return product(self, other, *args, **kwargs)

    monkeypatch.setattr(TensorElement, "_product", counted)
    got = t.fold_slots([None, None])
    assert len(calls) == len(heads)
    monkeypatch.undo()
    assert got == fold_per_term(t, [None, None])
