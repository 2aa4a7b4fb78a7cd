"""Field laws and marker bookkeeping for the exact scalar layer."""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, ZZ
from sympy.polys.orderings import lex
from sympy.polys.rings import ring

from helpers import subs
from oscquant.coeffs import Coefficient, CoefficientField, _canon, _pmul

F = CoefficientField.get("x", "y")


def coeffs(max_terms=3):
    """Small random rational functions in x, y (denominators never zero)."""
    rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    gens = st.sampled_from([F.param("x"), F.param("y"), F.hbar])

    @st.composite
    def poly(draw):
        total = F.zero
        for _ in range(draw(st.integers(1, max_terms))):
            term = F.rational(draw(rationals))
            for _ in range(draw(st.integers(0, 2))):
                term = term * draw(gens)
            total = total + term
        return total

    @st.composite
    def frac(draw):
        num = draw(poly())
        den = draw(poly().filter(lambda p: not p.is_zero))
        return num / den

    return frac()


class TestCanonicalForm:
    def test_gcd_is_divided_out(self):
        x = F.param("x")
        a = (x**2 - F.one) / (x - F.one)
        assert a == x + F.one

    def test_denominator_is_monic(self):
        # stored as y / (3 * x): the 3 in q, the monomial in den; printed
        # (and read back for LaTeX) over the monic x
        x, y = F.param("x"), F.param("y")
        a = y / (x * F.rational(3))
        assert (a.num, a.q, a.den) == ({(0, 0, 1): 1}, 3, {(0, 1, 0): 1})
        assert repr(a) == "(1/3*y)/(x)"
        assert a * x * F.rational(3) == y
        b = (F.rational(2) * y) / (F.rational(-4) * x - F.rational(6) * y)
        assert (b.num, b.q, b.den) == ({(0, 0, 1): -1}, 1, {(0, 1, 0): 2, (0, 0, 1): 3})
        assert repr(b) == "(-1/2*y)/(x + 3/2*y)"

    def test_zero_is_canonical(self):
        x = F.param("x")
        z = (x - x) / (x**5 + F.one)
        assert z.is_zero
        assert z == F.zero
        assert hash(z) == hash(F.zero)

    def test_rational_zero_and_one_are_the_fields_own(self):
        assert F.rational(0) is F.zero
        assert F.rational(1) is F.one and F.rational(3, 3) is F.one
        assert F.rational(1, 2) * F.rational(2) == F.one

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F.one / F.zero

    def test_fields_are_interned(self):
        assert CoefficientField.get("x", "y") is F
        assert CoefficientField.get("y", "x") is not F

    def test_cross_field_mixing_rejected(self):
        G = CoefficientField.get("t")
        with pytest.raises(ValueError):
            F.param("x") + G.param("t")

    def test_one_coercion_rule_for_scalars_and_containers(self):
        from oscquant.algebra import Algebra

        G = CoefficientField.get("t")
        assert F.coerce(2) == F.rational(2) and F.coerce(Fraction(1, 3)) == F.rational(1, 3)
        assert F.coerce(F.hbar) is F.hbar
        assert F.coerce(0.5) is None and F.coerce("x") is None
        one = Algebra.classical(F).one()
        for mix in (lambda: F.coerce(G.one), lambda: F.one * G.one, lambda: one.scale(G.one), lambda: one == G.one):
            with pytest.raises(ValueError, match="different fields"):
                mix()

    def test_marker_name_reserved(self):
        with pytest.raises(ValueError):
            CoefficientField.get("h", "x")


class TestFieldLaws:
    @settings(max_examples=60, deadline=None)
    @given(coeffs(), coeffs(), coeffs())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(coeffs())
    def test_units_and_inverses(self, a):
        assert a + F.zero == a
        assert a * F.one == a
        assert a - a == F.zero
        if not a.is_zero:
            assert a / a == F.one
            assert a * (F.one / a) == F.one

    @settings(max_examples=40, deadline=None)
    @given(coeffs(), st.integers(0, 4))
    def test_powers(self, a, n):
        prod = F.one
        for _ in range(n):
            prod = prod * a
        assert a**n == prod

    def test_int_and_fraction_coercion(self):
        x = F.param("x")
        assert 2 * x == x + x
        assert x + Fraction(1, 2) == x + F.rational(1, 2)
        assert 1 - x == F.one - x
        assert (x / 1) == x


class TestMarker:
    def test_scale_params_marks_every_parameter(self):
        x, y = F.param("x"), F.param("y")
        a = (x**2 * y + y).scale_params()
        assert a == F.hbar**3 * x**2 * y + F.hbar * y

    def test_marker_degree_is_valuation(self):
        x = F.param("x")
        a = (F.hbar * x + F.hbar**3).truncate(5)
        assert a.marker_degree == 1
        assert F.zero.marker_degree == 0
        assert (F.hbar**2 / x).marker_degree == 2

    def test_scaling_commutes_with_arithmetic(self):
        x, y = F.param("x"), F.param("y")
        a, b = x**2 + y, x * y - F.rational(1, 3)
        assert (a * b).scale_params() == a.scale_params() * b.scale_params()
        assert (a + b).scale_params() == a.scale_params() + b.scale_params()

    def test_ratio_of_scaled_params_has_degree_zero(self):
        # x**2 / y scales to h * (x**2 / y): net one marker power.
        x, y = F.param("x"), F.param("y")
        a = (x**2 / y).scale_params()
        assert a == F.hbar * x**2 / y
        assert a.marker_degree == 1

    def test_truncate_drops_high_orders_only(self):
        x = F.param("x")
        series = F.one + F.hbar * x + F.hbar**2 * x**2 + F.hbar**5 * x**5
        assert series.truncate(2) == F.one + F.hbar * x + F.hbar**2 * x**2
        assert series.truncate(0) == F.one
        assert series.truncate(None) == series
        assert series.truncate(99) == series

    def test_truncate_refuses_marker_denominators(self):
        with pytest.raises(ValueError):
            (F.one / F.hbar).truncate(3)

    def test_h_part_extracts_and_strips(self):
        x, y = F.param("x"), F.param("y")
        series = y + F.hbar * x + F.hbar**2 * (x * y + y)
        assert series.h_part(0) == y
        assert series.h_part(1) == x
        assert series.h_part(2) == x * y + y
        assert series.h_part(3) == F.zero

    def test_strip_marker(self):
        x = F.param("x")
        assert (F.hbar**2 * x + F.hbar).strip_marker() == x + F.one

    @settings(max_examples=40, deadline=None)
    @given(coeffs(), coeffs(), st.integers(0, 3))
    def test_truncation_is_coherent_with_products(self, a, b, n):
        # (a*b) truncated == (a_trunc * b_trunc) truncated, when denominators
        # are marker-free.
        if a.den_has_marker or b.den_has_marker:
            return
        lhs = (a * b).truncate(n)
        rhs = (a.truncate(n) * b.truncate(n)).truncate(n)
        assert lhs == rhs


# -- a pure-sympy reference ----------------------------------------------------
#
# The reference reads a coefficient straight from its integer dicts and
# always takes the GCD-and-monic route over sympy's QQ polynomials, whatever
# the denominator.  Every result is compared with it in that form.

R, RH, RX, RY = ring("h,x,y", QQ, lex)


def to_ref(a):
    """``a`` as a sympy (numerator, denominator) pair over QQ, not reduced."""
    return R.from_dict({m: QQ(c, a.q) for m, c in a.num.items()}), R.from_dict(dict(a.den))


def reference(num, den):
    """The canonical (num, den) by the GCD route: coprime, the denominator monic."""
    if not num:
        return R.zero, R.one
    g = num.gcd(den)
    num, den = num.quo(g), den.quo(g)
    lc = den.LC
    return num.quo_ground(lc), den.quo_ground(lc)


def assert_canonical(a):
    """``num / (q * den)`` with q coprime to the content and den primitive,
    positive-led, non-constant or the shared unit."""
    assert type(a.q) is int and a.q > 0
    assert all(type(c) is int and c for c in a.num.values())
    if a.num:
        assert gcd(a.q, *a.num.values()) == 1
    if a.den == F._one:
        assert a.den is F._one
        return
    assert all(type(c) is int for c in a.den.values())
    assert gcd(*a.den.values()) == 1 and a.den[max(a.den)] > 0
    assert any(any(m) for m in a.den)


def check(got, num, den):
    """``got`` is canonical and equals num/den; the reference's form is ``got``'s
    over its leading denominator coefficient, so ``got`` is reduced too."""
    assert_canonical(got)
    n, d = to_ref(got)
    lc = d.LC
    assert (n.quo_ground(lc), d.quo_ground(lc)) == reference(num, den)


def both_kinds(a):
    """``a`` and its numerator alone: a real denominator and denominator 1."""
    return [a, _canon(F, (a.num, a.q), F._one)]


def fresh_unit(a):
    """``a`` with an equal denominator that is not the field's shared unit."""
    return Coefficient(F, a.num, a.q, dict(F._one))


def denominators():
    """Denominators of every kind ``_canon`` tells apart: constants and
    monomials (divided out natively), ``x + y`` and ``h*(x + y)`` (sympy's
    GCD), and random polynomials."""
    x, y, h = F.param("x"), F.param("y"), F.hbar
    fixed = [F.rational(3), F.rational(-2, 5), x, F.rational(-3) * x * y**2, h * x, x + y, h * (x + y),
             F.rational(2) * x + F.rational(2) * y, x**2 - y**2]
    return st.sampled_from(fixed) | coeffs(2).filter(lambda p: not p.is_zero)


@st.composite
def fractions_of_every_kind(draw):
    return draw(coeffs()) / draw(denominators())


def int_polys(min_size, max_size):
    """Integer polynomials in h, x, y as dicts, of degree at most 3 in each."""
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-9, 9).filter(bool),
                           min_size=min_size, max_size=max_size)


def wide_fractions():
    """``num / (q * den)`` for integer polynomials of up to seven terms."""
    return st.builds(lambda num, q, den: _canon(F, (num, q), den), int_polys(0, 7), st.integers(1, 12), int_polys(1, 7))


class TestDenominatorOne:
    @settings(max_examples=60, deadline=None)
    @given(fractions_of_every_kind(), fractions_of_every_kind(), st.integers(0, 3))
    def test_arithmetic_matches_the_gcd_route(self, a0, b0, n):
        for a in both_kinds(a0):
            an, ad = to_ref(a)
            for b in both_kinds(b0):
                bn, bd = to_ref(b)
                check(a + b, an * bd + bn * ad, ad * bd)
                check(a - b, an * bd - bn * ad, ad * bd)
                check(a * b, an * bn, ad * bd)
                if not b.is_zero:
                    check(a / b, an * bd, ad * bn)
            # sympy refuses a zero polynomial to the power 0; x**0 is 1 for every x
            check(a**n, an**n if n else R.one, ad**n)
            if not a.is_zero:
                check(a ** -n, ad**n, an**n)

    @settings(max_examples=60, deadline=None)
    @given(fractions_of_every_kind(), st.integers(0, 3))
    @example(F.rational(-1, 9) / (F.hbar - F.one), 0)
    def test_series_operations_match_the_gcd_route(self, a0, k):
        for a in both_kinds(a0):
            an, ad = to_ref(a)
            scaled = [(RX, RH * RX), (RY, RH * RY)]
            check(a.scale_params(), an.compose(scaled), ad.compose(scaled))
            stripped = ad.compose(RH, R.one)
            if stripped:
                check(a.strip_marker(), an.compose(RH, R.one), stripped)
            else:
                # h -> 1 zeroes a denominator such as h - 1
                with pytest.raises(ZeroDivisionError):
                    a.strip_marker()
            if a.den_has_marker:
                continue
            check(a.truncate(k), R.from_dict({m: c for m, c in an.terms() if m[0] <= k}), ad)
            check(a.h_part(k), R.from_dict({(0,) + m[1:]: c for m, c in an.terms() if m[0] == k}), ad)

    @settings(max_examples=30, deadline=None)
    @given(fractions_of_every_kind(), fractions_of_every_kind())
    def test_subs_matches_sympy(self, a, b):
        (an, ad), (bn, bd) = to_ref(a), to_ref(b)
        x = sympy.Symbol("x")
        value = bn.as_expr() / bd.as_expr()
        num, den = an.as_expr().subs(x, value), ad.as_expr().subs(x, value)
        if sympy.cancel(den) == 0:
            with pytest.raises(ZeroDivisionError):
                subs(a, {"x": b})
            return
        num, den = sympy.fraction(sympy.cancel(num / den))
        check(subs(a, {"x": b}), R.from_expr(num), R.from_expr(den))

    @settings(max_examples=60, deadline=None)
    @given(fractions_of_every_kind() | wide_fractions())
    def test_repr_is_sympys(self, a):
        num, den = reference(*to_ref(a))
        assert repr(a) == (str(num) if den == R.one else f"({num})/({den})")

    def test_polynomials_share_the_unit(self):
        x = F.param("x")
        for c in (F.zero, F.one, F.hbar, x, F.rational(3, 2), F.marked_param("y"), x * x - F.one,
                  (x**2 - F.one) / (x - F.one), _canon(F, (x.num, 1), F._one), F.one * x, x * F.one, x**3,
                  F.hbar**2 * x**2 / 2, (x * F.rational(3)) / (x * F.rational(6)), x / F.rational(1, 2),
                  (x**2 + x) / x, (x + F.param("y")) ** 2 / (x + F.param("y")), fresh_unit(F.zero).h_part(1),
                  fresh_unit(x).h_part(0)):
            assert c.den is F._one, c
        assert F.one * x is x and x * F.one is x

    def test_rational_content_stays_in_q(self):
        x = F.param("x")
        a = F.hbar**2 * x**2 / 2
        assert (a.num, a.q, a.den) == ({(2, 2, 0): 1}, 2, F._one)
        b = (F.rational(4) * x + F.rational(6)) / F.rational(8)
        assert (b.num, b.q) == ({(0, 1, 0): 2, (0, 0, 0): 3}, 4)

    @settings(max_examples=60, deadline=None)
    @given(coeffs(), fractions_of_every_kind())
    def test_an_equal_unit_that_is_another_object(self, a0, b):
        a = _canon(F, (a0.num, a0.q), F._one)
        c = fresh_unit(a)
        assert c.den is not F._one
        assert c == a and hash(c) == hash(a)
        assert (c == F.one) == (a == F.one) and repr(c) == repr(a)
        assert not c.den_has_marker and c.marker_degree == a.marker_degree
        for got, want in [(c + b, a + b), (b - c, b - a), (c * b, a * b), (b * c, b * a), (c**2, a**2),
                          (c.scale_params(), a.scale_params()), (c.h_part(1), a.h_part(1))]:
            assert got == want and hash(got) == hash(want)
            if got.den == F._one:
                assert got.den is F._one
        # truncate hands back its input when nothing is above the order
        assert c.truncate(1) == a.truncate(1) and hash(c.truncate(1)) == hash(a.truncate(1))
        if not a.is_zero:
            assert b / c == b / a

    @settings(max_examples=60, deadline=None)
    @given(fractions_of_every_kind(), st.integers(0, 3))
    def test_marker_bookkeeping_on_both_kinds(self, a0, n):
        for a in both_kinds(a0):
            if a.is_zero:
                continue
            num_h = [m[0] for m in a.num]
            den_h = [m[0] for m in a.den]
            assert a.den_has_marker == (max(den_h) > 0)
            assert a.marker_degree == min(num_h) - min(den_h)
            assert a.top_degree == max(num_h)
            assert a.poly_top == (a.top_degree if a.den is F._one else None)
            if a.den_has_marker:
                with pytest.raises(ValueError):
                    a.truncate(n)
                continue
            an, ad = to_ref(a)
            got = a.truncate(n)
            check(got, R.from_dict({m: c for m, c in an.terms() if m[0] <= n}), ad)
            if a.top_degree <= n:
                assert got is a

    def test_truncate_still_refuses_a_marked_denominator(self):
        with pytest.raises(ValueError):
            (F.one / (F.one + F.hbar)).truncate(2)


ZR = ring("h,x,y", ZZ, lex)[0]


class TestPolynomialGCD:
    """The native GCD behind ``cofactors`` against sympy's over ZZ."""

    @staticmethod
    def assert_cofactors_are_sympys(num, den):
        got = F.ring.cofactors(num, den)
        _, ca, cb = ZR.from_dict(num).cofactors(ZR.from_dict(den))
        want = (dict(ca), dict(cb))
        assert got in (want, tuple({m: -c for m, c in p.items()} for p in want))

    @settings(max_examples=150, deadline=None)
    @given(st.just({(0, 0, 0): 1}) | int_polys(1, 3), int_polys(1, 5), int_polys(2, 7))
    def test_cofactors_agree_with_sympy(self, common, a, b):
        self.assert_cofactors_are_sympys(_pmul(a, common), _pmul(b, common))

    def test_unlucky_points_are_retried(self):
        # x**2 - 31*x vanishes at the first point, 31; the second pair's GCD
        # (3*x**2) needs a third point
        for num, den in [("x**2 - 31*x", "x + 1"), ("-9*x**5 + 15*x**2", "3*x**5 + 9*x**4 - 6*x**3")]:
            num, den = (dict(ZR.from_expr(sympy.sympify(p))) for p in (num, den))
            self.assert_cofactors_are_sympys(num, den)


class TestSubs:
    def test_polynomial_substitution(self):
        x, y = F.param("x"), F.param("y")
        a = x**2 + y
        assert subs(a, {"x": F.rational(2)}) == F.rational(4) + y
        assert subs(a, {"x": y}) == y**2 + y

    def test_rational_function_substitution(self):
        # Substituting y -> x**2 into a denominator must stay exact.
        x, y = F.param("x"), F.param("y")
        a = F.one / (x - y)
        got = subs(a, {"y": x**2})
        assert got == F.one / (x - x**2)
        assert got * (x - x**2) == F.one

    def test_substitute_fraction_value(self):
        x = F.param("x")
        assert subs(x**2, {"x": Fraction(1, 2)}) == F.rational(1, 4)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(KeyError):
            subs(F.one, {"nope": 1})
