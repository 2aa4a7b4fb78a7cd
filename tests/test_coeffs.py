"""Field laws and marker bookkeeping for the exact scalar layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscquant.coeffs import Coefficient, CoefficientField

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
        x, y = F.param("x"), F.param("y")
        a = y / (x * F.rational(3))
        assert a.den.LC == 1
        assert a * x * F.rational(3) == y

    def test_zero_is_canonical(self):
        x = F.param("x")
        z = (x - x) / (x**5 + F.one)
        assert z.is_zero
        assert z == F.zero
        assert hash(z) == hash(F.zero)

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


def reference(num, den):
    """The canonical (num, den) by the GCD route, whatever the denominator."""
    if not num:
        return F.ring.zero, F.ring.one
    g = num.gcd(den)
    num, den = num.quo(g), den.quo(g)
    lc = den.LC
    return num.quo_ground(lc), den.quo_ground(lc)


def both_kinds(a):
    """``a`` and its numerator alone: a real denominator and denominator 1."""
    return [a, F.new(a.num)]


def fresh_unit(a):
    """``a`` with an equal denominator that is not the field's shared unit."""
    return Coefficient(F, a.num, F.ring.one)


class TestDenominatorOne:
    def check(self, got, num, den):
        assert (got.num, got.den) == reference(num, den)
        if got.den == F.ring.one:
            assert got.den is F._one

    @settings(max_examples=60, deadline=None)
    @given(coeffs(), coeffs(), st.integers(0, 3))
    def test_arithmetic_matches_the_gcd_route(self, a0, b0, n):
        for a in both_kinds(a0):
            for b in both_kinds(b0):
                self.check(a + b, a.num * b.den + b.num * a.den, a.den * b.den)
                self.check(a - b, a.num * b.den - b.num * a.den, a.den * b.den)
                self.check(a * b, a.num * b.num, a.den * b.den)
                if not b.is_zero:
                    self.check(a / b, a.num * b.den, a.den * b.num)
            # sympy refuses a zero polynomial to the power 0; x**0 is 1 for every x
            self.check(a**n, a.num**n if n else F.ring.one, a.den**n)

    def test_polynomials_share_the_unit(self):
        x = F.param("x")
        for c in (F.zero, F.one, F.hbar, x, F.rational(3, 2), F.marked_param("y"), x * x - F.one,
                  (x**2 - F.one) / (x - F.one), F.new(x.num), F.one * x, x * F.one, x**3):
            assert c.den is F._one, c
        assert F.one * x is x and x * F.one is x

    @settings(max_examples=60, deadline=None)
    @given(coeffs(), coeffs())
    def test_an_equal_unit_that_is_another_object(self, a0, b):
        a = F.new(a0.num)
        c = fresh_unit(a)
        assert c.den is not F._one
        assert c == a and hash(c) == hash(a)
        assert c.is_one == a.is_one and repr(c) == repr(a)
        assert not c.den_has_marker and c.marker_degree == a.marker_degree
        for got, want in [(c + b, a + b), (b - c, b - a), (c * b, a * b), (b * c, b * a), (c**2, a**2)]:
            assert got == want and hash(got) == hash(want)
            if got.den == F.ring.one:
                assert got.den is F._one
        # truncate hands back its input when nothing is above the order
        assert c.truncate(1) == a.truncate(1) and hash(c.truncate(1)) == hash(a.truncate(1))
        if not a.is_zero:
            assert b / c == b / a

    @settings(max_examples=60, deadline=None)
    @given(coeffs(), st.integers(0, 3))
    def test_marker_bookkeeping_on_both_kinds(self, a0, n):
        for a in both_kinds(a0):
            if a.is_zero:
                continue
            num_h = [m[0] for m in a.num.itermonoms()]
            den_h = [m[0] for m in a.den.itermonoms()]
            assert a.den_has_marker == (max(den_h) > 0)
            assert a.marker_degree == min(num_h) - min(den_h)
            if a.den_has_marker:
                with pytest.raises(ValueError):
                    a.truncate(n)
                continue
            kept = {m: c for m, c in a.num.terms() if m[0] <= n}
            self.check(a.truncate(n), F.ring.from_dict(kept), a.den)

    def test_truncate_still_refuses_a_marked_denominator(self):
        with pytest.raises(ValueError):
            (F.one / (F.one + F.hbar)).truncate(2)


class TestSubs:
    def test_polynomial_substitution(self):
        x, y = F.param("x"), F.param("y")
        a = x**2 + y
        assert a.subs({"x": F.rational(2)}) == F.rational(4) + y
        assert a.subs({"x": y}) == y**2 + y

    def test_rational_function_substitution(self):
        # Substituting y -> x**2 into a denominator must stay exact.
        x, y = F.param("x"), F.param("y")
        a = F.one / (x - y)
        got = a.subs({"y": x**2})
        assert got == F.one / (x - x**2)
        assert got * (x - x**2) == F.one

    def test_substitute_fraction_value(self):
        x = F.param("x")
        assert (x**2).subs({"x": Fraction(1, 2)}) == F.rational(1, 4)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(KeyError):
            F.one.subs({"nope": 1})
