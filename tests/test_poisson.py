"""Group law, invariant fields, Sklyanin brackets, Table II."""

import random
from fractions import Fraction
from operator import add

import pytest

from helpers import NumericElement, group_matrix
from oscquant.algebra import held
from oscquant.bialgebra import FAMILIES, NotCoboundary, RMatrixSkew
from oscquant.coeffs import CoefficientField
from oscquant.expr import parse_element
from oscquant import poisson
from oscquant.poisson import (
    FUN_UNIT,
    GroupRing,
    group_compose,
    jacobi_check,
    left_fields,
    multiplicativity_check,
    right_fields,
    site_coords,
    sklyanin_bracket,
    table_II,
)

ZF = CoefficientField.get("z")

BRACKET_SIGNS = {
    ("A", "Ap"): ("Ap", 1),
    ("A", "Am"): ("Am", -1),
    ("Am", "Ap"): ("M", 1),
}


def structure_bracket(fields, a, b):
    """[X_a, X_b] expected from the oscillator structure constants."""
    if (a, b) in BRACKET_SIGNS:
        name, sign = BRACKET_SIGNS[(a, b)]
        out = fields[name]
        return out if sign == 1 else -out
    if (b, a) in BRACKET_SIGNS:
        name, sign = BRACKET_SIGNS[(b, a)]
        out = fields[name]
        return -out if sign == 1 else out
    return None  # zero bracket


class TestGroupLaw:
    def test_identity(self):
        g = NumericElement(Fraction(3, 2), Fraction(1, 3), Fraction(-2), Fraction(5))
        e = NumericElement.identity()
        assert e.compose(g) == g
        assert g.compose(e) == g

    def test_random_elements_match_matrix_product(self):
        rng = random.Random(20240817)

        def rand_el():
            f = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            e = Fraction(0)
            while e == 0:
                e = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            return NumericElement(e, f(), f(), f())

        for _ in range(100):
            g1, g2 = rand_el(), rand_el()
            composed = g1.compose(g2)
            assert composed.matrix() == g1.matrix() * g2.matrix()

    def test_symbolic_matrix_agreement(self):
        ring = GroupRing(ZF, 2)
        left, right = site_coords(ring, 0), site_coords(ring, 1)
        composed = group_compose(left, right)
        assert group_matrix(composed) == group_matrix(left) * group_matrix(right)

    def test_symbolic_associativity(self):
        ring = GroupRing(ZF, 3)
        s0, s1, s2 = (site_coords(ring, i) for i in range(3))
        left_first = group_compose(group_compose(s0, s1), s2)
        right_first = group_compose(s0, group_compose(s1, s2))
        for name in left_first:
            assert left_first[name] == right_first[name], name

    def test_theta_is_additive(self):
        ring = GroupRing(ZF, 2)
        composed = group_compose(site_coords(ring, 0), site_coords(ring, 1))
        assert composed["theta"] == ring.coord("theta", 0) + ring.coord("theta", 1)


class TestGroupRing:
    """Functions on copies of the group are tensors over the rule-free
    six-letter table: a product of monomials adds exponents site by site."""

    @pytest.mark.parametrize("sites", [1, 2, 3])
    def test_products_add_exponents(self, sites):
        rng = random.Random(sites)
        ring = GroupRing(ZF, sites)

        def laurent_terms():
            return {
                tuple(
                    (rng.randint(0, 2), rng.randint(-3, 3), rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
                    for _ in range(sites)
                ): ZF.rational(rng.choice([-3, -1, 1, 2, Fraction(1, 2)]))
                for _ in range(rng.randint(1, 3))
            }

        for _ in range(40):
            t1, t2 = laurent_terms(), laurent_terms()
            want = ring.zero()
            for k1, c1 in t1.items():
                for k2, c2 in t2.items():
                    key = tuple(tuple(map(add, s1, s2)) for s1, s2 in zip(k1, k2))
                    want = want + ring.element({key: c1 * c2})
            f, g = ring.element(t1), ring.element(t2)
            assert f * g == want == g * f

    @pytest.mark.parametrize("sites", [1, 2, 3])
    def test_e_times_einv_is_one(self, sites):
        ring = GroupRing(ZF, sites)
        for site in range(sites):
            assert ring.coord("E", site) * ring.coord("Einv", site) == 1
            assert ring.coord("Einv", site) * ring.coord("E", site) == ring.one()
            assert ring.coord("E", site) ** 3 * ring.coord("Einv", site) ** 2 == ring.coord("E", site)


    def test_a_scalar_lifts_to_the_letter_unit(self):
        """A letter is an arity-1 tensor, so on one site it mixes with the
        ring's unit, and a scalar lifts to that unit; on two sites the unit
        is an arity-2 tensor, which a letter would never mix with, so the
        letter is refused where it is built."""
        ring = GroupRing(ZF)
        e = ring.letter(0) + 1
        assert e == ring.letter(0) + ring.one() == ring.letter(0) + ring.monomial(FUN_UNIT) == 1 + ring.letter(0)
        assert e.terms.keys() == {(FUN_UNIT,), (ring.shift(FUN_UNIT, 0),)}
        double = GroupRing(ZF, 2)
        with pytest.raises(ValueError, match=r"coord\(name, site\)"):
            double.letter(0) + double.one()

    @pytest.mark.parametrize(
        "build",
        [
            lambda ring: ring.letter(0),
            lambda ring: ring.gen(0),
            lambda ring: ring.gens(),
            lambda ring: ring.monomial(FUN_UNIT),
            lambda ring: ring.normalize_word((0, 1)),
            lambda ring: ring.normalize_word((), rightmost=True),
        ],
        ids=["letter", "gen", "gens", "monomial", "normalize_word", "normalize_word-rightmost"],
    )
    def test_arity_one_builders_refuse_several_sites(self, build):
        """On one site they work; on two they raise at the call and name the
        builder that works, so no arity-1 tensor meets an arity-2 unit."""
        build(GroupRing(ZF))
        with pytest.raises(ValueError, match=r"2 sites: build its functions with coord\(name, site\)"):
            build(GroupRing(ZF, 2))


class TestInvariantFields:
    def test_left_fields_close_with_structure_constants(self):
        ring = GroupRing(ZF)
        L = left_fields(ring, 0)
        for a in L:
            for b in L:
                expected = structure_bracket(L, a, b)
                got = L[a].commutator(L[b])
                if expected is None:
                    assert got.is_zero, (a, b)
                else:
                    assert got == expected, (a, b)

    def test_right_fields_close_with_negated_constants(self):
        ring = GroupRing(ZF)
        R = right_fields(ring, 0)
        for a in R:
            for b in R:
                expected = structure_bracket(R, a, b)
                got = R[a].commutator(R[b])
                if expected is None:
                    assert got.is_zero, (a, b)
                else:
                    assert got == -expected, (a, b)

    def test_left_and_right_fields_commute(self):
        ring = GroupRing(ZF)
        L, R = left_fields(ring, 0), right_fields(ring, 0)
        for a in L:
            for b in R:
                assert L[a].commutator(R[b]).is_zero, (a, b)

    def test_held_reports_a_nonzero_field(self):
        ring = GroupRing(ZF)
        L, R = left_fields(ring, 0), right_fields(ring, 0)
        diff = L["A"].commutator(L["Ap"])
        assert not diff.is_zero
        assert held([("[A,Ap]", diff)]) == (False, [("[A,Ap]", diff)])
        assert held([("[A,Ap]", L["A"].commutator(R["Ap"]))]) == (True, [])

    def test_m_fields_coincide(self):
        ring = GroupRing(ZF)
        assert left_fields(ring, 0)["M"] == right_fields(ring, 0)["M"]

    def test_fields_are_derivations(self):
        ring = GroupRing(ZF)
        f = parse_element(ring, "a_plus*m + E")
        g = parse_element(ring, "a_minus^2 - Einv*a_plus")
        for X in (*left_fields(ring, 0).values(), *right_fields(ring, 0).values()):
            assert X(f * g) == X(f) * g + f * X(g)


class TestSklyanin:
    def r_uz(self):
        return RMatrixSkew(ZF, (ZF.param("z"), 0, 0, 0, 0, 0))

    def test_uz_theta_aplus(self):
        ring = GroupRing(ZF)
        got = sklyanin_bracket(self.r_uz(), ring.coord("theta"), ring.coord("a_plus"))
        assert got == parse_element(ring, "z*(E-1)")

    def test_uz_aminus_m(self):
        ring = GroupRing(ZF)
        got = sklyanin_bracket(self.r_uz(), ring.coord("a_minus"), ring.coord("m"))
        assert got == parse_element(ring, "-z*a_minus^2")

    def test_constants_poisson_commute(self):
        ring = GroupRing(ZF)
        assert sklyanin_bracket(self.r_uz(), ring.one(), ring.coord("m")).is_zero

    def test_antisymmetry_and_leibniz(self):
        ring = GroupRing(ZF)
        r = self.r_uz()
        f = parse_element(ring, "E*a_plus + m")
        g = parse_element(ring, "a_minus*m")
        h = parse_element(ring, "Einv + a_plus*a_minus")
        assert sklyanin_bracket(r, f, g) == -sklyanin_bracket(r, g, f)
        assert sklyanin_bracket(r, f, g * h) == sklyanin_bracket(r, f, g) * h + g * sklyanin_bracket(r, f, h)

    def test_e_bracket_is_e_times_theta_bracket(self):
        """{E, f} = E*{theta, f}: the chain rule through the fields."""
        for fam in FAMILIES.values():
            ring = GroupRing(fam.field())
            r = fam.r(marked=False)
            E = ring.coord("E")
            for name in ("a_plus", "a_minus", "m"):
                f = ring.coord(name)
                assert sklyanin_bracket(r, E, f) == E * sklyanin_bracket(
                    r, ring.coord("theta"), f
                ), (fam.key, name)


class TestPoissonLieProperties:
    def test_jacobi_uz(self):
        ok, residuals = jacobi_check(self.r_uz())
        assert ok, residuals

    r_uz = TestSklyanin.r_uz

    def test_jacobi_zero_r(self):
        ok, _ = jacobi_check(RMatrixSkew(ZF, (0,) * 6))
        assert ok

    def test_jacobi_all_families(self):
        for fam in FAMILIES.values():
            ok, residuals = jacobi_check(fam.r(marked=False))
            assert ok, (fam.key, residuals)

    def test_multiplicativity_uz(self):
        ok, residuals = multiplicativity_check(self.r_uz())
        assert ok, residuals

    def test_multiplicativity_all_families(self):
        for fam in FAMILIES.values():
            ok, residuals = multiplicativity_check(fam.r(marked=False))
            assert ok, (fam.key, residuals)

    def test_multiplicativity_fails_for_a_wrong_group_law(self, monkeypatch):
        compose = poisson.group_compose

        def without_the_m_correction(left, right):
            out = compose(left, right)
            out["m"] = left["m"] + right["m"]  # drops -Einv*a_plus*a_minus
            return out

        monkeypatch.setattr(poisson, "group_compose", without_the_m_correction)
        ok, residuals = multiplicativity_check(self.r_uz())
        assert not ok
        assert [pair for pair, _ in residuals] == [("theta", "m"), ("E", "m"), ("a_plus", "m"), ("a_minus", "m")]
        assert all(not diff.is_zero for _, diff in residuals)

    def test_jacobi_fails_off_the_coboundaries(self):
        # c1 = c2 = 1 is not a coboundary (see test_multiplicativity_needs_mcybe)
        ok, residuals = jacobi_check(RMatrixSkew(CoefficientField.get(), (1, 1, 0, 0, 0, 0)))
        assert not ok
        assert len(residuals) == 5
        assert all(not diff.is_zero for _, diff in residuals)

    def test_multiplicativity_needs_mcybe(self):
        GF = CoefficientField.get("c1", "c2", "c3", "c4", "c5", "c6")
        with pytest.raises(NotCoboundary):
            multiplicativity_check(RMatrixSkew(GF, (1, 1, 0, 0, 0, 0)))


class TestTableII:
    def test_all_rows_match(self):
        for row in table_II():
            assert row.match, row.key

    def test_sixty_entries_present(self):
        rows = table_II()
        assert len(rows) == 6
        for row in rows:
            assert len(row.computed) == 10
            assert len(row.table) == 6

    def test_extras_for_type_ii_vanish_except_e_m(self):
        # The informational E-pairs: {E,f} = E*{theta,f} and type II has all
        # theta-brackets zero, so every extra pair vanishes there.
        for row in table_II():
            if row.key.startswith("II"):
                for pair in row.extras:
                    assert row.computed[pair].is_zero, (row.key, pair)
