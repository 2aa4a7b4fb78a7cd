"""Schouten bracket, mCYBE classification, cocommutators, Table fixtures."""

import pytest

from oscquant import bialgebra
from oscquant.algebra import (
    A,
    AM,
    AP,
    M,
    Algebra,
    tensor,
)
from oscquant.bialgebra import (
    FAMILIES,
    AmbiguousStratum,
    NotCoboundary,
    RMatrixSkew,
    ad_invariant_check,
    classify,
    cocommutator,
    cocommutator_map,
    cocycle_check,
    cojacobi_check,
    eta_element,
    generic_r,
    invariant_basis,
    mcybe_check,
    schouten,
    table_I,
    wedge,
    wedge3,
)
from oscquant.coeffs import CoefficientField

GF = CoefficientField.get("c1", "c2", "c3", "c4", "c5", "c6")
ZF = CoefficientField.get("z")


def r_of(field, **slots):
    vals = [slots.get(f"c{i}", 0) for i in range(1, 7)]
    return RMatrixSkew(field, [field.param(v) if isinstance(v, str) else v for v in vals])


class TestSchouten:
    def test_generic_closed_form(self):
        """The full six-parameter Schouten bracket, against the hand-derived form."""
        r = generic_r()
        alg = Algebra.classical(GF)
        a, ap, am, m = alg.gens()
        c1, c2, c3, c4, c5, c6 = (GF.param(f"c{i}") for i in range(1, 7))
        expected = (
            wedge3(a, m, ap).scale(c1 * (c4 + c3))
            + wedge3(a, m, am).scale(c2 * (c4 - c3))
            - wedge3(a, ap, am).scale(2 * c1 * c2)
            + wedge3(m, ap, am).scale(c1 * c6 + c2 * c5 - c4**2)
        )
        assert schouten(r) == expected

    def test_single_c4(self):
        y = GF.param("c4")
        r = RMatrixSkew(GF, (0, 0, 0, y, 0, 0))
        alg = Algebra.classical(GF)
        _, ap, am, m = alg.gens()
        assert schouten(r) == wedge3(m, ap, am).scale(-(y**2))

    def test_zero(self):
        assert schouten(RMatrixSkew(GF, (0,) * 6)).is_zero

    def test_total_antisymmetry(self):
        br = schouten(generic_r())
        assert br.permute((1, 0, 2)) == -br
        assert br.permute((0, 2, 1)) == -br
        assert br.permute((1, 2, 0)) == br

    def test_wedge3_is_antisymmetrization(self):
        alg = Algebra.classical(GF)
        a, ap, am, _ = alg.gens()
        w = wedge3(a, ap, am)
        assert w == -wedge3(ap, a, am)
        assert w == wedge3(ap, am, a)
        # Expanding the wedge of a wedge: x^y^z = x(x)(y^z) + cyclic... check
        # one explicit coefficient instead: the sorted slot carries +1.
        assert w.terms[((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))] == GF.one


class TestMCYBE:
    def test_single_c1_passes(self):
        ok, residuals = mcybe_check(r_of(ZF, c1="z"))
        assert ok and not residuals

    def test_c1_c2_clash(self):
        ok, residuals = mcybe_check(RMatrixSkew(GF, (1, 1, 0, 0, 0, 0)))
        assert not ok
        names = {n for n, _ in residuals}
        assert names == {"A^Ap^Am"}
        (coeff,) = [c for _, c in residuals]
        assert coeff == GF.rational(-2)

    def test_zero_passes(self):
        ok, residuals = mcybe_check(RMatrixSkew(GF, (0,) * 6))
        assert ok and not residuals

    def test_generic_residuals_are_solution_system(self):
        """mCYBE on the generic r is exactly the three polynomial conditions."""
        _, residuals = mcybe_check(generic_r())
        c1, c2, c3, c4 = (GF.param(f"c{i}") for i in range(1, 5))
        got = dict(residuals)
        # Signs are as read off on the index-sorted wedge basis
        # (A^M^Ap = -A^Ap^M and A^M^Am = -A^Am^M).
        assert got["A^Ap^Am"] == -2 * c1 * c2
        assert got["A^Ap^M"] == -c1 * (c4 + c3)
        assert got["A^Am^M"] == -c2 * (c4 - c3)
        assert set(got) == {"A^Ap^Am", "A^Ap^M", "A^Am^M"}


class TestClassify:
    def test_iplus_nonstandard_single_parameter(self):
        res = classify(r_of(ZF, c1="z"), nonzero=("z",))
        assert (res.family, res.flavor) == ("Iplus", "nonstandard")
        assert not res.trivial

    def test_ii_nonstandard_three_parameters(self):
        fam = FAMILIES["II-nonstandard"]
        res = classify(fam.r(marked=False), nonzero=fam.nonzero)
        assert (res.family, res.flavor) == ("II", "nonstandard")

    def test_ii_standard_skew_part(self):
        res = classify(RMatrixSkew(ZF, (0, 0, 0, -ZF.param("z"), 0, 0)), nonzero=("z",))
        assert (res.family, res.flavor) == ("II", "standard")
        assert res.schouten_coeff == -ZF.param("z") ** 2

    def test_trivial(self):
        res = classify(RMatrixSkew(GF, (0,) * 6))
        assert res.trivial
        assert res.family == "II"

    def test_not_coboundary(self):
        with pytest.raises(NotCoboundary) as err:
            classify(RMatrixSkew(GF, (1, 1, 0, 0, 0, 0)))
        assert err.value.residuals

    def test_undeclared_parameter_is_refused(self):
        with pytest.raises(AmbiguousStratum):
            classify(r_of(ZF, c1="z"))  # z not declared nonzero

    def test_numeric_coefficients_never_ambiguous(self):
        res = classify(RMatrixSkew(GF, (1, 0, 0, 0, 0, 0)))
        assert (res.family, res.flavor) == ("Iplus", "nonstandard")

    def test_families_declare_their_own_class(self):
        for fam in FAMILIES.values():
            res = fam.classification()
            assert (res.family, res.flavor) == (fam.family, fam.flavor), fam.key


class TestCocommutator:
    def test_uz_delta_am(self):
        r = r_of(ZF, c1="z")
        alg = Algebra.classical(ZF)
        a, ap, am, m = alg.gens()
        z = ZF.param("z")
        assert cocommutator(r, AM) == (wedge(am, ap) + wedge(a, m)).scale(z)

    def test_delta_m_always_zero(self):
        assert cocommutator(generic_r(), M).is_zero

    def test_ii_nonstandard_delta_ap(self):
        fam = FAMILIES["II-nonstandard"]
        r = fam.r(marked=False)
        alg = Algebra.classical(fam.field())
        x = fam.field().param("x")
        assert cocommutator(r, AP) == wedge(alg.gen(AP), alg.gen(M)).scale(-x)

    def test_images_are_antisymmetric(self):
        for t in cocommutator_map(generic_r()).values():
            assert t.swap() == -t


class TestCocycleCoJacobi:
    def test_cocycle_holds_for_any_r(self):
        ok, residuals = cocycle_check(generic_r())
        assert ok, residuals

    def test_cojacobi_fails_generically(self):
        ok, _ = cojacobi_check(generic_r())
        assert not ok

    def test_cojacobi_holds_for_every_family(self):
        for fam in FAMILIES.values():
            ok, residuals = cojacobi_check(fam.r(marked=False))
            assert ok, (fam.key, residuals)

    def test_cojacobi_fails_off_solution_system(self):
        ok, _ = cojacobi_check(RMatrixSkew(GF, (1, 1, 0, 0, 0, 0)))
        assert not ok


class TestInvariants:
    def test_eta_is_invariant(self):
        eta = eta_element(GF, GF.param("c1"), GF.param("c2"))
        assert ad_invariant_check(eta)

    def test_mm_is_invariant(self):
        alg = Algebra.classical(GF)
        assert ad_invariant_check(tensor(alg.gen(M), alg.gen(M)))

    def test_aa_is_not_invariant(self):
        alg = Algebra.classical(GF)
        assert not ad_invariant_check(tensor(alg.gen(A), alg.gen(A)))

    def test_invariant_space_is_two_dimensional(self):
        basis = invariant_basis(GF)
        assert len(basis) == 2
        for b in basis:
            assert ad_invariant_check(b)


class TestFamilies:
    def test_marked_coefficients_have_degree_one(self):
        for fam in FAMILIES.values():
            for c in fam.r(marked=True).c:
                if not c.is_zero:
                    assert c.marker_degree == 1, (fam.key, repr(c))

    def test_flavor_matches_schouten(self):
        for fam in FAMILIES.values():
            br = schouten(fam.r(marked=False))
            if fam.flavor == "nonstandard":
                assert br.is_zero, fam.key
            else:
                assert not br.is_zero, fam.key

    def test_table_I_matches(self):
        for row in table_I():
            assert row.match, row.key

    def test_table_I_covers_all_families(self):
        assert {row.key for row in table_I()} == set(FAMILIES)


def test_classify_builds_the_bracket_once(monkeypatch):
    built = []

    def counting(r):
        built.append(r)
        return schouten(r)

    monkeypatch.setattr(bialgebra, "schouten", counting)
    for fam in FAMILIES.values():
        built.clear()
        cls = fam.classification()
        assert (cls.family, cls.flavor) == (fam.family, fam.flavor)
        assert len(built) == 1, fam.key
    built.clear()
    with pytest.raises(NotCoboundary):
        classify(RMatrixSkew(GF, (1, 1, 0, 0, 0, 0)))
    assert len(built) == 1
