"""Coproduct construction: matrix exponentials, basis shifts, table recovery."""

import pytest

from oscquant.algebra import (
    A,
    AM,
    AP,
    GEN_NAMES,
    M,
    Algebra,
    ScalarMatrix,
    exp_series,
    spread,
    tensor,
)
from oscquant.bialgebra import FAMILIES, GEN_MONOS, RMatrixSkew
from oscquant.coeffs import CoefficientField
from oscquant.hopf import counit_check
from oscquant.lm import (
    DivisionByZeroParam,
    LMSpec,
    NoncommutingEntries,
    basis_change,
    family_spec,
    first_order_check,
    iplus_nonstandard_closed,
    lm_coproduct,
    matrix_exp,
    shift_substitution,
    spec_matrix,
    table_III,
    trivial_spec,
)

ZF = CoefficientField.get("z")


def zalg(order):
    return Algebra.classical(ZF, order)


# -- matrix exponentials -------------------------------------------------


def rows(*rows):
    return ScalarMatrix.from_rows(ZF, rows)


def test_exp_of_zero_matrix_is_identity():
    alg = zalg(4)
    zero, one = alg.zero(), alg.one()
    mat = rows((zero, zero), (zero, zero))
    assert matrix_exp(mat, alg) == rows((one, zero), (zero, one))


def test_exp_of_diagonal_matrix_is_entrywise_scalar_series():
    alg = zalg(5)
    d = alg.gen(AP).scale(ZF.marked_param("z"))
    p = matrix_exp(rows((d, alg.zero()), (alg.zero(), d)), alg)
    e = exp_series(d)
    assert p == rows((e, alg.zero()), (alg.zero(), e))


def test_exp_rejects_noncommuting_entries():
    alg = zalg(3)
    z = ZF.marked_param("z")
    mat = rows((alg.gen(A).scale(z), alg.gen(AP).scale(z)), (alg.zero(), alg.zero()))
    with pytest.raises(NoncommutingEntries):
        matrix_exp(mat, alg)


def test_exp_rejects_unmarked_entries():
    alg = zalg(3)
    mat = rows((alg.gen(AP), alg.zero()), (alg.zero(), alg.zero()))
    with pytest.raises(ValueError, match="order-0"):
        matrix_exp(mat, alg)


def test_exp_needs_a_truncation_order():
    alg = Algebra.classical(ZF)  # exact: no order to inherit
    with pytest.raises(ValueError, match="order"):
        matrix_exp(rows((alg.zero(),)), alg)


def test_iplus_nonstandard_exp_matches_closed_form_orders_1_to_6():
    spec = family_spec("Iplus-nonstandard")
    for order in range(1, 7):
        alg = Algebra.classical(spec.field, order)
        assert matrix_exp(spec_matrix(spec, alg), alg) == iplus_nonstandard_closed(alg)


def test_closed_form_nilpotent_part_squares_to_zero():
    spec = family_spec("Iplus-nonstandard")
    alg = Algebra.classical(spec.field, 6)
    field = alg.field
    ap, x = field.marked_param("ap"), field.marked_param("x")
    gM = alg.gen(M)
    b = ScalarMatrix.from_rows(
        field,
        ((gM.scale(-x), gM.scale(-(x * x / ap))), (gM.scale(ap), gM.scale(x))),
    )
    assert (b * b).is_zero


# -- spec validation -----------------------------------------------------


def test_primitives_must_commute():
    z = ZF.zero
    with pytest.raises(NoncommutingEntries, match="primitive"):
        LMSpec(ZF, (A, AP), (AM, M), (((z, z), (z, z)), ((z, z), (z, z))))


def test_nu_matrices_must_commute():
    z, c = ZF.zero, ZF.marked_param("z")
    with pytest.raises(NoncommutingEntries, match="commute"):
        LMSpec(ZF, (AP, M), (A, AM), (((z, c), (z, z)), ((z, z), (c, z))))


def test_one_matrix_per_primitive():
    z = ZF.zero
    with pytest.raises(ValueError, match="one matrix"):
        LMSpec(ZF, (AP, M), (A, AM), (((z, z), (z, z)),))


def test_vector_and_primitives_disjoint():
    z = ZF.zero
    with pytest.raises(ValueError, match="both"):
        LMSpec(ZF, (M,), (A, M), (((z, z), (z, z)),))


# -- coproducts ----------------------------------------------------------


def test_trivial_spec_gives_primitive_coproducts():
    spec = trivial_spec()
    cp = lm_coproduct(spec, 3)
    for i, label in enumerate(GEN_NAMES):
        assert cp.images[label] == spread(cp.alg.gen(i), 2)


def test_type_II_nonstandard_creation_image():
    # Delta(Ap) = 1 (x) Ap + Ap (x) e^{-x M}
    cp = lm_coproduct(family_spec("II-nonstandard"), 5)
    alg = cp.alg
    x = alg.field.marked_param("x")
    expected = tensor(alg.one(), alg.gen(AP)) + tensor(
        alg.gen(AP), exp_series(alg.gen(M).scale(-x))
    )
    assert cp.images["Ap"] == expected


def test_II_standard_A_image_has_cross_term():
    cp = lm_coproduct(family_spec("II-standard"), 4)
    field = cp.field
    key = (GEN_MONOS[AP], GEN_MONOS[M])
    assert cp.images["A"].terms[key] == field.marked_param("bp")


def test_primitive_images_are_primitive_for_all_families():
    for key in FAMILIES:
        spec = family_spec(key)
        cp = lm_coproduct(spec, 3)
        for h in spec.primitives:
            assert cp.images[GEN_NAMES[h]] == spread(cp.alg.gen(h), 2)


def test_counit_axiom_all_families():
    for key in FAMILIES:
        ok, bad = counit_check(lm_coproduct(family_spec(key), 4))
        assert ok, (key, bad)


# -- first order ---------------------------------------------------------


def test_first_order_matches_cocommutators_all_families():
    for key, fam in FAMILIES.items():
        assert first_order_check(family_spec(key), fam.r(marked=True))[0], key


def test_first_order_accepts_unmarked_r():
    fam = FAMILIES["Iminus-standard"]
    assert first_order_check(family_spec(fam), fam.r(marked=False))[0]


def test_first_order_trivial():
    spec = trivial_spec()
    assert first_order_check(spec, RMatrixSkew(spec.field, [0] * 6))[0]


def test_first_order_detects_mismatch():
    fam = FAMILIES["Iplus-nonstandard"]
    wrong = fam.r(marked=True).map_coeffs(lambda c: -c)
    assert not first_order_check(family_spec(fam), wrong)[0]


# -- basis shifts --------------------------------------------------------


def test_shift_roundtrip_on_elements_and_tensors():
    fam = FAMILIES["Iplus-standard"]
    subst = basis_change(fam)
    alg = Algebra.classical(fam.field())
    e = alg.monomial((2, 1, 1, 1)) + alg.gen(A).scale(alg.field.param("yp"))
    assert subst.to_unprimed(subst.to_primed(e)) == e
    assert subst.to_primed(subst.to_unprimed(e)) == e
    t = tensor(alg.gen(A) * alg.gen(A), alg.gen(AP)) + tensor(alg.gen(M), alg.gen(A))
    assert subst.to_unprimed(subst.to_primed(t)) == t


def test_shift_clears_primitive_pair_terms():
    # In the shifted basis delta(A) loses its H1^H2 component (Ap^M for the
    # c1 families, Am^M for the c2 families).
    for key, h1 in (("Iplus-standard", AP), ("Iminus-standard", AM)):
        fam = FAMILIES[key]
        subst = basis_change(fam)
        delta_a = fam.cocommutators(marked=False)["A"]
        hot = (GEN_MONOS[h1], GEN_MONOS[M])
        assert hot in delta_a.terms or (hot[1], hot[0]) in delta_a.terms
        primed = subst.to_primed(delta_a)
        assert hot not in primed.terms and (hot[1], hot[0]) not in primed.terms


def test_zero_numerator_gives_identity_shift():
    field = FAMILIES["Iplus-standard"].field()
    subst = shift_substitution(field, field.zero, field.param("ap"))
    assert subst.is_identity
    alg = Algebra.classical(field)
    e = alg.monomial((3, 0, 1, 2))
    assert subst.to_primed(e) == e


def test_zero_denominator_raises():
    field = FAMILIES["Iplus-standard"].field()
    with pytest.raises(DivisionByZeroParam):
        shift_substitution(field, field.param("bp"), field.zero)


def test_type_II_needs_no_shift():
    assert basis_change("II-standard").is_identity
    assert basis_change("II-nonstandard").is_identity


# -- the published table -------------------------------------------------


def test_table_III_all_rows_match():
    rows = table_III(order=5)
    assert {r.key for r in rows} == set(FAMILIES)
    for row in rows:
        assert row.match, row.key


def test_table_III_standard_rows_keep_matrix_form():
    rows = {r.key: r for r in table_III(order=3)}
    for key in ("Iplus-standard", "Iminus-standard"):
        row = rows[key]
        assert row.matrix_form is not None and not row.closed
        alg = Algebra.classical(row.spec.field, 3)
        assert row.matrix_form == spec_matrix(row.spec, alg)
    for key in ("Iplus-nonstandard", "Iminus-nonstandard", "II-standard", "II-nonstandard"):
        assert rows[key].matrix_form is None and rows[key].closed


def test_table_III_single_family_selection():
    (row,) = [r for r in table_III(order=4) if r.key == "II-nonstandard"]
    assert row.key == "II-nonstandard" and row.match
