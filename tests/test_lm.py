"""Coproduct construction: matrix exponentials, basis shifts, table recovery."""

import pytest

from oscquant.algebra import (
    A,
    AM,
    AP,
    M,
    UNIT_MONO,
    Algebra,
    exp_series,
    spread,
    tensor,
)
from oscquant.bialgebra import FAMILIES, GEN_LABELS, GEN_MONOS, RMatrixSkew
from oscquant.coeffs import CoefficientField
from oscquant.hopf import counit_check
from oscquant.lm import (
    DivisionByZeroParam,
    LMSpec,
    NoncommutingEntries,
    Substitution,
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


def test_exp_of_zero_matrix_is_identity():
    alg = zalg(4)
    zero, one = alg.zero(), alg.one()
    mat = ((zero, zero), (zero, zero))
    assert matrix_exp(mat) == ((one, zero), (zero, one))


def test_exp_of_diagonal_matrix_is_entrywise_scalar_series():
    alg = zalg(5)
    d = alg.gen(AP).scale(ZF.marked_param("z"))
    p = matrix_exp(((d, alg.zero()), (alg.zero(), d)))
    e = exp_series(d)
    assert p == ((e, alg.zero()), (alg.zero(), e))


def test_exp_rejects_noncommuting_entries():
    alg = zalg(3)
    z = ZF.marked_param("z")
    mat = ((alg.gen(A).scale(z), alg.gen(AP).scale(z)), (alg.zero(), alg.zero()))
    with pytest.raises(NoncommutingEntries):
        matrix_exp(mat)


def test_exp_rejects_unmarked_entries():
    alg = zalg(3)
    mat = ((alg.gen(AP), alg.zero()), (alg.zero(), alg.zero()))
    with pytest.raises(ValueError, match="order-0"):
        matrix_exp(mat)


def test_exp_needs_a_truncation_order():
    alg = Algebra.classical(ZF)  # exact: no order to inherit
    with pytest.raises(ValueError, match="order"):
        matrix_exp(((alg.zero(),),))


def test_iplus_nonstandard_exp_matches_closed_form_orders_1_to_6():
    spec = family_spec("Iplus-nonstandard")
    for order in range(1, 7):
        alg = Algebra.classical(spec.field, order)
        assert matrix_exp(spec_matrix(spec, alg), order) == iplus_nonstandard_closed(alg)


def test_closed_form_nilpotent_part_squares_to_zero():
    spec = family_spec("Iplus-nonstandard")
    alg = Algebra.classical(spec.field, 6)
    field = alg.field
    ap, x = field.marked_param("ap"), field.marked_param("x")
    gM = alg.gen(M)
    b = (
        (gM.scale(-x), gM.scale(-(x * x / ap))),
        (gM.scale(ap), gM.scale(x)),
    )
    for i in range(2):
        for j in range(2):
            sq = b[i][0] * b[0][j] + b[i][1] * b[1][j]
            assert sq.is_zero


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
    alg = cp.algebra()
    for i, label in enumerate(GEN_LABELS):
        assert cp.images[label] == spread(alg.gen(i), 2)
    assert cp.basis_note == ""


def test_type_II_nonstandard_creation_image():
    # Delta(Ap) = 1 (x) Ap + Ap (x) e^{-x M}
    cp = lm_coproduct(family_spec("II-nonstandard"), 5)
    alg = cp.algebra()
    x = alg.field.marked_param("x")
    expected = tensor(alg.one(), alg.gen(AP)) + tensor(
        alg.gen(AP), exp_series(alg.gen(M).scale(-x))
    )
    assert cp.images["Ap"] == expected


def test_II_standard_A_image_has_cross_term():
    cp = lm_coproduct(family_spec("II-standard"), 4)
    field = cp.spec.field
    key = (GEN_MONOS[AP], GEN_MONOS[M])
    assert cp.images["A"].terms[key] == field.marked_param("bp")


def test_primitive_images_are_primitive_for_all_families():
    for key in FAMILIES:
        spec = family_spec(key)
        cp = lm_coproduct(spec, 3)
        alg = cp.algebra()
        for h in spec.primitives:
            assert cp.images[GEN_LABELS[h]] == spread(alg.gen(h), 2)


def test_counit_axiom_all_families():
    for key in FAMILIES:
        ok, bad = counit_check(lm_coproduct(family_spec(key), 4).presentation())
        assert ok, (key, bad)


def test_basis_note_recorded_only_when_shifted():
    assert lm_coproduct(family_spec("Iplus-nonstandard"), 2).basis_note != ""
    assert lm_coproduct(family_spec("II-standard"), 2).basis_note == ""


def test_nonzero_mu_accepted():
    # mu != 0 drops the 1(x)X convention but keeps the counit axiom.
    field = CoefficientField.get("x")
    x = field.marked_param("x")
    spec = LMSpec(field, (M,), (AP,), (((field.zero,),),), mu=(((x,),),))
    cp = lm_coproduct(spec, 4)
    alg = cp.algebra()
    expected = tensor(exp_series(alg.gen(M).scale(x)), alg.gen(AP)) + tensor(
        alg.gen(AP), alg.one()
    )
    assert cp.images["Ap"] == expected
    assert counit_check(cp.presentation())[0]


# -- first order ---------------------------------------------------------


def test_first_order_matches_cocommutators_all_families():
    for key, fam in FAMILIES.items():
        assert first_order_check(family_spec(key), fam.r(marked=True)), key


def test_first_order_accepts_unmarked_r():
    fam = FAMILIES["Iminus-standard"]
    assert first_order_check(family_spec(fam), fam.r(marked=False))


def test_first_order_trivial():
    spec = trivial_spec()
    assert first_order_check(spec, RMatrixSkew(spec.field, [0] * 6))


def test_first_order_detects_mismatch():
    fam = FAMILIES["Iplus-nonstandard"]
    wrong = fam.r(marked=True).map_coeffs(lambda c: -c)
    assert not first_order_check(family_spec(fam), wrong)


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
    (row,) = table_III("II-nonstandard", order=4)
    assert row.key == "II-nonstandard" and row.match
