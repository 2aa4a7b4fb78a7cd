"""Coproduct construction: matrix exponentials, the shift, table recovery."""

from fractions import Fraction

import pytest

from helpers import iplus_nonstandard_closed, map_coeffs, trivial_spec
from oscquant import fixtures, lm
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
from oscquant.bialgebra import FAMILIES, GEN_MONOS, RMatrixSkew, cocommutator_map
from oscquant.coeffs import CoefficientField
from oscquant.hopf import cocommutator_check, counit_check
from oscquant.lm import (
    LMSpec,
    NoncommutingEntries,
    family_spec,
    lm_coproduct,
    matrix_exp,
    spec_matrix,
    table_III,
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


SCALAR_BUILDERS = {
    "RMatrixSkew": lambda c: RMatrixSkew(ZF, [c, 0, 0, 0, 0, 0]).c[0],
    "LMSpec": lambda c: LMSpec(ZF, (M,), (A,), [[[c]]]).nu[0].entries[(0, 0)],
}


@pytest.mark.parametrize("build", SCALAR_BUILDERS.values(), ids=SCALAR_BUILDERS)
@pytest.mark.parametrize(
    "entry, error",
    [(CoefficientField.get("x").param("x"), ValueError), ("1", TypeError), (1.5, TypeError), (None, TypeError)],
    ids=["other-field", "str", "float", "None"],
)
def test_entries_lift_by_the_one_coercion_rule(build, entry, error):
    """An entry is lifted as ``CoefficientField.coerce`` lifts it: a
    coefficient of another field raises ``ValueError`` and anything not a
    scalar ``TypeError``, at construction."""
    with pytest.raises(error):
        build(entry)
    assert build(Fraction(1, 2)) == ZF.rational(1, 2)
    assert build(ZF.param("z")).field is ZF


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
        assert cocommutator_check(lm_coproduct(family_spec(key), 1, fam.r(marked=True)))[0], key


def test_first_order_accepts_unmarked_r():
    fam = FAMILIES["Iminus-standard"]
    assert cocommutator_check(lm_coproduct(family_spec(fam), 1, fam.r(marked=False)))[0]


def test_first_order_trivial():
    spec = trivial_spec()
    assert cocommutator_check(lm_coproduct(spec, 1, RMatrixSkew(spec.field, [0] * 6)))[0]


def test_first_order_detects_mismatch():
    # The negated r is a new RMatrixSkew: it forms its own cocommutators
    # instead of being served the memo of the r it was made from.
    fam = FAMILIES["Iplus-nonstandard"]
    right = fam.r(marked=True)
    wrong = map_coeffs(right, lambda c: -c)
    own, shared = cocommutator_map(wrong), cocommutator_map(right)
    assert own is not shared
    assert all(own[name] == -shared[name] for name in GEN_NAMES)
    assert not cocommutator_check(lm_coproduct(family_spec(fam), 1, wrong))[0]


# -- the shift -----------------------------------------------------------


def test_type_II_needs_no_shift():
    assert family_spec("II-standard").shift.is_zero
    assert family_spec("II-nonstandard").shift.is_zero


def test_shift_clears_primitive_pair_terms():
    # Without the shift, delta(A)'s H^M term (Ap^M for I+, Am^M for I-) is
    # left over, and the first-order check fails.
    for key in ("Iplus-standard", "Iminus-standard"):
        fam = FAMILIES[key]
        spec = family_spec(fam)
        assert not spec.shift.is_zero
        z = spec.field.zero
        nu = [[[m.entries.get((k, l), z) for l in range(m.dim)] for k in range(m.dim)] for m in spec.nu]
        unshifted = LMSpec(spec.field, spec.primitives, spec.vector, nu, key=spec.key)
        assert cocommutator_check(lm_coproduct(spec, 1, fam.r(marked=True)))[0], key
        assert not cocommutator_check(lm_coproduct(unshifted, 1, fam.r(marked=True)))[0], key


def test_lm_data_follows_table_I(monkeypatch, request):
    # Drop the bp Ap^M summand from the Iplus-standard cell delta(A): the
    # shift it implied goes, and Table III no longer matches that row.  The
    # spec memo is emptied once the edit is in, so the edited cell is read,
    # and again at teardown, so no later test is served the edited spec.
    load = fixtures.load
    before = family_spec("Iplus-standard")
    assert not before.shift.is_zero

    def edited(name):
        data = load(name)
        if name == "table_I":
            cell = data["Iplus-standard"]["delta"]
            cell["A"] = [s for s in cell["A"] if s != ["bp", "Ap", "M"]]
        return data

    monkeypatch.setattr(fixtures, "load", edited)
    lm._spec.cache_clear()
    request.addfinalizer(lm._spec.cache_clear)
    after = family_spec("Iplus-standard")
    assert after is not before and after.shift.is_zero
    rows = {r.key: r for r in table_III(order=2)}
    assert not rows["Iplus-standard"].match
    assert all(row.match for key, row in rows.items() if key != "Iplus-standard")


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
