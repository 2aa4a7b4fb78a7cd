"""Universal R-matrices: series checks, exact matrix image, FRT relations."""

import operator

import pytest

from oscquant.algebra import A, AM, AP, M
from oscquant.coeffs import CoefficientField
from oscquant.funalg import FunAlgebra, fun_presentation
from oscquant.hopf import presentation
from oscquant.rmatrix import (
    R_KEYS,
    FreeElement,
    ScalarMatrix,
    UniversalR,
    UnsupportedFamily,
    _frt_defect,
    _gen_matrices,
    conjugation_identity_check,
    d_matrix,
    expansion_base_check,
    free_t_matrix,
    frt_relations,
    fun_t_matrix,
    intertwining_check,
    inverse_check,
    primed_creation_matrix,
    qybe_check,
    qybe_exact_matrix,
    qybe_exact_rep,
    refactorization_check,
    rep3,
    rep3_check,
    rep3_tensor,
    two_step_intertwining_check,
    universal_R,
)

ORDERS = {"Uz": 4, "IIn": 3, "IIs": 4}


def _R(key, order=None):
    return universal_R(key, ORDERS[key] if order is None else order)


def test_unknown_family_rejected():
    with pytest.raises(UnsupportedFamily):
        universal_R("Iplus", 3)
    with pytest.raises(UnsupportedFamily):
        d_matrix("nope")
    with pytest.raises(UnsupportedFamily):
        frt_relations("nope")


@pytest.mark.parametrize("key", R_KEYS)
def test_expansion_base(key):
    ok, residuals = expansion_base_check(_R(key))
    assert ok, residuals


@pytest.mark.parametrize("key", R_KEYS)
def test_refactorizations_agree(key):
    ok, residuals = refactorization_check(_R(key))
    assert ok, residuals


@pytest.mark.parametrize("key", R_KEYS)
def test_series_inverse(key):
    ok, residuals = inverse_check(_R(key))
    assert ok, residuals


def test_qybe_uz_order_five():
    ok, residuals = qybe_check(_R("Uz", 5))
    assert ok, residuals


@pytest.mark.parametrize("key", ["IIn", "IIs"])
def test_qybe_other_families(key):
    ok, residuals = qybe_check(_R(key))
    assert ok, residuals


def test_qybe_trivial_r():
    p = presentation("Uz", 3)
    unit_r = UniversalR("unit", p, [], p.alg.tensor_zero(2))
    assert qybe_check(unit_r)[0]
    assert inverse_check(unit_r)[0]


@pytest.mark.parametrize("key", R_KEYS)
def test_intertwining(key):
    ok, residuals = intertwining_check(_R(key))
    assert ok, [tag for tag, _ in residuals]


@pytest.mark.parametrize("key", R_KEYS)
def test_exp_ad_matches_dense_conjugation(key):
    # The fast path (nested exponentials of ad over the factors) must agree
    # with the literal product R * t * R^{-1} computed from the series.
    R = universal_R(key, 3)
    for name in ("A", "Ap", "Am", "M"):
        t = R.presentation.images[name]
        assert R.conjugate(t) == R.expansion * t * R.inverse, (key, name)


def test_exp_ad_rejects_nonterminating_chain():
    from oscquant.algebra import spread, tensor
    from oscquant.rmatrix import exp_ad

    p = presentation("Uz", 3)
    alg = p.alg
    # An unmarked factor never raises the truncation order: the ad chain
    # cannot die, and the helper must refuse rather than loop.
    bare = tensor(alg.gen(AP), alg.gen(A))
    with pytest.raises(AssertionError):
        exp_ad(bare, spread(alg.gen(AM), 2))


def test_two_step_conjugation():
    ok, residuals = two_step_intertwining_check(5)
    assert ok, [tag for tag, _ in residuals]


def test_conjugation_identities():
    ok, residuals = conjugation_identity_check(4)
    assert ok, [tag for tag, _ in residuals]


# -- the 3x3 representation ---------------------------------------------


def test_rep3_is_homomorphism():
    ok, residuals = rep3_check()
    assert ok, residuals


def test_rep3_commutator_reproduces_central_matrix():
    field = CoefficientField.get("z")
    g = _gen_matrices(field)
    assert (g[AM] * g[AP] - g[AP] * g[AM]) == g[M]
    assert (g[A] * g[AP] - g[AP] * g[A]) == g[AP]
    assert (g[A] * g[AM] - g[AM] * g[A]) == g[AM].scale(-field.one)


def test_rep3_of_unit_is_identity():
    alg = presentation("Uz", 3).alg
    assert rep3(alg.one()) == ScalarMatrix.identity(alg.field, 3)


def test_primed_creation_matrix_collapses():
    field = CoefficientField.get("z")
    assert primed_creation_matrix(field) == _gen_matrices(field)[AP]
    assert primed_creation_matrix(field, marked=True) == _gen_matrices(field)[AP]


@pytest.mark.parametrize("key", R_KEYS)
def test_expansion_collapses_to_matrix_form(key):
    got = rep3_tensor(_R(key).expansion)
    assert got == d_matrix(key, marked=True)


@pytest.mark.parametrize("key", R_KEYS)
def test_exact_qybe_27(key):
    ok, residuals = qybe_exact_rep(key)
    assert ok, residuals


def test_exact_qybe_literal_reading_fails():
    """Substituting the base-diagonal matrix for the primed creation slot
    (the other reading of the finite form) breaks the braid identity."""
    ok, residuals = qybe_exact_rep("IIs", primed_reading="literal-A")
    assert not ok
    diff = residuals[0][1]
    assert len(diff.entries) == 4
    z = diff.field.param("z")
    for c in diff.entries.values():
        # every residual is O(z^2): it survives dividing by z twice
        assert c.subs({"z": 0}).is_zero
        assert (c / z).subs({"z": 0}).is_zero


def test_exact_qybe_identity_matrix():
    field = CoefficientField.get("z")
    ok, _ = qybe_exact_matrix(ScalarMatrix.identity(field, 9))
    assert ok


def test_scalar_matrices_of_other_sizes_or_fields_do_not_mix():
    """A 3×3 and a 9×9 matrix, or matrices over two fields, neither combine
    nor compare; a "size 3" sum holding entries out to (8, 8) is refused."""
    field, other = CoefficientField.get("z"), CoefficientField.get("x", "bp", "yp")
    small = ScalarMatrix.identity(field, 3)
    for mismatched in (ScalarMatrix.identity(field, 9), ScalarMatrix.identity(other, 3)):
        for op in (operator.add, operator.sub, operator.mul, operator.eq):
            with pytest.raises(ValueError):
                op(small, mismatched)


def test_scalar_matrix_repr_lists_sorted_entries():
    field = CoefficientField.get("z")
    z = field.param("z")
    mat = ScalarMatrix(field, 3, {(1, 2): z, (0, 0): field.one, (0, 2): -z})
    assert repr(mat) == "(0,0)=1; (0,2)=-z; (1,2)=z"
    assert repr(ScalarMatrix.zero(field, 3)) == "0"


def test_d_matrix_dense_dump():
    rows = d_matrix("Uz").dense_strings()
    assert len(rows) == 9 and all(len(r) == 9 for r in rows)
    flat = "\n".join(" ".join(r) for r in rows)
    assert "z" in flat


# -- FRT ----------------------------------------------------------------


@pytest.mark.parametrize("key", R_KEYS)
def test_frt_entries_vanish(key):
    rep = frt_relations(key)
    assert rep["ok"], rep["residuals"]


def test_frt_extracted_counts():
    assert len(frt_relations("Uz")["extracted"]) == 8
    assert len(frt_relations("IIn")["extracted"]) == 6
    assert len(frt_relations("IIs")["extracted"]) == 6


def test_frt_necessity_uz():
    need = frt_relations("Uz")["necessary"]
    # rules about letters absent from the group-element matrix can never
    # be exercised; every other rule is required
    assert need == {
        ("a_plus", "theta"): False,
        ("m", "theta"): False,
        ("a_plus", "E"): True,
        ("a_plus", "Einv"): False,
        ("m", "E"): True,
        ("m", "Einv"): False,
        ("a_minus", "a_plus"): True,
        ("m", "a_plus"): True,
        ("m", "a_minus"): True,
    }


@pytest.mark.parametrize("key", ["IIn", "IIs"])
def test_frt_necessity_type_ii(key):
    need = frt_relations(key)["necessary"]
    assert need == {("m", "a_plus"): True, ("m", "a_minus"): True}


def test_frt_extracts_exponential_commutation_rule():
    """[E, a+] = z E(E-1) appears verbatim among the extracted relations."""
    rep = frt_relations("Uz")
    field = fun_presentation("Uz").field
    z = field.marked_param("z")
    word = lambda *names: FreeElement(field, {tuple(names): field.one})
    rel = (
        word("E", "a_plus")
        - word("a_plus", "E")
        - word("E", "E").scale(z)
        + word("E").scale(z)
    )
    assert rel.canonical().render() in rep["extracted"]


def test_frt_identity_r_needs_commutativity():
    """With R = I⊗I the defect is made of bare commutators: it vanishes in
    the commutative ring and nowhere else."""
    field = CoefficientField.get("z")
    eye = ScalarMatrix.identity(field, 9)
    commutative = FunAlgebra(field, {}, label="commutative")
    defect = _frt_defect(eye, fun_t_matrix(commutative), commutative.zero())
    assert all(e.is_zero for e in defect.values())
    free = _frt_defect(eye, free_t_matrix(field), FreeElement(field, {}))
    nonzero = [e for e in free.values() if not e.is_zero]
    assert nonzero  # the free defect is not trivially zero...
    assert all(e.into(commutative).is_zero for e in nonzero)  # ...only commutativity kills it
    deformed = fun_presentation("Uz").alg
    assert any(not e.into(deformed).is_zero for e in nonzero)
