"""Universal R-matrices: series checks, exact matrix image, FRT relations."""

import operator
import tracemalloc

import pytest

from helpers import rep3_check, subs
from oscquant.algebra import A, AM, AP, M, _exp_sum, embed, exp_series, tensor
from oscquant.bialgebra import DEFORMATIONS, UnknownDeformation
from oscquant.coeffs import CoefficientField
from oscquant.funalg import FunAlgebra, fun_presentation
from oscquant.hopf import presentation
from oscquant.poisson import COORDS, t_matrix
from oscquant.rmatrix import (
    FreeElement,
    ScalarMatrix,
    UniversalR,
    _frt_defect,
    _gen_matrices,
    CONJUGATION_CASES,
    conjugation_check,
    d_matrix,
    expansion_base_check,
    free_t_matrix,
    frt_relations,
    intertwining_check,
    inverse_check,
    qybe_check,
    qybe_exact_matrix,
    qybe_exact_rep,
    refactorization_check,
    rep3,
    two_step_intertwining_check,
    universal_R,
)

R_KEYS = tuple(DEFORMATIONS)
ORDERS = {"Uz": 4, "IIn": 3, "IIs": 4}


def _R(key, order=None):
    return universal_R(key, ORDERS[key] if order is None else order)


# -- reference oracles: dense series, independent of the factored form ----


def _neumann_inverse(R):
    """(1⊗1 + N)⁻¹ = Σ (−N)^k with N = R − 1⊗1 of positive order."""
    unit = R.alg.tensor_unit(2)
    n = R.expansion - unit
    total, term = unit, unit
    for _ in range(R.alg.order):
        term = term * (-n)
        if term.is_zero:
            break
        total = total + term
    return total


def _dense_qybe(R):
    """R₁₂R₁₃R₂₃ − R₂₃R₁₃R₁₂ as two literal triple products."""
    r12, r13, r23 = (R.embedded(positions) for positions in ((0, 1), (0, 2), (1, 2)))
    return r12 * r13 * r23 - r23 * r13 * r12


ORACLE_CASES = [(key, order) for key in R_KEYS for order in (2, 3, 4)] + [("Uz", 5), ("IIs", 5)]


@pytest.mark.parametrize("key, order", ORACLE_CASES)
def test_factored_inverse_is_the_neumann_series(key, order):
    R = universal_R(key, order)
    assert R.inverse == _neumann_inverse(R)


@pytest.mark.parametrize("key, order", ORACLE_CASES)
def test_qybe_check_agrees_with_the_dense_product(key, order):
    R = universal_R(key, order)
    ok, residuals = qybe_check(R)
    assert ok, residuals
    assert _dense_qybe(R).is_zero


def test_reversed_factors_fail_qybe_both_ways():
    """Swapping the two exponentials of the ``Uz`` R gives no solution: the
    conjugated check and the dense product both fail, and the check's
    residual is the dense difference times R₁₂⁻¹."""
    good = universal_R("Uz", 3)
    R = UniversalR("Uz", good.presentation, reversed(good.factors), None)
    ok, residuals = qybe_check(R)
    dense = _dense_qybe(R)
    assert not ok
    assert not dense.is_zero
    assert residuals == [("qybe", dense * embed(_neumann_inverse(R), (0, 1), 3))]


@pytest.mark.parametrize("key", R_KEYS)
def test_conjugation_is_multiplicative(key):
    """Conjugation by R₁₂ is an algebra automorphism of the 3-fold tensor
    algebra, which lets ``qybe_check`` conjugate R₁₃ and R₂₃ one at a time."""
    R = universal_R(key, 3)
    r13, r23 = R.embedded((0, 2)), R.embedded((1, 2))
    assert R.conjugate(r13 * r23) == R.conjugate(r13) * R.conjugate(r23)


def test_unknown_family_rejected():
    with pytest.raises(UnknownDeformation):
        universal_R("Iplus", 3)
    with pytest.raises(UnknownDeformation):
        d_matrix("nope")
    with pytest.raises(UnknownDeformation):
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


def test_qybe_iin_never_holds_two_products():
    """For ``IIn`` conjugation returns R₁₃ and R₂₃ unchanged, so the residual
    is [R₁₃, R₂₃], accumulated in one dict with its commuting pairs never
    formed.  Holding R₁₃R₂₃ and R₂₃R₁₃ at once peaks at about 9 MiB at this
    order."""
    R = universal_R("IIn", 5)
    R.expansion
    tracemalloc.start()
    try:
        ok, residuals = qybe_check(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok, residuals
    assert peak < 4 * 2**20


def test_qybe_iin_walks_each_pair_of_terms_once():
    """The commutator adds both products of each noncommuting pair of terms
    in one walk, so it never holds R₁₃R₂₃ whole before R₂₃R₁₃ cancels it.
    With the rewrite caches warm, the check peaks at about 1.0 MiB at this
    order; walking R₁₃R₂₃ and then R₂₃R₁₃ peaked at 2.4 MiB."""
    R = universal_R("IIn", 5)
    qybe_check(R)
    tracemalloc.start()
    try:
        ok, residuals = qybe_check(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok, residuals
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize("key", R_KEYS)
@pytest.mark.parametrize("order", [2, 3, 4])
def test_embedded_R_is_the_arity3_exponential_product(key, order):
    """R₁₂, R₁₃, R₂₃ placed from the expansion equal the factor product
    rebuilt from exponentials of the embedded factors."""
    R = universal_R(key, order)
    for positions in ((0, 1), (0, 2), (1, 2)):
        rebuilt = R.alg.tensor_unit(3)
        for f in R.factors:
            rebuilt = rebuilt * exp_series(embed(f, positions, 3))
        assert R.embedded(positions) == rebuilt, positions


def test_qybe_trivial_r():
    p = presentation("Uz", 3)
    unit_r = UniversalR("unit", p, [], None)
    assert qybe_check(unit_r)[0]
    assert inverse_check(unit_r)[0]


@pytest.mark.parametrize("key", R_KEYS)
def test_intertwining(key):
    ok, residuals = intertwining_check(_R(key))
    assert ok, [tag for tag, _ in residuals]


@pytest.mark.parametrize("key", R_KEYS)
def test_exp_ad_matches_dense_conjugation(key):
    # The fast path (nested exponentials of ad over the factors) must agree
    # with the literal product R * t * R^{-1}, R^{-1} the Neumann series.
    R = universal_R(key, 3)
    inverse = _neumann_inverse(R)
    for name in ("A", "Ap", "Am", "M"):
        t = R.presentation.images[name]
        assert R.conjugate(t) == R.expansion * t * inverse, (key, name)


def test_exp_ad_rejects_nonterminating_chain():
    from oscquant.algebra import spread, tensor
    from oscquant.rmatrix import exp_ad

    p = presentation("Uz", 3)
    alg = p.alg
    # An unmarked factor never raises the truncation order: the ad chain
    # cannot die, and the helper must refuse rather than loop.
    bare = tensor(alg.gen(AP), alg.gen(A))
    with pytest.raises(ValueError, match="terminate"):
        exp_ad(bare, spread(alg.gen(AM), 2))


def test_exp_ad_needs_a_truncation_order():
    from oscquant.algebra import Algebra, spread, tensor
    from oscquant.rmatrix import exp_ad

    alg = Algebra.classical(presentation("Uz", 3).field)
    with pytest.raises(ValueError, match="truncation order"):
        exp_ad(tensor(alg.gen(AP), alg.gen(M)), spread(alg.gen(A), 2))


def test_two_step_conjugation():
    ok, residuals = two_step_intertwining_check(universal_R("Uz", 5))
    assert ok, [tag for tag, _ in residuals]


def test_conjugation_identities():
    R = universal_R("IIn", 4)
    for tag in CONJUGATION_CASES:
        ok, residuals = conjugation_check(R, tag)
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
    assert rep3(tensor(alg.one())) == ScalarMatrix.identity(alg.field, 3)


def test_primed_creation_matrix_collapses():
    """D(e^{−zM})·D(A₊) = D(A₊), z marked or not: D(M) is nilpotent and
    annihilates D(A₊) on the left, so ``d_matrix`` may take the primed
    creation leg of ``IIs`` as D(A₊)."""
    field = CoefficientField.get("z")
    g = _gen_matrices(field)
    eye = ScalarMatrix.identity(field, 3)
    for z in (field.param("z"), field.marked_param("z")):
        exponent = g[M].scale(-z)
        exp_m = _exp_sum(eye, lambda t: t * exponent, 3)
        assert exp_m != eye
        assert exp_m * g[AP] == g[AP]


@pytest.mark.parametrize("key", R_KEYS)
def test_expansion_collapses_to_matrix_form(key):
    """(D⊗D)(series R) = ∏ exp((D⊗D)F_k): the truncated series and the
    exact product of matrix exponentials, both from ``_exponents``."""
    assert rep3(_R(key).expansion) == d_matrix(key)


@pytest.mark.parametrize("key", ("Uz", "IIn"))
def test_literal_reading_changes_nothing_without_a_primed_leg(key):
    assert d_matrix(key, "literal-A") == d_matrix(key)


def test_literal_reading_replaces_the_primed_leg_by_a():
    """For ``IIs`` the literal-A reading only swaps D(A₊) for D(A) in the
    creation leg of 1 + 2z·A₋⊗A₊'."""
    field = DEFORMATIONS["IIs"].field()
    g = _gen_matrices(field)
    z = field.marked_param("z")
    want = (g[AM].kron(g[A]) - g[AM].kron(g[AP])).scale(2 * z)
    assert d_matrix("IIs", "literal-A") - d_matrix("IIs") == want


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
        assert subs(c, {"z": 0}).is_zero
        assert subs(c / z, {"z": 0}).is_zero


@pytest.mark.parametrize("key", R_KEYS)
def test_d_matrix_rejects_an_unknown_primed_reading(key):
    with pytest.raises(ValueError, match="primed_reading"):
        d_matrix(key, primed_reading="bogus")


def test_flip_conjugation_places_a_two_site_matrix_at_sites_1_and_3():
    """P₂₃(R⊗1)P₂₃ is R acting on sites 1 and 3: entry ((a,k,b),(c,k,d))
    is R[(a,b),(c,d)] for every spare index k, for a 9×9 R whose 81
    entries are distinct."""
    field = CoefficientField.get("z")
    r = ScalarMatrix(field, 9, {(i, j): field.rational(9 * i + j + 1) for i in range(9) for j in range(9)})
    eye = ScalarMatrix.identity(field, 3)
    p23 = eye.kron(ScalarMatrix.flip(field, 3))
    want = {
        (9 * a + 3 * k + b, 9 * c + 3 * k + d): r.entries[(3 * a + b, 3 * c + d)]
        for a in range(3)
        for b in range(3)
        for c in range(3)
        for d in range(3)
        for k in range(3)
    }
    assert p23 * r.kron(eye) * p23 == ScalarMatrix(field, 27, want)


def test_flip_conjugation_of_t_kron_t_reverses_the_factors():
    """P(T⊗T)P has T_ab·T_ij at ((i,a),(j,b)): over the free words the
    entries do not commute, so this pins the factor order of T₂T₁."""
    field = CoefficientField.get("z")
    t = free_t_matrix(field)
    flip = ScalarMatrix.flip(field, 3)
    want = {
        (3 * i + a, 3 * j + b): t.entries[(a, b)] * t.entries[(i, j)]
        for (i, j) in t.entries
        for (a, b) in t.entries
    }
    got = flip * t.kron(t) * flip
    assert got == ScalarMatrix(field, 9, want)
    assert got != t.kron(t)


def test_exact_qybe_identity_matrix():
    field = CoefficientField.get("z")
    ok, _ = qybe_exact_matrix(ScalarMatrix.identity(field, 9))
    assert ok


def test_exact_qybe_of_a_non_solution_reports_its_difference():
    """A 9×9 matrix with 81 distinct entries breaks the braid identity; the
    check reports it as one labelled, nonzero 27×27 difference."""
    field = CoefficientField.get("z")
    r = ScalarMatrix(field, 9, {(i, j): field.rational(9 * i + j + 1) for i in range(9) for j in range(9)})
    ok, residuals = qybe_exact_matrix(r)
    assert not ok
    [(label, diff)] = residuals
    assert label == "qybe-exact"
    assert diff.dim == 27 and not diff.is_zero


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


# -- FRT ----------------------------------------------------------------


def _frt_rings(key):
    """The quantized coordinate ring of ``key`` and each ring with one of
    its commutation rules dropped."""
    alg = fun_presentation(key).alg
    yield alg
    for pair in alg.tails:
        yield FunAlgebra(alg.field, {p: t for p, t in alg.tails.items() if p != pair}, label="minus one rule")


@pytest.mark.parametrize("key", R_KEYS)
def test_frt_free_defect_evaluates_to_the_ring_defect(key):
    """The defect formed over T in a ring equals the free defect with each
    entry evaluated in that ring, in the quantized ring, where it vanishes,
    and in every ring with one rule dropped, some of which it does not."""
    r9 = d_matrix(key)
    free = _frt_defect(r9, free_t_matrix(r9.field))
    vanishes = []
    for ring in _frt_rings(key):
        direct = _frt_defect(r9, t_matrix({n: ring.coord(n) for n in COORDS}, ring.one().scale))
        assert direct == ScalarMatrix(r9.field, 9, {pos: e.into(ring) for pos, e in free.entries.items()})
        vanishes.append(direct.is_zero)
    assert vanishes[0] and not all(vanishes)


def test_frt_forms_its_defect_once(monkeypatch):
    calls = []

    def counted(r9, t):
        calls.append(t)
        return _frt_defect(r9, t)

    monkeypatch.setattr("oscquant.rmatrix._frt_defect", counted)
    assert frt_relations("IIn")["ok"]
    assert len(calls) == 1


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
    nonzero = list(_frt_defect(eye, free_t_matrix(field)).entries.values())
    assert nonzero  # the free defect is not trivially zero...
    assert all(e.into(commutative).is_zero for e in nonzero)  # ...only commutativity kills it
    deformed = fun_presentation("Uz").alg
    assert any(not e.into(deformed).is_zero for e in nonzero)
