"""Deformed coordinate rings: rewrite engine, Hopf axioms, classical limits."""

import random

import pytest

from helpers import antipode_of
from oscquant import cli, funalg
from oscquant.bialgebra import DEFORMATIONS, UnknownDeformation
from oscquant.coeffs import CoefficientField
from oscquant.funalg import (
    LETTER_NAMES,
    FUN_CHECKS,
    FunAlgebra,
    fun_hopf_check,
    fun_presentation,
)
from oscquant.poisson import COORDS, FUN_UNIT, GroupRing, sklyanin_bracket

KEYS = tuple(DEFORMATIONS)
# Word letters, as indices into LETTER_NAMES.
L_THETA, L_E, L_EINV, L_AP, L_AM, L_M = range(6)
ALL_LETTERS = (L_THETA, L_E, L_EINV, L_AP, L_AM, L_M)


def letters(alg):
    return {name: alg.letter(i) for i, name in enumerate(LETTER_NAMES)}


# -- construction and the rewrite engine --------------------------------


def test_registry_and_cache():
    p = fun_presentation("Uz")
    assert fun_presentation("Uz") is p
    with pytest.raises(UnknownDeformation):
        fun_presentation("II")


def test_unmarked_tail_rejected():
    field = CoefficientField.get("z")
    bad = {(L_AM, L_AP): {FUN_UNIT: field.param("z")}}
    with pytest.raises(ValueError, match="unmarked"):
        FunAlgebra(field, bad)


def test_misordered_swap_rule_rejected():
    field = CoefficientField.get("z")
    z = field.marked_param("z")
    # same slot (E and its inverse) or lower slot first: not a swap rule
    for pair in ((L_EINV, L_E), (L_AP, L_M)):
        with pytest.raises(ValueError, match="not an ordered pair"):
            FunAlgebra(field, {pair: {FUN_UNIT: z}})


@pytest.mark.parametrize("key", KEYS)
def test_exponential_letter_inverts(key):
    alg = fun_presentation(key).alg
    E, Einv = alg.letter(L_E), alg.letter(L_EINV)
    assert (E * Einv - alg.one()).is_zero
    assert (Einv * E - alg.one()).is_zero
    # powers collapse into the shared slot
    assert (E * E * Einv - E).is_zero


def test_coord_names_align_with_classical_ring():
    alg = fun_presentation("Uz").alg
    assert alg.names == COORDS
    for name in COORDS:
        e = alg.coord(name)
        assert list(e.terms.values())[0] == alg.field.one


def test_word_of_fun_mono_roundtrip():
    alg = fun_presentation("IIs").alg
    mono = (2, -1, 1, 0, 3)
    word = FunAlgebra.word_of(mono)
    assert word == (L_THETA, L_THETA, L_EINV, L_AP, L_M, L_M, L_M)
    e = alg.normalize_word(word)
    assert set(e.terms) == {(mono,)} or (mono,) in e.terms  # leading term survives


# The swap rules as exponent tuples, (hi, lo) -> {monomial: coefficient},
# each marked parameter carrying one power of the series marker: the oracle
# for the text rules of funalg._SWAPS, in their order.
def _uz_oracle(field):
    z = field.marked_param("z")
    return {
        (L_AP, L_THETA): {(0, 1, 0, 0, 0): -z, FUN_UNIT: z},
        (L_M, L_THETA): {(0, 0, 0, 1, 0): -z},
        (L_AP, L_E): {(0, 2, 0, 0, 0): -z, (0, 1, 0, 0, 0): z},
        (L_AP, L_EINV): {FUN_UNIT: z, (0, -1, 0, 0, 0): -z},
        (L_M, L_E): {(0, 1, 0, 1, 0): -z},
        (L_M, L_EINV): {(0, -1, 0, 1, 0): z},
        (L_AM, L_AP): {(0, 0, 0, 1, 0): z},
        (L_M, L_AP): {(0, 0, 1, 1, 0): -z, (0, 0, 0, 1, 0): -z * z},
        (L_M, L_AM): {(0, 0, 0, 2, 0): z},
    }


def _iin_oracle(field):
    x, bp, yp = (field.marked_param(n) for n in ("x", "bp", "yp"))
    return {
        (L_M, L_AP): {(0, 0, 1, 0, 0): x, (0, 1, 0, 0, 0): -bp, FUN_UNIT: bp},
        (L_M, L_AM): {(0, 0, 0, 1, 0): -x, (0, -1, 0, 0, 0): -yp, FUN_UNIT: yp},
    }


def _iis_oracle(field):
    z = field.marked_param("z")
    return {
        (L_M, L_AP): {(0, 0, 1, 0, 0): -z},
        (L_M, L_AM): {(0, 0, 0, 1, 0): -z},
    }


ORACLE = {"Uz": _uz_oracle, "IIn": _iin_oracle, "IIs": _iis_oracle}


@pytest.mark.parametrize("key", KEYS)
def test_text_rules_read_as_the_exponent_oracle(key):
    alg = fun_presentation(key).alg
    want = ORACLE[key](alg.field)
    # in order: frt_relations walks the rules, and prints them, as stored
    assert [(pair, list(tail.items())) for pair, tail in alg.tails.items()] == [
        (pair, list(tail.items())) for pair, tail in want.items()
    ]


def test_uz_relations_match_stated_forms():
    alg = fun_presentation("Uz").alg
    g = letters(alg)
    z = alg.field.marked_param("z")
    one = alg.one()

    def comm(a, b):
        return g[a] * g[b] - g[b] * g[a]

    assert (comm("theta", "a_plus") - (g["E"] - one).scale(z)).is_zero
    assert comm("theta", "a_minus").is_zero
    assert (comm("a_minus", "a_plus") - g["a_minus"].scale(z)).is_zero
    assert (comm("theta", "m") - g["a_minus"].scale(z)).is_zero
    # [a+, m] = z a- a+ ; the engine's own product supplies the normal order
    assert (comm("a_plus", "m") - (g["a_minus"] * g["a_plus"]).scale(z)).is_zero
    assert (comm("a_minus", "m") + (g["a_minus"] * g["a_minus"]).scale(z)).is_zero


def test_iin_relations_match_stated_forms():
    alg = fun_presentation("IIn").alg
    g = letters(alg)
    f = alg.field
    x, bp, yp = (f.marked_param(n) for n in ("x", "bp", "yp"))
    one = alg.one()

    def comm(a, b):
        return g[a] * g[b] - g[b] * g[a]

    assert (comm("a_plus", "m") + g["a_plus"].scale(x) - (g["E"] - one).scale(bp)).is_zero
    assert (comm("a_minus", "m") - g["a_minus"].scale(x) - (g["Einv"] - one).scale(yp)).is_zero
    for a, b in (("theta", "a_plus"), ("theta", "a_minus"), ("a_minus", "a_plus"), ("theta", "m")):
        assert comm(a, b).is_zero


def test_iis_relations_match_stated_forms():
    alg = fun_presentation("IIs").alg
    g = letters(alg)
    z = alg.field.marked_param("z")

    def comm(a, b):
        return g[a] * g[b] - g[b] * g[a]

    assert (comm("a_plus", "m") - g["a_plus"].scale(z)).is_zero
    assert (comm("a_minus", "m") - g["a_minus"].scale(z)).is_zero
    for a, b in (("theta", "a_plus"), ("theta", "a_minus"), ("a_minus", "a_plus"), ("theta", "m")):
        assert comm(a, b).is_zero


def test_uz_exponential_rules_are_conjugations():
    """The E rules must be the exponentials of the theta rules."""
    alg = fun_presentation("Uz").alg
    g = letters(alg)
    z = alg.field.marked_param("z")
    one = alg.one()
    # E a+ E^-1 = a+ + z(E - 1)
    assert (g["E"] * g["a_plus"] * g["Einv"] - g["a_plus"] - (g["E"] - one).scale(z)).is_zero
    # [E, a+] = z E (E - 1)
    comm = g["E"] * g["a_plus"] - g["a_plus"] * g["E"]
    assert (comm - (g["E"] * (g["E"] - one)).scale(z)).is_zero
    # [E, m] = z E a-
    comm = g["E"] * g["m"] - g["m"] * g["E"]
    assert (comm - (g["E"] * g["a_minus"]).scale(z)).is_zero


@pytest.mark.parametrize("key", KEYS)
def test_classical_limit_is_commutative(key):
    alg = fun_presentation(key).alg
    for i in ALL_LETTERS:
        for j in ALL_LETTERS:
            a, b = alg.letter(i), alg.letter(j)
            assert (a * b - b * a).h_part(0).is_zero
            assert (a * b).h_part(0) == (b * a).h_part(0)


@pytest.mark.parametrize("key", KEYS)
def test_confluence_exhaustive_short_words(key):
    alg = fun_presentation(key).alg
    for w1 in ALL_LETTERS:
        for w2 in ALL_LETTERS:
            for w3 in ALL_LETTERS:
                word = (w1, w2, w3)
                assert alg.normalize_word(word) == alg.normalize_word(word, rightmost=True)


@pytest.mark.parametrize("key", KEYS)
def test_confluence_random_words(key):
    alg = fun_presentation(key).alg
    rng = random.Random(20260823)
    for _ in range(60):
        word = tuple(rng.choice(ALL_LETTERS) for _ in range(5))
        assert alg.normalize_word(word) == alg.normalize_word(word, rightmost=True)


@pytest.mark.parametrize("key", KEYS)
def test_associativity_random_monomials(key):
    alg = fun_presentation(key).alg
    rng = random.Random(7)
    monos = [
        (rng.randrange(2), rng.randrange(-1, 2), rng.randrange(2), rng.randrange(2), rng.randrange(2))
        for _ in range(8)
    ]
    es = [alg.monomial(m) for m in monos]
    for _ in range(12):
        a, b, c = rng.sample(es, 3)
        assert ((a * b) * c) == (a * (b * c))


def test_truncation_order_drops_high_marker_terms():
    exact = fun_presentation("Uz").alg
    alg = FunAlgebra(exact.field, exact.tails, 1)
    ap, m = alg.letter(L_AP), alg.letter(L_M)
    comm = ap * m - m * ap
    # exact value has a z^2 a- piece; at order 1 only z a+ a- survives
    assert comm.h_part(2).is_zero
    z = alg.field.marked_param("z")
    apam = (alg.letter(L_AP) * alg.letter(L_AM)).scale(z)
    assert (comm - apam).is_zero


# -- the shared Hopf structure ------------------------------------------


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("check", ["homomorphism", "coassociativity", "counit", "antipode"])
def test_hopf_axiom(key, check):
    p = fun_presentation(key)
    ok, residuals = FUN_CHECKS[check](p)
    assert ok, residuals


def test_fun_hopf_check_runs_every_check():
    results = fun_hopf_check(fun_presentation("IIn"))
    assert list(results) == list(FUN_CHECKS)
    assert all(ok for ok, _ in results.values()), results


@pytest.mark.parametrize("key", KEYS)
def test_classical_coproduct_is_group_law(key):
    p = fun_presentation(key)
    ok, residuals = FUN_CHECKS["group-law"](p)
    assert ok, residuals


@pytest.mark.parametrize("key", KEYS)
def test_first_order_commutators_are_sklyanin_brackets(key):
    p = fun_presentation(key)
    ok, residuals = FUN_CHECKS["semiclassical"](p)
    assert ok, residuals


def test_counit_scalar_is_evaluation_at_identity():
    p = fun_presentation("IIn")
    one = p.field.one
    zero = p.field.zero
    assert p.counit_scalar((0, 0, 0, 0, 0)) == one
    assert p.counit_scalar((0, 5, 0, 0, 0)) == one
    assert p.counit_scalar((0, -3, 0, 0, 0)) == one
    for mono in ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 2, 0, 1, 0), (0, 0, 0, 0, 1)):
        assert p.counit_scalar(mono) == zero


def test_antipode_classical_limit_inverts_the_group():
    """gamma at h^0 must be the pullback of matrix inversion."""
    p = fun_presentation("Uz")
    alg = p.alg
    g = letters(alg)
    expect = {
        "theta": -g["theta"],
        "E": g["Einv"],
        "Einv": g["E"],
        "a_plus": -(g["Einv"] * g["a_plus"]),
        "a_minus": -(g["E"] * g["a_minus"]),
        "m": -g["m"] - g["a_plus"] * g["a_minus"],
    }
    for name in LETTER_NAMES:
        got = p.antipode[name]
        assert got.h_part(0) == expect[name].h_part(0), name


def test_antipode_is_antihomomorphism_on_misordered_pairs():
    for key in KEYS:
        p = fun_presentation(key)
        alg = p.alg
        for hi, lo in ((L_M, L_AP), (L_M, L_AM), (L_AM, L_AP), (L_AP, L_THETA)):
            prod = alg.letter(hi) * alg.letter(lo)
            direct = antipode_of(p, prod)
            flipped = p.antipode[LETTER_NAMES[lo]] * p.antipode[LETTER_NAMES[hi]]
            assert (direct - flipped).is_zero, (key, LETTER_NAMES[hi], LETTER_NAMES[lo])


def test_coproduct_of_composite_monomial():
    """Delta on a monomial equals the product of letter images."""
    p = fun_presentation("Uz")
    alg = p.alg
    mono = (1, 1, 1, 0, 1)  # theta E a+ m
    got = p.delta_mono(mono)
    want = (
        p.images["theta"]
        * p.images["E"]
        * p.images["a_plus"]
        * p.images["m"]
    )
    assert (got - want).is_zero


# -- failure detection ---------------------------------------------------


def test_detects_wrong_antipode():
    from oscquant.hopf import HopfPresentation, antipode_check

    p = fun_presentation("IIs")
    alg = p.alg
    broken = dict(p.antipode)
    broken["m"] = -alg.letter(L_M)  # drop the a+ a- correction
    q = HopfPresentation(p.key, alg, p.images, broken, None, p.r)
    q.counit.update(p.counit)
    ok, residuals = antipode_check(q)
    assert not ok
    assert any("m" == tag.split()[-1] for tag, _ in residuals)


def test_detects_a_primitive_a_plus():
    from oscquant.algebra import spread
    from oscquant.funalg import group_law_check
    from oscquant.hopf import HopfPresentation

    p = fun_presentation("Uz")
    images = dict(p.images, a_plus=spread(p.alg.coord("a_plus"), 2))
    q = HopfPresentation(p.key, p.alg, images, p.antipode, None, p.r)
    ok, residuals = group_law_check(q)
    assert not ok
    assert [name for name, _ in residuals] == ["a_plus"]
    assert not residuals[0][1].is_zero


def test_detects_wrong_r_matrix():
    from oscquant.bialgebra import RMatrixSkew
    from oscquant.funalg import semiclassical_check

    p = fun_presentation("Uz")

    class Shadow:
        pass

    q = Shadow()
    q.alg = p.alg
    q.field = p.field
    q.r = RMatrixSkew(p.field, (-p.field.param("z"), 0, 0, 0, 0, 0))
    ok, residuals = semiclassical_check(q)
    assert not ok


def test_semiclassical_uses_chain_rule_through_E():
    """{E, a+} for Uz is z E(E-1): the bracket sees E as e^theta."""
    p = fun_presentation("Uz")
    ring = GroupRing(p.field)
    E = ring.coord("E")
    ap = ring.coord("a_plus")
    got = sklyanin_bracket(p.r, E, ap)
    want = E * (E - ring.one())
    assert (got - want.scale(p.field.param("z"))).is_zero


# One sign-flipped tail per family: the FRT equation and the Sklyanin
# brackets both see it.  The flipped IIn and IIs rings are still Hopf
# algebras (the coproduct stays a homomorphism); the flipped Uz ring is not.
FLIPS = {
    "Uz": (("m", "a_minus"), "-z*a_minus^2", False),
    "IIn": (("m", "a_plus"), "-x*a_plus - bp*(E - 1)", True),
    "IIs": (("m", "a_plus"), "z*a_plus", True),
}


def _lines(prefix, key) -> dict:
    return {r.check: r for r in cli._run((key, cli._kinds(prefix)), 0)}


@pytest.mark.parametrize("key", KEYS)
def test_a_sign_flipped_rule_fails_frt_and_the_brackets(key, monkeypatch):
    pair, text, still_hopf = FLIPS[key]
    assert funalg._SWAPS[key][pair] != text
    monkeypatch.setitem(funalg._SWAPS[key], pair, text)
    monkeypatch.setattr(funalg, "_cache", {})
    frt = _lines("frt-", key)["frt-relations"]
    assert frt.status == "fail"
    assert len(frt.residuals) == 2
    fun = _lines("fun-", key)
    assert fun["fun-semiclassical"].status == "fail"
    assert fun["fun-semiclassical"].residuals
    assert (fun["fun-homomorphism"].status == "pass") is still_hopf


@pytest.mark.parametrize(
    "pair, wrong",
    [(("m", "a_plus"), False), (("m", "theta"), True)],
    ids=["on-T-read-unnecessary", "theta-read-necessary"],
)
def test_frt_necessity_names_a_misread_rule(pair, wrong, monkeypatch):
    built = cli.frt_relations

    def misread(key):
        rep = built(key)
        return {**rep, "necessary": {**rep["necessary"], pair: wrong}}

    monkeypatch.setattr(cli, "frt_relations", misread)
    line = _lines("frt-", "Uz")["frt-necessity"]
    assert line.status == "fail"
    assert line.residuals == (f"rule {pair}: necessary={wrong}, expected={not wrong}",)
