"""Hopf-axiom verification for the three fully deformed presentations."""

import gc
import random
import weakref

import pytest

from oscquant import hopf
from oscquant.algebra import A, AM, AP, M, Algebra, exp_series, rebase, spread, tensor
from oscquant.bialgebra import DEFORMATIONS, UnknownDeformation, cocommutator_map
from oscquant.hopf import (
    CHECKS,
    HopfPresentation,
    antipode_check,
    center_check,
    coassociativity_check,
    cocommutator_check,
    counit_check,
    exp_of,
    expm1_over,
    homomorphism_check,
    presentation,
    sinh_over,
    v_series,
)
from oscquant.lm import LMSpec, family_spec, lm_coproduct

KEYS = list(DEFORMATIONS)
FULL_ORDERS = {"Uz": 8, "IIn": 6, "IIs": 6}


# -- named series --------------------------------------------------------


@pytest.mark.parametrize("key", KEYS)
def test_exp_of_is_the_dense_exponential(key):
    for order in range(10):
        alg = presentation(key, order).alg
        for name in alg.field.params:
            c = alg.field.marked_param(name)
            for gen in (A, AP, AM, M):
                for sc in (c, -c):
                    got = exp_of(alg, sc, gen)
                    want = exp_series(alg.gen(gen).scale(sc))
                    assert list(got.terms.items()) == list(want.terms.items()), (order, gen)


def test_expm1_over_matches_exponential():
    p = presentation("Uz", 6)
    z = p.field.marked_param("z")
    assert expm1_over(p.alg, z, AP).scale(z) + 1 == exp_of(p.alg, z, AP)


def test_series_lag_term_is_the_field_unit():
    # The k = lag term c**0/1! must be the field's one object, which the
    # product loops skip instead of multiplying by it.
    p = presentation("IIn", 4)
    x = p.field.marked_param("x")
    for series in (expm1_over(p.alg, x, M), sinh_over(p.alg, x)):
        assert series.terms[((0, 0, 0, 1),)] is p.field.one


def test_v_series_identity_and_limit():
    p = presentation("IIn", 6)
    f = p.field
    x = f.marked_param("x")
    gM = p.alg.gen(M)
    # x^2 v(x) + 1 + x M = e^{x M}
    assert v_series(p.alg, x).scale(x**2) + 1 + gM.scale(x) == exp_of(p.alg, x, M)
    # the parameter-free limit is M^2/2
    half_m2 = p.alg.monomial((0, 0, 0, 2)).scale(f.rational(1, 2))
    assert v_series(p.alg, f.zero) == half_m2


def test_sinh_over_identity():
    p = presentation("IIs", 6)
    z = p.field.marked_param("z")
    lhs = sinh_over(p.alg, z).scale(z).scale(2)
    assert lhs == exp_of(p.alg, z, M) - exp_of(p.alg, -z, M)


# -- construction --------------------------------------------------------


def test_presentation_registry_and_cache():
    p = presentation("Uz", 4)
    assert p is presentation("Uz", 4)
    assert p.order == 4 and p.alg.order == 4
    with pytest.raises(UnknownDeformation):
        presentation("bogus", 4)


OTHERS = [("Uz", 2), ("IIs", 2), ("IIn", 2)]


def test_a_held_presentation_stays_the_one_instance():
    p = presentation("Uz", 3)
    for key, order in OTHERS:
        presentation(key, order)
    assert presentation("Uz", 3) is p
    # one algebra, so elements of the two calls combine
    assert (p.images["A"] - presentation("Uz", 3).images["A"]).is_zero


def test_an_unheld_presentation_is_released():
    ref = weakref.ref(presentation("Uz", 3))
    for key, order in OTHERS:
        presentation(key, order)
    gc.collect()
    assert ref() is None


def test_the_cache_grows_by_one_on_a_first_build_only():
    # perfbench/spans.py counts hopf.presentation.builds as the growth of
    # len(hopf._cache) during one call
    assert ("IIs", 11) not in hopf._cache  # an order no other test asks for
    before = len(hopf._cache)
    p = presentation("IIs", 11)
    assert len(hopf._cache) == before + 1
    assert presentation("IIs", 11) is p
    assert len(hopf._cache) == before + 1
    assert all(isinstance(k, tuple) and len(k) == 2 for k in hopf._cache)


@pytest.mark.parametrize("key", KEYS)
def test_order_zero_is_classical(key):
    p = presentation(key, 0)
    alg = p.alg
    one = p.field.one
    expected = {
        (AP, A): {((1, 1, 0, 0),): one, ((0, 1, 0, 0),): -one},
        (AM, A): {((1, 0, 1, 0),): one, ((0, 0, 1, 0),): one},
        (AM, AP): {((0, 1, 1, 0),): one, ((0, 0, 0, 1),): one},
    }
    for (hi, lo), want in expected.items():
        got = alg.gen(hi) * alg.gen(lo)
        assert got.terms == want, (key, hi, lo)


@pytest.mark.parametrize("key", KEYS)
def test_classical_limit_of_coalgebra(key):
    p = presentation(key, 4)
    for i, name in enumerate(("A", "Ap", "Am", "M")):
        g = p.alg.gen(i)
        assert p.images[name].h_part(0) == spread(g, 2), name
        assert p.antipode[name].h_part(0) == -g, name
        assert p.counit[name].is_zero


@pytest.mark.parametrize("key", KEYS)
def test_confluence_exhaustive_degree_three(key):
    alg = presentation(key, 5).alg
    for a in range(4):
        for b in range(4):
            for c in range(4):
                word = (a, b, c)
                left = alg.normalize_word(word)
                right = alg.normalize_word(word, rightmost=True)
                assert left == right, word


@pytest.mark.parametrize("key", KEYS)
def test_confluence_random_degree_five(key):
    alg = presentation(key, 5).alg
    rng = random.Random(20260823)
    for _ in range(100):
        word = tuple(rng.randrange(4) for _ in range(5))
        assert alg.normalize_word(word) == alg.normalize_word(word, rightmost=True)


# -- the six axiom checks at a moderate order ----------------------------


@pytest.mark.parametrize("key", KEYS)
def test_homomorphism(key):
    ok, res = homomorphism_check(presentation(key, 4))
    assert ok, [(n, str(r)) for n, r in res]


@pytest.mark.parametrize("key", KEYS)
def test_coassociativity(key):
    ok, res = coassociativity_check(presentation(key, 4))
    assert ok, [(n, str(r)) for n, r in res]


@pytest.mark.parametrize("key", KEYS)
def test_counit(key):
    ok, res = counit_check(presentation(key, 4))
    assert ok, [(n, str(r)) for n, r in res]


@pytest.mark.parametrize("key", KEYS)
def test_antipode(key):
    ok, res = antipode_check(presentation(key, 4))
    assert ok, [(n, str(r)) for n, r in res]


@pytest.mark.parametrize("key", KEYS)
def test_center(key):
    ok, res = center_check(presentation(key, 4))
    assert ok, [(n, str(r)) for n, r in res]


@pytest.mark.parametrize("key", KEYS)
def test_cocommutator(key):
    ok, res = cocommutator_check(presentation(key, 4))
    assert ok, [(n, str(r)) for n, r in res]


@pytest.mark.parametrize("key", KEYS)
def test_full_order_suite(key):
    """Every axiom check passes at the order used for the sign-off runs."""
    p = presentation(key, FULL_ORDERS[key])
    results = {name: check(p) for name, check in CHECKS.items()}
    bad = {n: res for n, (ok, res) in results.items() if not ok}
    assert not bad, {n: [(t, str(r)) for t, r in res] for n, res in bad.items()}


# -- antipode as an anti-morphism ----------------------------------------


@pytest.mark.parametrize("key", KEYS)
def test_antipode_respects_relations(key):
    p = presentation(key, 4)
    for hi, lo in ((AP, A), (AM, A), (AM, AP)):
        lhs = p.antipode_of(p.alg.gen(hi) * p.alg.gen(lo))
        rhs = p.antipode[("A", "Ap", "Am", "M")[lo]] * p.antipode[("A", "Ap", "Am", "M")[hi]]
        assert lhs == rhs, (hi, lo)


# -- cross-checks against the exponential-matrix quantizer ---------------


def test_uz_matches_exponential_quantizer():
    """The one-parameter presentation is the creation-type coproduct with
    the two extra parameters switched off."""
    p = presentation("Uz", 5)
    f = p.field
    z = f.marked_param("z")
    spec = LMSpec(
        field=f,
        primitives=(AP, M),
        vector=(A, AM),
        nu=(((z, 0), (0, z)), ((0, 0), (z, 0))),
    )
    cp = lm_coproduct(spec, 5)
    for name in ("A", "Ap", "Am", "M"):
        assert rebase(cp.images[name], p.alg) == p.images[name], name


def test_iin_matches_exponential_quantizer():
    p = presentation("IIn", 5)
    cp = lm_coproduct(family_spec("II-nonstandard"), 5)
    for name in ("A", "Ap", "Am", "M"):
        assert rebase(cp.images[name], p.alg) == p.images[name], name


def test_iis_unprimed_generator_bridge():
    """Delta on the unshifted creation generator e^{z M} Ap' reproduces the
    central-type standard coproduct row evaluated on this parameter line."""
    p = presentation("IIs", 4)
    z = p.field.marked_param("z")
    P = exp_of(p.alg, z, M)
    ap_unprimed = P * p.alg.gen(AP)
    want = tensor(p.alg.one(), ap_unprimed) + tensor(ap_unprimed, P)
    assert p.delta(ap_unprimed) == want


def test_uz_keeps_a_creation_subalgebra():
    """A and Ap generate a Hopf subalgebra: their images and antipodes only
    involve A and Ap."""
    p = presentation("Uz", 5)
    for name in ("A", "Ap"):
        for key in p.images[name].terms:
            assert all(m[AM] == 0 and m[M] == 0 for m in key), (name, key)
        for (mono,) in p.antipode[name].terms:
            assert mono[AM] == 0 and mono[M] == 0, (name, mono)


# -- failure reporting ---------------------------------------------------


def test_broken_antipode_is_detected():
    p = presentation("Uz", 3)
    broken = HopfPresentation(
        "Uz",
        p.alg,
        dict(p.images),
        {**p.antipode, "Ap": p.alg.gen(AP)},
        p.casimir,
        p.r,
    )
    ok, res = antipode_check(broken)
    assert not ok
    assert any(name.endswith("Ap") for name, _ in res)
    assert min(r.marker_degree for _, r in res) == 0


def test_negated_r_matrix_is_detected():
    p = presentation("IIn", 3)
    wrong = HopfPresentation(
        p.key, p.alg, p.images, p.antipode, p.casimir,
        p.r.map_coeffs(lambda c: -c),
    )
    ok, res = cocommutator_check(wrong)
    assert not ok and res


def test_noncentral_element_is_detected():
    p = presentation("IIs", 3)
    wrong = HopfPresentation(p.key, p.alg, p.images, p.antipode, p.alg.gen(A), p.r)
    ok, res = center_check(wrong)
    assert not ok
    assert min(r.marker_degree for _, r in res) == 0


def test_cocommutator_targets_match_table():
    """The r-matrix attached to the Uz presentation reproduces the expected
    first-order cocommutators on every generator."""
    p = presentation("Uz", 3)
    deltas = cocommutator_map(p.r)
    exact = Algebra.classical(p.field)
    z = p.field.marked_param("z")
    wedge_a_ap = tensor(exact.gen(A), exact.gen(AP)) - tensor(exact.gen(AP), exact.gen(A))
    wedge_am_ap = tensor(exact.gen(AM), exact.gen(AP)) - tensor(exact.gen(AP), exact.gen(AM))
    wedge_a_m = tensor(exact.gen(A), exact.gen(M)) - tensor(exact.gen(M), exact.gen(A))
    assert deltas["A"] == wedge_a_ap.scale(z)
    assert deltas["Am"] == (wedge_am_ap + wedge_a_m).scale(z)
    assert deltas["Ap"].is_zero and deltas["M"].is_zero
