"""Quantized coordinate rings of the oscillator group, with Hopf checks.

The coordinate functions, their six-letter table and the commutative ring
it presents with no swap rule (:class:`.poisson.GroupRing`) are stated in
``poisson``.  A quantized ring is a :class:`.poisson.FunAlgebra` on the same
table with adjacent-swap rules whose tails all carry the series marker, so
the z -> 0 limit is the commutative ring and the order-h part of a
commutator is a Poisson bracket candidate.

Three deformations are built here, sharing one coalgebra (the pullback of
the group law) and one antipode (the pullback of group inversion).  Their
swap rules are stated once, as text in ``_SWAPS``, and the coalgebra as
text in ``_IMAGES`` and ``_ANTIPODE``, all read by :func:`.hopf.reader`; as
commutators the rules are:

``Uz``   the dual of the one-parameter creation-type deformation:
         [theta, a+] = z(E - 1), [a-, a+] = z a-, [theta, m] = z a-,
         [a+, m] = z a- a+, [a-, m] = -z a-^2, plus the E-versions obtained
         by exponentiating ad_theta.
``IIn``  three parameters, only [a+, m] = -x a+ + bp (E - 1) and
         [a-, m] = x a- + yp (E^-1 - 1) nonzero.
``IIs``  one parameter, only [a+, m] = z a+ and [a-, m] = z a-.

All rule tails are polynomial, so these algebras are exact: no truncation
is needed, and none is applied.  The ring is an
:class:`.algebra.Algebra` over six letters (E and its inverse step the same
slot by +1 and -1), and its presentation is a
:class:`.hopf.HopfPresentation`, so products, the coproduct and antipode
extensions and the four Hopf-axiom checks are the enveloping algebras' own.
The two ring-only checks compare with the commutative ring by reading the
deformed ring's normal terms there (:func:`.algebra.rebase`): the classical
limit of the coproduct with the group law on two sites, the order-h
commutators with the Sklyanin brackets on one.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import held, rebase
from .bialgebra import deformation
from .hopf import (
    HopfPresentation,
    _tail,
    antipode_check,
    coassociativity_check,
    counit_check,
    homomorphism_check,
    reader,
)
from .poisson import (
    COORDS,
    LETTER_NAMES,
    FunAlgebra,
    GroupRing,
    group_compose,
    site_coords,
    sklyanin_bracket,
)

# -- the three families --------------------------------------------------

# Each family's adjacent-swap rules, (hi, lo) -> tail for
# X_hi X_lo = X_lo X_hi + tail.  A tail is read as a group function, each
# parameter in it carrying one power of the series marker.
_SWAPS = {
    "Uz": {
        ("a_plus", "theta"): "-z*(E - 1)",
        ("m", "theta"): "-z*a_minus",
        # the exponentiated [theta, a+]
        ("a_plus", "E"): "-z*(E^2 - E)",
        ("a_plus", "Einv"): "z*(1 - Einv)",
        ("m", "E"): "-z*E*a_minus",
        ("m", "Einv"): "z*Einv*a_minus",
        ("a_minus", "a_plus"): "z*a_minus",
        # m a+ = a+ m - z a- a+, normal ordered
        ("m", "a_plus"): "-z*a_plus*a_minus - z^2*a_minus",
        ("m", "a_minus"): "z*a_minus^2",
    },
    "IIn": {
        ("m", "a_plus"): "x*a_plus - bp*(E - 1)",
        ("m", "a_minus"): "-x*a_minus - yp*(Einv - 1)",
    },
    "IIs": {
        ("m", "a_plus"): "-z*a_plus",
        ("m", "a_minus"): "-z*a_minus",
    },
}


# The group coalgebra every deformation shares, as text over the six letters:
# the coproduct is the pullback of the group law, the antipode the pullback
# of inversion.  The counit is evaluation at the identity: 1 on any power of
# E, 0 on the other coordinates.
_IMAGES = {
    "theta": "theta@1 + 1@theta",
    "E": "E@E",
    "Einv": "Einv@Einv",
    "a_plus": "E@a_plus + a_plus@1",
    "a_minus": "Einv@a_minus + a_minus@1",
    "m": "1@m + m@1 - Einv*a_plus@a_minus",
}
_ANTIPODE = {
    "theta": "-theta",
    "E": "Einv",
    "Einv": "E",
    "a_plus": "-Einv*a_plus",
    "a_minus": "-E*a_minus",
    "m": "-m - Einv*a_plus*E*a_minus",
}


_cache: dict = {}


def fun_presentation(key: str) -> HopfPresentation:
    """The exact quantized coordinate ring of deformation ``key``, with the
    group coalgebra; ``r`` is the classical r-matrix whose Sklyanin bracket
    the order-h commutators must reproduce."""
    got = _cache.get(key)
    if got is None:
        d = deformation(key)
        field = d.field()
        read_ring = reader(GroupRing(field), key)
        rules = {
            (LETTER_NAMES.index(hi), LETTER_NAMES.index(lo)): _tail(read_ring(text))
            for (hi, lo), text in _SWAPS[key].items()
        }
        alg = FunAlgebra(field, rules, label=f"Fun-{key}")
        read = reader(alg, key)
        images = {name: read(text) for name, text in _IMAGES.items()}
        antipode = {name: read(text) for name, text in _ANTIPODE.items()}
        got = HopfPresentation(key, alg, images, antipode, None, d.r(marked=False))
        got.counit["E"] = got.counit["Einv"] = field.one
        _cache[key] = got
    return got


# -- axiom checks --------------------------------------------------------


def group_law_check(f: HopfPresentation):
    """The classical limit of the coproduct is the group-law pullback."""
    ring = GroupRing(f.field, 2)
    law = group_compose(site_coords(ring, 0), site_coords(ring, 1))
    return held((name, rebase(f.images[name].h_part(0), ring) - law[name]) for name in LETTER_NAMES)


def semiclassical_check(f: HopfPresentation):
    """Order-h part of every coordinate commutator equals the Sklyanin
    bracket for the family's classical r-matrix."""
    ring = GroupRing(f.field)
    pairs = []
    for a, b in combinations(COORDS, 2):
        quantum = f.alg.coord(a).commutator(f.alg.coord(b)).h_part(1)
        classical = sklyanin_bracket(f.r, ring.coord(a), ring.coord(b))
        pairs.append((f"[{a},{b}]", rebase(quantum, ring) - classical))
    return held(pairs)


FUN_CHECKS = {
    "homomorphism": homomorphism_check,
    "coassociativity": coassociativity_check,
    "counit": counit_check,
    "antipode": antipode_check,
    "group-law": group_law_check,
    "semiclassical": semiclassical_check,
}


def fun_hopf_check(f: HopfPresentation) -> dict:
    """Run every check; map name -> (ok, residuals)."""
    return {name: check(f) for name, check in FUN_CHECKS.items()}
