"""Quantized coordinate rings of the oscillator group, with Hopf checks.

The coordinate functions, their six-letter table and the commutative ring
it presents with no swap rule (:class:`.poisson.GroupRing`) are stated in
``poisson``.  A quantized ring is a :class:`.poisson.FunAlgebra` on the same
table with adjacent-swap rules whose tails all carry the series marker, so
the z -> 0 limit is the commutative ring and the order-h part of a
commutator is a Poisson bracket candidate.

Three deformations are built here, sharing one coalgebra (the pullback of
the group law) and one antipode (the pullback of group inversion):

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

from .algebra import held, rebase, spread, tensor
from .bialgebra import deformation
from .hopf import (
    HopfPresentation,
    antipode_check,
    coassociativity_check,
    counit_check,
    homomorphism_check,
)
from .poisson import (
    COORDS,
    FUN_UNIT,
    LETTER_NAMES,
    FunAlgebra,
    GroupRing,
    group_compose,
    site_coords,
    sklyanin_bracket,
)

# Word letters, as indices into LETTER_NAMES.
L_THETA, L_E, L_EINV, L_AP, L_AM, L_M = range(6)


# -- the three families --------------------------------------------------


def _uz_swaps(field):
    z = field.marked_param("z")
    return {
        # a+ theta = theta a+ - z(E - 1)
        (L_AP, L_THETA): {(0, 1, 0, 0, 0): -z, FUN_UNIT: z},
        # m theta = theta m - z a-
        (L_M, L_THETA): {(0, 0, 0, 1, 0): -z},
        # a+ E = E a+ - z(E^2 - E)   (= exponentiated [theta, a+])
        (L_AP, L_E): {(0, 2, 0, 0, 0): -z, (0, 1, 0, 0, 0): z},
        # a+ E^-1 = E^-1 a+ + z(1 - E^-1)
        (L_AP, L_EINV): {FUN_UNIT: z, (0, -1, 0, 0, 0): -z},
        # m E = E m - z E a-
        (L_M, L_E): {(0, 1, 0, 1, 0): -z},
        # m E^-1 = E^-1 m + z E^-1 a-
        (L_M, L_EINV): {(0, -1, 0, 1, 0): z},
        # a- a+ = a+ a- + z a-
        (L_AM, L_AP): {(0, 0, 0, 1, 0): z},
        # m a+ = a+ m - z a- a+  (normal-ordered: -z a+ a- - z^2 a-)
        (L_M, L_AP): {(0, 0, 1, 1, 0): -z, (0, 0, 0, 1, 0): -z * z},
        # m a- = a- m + z a-^2
        (L_M, L_AM): {(0, 0, 0, 2, 0): z},
    }


def _iin_swaps(field):
    x = field.marked_param("x")
    bp = field.marked_param("bp")
    yp = field.marked_param("yp")
    return {
        # m a+ = a+ m + x a+ - bp(E - 1)
        (L_M, L_AP): {(0, 0, 1, 0, 0): x, (0, 1, 0, 0, 0): -bp, FUN_UNIT: bp},
        # m a- = a- m - x a- - yp(E^-1 - 1)
        (L_M, L_AM): {(0, 0, 0, 1, 0): -x, (0, -1, 0, 0, 0): -yp, FUN_UNIT: yp},
    }


def _iis_swaps(field):
    z = field.marked_param("z")
    return {
        # m a± = a± m - z a±
        (L_M, L_AP): {(0, 0, 1, 0, 0): -z},
        (L_M, L_AM): {(0, 0, 0, 1, 0): -z},
    }


_SWAPS = {"Uz": _uz_swaps, "IIn": _iin_swaps, "IIs": _iis_swaps}


class FunPresentation(HopfPresentation):
    """A deformed coordinate ring plus the (shared) group coalgebra.

    ``images``/``antipode``/``counit`` are keyed by the six letter names;
    the coproduct is the pullback of the group law, the antipode the
    pullback of inversion, and the counit evaluation at the identity
    (1 on any power of E, 0 on the other coordinates).  ``r`` is the
    classical r-matrix whose Sklyanin bracket the order-h commutators
    must reproduce.
    """

    def __init__(self, key, alg, r):
        one = alg.one()
        th, E, Einv, ap, am, m = alg.gens()
        images = {
            "theta": spread(th, 2),
            "E": tensor(E, E),
            "Einv": tensor(Einv, Einv),
            "a_plus": tensor(E, ap) + tensor(ap, one),
            "a_minus": tensor(Einv, am) + tensor(am, one),
            "m": tensor(one, m) + tensor(m, one) - tensor(Einv * ap, am),
        }
        antipode = {
            "theta": -th,
            "E": Einv,
            "Einv": E,
            "a_plus": -(Einv * ap),
            "a_minus": -(E * am),
            "m": -m - (Einv * ap * E) * am,
        }
        super().__init__(key, alg, images, antipode, None, r)
        self.counit["E"] = self.counit["Einv"] = alg.field.one


_cache: dict = {}


def fun_presentation(key: str) -> FunPresentation:
    """The exact quantized coordinate ring of deformation ``key``."""
    got = _cache.get(key)
    if got is None:
        d = deformation(key)
        field = d.field()
        alg = FunAlgebra(field, _SWAPS[key](field), label=f"Fun-{key}")
        got = _cache[key] = FunPresentation(key, alg, d.r(marked=False))
    return got


# -- axiom checks --------------------------------------------------------


def group_law_check(f: FunPresentation):
    """The classical limit of the coproduct is the group-law pullback."""
    ring = GroupRing(f.field, 2)
    law = group_compose(site_coords(ring, 0), site_coords(ring, 1))
    return held((name, rebase(f.images[name].h_part(0), ring) - law[name]) for name in LETTER_NAMES)


def semiclassical_check(f: FunPresentation):
    """Order-h part of every coordinate commutator equals the Sklyanin
    bracket for the family's classical r-matrix."""
    ring = GroupRing(f.field)
    pairs = []
    for a, b in combinations(COORDS, 2):
        quantum = f.alg.coord(a).commutator(f.alg.coord(b)).h_part(1)
        classical = sklyanin_bracket(f.r, ring.coord(a), ring.coord(b))
        pairs.append((f"[{a},{b}]", rebase(tensor(quantum), ring) - classical))
    return held(pairs)


FUN_CHECKS = {
    "homomorphism": homomorphism_check,
    "coassociativity": coassociativity_check,
    "counit": counit_check,
    "antipode": antipode_check,
    "group-law": group_law_check,
    "semiclassical": semiclassical_check,
}


def fun_hopf_check(f: FunPresentation) -> dict:
    """Run every check; map name -> (ok, residuals)."""
    return {name: check(f) for name, check in FUN_CHECKS.items()}
