"""Deformed enveloping algebras with their full Hopf structure, and checks.

Three deformations of the oscillator enveloping algebra are fully presented
here (relations, coproduct, counit, antipode, central element), each
truncated at a marker order:

``Uz``   one-parameter deformation with primitive Ap and M and relations
         [A, Ap] = (e^{z*Ap} - 1)/z, [Am, Ap] = M e^{z*Ap}; the quantization
         of the c1-family r-matrix z*A^Ap.
``IIn``  three-parameter deformation with primitive M and relations
         [A, Ap] = Ap - yp*v(-x), [A, Am] = -Am - bp*v(x) where
         v(x) = (e^{x*M} - 1 - x*M)/x^2; quantizes x*A^M + bp*Ap^M + yp*Am^M.
``IIs``  one-parameter deformation written on a shifted creation generator
         (the Ap slot denotes Ap' = e^{-z*M}*Ap) with [Am, Ap'] =
         sinh(z*M)/z; quantizes the skew part -z*Ap^Am of its r-matrix.

The checks verify, to the truncation order: the coproduct is an algebra map
for the deformed relations, coassociativity, the counit law, the antipode
law, centrality plus the classical limit of the central element, and that
the order-h antisymmetrization of the coproduct reproduces the cocommutator
of the presentation's r-matrix.  Residual terms are returned for failures.
"""

from __future__ import annotations

import weakref
from collections import deque
from math import factorial

from .algebra import (
    A,
    AM,
    AP,
    GEN_NAMES,
    M,
    Algebra,
    TensorElement,
    apply_slot_map,
    held,
    linear,
    multiplicative,
    rebase,
    spread,
    tensor,
)
from .bialgebra import cocommutator_map, deformation
from .coeffs import Coefficient


# -- named series in one generator ---------------------------------------


def exp_of(alg: Algebra, c: Coefficient, gen: int) -> TensorElement:
    """e^{c*X}, truncated at the algebra's order (c marker-graded)."""
    return _series(alg, c, gen, 0)


def _series(alg: Algebra, c: Coefficient, gen: int, lag: int, step: int = 1) -> TensorElement:
    """sum c^{k-lag} X^k / k! over k = lag, lag+step, ..., term-explicit.

    Term k has marker degree k-lag, so the sum runs lag steps past the
    truncation order instead of dividing a truncated series.
    """
    order = alg.order
    terms = {}
    for k in range(lag, order + lag + 1, step):
        # c**0/k! is the unit for k <= 1: use the field's one, which products skip
        coeff = c.field.one if k == lag <= 1 else (c ** (k - lag) / factorial(k)).truncate(order)
        if not coeff.is_zero:
            terms[(tuple(k if g == gen else 0 for g in range(4)),)] = coeff
    return alg.element(terms)


def _tail(e: TensorElement) -> dict:
    """An element's terms by monomial, as a rewrite rule's tail holds them."""
    return {k[0]: c for k, c in e.terms.items()}


def expm1_over(alg: Algebra, c: Coefficient, gen: int) -> TensorElement:
    """(e^{c*X} - 1)/c = sum_{k>=1} c^{k-1} X^k / k!."""
    return _series(alg, c, gen, 1)


def v_series(alg: Algebra, c: Coefficient) -> TensorElement:
    """v(c) = (e^{c*M} - 1 - c*M)/c^2 = sum_{k>=2} c^{k-2} M^k / k!.

    The c -> 0 limit is M^2/2 (the k = 2 term).
    """
    return _series(alg, c, M, 2)


def sinh_over(alg: Algebra, c: Coefficient) -> TensorElement:
    """sinh(c*M)/c = sum_{j>=0} c^{2j} M^{2j+1} / (2j+1)!; limit M at c=0."""
    return _series(alg, c, M, 1, step=2)


# -- presentations -------------------------------------------------------


class HopfPresentation:
    """A deformed normal ordering plus its coalgebra and antipode data.

    ``images``/``antipode`` map letter names to coproduct tensors and
    antipode elements; ``counit`` starts at zero on every letter.  ``r`` is
    the classical r-matrix whose cocommutator the order-h part must
    reproduce.  Each map is fixed on letters and extended to normal
    monomials by :func:`.algebra.multiplicative` (``delta_mono`` and
    ``counit_scalar`` as morphisms, ``antipode_mono`` as an anti-morphism),
    then to elements by ``delta``/``antipode_of``.  They read the dicts
    given here, so a letter's value is changed in place before the first
    call (as ``funalg`` sets its counit), never by rebinding the attribute.
    The axiom checks run over the letters ``images`` names.  A coproduct
    with no antipode (``antipode=None``, and ``antipode_mono`` None) still
    supports the homomorphism, coassociativity and counit checks.
    """

    def __init__(self, key, alg, images, antipode, casimir, r):
        self.key = key
        self.alg = alg
        self.field = alg.field
        self.order = alg.order
        self.images = images
        self.counit = counit = {name: alg.field.zero for name in alg.letter_names}
        self.antipode = antipode
        self.casimir = casimir
        self.r = r
        names = alg.letter_names
        self._delta = multiplicative(alg, lambda g: images[names[g]], alg.tensor_unit(2), alg.first_letter)
        self.counit_scalar = multiplicative(alg, lambda g: counit[names[g]], alg.field.one, alg.first_letter)
        self.antipode_mono = None
        if antipode is not None:
            self.antipode_mono = multiplicative(alg, lambda g: antipode[names[g]], alg.one(), alg.last_letter)

    def __repr__(self):
        return f"<{type(self).__name__} {self.key} (order {self.order})>"

    def delta_mono(self, mono) -> TensorElement:
        return self._delta(mono)

    def delta(self, e: TensorElement) -> TensorElement:
        """The coproduct, extended multiplicatively over normal monomials."""
        return apply_slot_map(e, 0, self.delta_mono)

    def antipode_of(self, e: TensorElement) -> TensorElement:
        """The antipode, extended anti-multiplicatively over normal monomials."""
        return linear(e, lambda k: self.antipode_mono(k[0]), self.alg.zero())


def uz_presentation(order: int) -> HopfPresentation:
    """The one-parameter deformation with primitive Ap, M (key ``Uz``)."""
    d = deformation("Uz")
    field = d.field()
    z = field.marked_param("z")
    base = Algebra.classical(field, order)
    # Ap*A = A*Ap - (e^{z*Ap}-1)/z ; Am*A = A*Am + Am ; Am*Ap = Ap*Am + M e^{z*Ap}
    tails = {
        (AP, A): _tail(-expm1_over(base, z, AP)),
        (AM, A): {(0, 0, 1, 0): field.one},
        (AM, AP): _tail(exp_of(base, z, AP) * base.gen(M)),
    }
    alg = Algebra(field, tails, order, "Uz")
    gA, gAp, gAm, gM = alg.gens()
    one = alg.one()
    E = exp_of(alg, z, AP)
    Einv = exp_of(alg, -z, AP)
    images = {
        "A": tensor(one, gA) + tensor(gA, E),
        "Ap": spread(gAp, 2),
        "Am": tensor(one, gAm) + tensor(gAm, E) + tensor(gA.scale(z), gM * E),
        "M": spread(gM, 2),
    }
    antipode = {
        "A": -(gA * Einv),
        "Ap": -gAp,
        "Am": -(gAm * Einv) + (gA * gM * Einv).scale(z),
        "M": -gM,
    }
    # central element 2 A M + F Am + Am F with F = (e^{-z*Ap}-1)/z
    F = -expm1_over(alg, -z, AP)
    casimir = (gA * gM).scale(2) + F * gAm + gAm * F
    return HopfPresentation(d.key, alg, images, antipode, casimir, d.r())


def ii_nonstandard_presentation(order: int) -> HopfPresentation:
    """The three-parameter deformation with primitive M (key ``IIn``)."""
    d = deformation("IIn")
    field = d.field()
    x = field.marked_param("x")
    bp = field.marked_param("bp")
    yp = field.marked_param("yp")
    base = Algebra.classical(field, order)
    # Ap*A = A*Ap - Ap + yp*v(-x) ; Am*A = A*Am + Am + bp*v(x) ; Am*Ap = Ap*Am + M
    tails = {
        (AP, A): _tail(-base.gen(AP) + v_series(base, -x).scale(yp)),
        (AM, A): _tail(base.gen(AM) + v_series(base, x).scale(bp)),
        (AM, AP): {(0, 0, 0, 1): field.one},
    }
    alg = Algebra(field, tails, order, "IIn")
    gA, gAp, gAm, gM = alg.gens()
    one = alg.one()
    Ep = exp_of(alg, x, M)  # e^{x*M}
    Em = exp_of(alg, -x, M)
    w_minus = expm1_over(alg, -x, M)  # (1 - e^{-x*M})/x, leading term +M
    w_plus = -expm1_over(alg, x, M)  # (1 - e^{x*M})/x, leading term -M
    images = {
        "A": tensor(one, gA)
        + tensor(gA, one)
        + tensor(gAp, w_minus).scale(bp)
        + tensor(gAm, w_plus).scale(yp),
        "Ap": tensor(one, gAp) + tensor(gAp, Em),
        "Am": tensor(one, gAm) + tensor(gAm, Ep),
        "M": spread(gM, 2),
    }
    antipode = {
        "A": -gA - (gAp * w_plus).scale(bp) - (gAm * w_minus).scale(yp),
        "Ap": -(gAp * Ep),
        "Am": -(gAm * Em),
        "M": -gM,
    }
    casimir = (
        (gA * gM).scale(2)
        - gAp * gAm
        - gAm * gAp
        + (v_series(alg, -x) * gAm).scale(yp * 2)
        - (v_series(alg, x) * gAp).scale(bp * 2)
    )
    return HopfPresentation(d.key, alg, images, antipode, casimir, d.r())


def ii_standard_presentation(order: int) -> HopfPresentation:
    """The shifted-basis standard deformation (key ``IIs``).

    The Ap slot denotes the shifted creation generator Ap' = e^{-z*M}*Ap;
    all structure below is stated on that basis.
    """
    d = deformation("IIs")
    field = d.field()
    z = field.marked_param("z")
    # Ap'*A = A*Ap' - Ap' ; Am*A = A*Am + Am ; Am*Ap' = Ap'*Am + sinh(z*M)/z
    tails = {
        (AP, A): {(0, 1, 0, 0): -field.one},
        (AM, A): {(0, 0, 1, 0): field.one},
        (AM, AP): _tail(sinh_over(Algebra.classical(field, order), z)),
    }
    alg = Algebra(field, tails, order, "IIs")
    gA, gAp, gAm, gM = alg.gens()
    one = alg.one()
    E = exp_of(alg, z, M)
    Einv = exp_of(alg, -z, M)
    images = {
        "A": spread(gA, 2),
        "Ap": tensor(Einv, gAp) + tensor(gAp, one),
        "Am": tensor(one, gAm) + tensor(gAm, E),
        "M": spread(gM, 2),
    }
    antipode = {
        "A": -gA,
        "Ap": -(gAp * E),
        "Am": -(gAm * Einv),
        "M": -gM,
    }
    casimir = (gA * sinh_over(alg, z)).scale(2) - gAp * gAm - gAm * gAp
    return HopfPresentation(d.key, alg, images, antipode, casimir, d.r())


_BUILDERS = {
    "Uz": uz_presentation,
    "IIn": ii_nonstandard_presentation,
    "IIs": ii_standard_presentation,
}

# (key, order) -> weak reference to its presentation; a key is added on the
# first build only, so len(_cache) counts first builds
_cache: dict = {}
_recent: deque = deque(maxlen=2)


def presentation(key: str, order: int) -> HopfPresentation:
    """The presentation of deformation ``key`` truncated at ``order``.

    A presentation lives while something holds it, and the results of the
    last two calls are held here, so an order sweep keeps two alive, not
    one per order.  While one lives it is the one returned, so the elements
    of two calls for the same ``(key, order)`` share one algebra.
    """
    ref = _cache.get((key, order))
    got = ref and ref()
    if got is None:
        deformation(key)  # UnknownDeformation on a key that names none
        got = _BUILDERS[key](order)
        _cache[(key, order)] = weakref.ref(got)
    _recent.append(got)
    return got


# -- axiom checks --------------------------------------------------------


def homomorphism_check(p: HopfPresentation):
    """Delta(X_i X_j) == Delta(X_i) Delta(X_j) for every pair of letters.

    The ordered pairs split definitionally; the misordered ones exercise
    compatibility of the coproduct with the rewrite rules.
    """
    return held(
        (f"{a}*{b}", p.delta(p.alg.coord(a) * p.alg.coord(b)) - ta * tb)
        for a, ta in p.images.items()
        for b, tb in p.images.items()
    )


def coassociativity_check(p: HopfPresentation):
    """(Delta (x) id) o Delta == (id (x) Delta) o Delta on every letter."""
    return held(
        (name, apply_slot_map(t, 0, p.delta_mono) - apply_slot_map(t, 1, p.delta_mono))
        for name, t in p.images.items()
    )


def counit_check(p: HopfPresentation):
    """(eps (x) id) o Delta = id = (id (x) eps) o Delta on every letter."""
    return held(
        (f"eps-{side} {name}", t.contract(pos, p.counit_scalar) - p.alg.coord(name))
        for name, t in p.images.items()
        for pos, side in enumerate(("left", "right"))
    )


def antipode_check(p: HopfPresentation):
    """m(gamma (x) id)Delta(X) = eps(X) 1 = m(id (x) gamma)Delta(X) per letter."""
    sides = (("left", [p.antipode_mono, None]), ("right", [None, p.antipode_mono]))
    return held(
        (f"gamma-{side} {name}", t.fold_slots(maps=maps) - p.alg.one().scale(p.counit[name]))
        for name, t in p.images.items()
        for side, maps in sides
    )


def center_check(p: HopfPresentation):
    """The central element commutes with every generator; its order-0 part
    is the classical invariant 2AM - Ap*Am - Am*Ap (normal ordered)."""
    classical = {(1, 0, 0, 1): 2, (0, 1, 1, 0): -2, (0, 0, 0, 1): -1}
    expected = p.alg.element({(m,): p.field.rational(v) for m, v in classical.items()})
    return held(
        [(name, p.casimir.commutator(p.alg.gen(i))) for i, name in enumerate(GEN_NAMES)]
        + [("classical-limit", p.casimir.h_part(0) - expected)]
    )


def cocommutator_check(p: HopfPresentation):
    """Order-h antisymmetrization of the coproduct equals delta from p.r."""
    exact = Algebra.classical(p.field)
    pairs = []
    for name, target in cocommutator_map(p.r).items():
        t = p.images[name]
        lhs = rebase((t - t.swap()).h_part(1), exact)
        if not target.is_zero and target.marker_degree >= 1:
            target = target.h_part(1)
        pairs.append((name, lhs - target))
    return held(pairs)


CHECKS = {
    "homomorphism": homomorphism_check,
    "coassociativity": coassociativity_check,
    "counit": counit_check,
    "antipode": antipode_check,
    "center": center_check,
    "cocommutator": cocommutator_check,
}
