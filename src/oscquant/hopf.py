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

from math import factorial

from .algebra import (
    A,
    AM,
    AP,
    GEN_NAMES,
    M,
    Algebra,
    Element,
    TensorElement,
    exp_series,
    rebase,
    spread,
    tensor,
)
from .bialgebra import RMatrixSkew, apply_slot_map, cocommutator_map
from .coeffs import Coefficient, CoefficientField

PRESENTATION_KEYS = ("Uz", "IIn", "IIs")


class UnknownPresentation(KeyError):
    pass


# -- named series in one generator ---------------------------------------


def exp_of(alg: Algebra, c: Coefficient, gen: int) -> Element:
    """e^{c*X}, truncated at the algebra's order (c marker-graded)."""
    return exp_series(alg.gen(gen).scale(c))


def expm1_over(alg: Algebra, c: Coefficient, gen: int) -> Element:
    """(e^{c*X} - 1)/c, term-explicit so truncation is exact at the order.

    Term k is c^{k-1} X^k / k! of marker degree k-1, so the sum runs one
    step past the truncation order instead of dividing a truncated series.
    """
    order = alg.order
    terms = {}
    for k in range(1, order + 2):
        coeff = (c ** (k - 1) / factorial(k)).truncate(order)
        if not coeff.is_zero:
            mono = tuple(k if g == gen else 0 for g in range(4))
            terms[mono] = coeff
    return alg.element(terms)


def v_series(alg: Algebra, c: Coefficient) -> Element:
    """v(c) = (e^{c*M} - 1 - c*M)/c^2 = sum_{k>=2} c^{k-2} M^k / k!.

    The c -> 0 limit is M^2/2 (the k = 2 term).
    """
    order = alg.order
    terms = {}
    for k in range(2, order + 3):
        coeff = (c ** (k - 2) / factorial(k)).truncate(order)
        if not coeff.is_zero:
            terms[(0, 0, 0, k)] = coeff
    return alg.element(terms)


def sinh_over(alg: Algebra, c: Coefficient) -> Element:
    """sinh(c*M)/c = sum_{j>=0} c^{2j} M^{2j+1} / (2j+1)!; limit M at c=0."""
    order = alg.order
    terms = {}
    for j in range(0, order // 2 + 1):
        coeff = (c ** (2 * j) / factorial(2 * j + 1)).truncate(order)
        if not coeff.is_zero:
            terms[(0, 0, 0, 2 * j + 1)] = coeff
    return alg.element(terms)


# -- presentations -------------------------------------------------------


class HopfPresentation:
    """A deformed normal ordering plus its coalgebra and antipode data.

    ``images``/``antipode`` map letter names to coproduct tensors and
    antipode elements; ``counit`` starts at zero on every letter.  ``r`` is
    the classical r-matrix whose cocommutator the order-h part must
    reproduce.  The coproduct and antipode extend to arbitrary elements as
    (anti)algebra morphisms through ``delta``/``antipode_of``, memoized per
    monomial.  The axiom checks run over the letters ``images`` names.  A
    coproduct with no antipode (``antipode=None``) still supports the
    homomorphism, coassociativity and counit checks.
    """

    def __init__(self, key, label, alg, images, antipode, casimir, r):
        self.key = key
        self.label = label
        self.alg = alg
        self.field = alg.field
        self.order = alg.order
        self.images = images
        self.counit = {name: alg.field.zero for name in alg.letter_names}
        self.antipode = antipode
        self.casimir = casimir
        self.r = r
        self._delta_cache: dict = {}
        self._antipode_cache: dict = {}

    def __repr__(self):
        return f"<{type(self).__name__} {self.key} (order {self.order})>"

    def delta_mono(self, mono) -> TensorElement:
        hit = self._delta_cache.get(mono)
        if hit is None:
            alg = self.alg
            g = alg.first_letter(mono)
            if g is None:
                hit = alg.tensor_unit(2)
            else:
                rest = alg.shift(mono, g, -1)
                hit = self.images[alg.letter_names[g]] * self.delta_mono(rest)
            self._delta_cache[mono] = hit
        return hit

    def delta(self, e: Element) -> TensorElement:
        """The coproduct, extended multiplicatively over normal monomials."""
        out = self.alg.tensor_zero(2)
        for mono, c in e.terms.items():
            out = out + self.delta_mono(mono).scale(c)
        return out

    def antipode_mono(self, mono) -> Element:
        hit = self._antipode_cache.get(mono)
        if hit is None:
            alg = self.alg
            g = alg.last_letter(mono)
            if g is None:
                hit = alg.one()
            else:
                rest = alg.shift(mono, g, -1)
                hit = self.antipode[alg.letter_names[g]] * self.antipode_mono(rest)
            self._antipode_cache[mono] = hit
        return hit

    def antipode_of(self, e: Element) -> Element:
        """The antipode, extended anti-multiplicatively over normal monomials."""
        out = self.alg.zero()
        for mono, c in e.terms.items():
            out = out + self.antipode_mono(mono).scale(c)
        return out

    def counit_scalar(self, mono) -> Coefficient:
        """The counit of a monomial: the product of its letters' counits."""
        alg, one = self.alg, self.field.one
        out = one
        for slot, e in enumerate(mono):
            if e:
                c = self.counit[alg.letter_names[alg.letter_at(slot, e)]]
                if c.is_zero:
                    return c
                if c != one:
                    out = out * c ** abs(e)
        return out


def uz_presentation(order: int) -> HopfPresentation:
    """The one-parameter deformation with primitive Ap, M (key ``Uz``)."""
    field = CoefficientField.get("z")
    z = field.marked_param("z")
    # Ap*A = A*Ap - (e^{z*Ap}-1)/z ; Am*A = A*Am + Am ; Am*Ap = Ap*Am + M e^{z*Ap}
    t_pa = {}
    for k in range(1, order + 2):
        c = (-(z ** (k - 1)) / factorial(k)).truncate(order)
        if not c.is_zero:
            t_pa[(0, k, 0, 0)] = c
    t_mp = {}
    for k in range(0, order + 1):
        c = (z**k / factorial(k)).truncate(order)
        if not c.is_zero:
            t_mp[(0, k, 0, 1)] = c
    tails = {
        (AP, A): t_pa,
        (AM, A): {(0, 0, 1, 0): field.one},
        (AM, AP): t_mp,
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
    r = RMatrixSkew(field, (z, field.zero, field.zero, field.zero, field.zero, field.zero))
    return HopfPresentation("Uz", "one-parameter, primitive Ap and M", alg, images, antipode, casimir, r)


def ii_nonstandard_presentation(order: int) -> HopfPresentation:
    """The three-parameter deformation with primitive M (key ``IIn``)."""
    field = CoefficientField.get("x", "bp", "yp")
    x = field.marked_param("x")
    bp = field.marked_param("bp")
    yp = field.marked_param("yp")
    # Ap*A = A*Ap - Ap + yp*v(-x) ; Am*A = A*Am + Am + bp*v(x) ; Am*Ap = Ap*Am + M
    t_pa = {(0, 1, 0, 0): -field.one}
    t_ma = {(0, 0, 1, 0): field.one}
    for k in range(2, order + 3):
        cm = (yp * (-x) ** (k - 2) / factorial(k)).truncate(order)
        cp = (bp * x ** (k - 2) / factorial(k)).truncate(order)
        if not cm.is_zero:
            t_pa[(0, 0, 0, k)] = cm
        if not cp.is_zero:
            t_ma[(0, 0, 0, k)] = cp
    tails = {
        (AP, A): t_pa,
        (AM, A): t_ma,
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
    r = RMatrixSkew(field, (field.zero, field.zero, x, field.zero, bp, yp))
    return HopfPresentation("IIn", "three-parameter, primitive M", alg, images, antipode, casimir, r)


def ii_standard_presentation(order: int) -> HopfPresentation:
    """The shifted-basis standard deformation (key ``IIs``).

    The Ap slot denotes the shifted creation generator Ap' = e^{-z*M}*Ap;
    all structure below is stated on that basis.
    """
    field = CoefficientField.get("z")
    z = field.marked_param("z")
    # Ap'*A = A*Ap' - Ap' ; Am*A = A*Am + Am ; Am*Ap' = Ap'*Am + sinh(z*M)/z
    t_mp = {}
    for j in range(0, order // 2 + 1):
        c = (z ** (2 * j) / factorial(2 * j + 1)).truncate(order)
        if not c.is_zero:
            t_mp[(0, 0, 0, 2 * j + 1)] = c
    tails = {
        (AP, A): {(0, 1, 0, 0): -field.one},
        (AM, A): {(0, 0, 1, 0): field.one},
        (AM, AP): t_mp,
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
    r = RMatrixSkew(field, (field.zero, field.zero, field.zero, -z, field.zero, field.zero))
    return HopfPresentation("IIs", "standard, shifted creation basis", alg, images, antipode, casimir, r)


_BUILDERS = {
    "Uz": uz_presentation,
    "IIn": ii_nonstandard_presentation,
    "IIs": ii_standard_presentation,
}

_cache: dict = {}


def presentation(key: str, order: int) -> HopfPresentation:
    try:
        builder = _BUILDERS[key]
    except KeyError:
        raise UnknownPresentation(
            f"unknown presentation {key!r}; choose from {PRESENTATION_KEYS}"
        ) from None
    got = _cache.get((key, order))
    if got is None:
        got = _cache[(key, order)] = builder(order)
    return got


# -- axiom checks --------------------------------------------------------


def homomorphism_check(p: HopfPresentation):
    """Delta(X_i X_j) == Delta(X_i) Delta(X_j) for every pair of letters.

    The ordered pairs split definitionally; the misordered ones exercise
    compatibility of the coproduct with the rewrite rules.
    """
    residuals = []
    for a, ta in p.images.items():
        for b, tb in p.images.items():
            diff = p.delta(p.alg.coord(a) * p.alg.coord(b)) - ta * tb
            if not diff.is_zero:
                residuals.append((f"{a}*{b}", diff))
    return not residuals, residuals


def coassociativity_check(p: HopfPresentation):
    """(Delta (x) id) o Delta == (id (x) Delta) o Delta on every letter."""
    residuals = []
    for name, t in p.images.items():
        diff = apply_slot_map(t, 0, p.delta_mono) - apply_slot_map(t, 1, p.delta_mono)
        if not diff.is_zero:
            residuals.append((name, diff))
    return not residuals, residuals


def counit_check(p: HopfPresentation):
    """(eps (x) id) o Delta = id = (id (x) eps) o Delta on every letter."""
    residuals = []
    for name, t in p.images.items():
        g = p.alg.coord(name)
        left = t.contract(0, p.counit_scalar)
        right = t.contract(1, p.counit_scalar)
        if left != g:
            residuals.append((f"eps-left {name}", left - g))
        if right != g:
            residuals.append((f"eps-right {name}", right - g))
    return not residuals, residuals


def antipode_check(p: HopfPresentation):
    """m(gamma (x) id)Delta(X) = eps(X) 1 = m(id (x) gamma)Delta(X) per letter."""
    residuals = []
    for name, t in p.images.items():
        want = p.alg.one().scale(p.counit[name])
        left = t.fold_slots(maps=[p.antipode_mono, None]) - want
        right = t.fold_slots(maps=[None, p.antipode_mono]) - want
        if not left.is_zero:
            residuals.append((f"gamma-left {name}", left))
        if not right.is_zero:
            residuals.append((f"gamma-right {name}", right))
    return not residuals, residuals


def center_check(p: HopfPresentation, c: Element | None = None):
    """The central element commutes with every generator; its order-0 part
    is the classical invariant 2AM - Ap*Am - Am*Ap (normal ordered)."""
    c = p.casimir if c is None else c
    residuals = []
    for i, name in enumerate(GEN_NAMES):
        diff = c.commutator(p.alg.gen(i))
        if not diff.is_zero:
            residuals.append((name, diff))
    classical = {(1, 0, 0, 1): 2, (0, 1, 1, 0): -2, (0, 0, 0, 1): -1}
    limit = c.h_part(0)
    expected = p.alg.element({m: p.field.rational(v) for m, v in classical.items()})
    if limit != expected:
        residuals.append(("classical-limit", limit - expected))
    return not residuals, residuals


def cocommutator_check(p: HopfPresentation):
    """Order-h antisymmetrization of the coproduct equals delta from p.r."""
    exact = Algebra.classical(p.field)
    residuals = []
    for name, target in cocommutator_map(p.r).items():
        t = p.images[name]
        lhs = rebase((t - t.swap()).h_part(1), exact)
        if not target.is_zero and target.marker_degree() >= 1:
            target = target.h_part(1)
        diff = lhs - target
        if not diff.is_zero:
            residuals.append((name, diff))
    return not residuals, residuals


def lowest_failing_order(residuals):
    """The smallest marker order carrying a nonzero residual term, or None."""
    degs = [r.marker_degree() for _, r in residuals if not r.is_zero]
    return min(degs) if degs else None


CHECKS = {
    "homomorphism": homomorphism_check,
    "coassociativity": coassociativity_check,
    "counit": counit_check,
    "antipode": antipode_check,
    "center": center_check,
    "cocommutator": cocommutator_check,
}


def run_checks(p: HopfPresentation, names=None) -> dict:
    """Run the named axiom checks (default all); map name -> (ok, residuals)."""
    names = tuple(CHECKS) if names is None else tuple(names)
    return {name: CHECKS[name](p) for name in names}
