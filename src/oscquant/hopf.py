"""Deformed enveloping algebras with their full Hopf structure, and checks.

Three deformations of the oscillator enveloping algebra are fully presented
here (relations, coproduct, counit, antipode, central element), each stated
once as text in ``_PRESENTATIONS``, read by :func:`reader` and truncated at
a marker order by :func:`_build`:

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
from math import factorial

from .algebra import GEN_NAMES, Algebra, TensorElement, apply_slot_map, held, multiplicative, rebase
from .bialgebra import cocommutator_map, deformation
from .coeffs import Coefficient
from .expr import evaluate, parse_element, read_element


# -- the stated presentations -------------------------------------------

# Each deformation as the paper states it, in one notation: text over the
# four letters, the deformation's parameters and its named series, with @
# for the tensor product, read by :func:`reader`.  A series row
# (c, letter, lag, step) is the sum of c^{k-lag} X^k / k! over k = lag,
# lag+step, ...: e^{cX} at lag 0, (e^{cX} - 1)/c at lag 1, v(c) =
# (e^{cM} - 1 - cM)/c^2 at lag 2 and sinh(cM)/c at lag 1, step 2.  A tail
# (hi, lo) -> t is the rule X_hi X_lo = X_lo X_hi + t; ``images`` and
# ``antipode`` give each letter's coproduct and antipode.
_PRESENTATIONS = {
    "Uz": {
        "series": {
            "E": ("z", "Ap", 0, 1),
            "Einv": ("-z", "Ap", 0, 1),
            "wp": ("z", "Ap", 1, 1),  # (e^{z*Ap} - 1)/z
            "wm": ("-z", "Ap", 1, 1),  # (1 - e^{-z*Ap})/z
        },
        "tails": {("Ap", "A"): "-wp", ("Am", "A"): "Am", ("Am", "Ap"): "E*M"},
        "images": {
            "A": "1@A + A@E",
            "Ap": "Ap@1 + 1@Ap",
            "Am": "1@Am + Am@E + z*A@M*E",
            "M": "M@1 + 1@M",
        },
        "antipode": {"A": "-A*Einv", "Ap": "-Ap", "Am": "-Am*Einv + z*A*M*Einv", "M": "-M"},
        "casimir": "2*A*M - wm*Am - Am*wm",
    },
    "IIn": {
        "series": {
            "E": ("x", "M", 0, 1),
            "Einv": ("-x", "M", 0, 1),
            "wp": ("x", "M", 1, 1),  # (e^{x*M} - 1)/x
            "wm": ("-x", "M", 1, 1),  # (1 - e^{-x*M})/x
            "vp": ("x", "M", 2, 1),  # v(x)
            "vm": ("-x", "M", 2, 1),  # v(-x)
        },
        "tails": {("Ap", "A"): "-Ap + yp*vm", ("Am", "A"): "Am + bp*vp", ("Am", "Ap"): "M"},
        "images": {
            "A": "1@A + A@1 + bp*Ap@wm - yp*Am@wp",
            "Ap": "1@Ap + Ap@Einv",
            "Am": "1@Am + Am@E",
            "M": "M@1 + 1@M",
        },
        "antipode": {"A": "-A + bp*Ap*wp - yp*Am*wm", "Ap": "-Ap*E", "Am": "-Am*Einv", "M": "-M"},
        "casimir": "2*A*M - Ap*Am - Am*Ap + 2*yp*vm*Am - 2*bp*vp*Ap",
    },
    # The Ap slot is the shifted creation generator Ap' = e^{-z*M}*Ap.
    "IIs": {
        "series": {
            "E": ("z", "M", 0, 1),
            "Einv": ("-z", "M", 0, 1),
            "sinh": ("z", "M", 1, 2),  # sinh(z*M)/z
        },
        "tails": {("Ap", "A"): "-Ap", ("Am", "A"): "Am", ("Am", "Ap"): "sinh"},
        "images": {
            "A": "A@1 + 1@A",
            "Ap": "Einv@Ap + Ap@1",
            "Am": "1@Am + Am@E",
            "M": "M@1 + 1@M",
        },
        "antipode": {"A": "-A", "Ap": "-Ap*E", "Am": "-Am*Einv", "M": "-M"},
        "casimir": "2*A*sinh - Ap*Am - Am*Ap",
    },
}


def _series(alg: Algebra, c: Coefficient, gen: int, lag: int, step: int) -> TensorElement:
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


class _Names(dict):
    """A reader's names: the algebra's letters, each parameter with one power
    of the series marker, and each series of the deformation, built the first
    time a text names it."""

    def __init__(self, alg, series):
        super().__init__((name, alg.coord(name)) for name in alg.letter_names)
        self.update((p, alg.field.marked_param(p)) for p in alg.field.params)
        self.alg, self.series = alg, series

    def __missing__(self, name):
        c, letter, lag, step = self.series[name]
        c = evaluate(c, self, self.alg.field.rational)
        got = self[name] = _series(self.alg, c, self.alg.letter_names.index(letter), lag, step)
        return got


def reader(alg: Algebra, key: str):
    """The one reader of stated structure: text -> element or tensor of
    ``alg``, over its letters, the parameters of deformation ``key`` each
    with one marker power, and the series of ``key``'s presentation.  Each
    series is built once per reader, and only when a text names it; a
    letter shadows a series of its name (the coordinate rings' ``E``)."""
    names = _Names(alg, _PRESENTATIONS[key]["series"])
    return lambda text: read_element(alg, text, names)


def _tail(e: TensorElement) -> dict:
    """An element's terms by monomial, as a rewrite rule's tail holds them."""
    return {k[0]: c for k, c in e.terms.items()}


# -- presentations -------------------------------------------------------


class HopfPresentation:
    """A deformed normal ordering plus its coalgebra and antipode data.

    ``images``/``antipode`` map letter names to coproduct tensors and
    antipode elements; ``counit`` starts at zero on every letter.  ``r`` is
    the classical r-matrix whose cocommutator the order-h part must
    reproduce.  Each map is fixed on letters and extended to normal
    monomials by :func:`.algebra.multiplicative` (``delta_mono`` and
    ``counit_scalar`` as morphisms, ``antipode_mono`` as an anti-morphism),
    then to tensors by ``delta``, the others slot by slot.  They read the dicts
    given here, so a letter's value is changed in place before the first
    call (as ``funalg`` sets its counit), never by rebinding the attribute.
    The axiom checks run over the letters ``images`` names.  A coproduct
    with no antipode (``antipode=None``, and ``antipode_mono`` None) still
    supports the homomorphism, coassociativity and counit checks; its
    antipode check raises ``ValueError``.
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


def _build(key: str, order: int) -> HopfPresentation:
    """Deformation ``key``'s stated presentation, truncated at ``order``: its
    tails read over the classical algebra, everything else over the
    deformed one."""
    d = deformation(key)
    field, stated = d.field(), _PRESENTATIONS[key]
    base = reader(Algebra.classical(field, order), key)
    index = GEN_NAMES.index
    tails = {(index(hi), index(lo)): _tail(base(text)) for (hi, lo), text in stated["tails"].items()}
    alg = Algebra(field, tails, order, key)
    read = reader(alg, key)
    images = {name: read(text) for name, text in stated["images"].items()}
    antipode = {name: read(text) for name, text in stated["antipode"].items()}
    return HopfPresentation(key, alg, images, antipode, read(stated["casimir"]), d.r())


# (key, order) -> weak reference to its presentation; a key is added on the
# first build only, so len(_cache) counts first builds
_cache: dict = {}


def presentation(key: str, order: int) -> HopfPresentation:
    """The presentation of deformation ``key`` truncated at ``order``.

    A presentation lives while its caller holds it, so a sweep over orders
    keeps alive only what the caller keeps.  While one lives it is the one
    returned, so the elements of two calls for the same ``(key, order)``
    share one algebra.
    """
    ref = _cache.get((key, order))
    got = ref and ref()
    if got is None:
        deformation(key)  # UnknownDeformation on a key that names none
        got = _build(key, order)
        _cache[(key, order)] = weakref.ref(got)
    return got


# -- axiom checks --------------------------------------------------------


def _defines(alg: Algebra, a: int, b: int, ab: TensorElement) -> bool:
    """Whether ``ab``, the product of letters a·b, is the normal word a·b
    itself: one monomial m with the field's unit coefficient, whose first
    letter is a and which leaves b's monomial when that letter is taken off.
    :func:`.algebra.multiplicative` peels m's first letter, so a morphism
    built on it is *defined* on m as image(a)·image(b)."""
    if len(ab.terms) != 1:
        return False
    (((m,), c),) = ab.terms.items()
    return c == alg.field.one and alg.first_letter(m) == a and alg.shift(m, a, -1) == alg.shift(alg.unit_mono, b)


def homomorphism_check(p: HopfPresentation):
    """Delta(X_a X_b) == Delta(X_a) Delta(X_b) for each pair of letters
    whose product a rewrite rule touches.

    Delta extends the letters' images by :func:`.algebra.multiplicative`,
    peeling the first letter, so on a pair whose product is the normal word
    a·b itself (``_defines``) it *is* Delta(X_a) Delta(X_b): the difference
    is zero whatever the images are, and the pair is skipped.  The pairs
    left are those a rule reorders or cancels (E·E⁻¹ = 1 in the coordinate
    rings), and a map multiplicative on normal words is an algebra map
    exactly when it respects each rule (Bergman, "The diamond lemma for ring
    theory", Adv. Math. 29, 1978).  Residuals keep the pairs' order.
    """
    alg, index = p.alg, p.alg.letter_names.index
    products = (
        (a, ta, b, tb, alg.coord(a) * alg.coord(b)) for a, ta in p.images.items() for b, tb in p.images.items()
    )
    return held(
        (f"{a}*{b}", p.delta(ab) - ta * tb)
        for a, ta, b, tb, ab in products
        if not _defines(alg, index(a), index(b), ab)
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
    """m(gamma (x) id)Delta(X) = eps(X) 1 = m(id (x) gamma)Delta(X) per letter.

    A presentation with no antipode (the ``prop1`` coproducts) has nothing
    to check: ``ValueError``."""
    if p.antipode_mono is None:
        raise ValueError(f"{p.key} has no antipode: its antipode check is undefined")
    sides = (("left", [p.antipode_mono, None]), ("right", [None, p.antipode_mono]))
    return held(
        (f"gamma-{side} {name}", t.fold_slots(maps=maps) - p.alg.one().scale(p.counit[name]))
        for name, t in p.images.items()
        for side, maps in sides
    )


def center_check(p: HopfPresentation):
    """The central element commutes with every generator; its order-0 part
    is the classical invariant 2AM - Ap*Am - Am*Ap."""
    expected = parse_element(p.alg, "2*A*M - Ap*Am - Am*Ap").h_part(0)
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
