"""The oscillator group: coordinates, group law, invariant fields, and the
Poisson-Lie (Sklyanin) brackets induced by each skew r-matrix.

The coordinate functions are theta, a_plus, a_minus, m and the group-like
exponential E = e^theta with its inverse.  They are the six letters of
:class:`FunAlgebra`: E and Einv step one slot by +1 and -1, so a monomial is
``(t, k, p, q, s)`` standing for ``theta^t * E^k * a_plus^p * a_minus^q *
m^s`` with ``k`` any integer, and E*Einv = 1 eagerly.  theta itself is kept
as a distinguished polynomial coordinate that is never exponentiated;
d/dtheta acts on both theta-powers and E-powers.  The quantized coordinate
rings of ``funalg`` add swap rules to this table; with none, it is the
commutative coordinate ring.  A :class:`GroupRing` is that ring on
``sites`` copies of the group, and a function on them is an
arity-``sites`` :class:`.algebra.TensorElement` over it: the doubled ring
serves the multiplicativity (Poisson map) check and the group-law pullback,
the triple ring group-law associativity.

A generic group element, as a 3x3 matrix:

        [ 1   a_minus*E   m + a_minus*a_plus ]
    T = [ 0   E           a_plus             ]
        [ 0   0           1                  ]

and the matrix product T(left)*T(right) is the group law (``group_matrix``
and ``NumericElement.matrix`` return :class:`.algebra.ScalarMatrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .algebra import GEN_NAMES, Algebra, ScalarMatrix, TensorElement, _acc, held, linear, multiplicative, signed_sum
from .bialgebra import WEDGE_SLOTS, NotCoboundary, RMatrixSkew, mcybe_check
from .coeffs import CoefficientField
from .expr import evaluate as expr_evaluate, parse_element

COORDS = ("theta", "E", "a_plus", "a_minus", "m")
# Word letters; E and its inverse are distinct letters sharing the E slot.
LETTER_NAMES = ("theta", "E", "Einv", "a_plus", "a_minus", "m")
FUN_UNIT = (0, 0, 0, 0, 0)
# Derivation targets, in component order for vector fields.
DERIV_VARS = ("theta", "a_plus", "a_minus", "m")


class FunAlgebra(Algebra):
    """Coordinate ring presented by adjacent-swap rules over six letters.

    The rules map ``(hi_letter, lo_letter)`` to a normal-form tail dict, so
    ``X_hi * X_lo = X_lo * X_hi + tail``; absent pairs commute.  Every tail
    term must carry the marker, which makes the classical limit the
    commutative ring and (tails being polynomial) keeps products finite even
    without a truncation order.
    """

    names = COORDS
    letter_names = LETTER_NAMES
    unit_mono = FUN_UNIT
    letters = ((0, 1), (1, 1), (1, -1), (2, 1), (3, 1), (4, 1))

    # Bound here as well so that per-class tracing (perfbench/spans.py,
    # which patches through each class's own __dict__) sees the coordinate
    # rings' products apart from the enveloping algebras'.
    mul_mono = Algebra.mul_mono

    def _check_tail(self, pair, mono, c):
        if c.marker_degree < 1:
            hi, lo = (LETTER_NAMES[g] for g in pair)
            raise ValueError(
                f"rule ({hi},{lo}) has an unmarked tail; "
                "the classical limit would not be commutative"
            )


class GroupRing(FunAlgebra):
    """Commutative coordinate ring of ``sites`` copies of the group: the
    six-letter table with no swap rule.  Its functions are arity-``sites``
    tensors, one monomial per site, so ``zero``, ``one``, ``coord`` and
    ``element`` return arity-``sites`` :class:`.algebra.TensorElement`."""

    def __init__(self, field: CoefficientField, sites: int = 1):
        super().__init__(field, {}, label=f"C[G^{sites}]")
        self.sites = sites

    def coord(self, name: str, site: int = 0) -> TensorElement:
        key = [FUN_UNIT] * self.sites
        key[site] = self.shift(FUN_UNIT, LETTER_NAMES.index(name))
        return TensorElement(self, self.sites, {tuple(key): self.field.one})


def derive(f: TensorElement, var: str, site: int) -> TensorElement:
    """Partial derivative of a group function in one site's coordinate
    ``var``; d/dtheta also differentiates E-powers (dE/dtheta = E)."""
    slot = COORDS.index(var)
    out: dict = {}
    for key, c in f.terms.items():
        sk = key[site]
        if sk[slot]:
            new = sk[:slot] + (sk[slot] - 1,) + sk[slot + 1 :]
            _acc(out, key[:site] + (new,) + key[site + 1 :], c * sk[slot])
        if var == "theta" and sk[1]:
            _acc(out, key, c * sk[1])
    return f._like(out)


# -- group law -----------------------------------------------------------


def site_coords(ring: GroupRing, site: int) -> dict:
    return {name: ring.coord(name, site) for name in LETTER_NAMES}


def group_compose(left: dict, right: dict) -> dict:
    """Coordinates of the product element; ``left`` is the left factor.

    Both arguments are coordinate dicts (letter name -> function) over a
    common ring, e.g. two sites of a doubled ring.
    """
    return {
        "theta": left["theta"] + right["theta"],
        "E": left["E"] * right["E"],
        "Einv": left["Einv"] * right["Einv"],
        "a_plus": left["a_plus"] + left["E"] * right["a_plus"],
        "a_minus": left["a_minus"] + left["Einv"] * right["a_minus"],
        "m": left["m"] + right["m"] - left["Einv"] * left["a_plus"] * right["a_minus"],
    }


# The entries of T (module docstring) by (row, column); the other three are 0.
T_ENTRIES = {
    (0, 0): "1",
    (0, 1): "a_minus*E",
    (0, 2): "m + a_minus*a_plus",
    (1, 1): "E",
    (1, 2): "a_plus",
    (2, 2): "1",
}


def t_matrix(env: dict, number) -> ScalarMatrix:
    """T as a matrix, its entries read by ``expr.evaluate`` with the
    coordinates bound by ``env`` and integers lifted by ``number``, in any
    ring over a coefficient field: group functions, coefficients, the
    quantized coordinate rings (the products keep the written order) or
    free words."""
    entries = {pos: expr_evaluate(text, env, number) for pos, text in T_ENTRIES.items()}
    return ScalarMatrix(number(1).field, 3, entries)


def group_matrix(coords: dict) -> ScalarMatrix:
    """The 3x3 matrix of a group element with the given coordinates."""
    one = coords["E"] * coords["Einv"]  # the ring unit, whatever the ring
    return t_matrix(coords, one.scale)


class NumericElement(NamedTuple):
    """A group element with rational coordinates (E held directly)."""

    E: Fraction
    a_plus: Fraction
    a_minus: Fraction
    m: Fraction

    @classmethod
    def identity(cls):
        return cls(Fraction(1), Fraction(0), Fraction(0), Fraction(0))

    def compose(self, right: "NumericElement") -> "NumericElement":
        return NumericElement(
            E=self.E * right.E,
            a_plus=self.a_plus + self.E * right.a_plus,
            a_minus=self.a_minus + right.a_minus / self.E,
            m=self.m + right.m - self.a_plus * right.a_minus / self.E,
        )

    def matrix(self) -> ScalarMatrix:
        """T over the rationals (the parameter-free coefficient field)."""
        field = CoefficientField.get()
        return t_matrix({k: field.rational(v) for k, v in self._asdict().items()}, field.rational)


# -- invariant vector fields ----------------------------------------------


@dataclass(frozen=True)
class VectorField:
    """First-order differential operator on one site of a group ring."""

    ring: GroupRing
    site: int
    comps: tuple  # coefficients of d/dtheta, d/da_plus, d/da_minus, d/dm

    def __call__(self, f: TensorElement) -> TensorElement:
        total = self.ring.zero()
        for comp, var in zip(self.comps, DERIV_VARS):
            if not comp.is_zero:
                total = total + comp * derive(f, var, self.site)
        return total

    def commutator(self, other: "VectorField") -> "VectorField":
        comps = tuple(
            self(yc) - other(xc) for xc, yc in zip(self.comps, other.comps)
        )
        return VectorField(self.ring, self.site, comps)

    def __eq__(self, other):
        return (
            isinstance(other, VectorField)
            and self.site == other.site
            and all(a == b for a, b in zip(self.comps, other.comps))
        )

    def __neg__(self):
        return VectorField(self.ring, self.site, tuple(-c for c in self.comps))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)


def left_fields(ring: GroupRing, site: int) -> dict:
    """Left-invariant vector fields, indexed by generator label."""
    E = ring.coord("E", site)
    Einv = ring.coord("Einv", site)
    ap = ring.coord("a_plus", site)
    one, zero = ring.one(), ring.zero()
    return {
        "A": VectorField(ring, site, (one, zero, zero, zero)),
        "Ap": VectorField(ring, site, (zero, E, zero, zero)),
        "Am": VectorField(ring, site, (zero, zero, Einv, -(ap * Einv))),
        "M": VectorField(ring, site, (zero, zero, zero, one)),
    }


def right_fields(ring: GroupRing, site: int) -> dict:
    """Right-invariant vector fields, indexed by generator label."""
    ap = ring.coord("a_plus", site)
    am = ring.coord("a_minus", site)
    one, zero = ring.one(), ring.zero()
    return {
        "A": VectorField(ring, site, (one, ap, -am, zero)),
        "Ap": VectorField(ring, site, (zero, one, zero, -am)),
        "Am": VectorField(ring, site, (zero, zero, one, zero)),
        "M": VectorField(ring, site, (zero, zero, zero, one)),
    }


# -- the Sklyanin bracket --------------------------------------------------


def sklyanin_bracket(r: RMatrixSkew, f: TensorElement, g: TensorElement) -> TensorElement:
    """{f, g} = sum r^{ab} (X^L_a f X^L_b g - X^R_a f X^R_b g), summed over sites."""
    ring = f.alg
    if g.alg is not ring:
        raise ValueError("bracket arguments from different rings")
    total = ring.zero()
    for site in range(ring.sites):
        L = left_fields(ring, site)
        R = right_fields(ring, site)
        for c, (i, j) in zip(r.c, WEDGE_SLOTS):
            if c.is_zero:
                continue
            a, b = GEN_NAMES[i], GEN_NAMES[j]
            piece = (
                L[a](f) * L[b](g)
                - L[b](f) * L[a](g)
                - R[a](f) * R[b](g)
                + R[b](f) * R[a](g)
            )
            total = total + piece.scale(c)
    return total


def jacobi_check(r: RMatrixSkew):
    """Jacobi identity on all coordinate triples."""
    ring = GroupRing(r.field)
    coords = {name: ring.coord(name) for name in COORDS}
    pairs = []
    for na, nb, nc in combinations(COORDS, 3):
        fa, fb, fc = coords[na], coords[nb], coords[nc]
        total = (
            sklyanin_bracket(r, fa, sklyanin_bracket(r, fb, fc))
            + sklyanin_bracket(r, fb, sklyanin_bracket(r, fc, fa))
            + sklyanin_bracket(r, fc, sklyanin_bracket(r, fa, fb))
        )
        pairs.append(((na, nb, nc), total))
    return held(pairs)


def multiplicativity_check(r: RMatrixSkew):
    """Is the group law a Poisson map for the Sklyanin structure of r?

    Compares Delta({f,g}) with {Delta f, Delta g} in the doubled ring, where
    Delta pulls coordinates back through the group law and the doubled
    bracket is the site-wise sum.
    """
    ok, residuals = mcybe_check(r)
    if not ok:
        raise NotCoboundary(residuals)
    single = GroupRing(r.field, 1)
    double = GroupRing(r.field, 2)
    images = group_compose(site_coords(double, 0), site_coords(double, 1))
    pullback = multiplicative(single, lambda g: images[LETTER_NAMES[g]], double.one(), single.first_letter)
    pairs = []
    for na, nb in combinations(COORDS, 2):
        fa, fb = single.coord(na), single.coord(nb)
        lhs = linear(sklyanin_bracket(r, fa, fb), lambda key: pullback(key[0]), double.zero())
        pairs.append(((na, nb), lhs - sklyanin_bracket(r, images[na], images[nb])))
    return held(pairs)


# -- Table II --------------------------------------------------------------

TABLE_II_PAIRS = (
    ("theta", "a_plus"),
    ("theta", "a_minus"),
    ("a_minus", "a_plus"),
    ("theta", "m"),
    ("a_plus", "m"),
    ("a_minus", "m"),
)
EXTRA_PAIRS = (("theta", "E"), ("E", "a_plus"), ("E", "a_minus"), ("E", "m"))


@dataclass(frozen=True)
class TableIIRow:
    key: str
    computed: dict  # pair -> one-site group function, over all ten pairs
    table: dict  # pair -> one-site group function, the six transcribed cells
    extras: tuple  # pairs computed but not present in the table
    match: bool


def table_II() -> tuple:
    """Recompute every family's Poisson brackets and diff against the fixture."""
    from . import fixtures
    from .bialgebra import FAMILIES

    data = fixtures.load("table_II")
    rows = []
    for key, fam in FAMILIES.items():
        ring = GroupRing(fam.field())
        rr = fam.r(marked=False)
        computed = {}
        for pair in TABLE_II_PAIRS + EXTRA_PAIRS:
            fa, fb = ring.coord(pair[0]), ring.coord(pair[1])
            computed[pair] = sklyanin_bracket(rr, fa, fb)
        table = {
            tuple(pair.split(",")): parse_element(ring, cell)
            for pair, cell in data[key].items()
        }
        match = all(computed[pair] == table[pair] for pair in table)
        rows.append(
            TableIIRow(key=key, computed=computed, table=table, extras=EXTRA_PAIRS, match=match)
        )
    return tuple(rows)


# -- rendering -------------------------------------------------------------


# Print order of a site monomial: the power of E first, then theta, a_plus,
# a_minus, m (indices into COORDS and into a site key).
_PRINT_ORDER = (1, 0, 2, 3, 4)


def _site_powers(sk) -> list:
    """The ``(coordinate, power)`` pairs of a site key with a nonzero power,
    in print order; each output format names and raises them its own way."""
    return [(COORDS[i], sk[i]) for i in _PRINT_ORDER if sk[i]]


def _site_mono_str(sk):
    bits = []
    for name, n in _site_powers(sk):
        if name == "E" and n < 0:
            name, n = "Einv", -n
        bits.append(name + ("" if n == 1 else f"^{n}"))
    return "*".join(bits)


def group_terms(f: TensorElement) -> list:
    """The term keys of ``f`` in print order: by total degree, then by key."""
    return sorted(f.terms, key=lambda k: (sum(sum(map(abs, sk)) for sk in k), k))


def group_str(f: TensorElement) -> str:
    """A one-site group function as Table II prints it: Einv for negative
    powers of E, and in each monomial the power of E first."""
    if f.alg.sites != 1:
        raise ValueError("group_str prints one-site functions")
    return signed_sum((f.terms[key], _site_mono_str(key[0])) for key in group_terms(f))
