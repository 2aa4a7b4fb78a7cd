"""The oscillator group: coordinates, group law, invariant fields, and the
Poisson-Lie (Sklyanin) brackets induced by each skew r-matrix.

Coordinates on the group are theta, a_plus, a_minus, m, with E = e^theta and
its inverse adjoined as honest ring generators (E*Einv = 1 eagerly).  theta
itself is kept as a distinguished polynomial coordinate that is never
exponentiated; d/dtheta acts on both theta-powers and E-powers.  A
:class:`GroupRing` can carry several independent coordinate copies ("sites"),
which is how the doubled ring for the multiplicativity (Poisson map) check
and the triple ring for group-law associativity are built.

A generic group element, as a 3x3 matrix:

        [ 1   a_minus*E   m + a_minus*a_plus ]
    T = [ 0   E           a_plus             ]
        [ 0   0           1                  ]

and matrix multiplication T(left)*T(right) is the group law.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .algebra import _acc, _Terms
from .bialgebra import WEDGE_SLOTS, NotCoboundary, RMatrixSkew, mcybe_check
from .coeffs import Coefficient, CoefficientField
from .expr import evaluate as expr_evaluate

COORDS = ("theta", "E", "a_plus", "a_minus", "m")
# Per-site monomial key: (theta_power, E_power, a_plus_power, a_minus_power, m_power)
# with E_power any integer (Laurent) and the rest nonnegative.
_UNIT_KEY = (0, 0, 0, 0, 0)
_COORD_KEYS = {
    "theta": (1, 0, 0, 0, 0),
    "E": (0, 1, 0, 0, 0),
    "Einv": (0, -1, 0, 0, 0),
    "a_plus": (0, 0, 1, 0, 0),
    "a_minus": (0, 0, 0, 1, 0),
    "m": (0, 0, 0, 0, 1),
}
# Derivation targets, in component order for vector fields.
DERIV_VARS = ("theta", "a_plus", "a_minus", "m")


class GroupRing:
    """Commutative coordinate ring of one or more copies of the group."""

    order = None  # functions on the group are exact

    def __init__(self, field: CoefficientField, sites: int = 1):
        self.field = field
        self.sites = sites
        self._unit_key = (_UNIT_KEY,) * sites

    def zero(self) -> "GroupFunction":
        return GroupFunction(self, {})

    def one(self) -> "GroupFunction":
        return GroupFunction(self, {self._unit_key: self.field.one})

    def coord(self, name: str, site: int = 0) -> "GroupFunction":
        key = list(self._unit_key)
        key[site] = _COORD_KEYS[name]
        return GroupFunction(self, {tuple(key): self.field.one})

    def element(self, terms) -> "GroupFunction":
        return GroupFunction(self, {k: c for k, c in terms.items() if not c.is_zero})

    def from_expr(self, text: str, site: int = 0) -> "GroupFunction":
        """Parse an expression over the coordinates and the field parameters."""
        env = {name: self.coord(name, site) for name in _COORD_KEYS}
        env.update({p: self.field.param(p) for p in self.field.params})
        val = expr_evaluate(text, env, self.field.rational)
        if isinstance(val, Coefficient):
            return self.one().scale(val)
        return val


class GroupFunction(_Terms):
    """A finite sum of coordinate monomials with exact coefficients."""

    __slots__ = ()

    ring = _Terms.parent

    def __repr__(self):
        return group_str(self) or "0"

    def _unit(self):
        return self.ring.one()

    @staticmethod
    def _key_product(k1, k2):
        return tuple(tuple(a + b for a, b in zip(s1, s2)) for s1, s2 in zip(k1, k2))

    def derive(self, var: str, site: int = 0) -> "GroupFunction":
        """Partial derivative; d/dtheta also differentiates E-powers."""
        vi = {"theta": 0, "a_plus": 2, "a_minus": 3, "m": 4}[var]
        out: dict = {}
        for key, c in self.terms.items():
            sk = key[site]
            if var == "theta":
                # theta-power rule ...
                if sk[0]:
                    new = sk[:0] + (sk[0] - 1,) + sk[1:]
                    _acc(out, key[:site] + (new,) + key[site + 1 :], c * sk[0])
                # ... plus the E-power chain rule (dE/dtheta = E).
                if sk[1]:
                    _acc(out, key, c * sk[1])
            else:
                if sk[vi]:
                    new = sk[:vi] + (sk[vi] - 1,) + sk[vi + 1 :]
                    _acc(out, key[:site] + (new,) + key[site + 1 :], c * sk[vi])
        return GroupFunction(self.ring, out)

    def substitute(self, images: dict, target_ring: GroupRing) -> "GroupFunction":
        """Ring map determined by coordinate images (site 0 only).

        ``images`` maps each of theta, E, Einv, a_plus, a_minus, m to a
        function in the target ring; E and Einv images must be the two
        halves of a unit pair.
        """
        if self.ring.sites != 1:
            raise ValueError("substitute expects a single-site function")
        total = target_ring.zero()
        for key, c in self.terms.items():
            t, k, p, q, s = key[0]
            piece = target_ring.one().scale(c)
            for power, name in ((t, "theta"), (p, "a_plus"), (q, "a_minus"), (s, "m")):
                for _ in range(power):
                    piece = piece * images[name]
            ek = images["E"] if k > 0 else images["Einv"]
            for _ in range(abs(k)):
                piece = piece * ek
            total = total + piece
        return total


# -- group law -----------------------------------------------------------


def site_coords(ring: GroupRing, site: int) -> dict:
    return {name: ring.coord(name, site) for name in _COORD_KEYS}


def group_compose(left: dict, right: dict) -> dict:
    """Coordinates of the product element; ``left`` is the left factor.

    Both arguments are coordinate dicts (name -> GroupFunction) over a
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


def group_matrix(coords: dict):
    """The 3x3 matrix of a group element with the given coordinates."""
    one = coords["E"] * coords["Einv"]  # the ring unit, whatever the ring
    zero = one - one
    return [
        [one, coords["a_minus"] * coords["E"], coords["m"] + coords["a_minus"] * coords["a_plus"]],
        [zero, coords["E"], coords["a_plus"]],
        [zero, zero, one],
    ]


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

    def matrix(self):
        one, zero = Fraction(1), Fraction(0)
        return [
            [one, self.a_minus * self.E, self.m + self.a_minus * self.a_plus],
            [zero, self.E, self.a_plus],
            [zero, zero, one],
        ]


# -- invariant vector fields ----------------------------------------------


@dataclass(frozen=True)
class VectorField:
    """First-order differential operator on one site of a group ring."""

    ring: GroupRing
    site: int
    comps: tuple  # coefficients of d/dtheta, d/da_plus, d/da_minus, d/dm

    def __call__(self, f: GroupFunction) -> GroupFunction:
        total = self.ring.zero()
        for comp, var in zip(self.comps, DERIV_VARS):
            if not comp.is_zero:
                total = total + comp * f.derive(var, self.site)
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

    def is_zero(self):
        return all(c.is_zero for c in self.comps)


def left_fields(ring: GroupRing, site: int = 0) -> dict:
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


def right_fields(ring: GroupRing, site: int = 0) -> dict:
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

_GEN_LABELS = ("A", "Ap", "Am", "M")


def sklyanin_bracket(r: RMatrixSkew, f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """{f, g} = sum r^{ab} (X^L_a f X^L_b g - X^R_a f X^R_b g), summed over sites."""
    ring = f.ring
    if g.ring is not ring:
        raise ValueError("bracket arguments from different rings")
    total = ring.zero()
    for site in range(ring.sites):
        L = left_fields(ring, site)
        R = right_fields(ring, site)
        for c, (i, j) in zip(r.c, WEDGE_SLOTS):
            if c.is_zero:
                continue
            a, b = _GEN_LABELS[i], _GEN_LABELS[j]
            piece = (
                L[a](f) * L[b](g)
                - L[b](f) * L[a](g)
                - R[a](f) * R[b](g)
                + R[b](f) * R[a](g)
            )
            total = total + piece.scale(c)
    return total


def jacobi_check(r: RMatrixSkew, ring: GroupRing | None = None):
    """Jacobi identity on all coordinate triples."""
    ring = ring or GroupRing(r.field)
    coords = {name: ring.coord(name) for name in COORDS}
    residuals = []
    for na, nb, nc in combinations(COORDS, 3):
        fa, fb, fc = coords[na], coords[nb], coords[nc]
        total = (
            sklyanin_bracket(r, fa, sklyanin_bracket(r, fb, fc))
            + sklyanin_bracket(r, fb, sklyanin_bracket(r, fc, fa))
            + sklyanin_bracket(r, fc, sklyanin_bracket(r, fa, fb))
        )
        if not total.is_zero:
            residuals.append(((na, nb, nc), total))
    return not residuals, residuals


def multiplicativity_check(r: RMatrixSkew):
    """Is the group law a Poisson map for the Sklyanin structure of r?

    Compares Delta({f,g}) with {Delta f, Delta g} in the doubled ring, where
    Delta pulls coordinates back through the group law and the doubled
    bracket is the site-wise sum.
    """
    ok, _ = mcybe_check(r)
    if not ok:
        raise NotCoboundary(mcybe_check(r)[1])
    single = GroupRing(r.field, 1)
    double = GroupRing(r.field, 2)
    images = group_compose(site_coords(double, 0), site_coords(double, 1))
    residuals = []
    for na, nb in combinations(COORDS, 2):
        fa, fb = single.coord(na), single.coord(nb)
        lhs = sklyanin_bracket(r, fa, fb).substitute(images, double)
        rhs = sklyanin_bracket(r, images[na], images[nb])
        if lhs != rhs:
            residuals.append(((na, nb), lhs - rhs))
    return not residuals, residuals


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
    computed: dict  # pair -> GroupFunction, over all ten pairs
    table: dict  # pair -> GroupFunction, the six transcribed cells
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
            tuple(pair.split(",")): ring.from_expr(cell)
            for pair, cell in data[key].items()
        }
        match = all(computed[pair] == table[pair] for pair in table)
        rows.append(
            TableIIRow(key=key, computed=computed, table=table, extras=EXTRA_PAIRS, match=match)
        )
    return tuple(rows)


# -- rendering -------------------------------------------------------------


def _site_mono_str(sk, suffix=""):
    t, k, p, q, s = sk
    bits = []
    for power, name in ((t, "theta"), (p, "a_plus"), (q, "a_minus"), (s, "m")):
        if power == 1:
            bits.append(name + suffix)
        elif power:
            bits.append(f"{name}{suffix}^{power}")
    if k:
        name = "E" if k > 0 else "Einv"
        bits.insert(0, f"{name}{suffix}" + (f"^{abs(k)}" if abs(k) != 1 else ""))
    return "*".join(bits)


def group_str(f: GroupFunction) -> str:
    from .algebra import coeff_prefix

    bits = []
    for key in sorted(f.terms, key=lambda k: (sum(sum(abs(e) for e in sk) for sk in k), k)):
        body_parts = []
        for site, sk in enumerate(key):
            suffix = "" if f.ring.sites == 1 else f"_{site + 1}"
            part = _site_mono_str(sk, suffix)
            if part:
                body_parts.append(part)
        body = "*".join(body_parts)
        pre = coeff_prefix(f.terms[key])
        bits.append(pre + body if body else repr(f.terms[key]))
    return " + ".join(bits).replace("+ -", "- ")
