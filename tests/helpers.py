"""Helpers that only the tests use: reference tables, closed forms and exact
oracles the commands never call, kept out of the package.

Importing this module also gives :class:`oscquant.poisson.VectorField` the
Lie bracket of fields (``commutator``), negation and ``is_zero``, which the
tests of the invariant fields call as methods.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from oscquant.algebra import (
    A,
    AM,
    AP,
    GEN_NAMES,
    M,
    Algebra,
    ScalarMatrix,
    TensorElement,
    exp_series,
    held,
    linear,
    oscillator_tails,
    tensor,
)
from oscquant.bialgebra import RMatrixSkew
from oscquant.coeffs import Coefficient, CoefficientField, _lc
from oscquant.hopf import HopfPresentation
from oscquant.lm import LMSpec
from oscquant.poisson import VectorField, t_matrix
from oscquant.rmatrix import _gen_matrices, rep3

# -- algebra and bialgebra ------------------------------------------------


def lie_brackets(field: CoefficientField):
    """Full antisymmetric bracket table [X_i, X_j] as term dicts."""
    table = {}
    tails = oscillator_tails(field)
    for i in range(4):
        for j in range(4):
            if i == j:
                table[(i, j)] = {}
            elif i > j:
                table[(i, j)] = dict(tails.get((i, j), {}))
            else:
                table[(i, j)] = {m: -c for m, c in tails.get((j, i), {}).items()}
    return table


def wedge3(x: TensorElement, y: TensorElement, z: TensorElement) -> TensorElement:
    """Full six-term antisymmetrization of x(x)y(x)z."""
    return (
        tensor(x, y, z)
        + tensor(y, z, x)
        + tensor(z, x, y)
        - tensor(x, z, y)
        - tensor(y, x, z)
        - tensor(z, y, x)
    )


def map_coeffs(r: RMatrixSkew, fn) -> RMatrixSkew:
    """r with each coefficient sent through ``fn``."""
    return RMatrixSkew(r.field, tuple(fn(c) for c in r.c))


# -- coefficients ---------------------------------------------------------


def subs(a: Coefficient, mapping: dict[str, "Coefficient | int | Fraction"]) -> Coefficient:
    """Substitute parameters by coefficients (rational functions allowed)."""
    field = a.field
    targets = {}
    for name, val in mapping.items():
        if name not in field._index:
            raise KeyError(f"unknown parameter {name!r}")
        targets[name] = field.coerce(val)
    if not targets:
        return a

    gen_vals = [field.hbar] + [
        targets.get(name, field.param(name)) for name in field.params
    ]

    def lift(poly, q):
        total = field.zero
        for mono, c in poly.items():
            term = field.rational(c, q)
            for gen_val, e in zip(gen_vals, mono):
                if e:
                    term = term * gen_val**e
            total = total + term
        return total

    # Both over the denominator's leading coefficient: monic, as printed.
    lc = _lc(a.den)
    return lift(a.num, a.q * lc) / lift(a.den, lc)


# -- Hopf presentations and coproducts -----------------------------------


def antipode_of(p: HopfPresentation, e: TensorElement) -> TensorElement:
    """The antipode, extended anti-multiplicatively over normal monomials."""
    return linear(e, lambda k: p.antipode_mono(k[0]), p.alg.zero())


def all_pairs_homomorphism_check(p: HopfPresentation):
    """Delta(X_a X_b) - Delta(X_a) Delta(X_b) over all ordered pairs of
    letters, the normal words a·b included: the oracle of
    ``hopf.homomorphism_check``, which skips the pairs whose difference is
    zero by construction."""
    return held(
        (f"{a}*{b}", p.delta(p.alg.coord(a) * p.alg.coord(b)) - ta * tb)
        for a, ta in p.images.items()
        for b, tb in p.images.items()
    )


def fold_per_term(t: TensorElement, maps) -> TensorElement:
    """``TensorElement.fold_slots`` term by term: each key's slots sent
    through their maps and multiplied from the unit, the oracle of the
    grouped fold."""
    alg = t.alg

    def image(k):
        facs = (alg.monomial(m) if maps[s] is None else maps[s](m) for s, m in enumerate(k))
        return math.prod(facs, start=alg.one())

    return linear(t, image, alg.zero())


def trivial_spec() -> LMSpec:
    """All matrices zero: every generator comes out primitive."""
    field = CoefficientField.get()
    z = field.zero
    return LMSpec(field, (M,), (A, AP, AM), (((z, z, z), (z, z, z), (z, z, z)),), key="trivial")


def iplus_nonstandard_closed(alg: Algebra) -> ScalarMatrix:
    """The closed form of exp(N) for I+ non-standard.

    N = (ap*Ap + x*M)*1 + B with B strictly nilpotent (B^2 = 0), so
    exp(N) = e^{ap*Ap + x*M} * (1 + B); entries marker-graded like
    ``family_spec``.
    """
    field = alg.field
    ap, x = field.marked_param("ap"), field.marked_param("x")
    gAp, gM = alg.gen(AP), alg.gen(M)
    scalar = exp_series(gAp.scale(ap) + gM.scale(x))
    one = alg.one()
    factor = (
        (one - gM.scale(x), gM.scale(-(x * x / ap))),
        (gM.scale(ap), one + gM.scale(x)),
    )
    return ScalarMatrix.from_rows(field, [[scalar * e for e in row] for row in factor])


def rep3_check():
    """D is a homomorphism: D of each normal-ordered product equals the
    matrix product, for all 16 generator pairs (exact)."""
    field = CoefficientField.get("z")
    alg = Algebra.classical(field)
    gens = _gen_matrices(field)
    return held(
        (f"{GEN_NAMES[i]}*{GEN_NAMES[j]}", rep3(alg.gen(i) * alg.gen(j)) - gens[i] * gens[j])
        for i in range(4)
        for j in range(4)
    )


# -- the oscillator group -------------------------------------------------


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


def commutator(self: VectorField, other: VectorField) -> VectorField:
    comps = tuple(
        self(yc) - other(xc) for xc, yc in zip(self.comps, other.comps)
    )
    return VectorField(self.ring, self.site, comps)


def neg(self: VectorField) -> VectorField:
    return VectorField(self.ring, self.site, tuple(-c for c in self.comps))


def is_zero(self: VectorField) -> bool:
    return all(c.is_zero for c in self.comps)


VectorField.commutator = commutator
VectorField.__neg__ = neg
VectorField.is_zero = property(is_zero)
