"""Coboundary Lie bialgebra structures on the oscillator algebra.

A skew r-matrix is a six-coefficient element of the wedge square,

    r = c1 A^Ap + c2 A^Am + c3 A^M + c4 Ap^Am + c5 Ap^M + c6 Am^M,

with X^Y = X(x)Y - Y(x)X.  The Schouten bracket [[r,r]] measures the failure
of the classical Yang-Baxter equation; the modified CYBE only demands that
[[r,r]] be invariant under the adjoint action, and its solutions split into
three families by which of c1, c2 can be nonzero:

    Iplus  : c1 != 0, forcing c2 = 0 and c4 = -c3
    Iminus : c2 != 0, forcing c1 = 0 and c4 = c3
    II     : c1 = c2 = 0

each in a ``standard`` ([[r,r]] != 0) and a ``nonstandard`` ([[r,r]] = 0)
flavor.  Those constraints clear every other component of [[r,r]], so the
flavor boundary is its Ap^Am^M coefficient c1*c6 + c2*c5 - c4^2, which
``classify`` reads and ``cli._generic_components`` prints.  The cocommutator of a coboundary bialgebra is
delta(X) = [X(x)1 + 1(x)X, r]; this module computes all of it from r alone
and cross-checks the published family table against the computation.

Symbolic zero-testing of free parameters is a modeling choice, not math, so
``classify`` takes the set of parameters the caller declares nonzero and
refuses mixed strata instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .algebra import (
    A,
    AM,
    AP,
    GEN_MONOS,
    GEN_NAMES,
    M,
    UNIT_MONO,
    Algebra,
    TensorElement,
    apply_slot_map,
    embed,
    held,
    mono_degree,
    signed_sum,
    tensor,
    tensor_adjoint,
)
from .coeffs import Coefficient, CoefficientField
from .expr import parse_coefficient

GEN_BY_LABEL = {name: i for i, name in enumerate(GEN_NAMES)}

# The six wedge-basis slots, in the fixed order the coefficients c1..c6 refer to.
WEDGE_SLOTS = ((A, AP), (A, AM), (A, M), (AP, AM), (AP, M), (AM, M))
SLOT_NAMES = ("c1", "c2", "c3", "c4", "c5", "c6")

# Independent three-fold wedges, index-sorted.
THREE_WEDGES = ((A, AP, AM), (A, AP, M), (A, AM, M), (AP, AM, M))


def wedge(x: TensorElement, y: TensorElement) -> TensorElement:
    """x^y = x(x)y - y(x)x (no 1/2 factor)."""
    return tensor(x, y) - tensor(y, x)


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


def wedge_name(slots) -> str:
    return "^".join(GEN_NAMES[i] for i in slots)


class NotCoboundary(Exception):
    """r fails the modified CYBE; carries the violated residual coefficients."""

    def __init__(self, residuals):
        self.residuals = residuals
        parts = ", ".join(f"{name}: {coeff!r}" for name, coeff in residuals)
        super().__init__(f"modified CYBE violated ({parts})")


class AmbiguousStratum(ValueError):
    """A free parameter's zeroness decides the class but was not declared."""


class RMatrixSkew:
    """The six-coefficient skew r-matrix, with its tensor form on demand."""

    def __init__(self, field: CoefficientField, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 6:
            raise ValueError("need exactly six coefficients c1..c6")
        self.field = field
        self.c = tuple(
            c if isinstance(c, Coefficient) else field.rational(c) for c in coeffs
        )
        self._tensor = None

    def __repr__(self):
        return signed_sum(
            (c, wedge_name(slots)) for c, slots in zip(self.c, WEDGE_SLOTS) if not c.is_zero
        )

    def __eq__(self, other):
        return isinstance(other, RMatrixSkew) and self.field is other.field and self.c == other.c

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.c)

    def algebra(self) -> Algebra:
        return Algebra.classical(self.field)

    def as_tensor(self) -> TensorElement:
        if self._tensor is None:
            alg = self.algebra()
            t = alg.tensor_zero(2)
            for c, (i, j) in zip(self.c, WEDGE_SLOTS):
                if not c.is_zero:
                    t = t + wedge(alg.gen(i), alg.gen(j)).scale(c)
            self._tensor = t
        return self._tensor

    def map_coeffs(self, fn) -> "RMatrixSkew":
        return RMatrixSkew(self.field, tuple(fn(c) for c in self.c))


def generic_r() -> RMatrixSkew:
    """The six-parameter ansatz with free symbolic coefficients c1..c6."""
    field = CoefficientField.get(*SLOT_NAMES)
    return RMatrixSkew(field, tuple(field.param(n) for n in SLOT_NAMES))


def schouten(r: RMatrixSkew) -> TensorElement:
    """[[r,r]] = [r12,r13] + [r12,r23] + [r13,r23], normal-ordered."""
    t = r.as_tensor()
    r12 = embed(t, (0, 1), 3)
    r13 = embed(t, (0, 2), 3)
    r23 = embed(t, (1, 2), 3)
    out = r12.commutator(r13) + r12.commutator(r23) + r13.commutator(r23)
    if out.max_slot_degree() > 1:
        raise AssertionError("Schouten bracket left the Lie algebra")
    return out


def three_wedge_coefficients(t: TensorElement) -> dict:
    """Coefficients of a totally antisymmetric arity-3 tensor on the wedge basis."""
    out = {}
    for slots in THREE_WEDGES:
        key = tuple(GEN_MONOS[i] for i in slots)
        c = t.terms.get(key, t.alg.field.zero)
        if not c.is_zero:
            out[slots] = c
    return out


def mcybe_check(r: RMatrixSkew, br: TensorElement | None = None):
    """(ok, residuals): ad-invariance of [[r,r]] under all four generators.

    Residuals are the non-invariant wedge components of [[r,r]] (everything
    except the Ap^Am^M direction), named by their wedge slot.  ``br`` is
    [[r,r]] when the caller has already built it.
    """
    br = schouten(r) if br is None else br
    alg = r.algebra()
    invariant = all(tensor_adjoint(alg.gen(i), br).is_zero for i in range(4))
    residuals = [
        (wedge_name(slots), c)
        for slots, c in three_wedge_coefficients(br).items()
        if slots != (AP, AM, M)
    ]
    # Cross-validation: the component test and the adjoint test must agree.
    if invariant != (not residuals):
        raise AssertionError("ad-invariance test disagrees with wedge-component test")
    return invariant, residuals


def _zeroness(c: Coefficient, nonzero: frozenset) -> str:
    """'zero' | 'nonzero' | 'unknown' for a coefficient, given declarations.

    A coefficient counts as nonzero when it is a single monomial in declared-
    nonzero parameters (times a rational).  Anything else with free symbols
    is 'unknown': its vanishing is a stratum choice the caller must make.
    """
    if c.is_zero:
        return "zero"
    if len(c.num) != 1:
        return "unknown"
    (mono,) = c.num
    names = ("h",) + c.field.params
    for name, e in zip(names, mono):
        if e and name != "h" and name not in nonzero:
            return "unknown"
    return "nonzero"


@dataclass(frozen=True)
class Classification:
    family: str  # Iplus | Iminus | II
    flavor: str  # standard | nonstandard
    trivial: bool  # r == 0 (all cocommutators vanish)
    schouten_coeff: Coefficient  # coefficient of Ap^Am^M in [[r,r]]


def classify(r: RMatrixSkew, nonzero=()) -> Classification:
    """Place an mCYBE solution into its family and flavor.

    ``nonzero`` declares which free parameters are nonzero.  Raises
    NotCoboundary if the mCYBE fails, AmbiguousStratum if the deciding
    coefficients have undeclared free parameters.
    """
    nonzero = frozenset(nonzero)
    br = schouten(r)
    ok, residuals = mcybe_check(r, br)
    if not ok:
        raise NotCoboundary(residuals)
    c1, c2 = r.c[0], r.c[1]
    z1, z2 = _zeroness(c1, nonzero), _zeroness(c2, nonzero)
    if "unknown" in (z1, z2):
        which = "c1" if z1 == "unknown" else "c2"
        raise AmbiguousStratum(
            f"zeroness of {which} undecided; declare its parameters nonzero or set them to zero"
        )
    if z1 == "nonzero":
        family = "Iplus"
    elif z2 == "nonzero":
        family = "Iminus"
    else:
        family = "II"
    wedges = three_wedge_coefficients(br)
    sc = wedges.get((AP, AM, M), r.field.zero)
    flavor = "nonstandard" if not wedges else "standard"
    return Classification(family=family, flavor=flavor, trivial=r.is_zero, schouten_coeff=sc)


def cocommutator(r: RMatrixSkew, gen: int) -> TensorElement:
    """delta(X) = [X(x)1 + 1(x)X, r]."""
    alg = r.algebra()
    return tensor_adjoint(alg.gen(gen), r.as_tensor())


def cocommutator_map(r: RMatrixSkew) -> dict:
    return {GEN_NAMES[i]: cocommutator(r, i) for i in range(4)}


def _delta_of_mono(r: RMatrixSkew):
    """The cocommutator as a map on degree-<=1 monomials (0 on the unit)."""
    alg = r.algebra()

    def delta(mono):
        if mono == UNIT_MONO:
            return alg.tensor_zero(2)
        if mono_degree(mono) != 1:
            raise ValueError(f"cocommutator of non-Lie monomial {mono}")
        return cocommutator(r, mono.index(1))

    return delta


def _delta_of_element(r: RMatrixSkew, e: TensorElement) -> TensorElement:
    return apply_slot_map(e, 0, _delta_of_mono(r))


def cocycle_check(r: RMatrixSkew):
    """1-cocycle law: delta([X,Y]) = ad_X delta(Y) - ad_Y delta(X), all pairs."""
    alg = r.algebra()
    pairs = []
    for i in range(4):
        for j in range(i + 1, 4):
            x, y = alg.gen(i), alg.gen(j)
            lhs = _delta_of_element(r, x.commutator(y))
            rhs = tensor_adjoint(x, _delta_of_element(r, y)) - tensor_adjoint(
                y, _delta_of_element(r, x)
            )
            pairs.append((GEN_NAMES[i], GEN_NAMES[j], lhs - rhs))
    return held(pairs)


def cojacobi_check(r: RMatrixSkew):
    """co-Jacobi: (1 + cyclic + cyclic^2)(delta(x)id)delta(X) = 0 for all X."""
    delta = _delta_of_mono(r)
    pairs = []
    for i in range(4):
        d2 = apply_slot_map(cocommutator(r, i), 0, delta)
        pairs.append((GEN_NAMES[i], d2 + d2.permute((1, 2, 0)) + d2.permute((2, 0, 1))))
    return held(pairs)


def ad_invariant_check(t: TensorElement) -> bool:
    """Is [X(x)1 + 1(x)X, t] = 0 for all four generators?"""
    if t.arity != 2:
        raise ValueError("invariance check is for arity-2 tensors")
    alg = t.alg
    return all(tensor_adjoint(alg.gen(i), t).is_zero for i in range(4))


def eta_element(field: CoefficientField, b1, b2) -> TensorElement:
    """The invariant symmetric element b1(A(x)M + M(x)A - Ap(x)Am - Am(x)Ap) + b2 M(x)M."""
    alg = Algebra.classical(field)
    a, ap, am, m = alg.gens()
    sym = tensor(a, m) + tensor(m, a) - tensor(ap, am) - tensor(am, ap)
    return sym.scale(b1) + tensor(m, m).scale(b2)


def invariant_basis(field: CoefficientField):
    """All ad-invariant elements of the tensor square, solved from scratch.

    Returns a basis (list of TensorElements); the known answer is the
    two-dimensional span of eta_element's two summands.
    """
    alg = Algebra.classical(field)
    unknown_keys = [(GEN_MONOS[i], GEN_MONOS[j]) for i in range(4) for j in range(4)]
    index = {k: n for n, k in enumerate(unknown_keys)}
    rows = []
    for g in range(4):
        # Action of gen g on each basis tensor, as rows of a 16-column system.
        columns = []
        for key in unknown_keys:
            basis_tensor = TensorElement(alg, 2, {key: field.one})
            columns.append(tensor_adjoint(alg.gen(g), basis_tensor))
        result_keys = sorted({k for col in columns for k in col.terms})
        for rk in result_keys:
            rows.append([col.terms.get(rk, field.zero) for col in columns])
    basis_vectors = linalg.nullspace(rows, len(unknown_keys), field)
    out = []
    for vec in basis_vectors:
        terms = {k: vec[index[k]] for k in unknown_keys if not vec[index[k]].is_zero}
        out.append(TensorElement(alg, 2, terms))
    return out


# -- the six published families ------------------------------------------


@dataclass(frozen=True)
class Family:
    """One row family of the classification, or one deformation of it:
    parameters and r-coefficients.

    ``coeff_exprs`` maps slot names c1..c6 to expressions in the family's
    parameters; unlisted slots are zero.  ``nonzero`` lists the parameters
    declared nonzero (those appearing in denominators or deciding the
    family).
    """

    key: str
    family: str
    flavor: str
    params: tuple
    nonzero: tuple
    coeff_exprs: dict

    def field(self) -> CoefficientField:
        return CoefficientField.get(*self.params)

    def r(self, marked: bool = True) -> RMatrixSkew:
        field = self.field()
        coeffs = []
        for name in SLOT_NAMES:
            text = self.coeff_exprs.get(name)
            c = field.zero if text is None else parse_coefficient(field, text)
            coeffs.append(c.scale_params() if marked else c)
        return RMatrixSkew(field, coeffs)

    def cocommutators(self) -> dict:
        return cocommutator_map(self.r(marked=False))

    def classification(self) -> Classification:
        return classify(self.r(marked=False), nonzero=self.nonzero)


FAMILIES = {
    f.key: f
    for f in (
        Family(
            key="Iplus-standard",
            family="Iplus",
            flavor="standard",
            params=("ap", "x", "bp", "yp"),
            nonzero=("ap",),
            coeff_exprs={"c1": "ap", "c3": "x", "c4": "-x", "c5": "bp", "c6": "yp"},
        ),
        Family(
            key="Iplus-nonstandard",
            family="Iplus",
            flavor="nonstandard",
            params=("ap", "x", "bp"),
            nonzero=("ap",),
            coeff_exprs={"c1": "ap", "c3": "x", "c4": "-x", "c5": "bp", "c6": "x^2/ap"},
        ),
        Family(
            key="Iminus-standard",
            family="Iminus",
            flavor="standard",
            params=("am", "x", "bp", "yp"),
            nonzero=("am",),
            coeff_exprs={"c2": "am", "c3": "x", "c4": "x", "c5": "bp", "c6": "yp"},
        ),
        Family(
            key="Iminus-nonstandard",
            family="Iminus",
            flavor="nonstandard",
            params=("am", "x", "yp"),
            nonzero=("am",),
            coeff_exprs={"c2": "am", "c3": "x", "c4": "x", "c5": "x^2/am", "c6": "yp"},
        ),
        Family(
            key="II-standard",
            family="II",
            flavor="standard",
            params=("x", "y", "bp", "yp"),
            nonzero=("y",),
            coeff_exprs={"c3": "x", "c4": "y", "c5": "bp", "c6": "yp"},
        ),
        Family(
            key="II-nonstandard",
            family="II",
            flavor="nonstandard",
            params=("x", "bp", "yp"),
            nonzero=(),
            coeff_exprs={"c3": "x", "c5": "bp", "c6": "yp"},
        ),
    )
}


# The three families carrying a full deformation (Hopf algebra, universal
# R-matrix, quantized coordinate ring), by deformation key; ``family`` and
# ``flavor`` name the classification row each one quantizes.  The other
# three rows are coproduct-only.
DEFORMATIONS = {
    d.key: d
    for d in (
        Family("Uz", "Iplus", "nonstandard", ("z",), ("z",), {"c1": "z"}),
        Family("IIn", "II", "nonstandard", ("x", "bp", "yp"), (), {"c3": "x", "c5": "bp", "c6": "yp"}),
        Family("IIs", "II", "standard", ("z",), ("z",), {"c4": "-z"}),
    )
}


class UnknownDeformation(KeyError):
    """A key that names none of the deformations."""


def deformation(key: str) -> Family:
    """The deformation named ``key``; UnknownDeformation for any other key."""
    try:
        return DEFORMATIONS[key]
    except KeyError:
        raise UnknownDeformation(
            f"unknown deformation {key!r}; choose from {', '.join(DEFORMATIONS)}"
        ) from None


@dataclass(frozen=True)
class TableIRow:
    key: str
    r: RMatrixSkew
    computed: dict  # generator label -> TensorElement (computed cocommutator)
    table: dict  # generator label -> TensorElement (transcribed table cell)
    match: bool


@lru_cache(maxsize=1)
def table_I() -> tuple:
    """Recompute the family cocommutator table and diff it against the fixture."""
    from . import fixtures

    data = fixtures.load("table_I")
    rows = []
    for key, fam in FAMILIES.items():
        cells = data[key]
        field = fam.field()
        alg = Algebra.classical(field)
        computed = fam.cocommutators()
        table = {
            label: fixtures.wedge_tensor(alg, cells["delta"].get(label, []))
            for label in GEN_NAMES
        }
        r_table = fixtures.wedge_tensor(alg, cells["r"])
        match = r_table == fam.r(marked=False).as_tensor() and all(
            computed[label] == table[label] for label in GEN_NAMES
        )
        rows.append(TableIRow(key=key, r=fam.r(marked=False), computed=computed, table=table, match=match))
    return tuple(rows)
