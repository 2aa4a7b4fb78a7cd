"""Coproducts for the deformed oscillator algebra from commuting-matrix data.

Each classification family deforms the coalgebra while keeping a set of
pairwise commuting generators H_i primitive; the remaining generators,
stacked in a vector X, receive

    Delta(X) = exp(sum_i mu_i H_i) .ox. X + sigma( exp(sum_i nu_i H_i) .ox. X )

where mu_i, nu_i are square parameter matrices, the dotted pairing is
(P .ox. X)_k = sum_l p_kl (x) X_l, and sigma flips tensor legs.  With the
representative choice mu_i = 0 the first term is just 1 (x) X_k.  The order-h
part antisymmetrizes to the cocommutator delta(X_k) = -sum_l N_kl ^ X_l with
N = sum_i nu_i H_i, which is how the nu matrices are read off the
classification table.  When delta(A) carries an H_i ^ H_j term that no matrix
row can produce, the shift A' = A - s*M absorbs it first; the emitted images
undo the shift, so every coproduct is stated on the original generators.

The I+ non-standard family is the case where exp(N) has a closed form:
N = (ap*Ap + x*M)*1 + B with B^2 = 0, so exp(N) = e^{ap*Ap + x*M} (1 + B).
Everything else is expanded as a truncated series in the grading marker.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    A,
    AM,
    AP,
    GEN_NAMES,
    M,
    Algebra,
    TensorElement,
    exp_series,
    linear,
    mat_mul,
    spread,
    tensor,
)
from .bialgebra import FAMILIES, RMatrixSkew
from .coeffs import Coefficient, CoefficientField
from .expr import parse_coefficient
from .hopf import HopfPresentation, cocommutator_check


class NoncommutingEntries(ValueError):
    """Matrix data violates a commutativity requirement."""


class DivisionByZeroParam(ZeroDivisionError):
    """A basis shift would divide by a parameter that is zero."""


# -- parameter matrices --------------------------------------------------


def _coeff_matrix(field: CoefficientField, rows):
    rows = tuple(
        tuple(c if isinstance(c, Coefficient) else field.rational(c) for c in row)
        for row in rows
    )
    for row in rows:
        if len(row) != len(rows):
            raise ValueError("parameter matrices must be square")
    return rows


def _cm_commute(a, b) -> bool:
    return mat_mul(a, b) == mat_mul(b, a)


@dataclass(frozen=True)
class LMSpec:
    """Primitive generators plus one coefficient matrix per primitive.

    ``primitives`` and ``vector`` are generator indices; ``nu[i]`` (and the
    optional ``mu[i]``) is the square matrix attached to ``primitives[i]``,
    sized by the vector.  ``shift`` records the absorbed substitution
    A' = A - shift*M (zero when none); coproducts are emitted unshifted.
    Matrix entries are expected marker-graded so series terminate.
    """

    field: CoefficientField
    primitives: tuple
    vector: tuple
    nu: tuple
    mu: tuple | None = None
    shift: Coefficient | None = None
    key: str = ""

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))
        object.__setattr__(self, "vector", tuple(self.vector))
        nu = tuple(_coeff_matrix(self.field, m) for m in self.nu)
        mu = None if self.mu is None else tuple(_coeff_matrix(self.field, m) for m in self.mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "mu", mu)
        if self.shift is None:
            object.__setattr__(self, "shift", self.field.zero)
        if len(nu) != len(self.primitives) or (mu is not None and len(mu) != len(nu)):
            raise ValueError("need exactly one matrix per primitive generator")
        n = len(self.vector)
        for mat in nu + (mu or ()):
            if len(mat) != n:
                raise ValueError("matrix size must match the vector length")
        if set(self.primitives) & set(self.vector):
            raise ValueError("a generator cannot be both primitive and in the vector")
        alg = Algebra.classical(self.field)
        for i, hi in enumerate(self.primitives):
            for hj in self.primitives[i + 1 :]:
                if not alg.gen(hi).commutator(alg.gen(hj)).is_zero:
                    raise NoncommutingEntries(
                        f"primitive generators {GEN_NAMES[hi]} and {GEN_NAMES[hj]} do not commute"
                    )
        mats = nu + (mu or ())
        for i, a in enumerate(mats):
            for b in mats[i + 1 :]:
                if not _cm_commute(a, b):
                    raise NoncommutingEntries("mu/nu matrices must pairwise commute")


def spec_matrix(spec: LMSpec, alg: Algebra, which: str = "nu"):
    """The element-valued matrix sum_i m_i * H_i, in the given algebra."""
    mats = spec.nu if which == "nu" else spec.mu
    n = len(spec.vector)
    rows = [[alg.zero() for _ in range(n)] for _ in range(n)]
    if mats is not None:
        for hi, mat in zip(spec.primitives, mats):
            g = alg.gen(hi)
            for i in range(n):
                for j in range(n):
                    if not mat[i][j].is_zero:
                        rows[i][j] = rows[i][j] + g.scale(mat[i][j])
    return tuple(tuple(row) for row in rows)


def matrix_exp(mat, order: int | None = None):
    """Truncated exponential of a square matrix of commuting elements."""
    rows = tuple(tuple(r) for r in mat)
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix must be square")
    alg = rows[0][0].alg
    order = alg.order if order is None else order
    if order is None:
        raise ValueError("matrix exp needs a truncation order")
    entries = [e for r in rows for e in r if not e.is_zero]
    for i, a in enumerate(entries):
        for b in entries[i + 1 :]:
            if not a.commutator(b).is_zero:
                raise NoncommutingEntries("matrix entries do not commute")
    for e in entries:
        if e.marker_degree() < 1:
            raise ValueError("matrix entry has an order-0 part; series would not terminate")
    total = [
        [alg.one() if i == j else alg.zero() for j in range(n)] for i in range(n)
    ]
    term = [list(r) for r in total]
    for k in range(1, order + 1):
        term = [[e.scale(Fraction(1, k)).truncate(order) for e in r] for r in mat_mul(term, rows)]
        if all(e.is_zero for r in term for e in r):
            break
        for i in range(n):
            for j in range(n):
                total[i][j] = total[i][j] + term[i][j]
    return tuple(tuple(r) for r in total)


# -- basis shifts --------------------------------------------------------


@dataclass(frozen=True)
class Substitution:
    """The invertible shift A' = A - s*M, as a map on elements and tensors.

    ``to_primed`` rewrites an expression so that the A slot denotes A'
    (substituting A = A' + s*M); ``to_unprimed`` is its inverse.  M being
    central makes both directions algebra morphisms.
    """

    field: CoefficientField
    s: Coefficient

    @property
    def is_identity(self) -> bool:
        return self.s.is_zero

    def _apply(self, x, t):
        if self.is_identity:
            return x
        alg = x.alg
        img = alg.gen(A) + alg.gen(M).scale(t)

        def mono_image(mono):
            return img ** mono[A] * alg.monomial((0,) + mono[1:])

        if isinstance(x, TensorElement):
            return linear(x, lambda key: tensor(*map(mono_image, key)), alg.tensor_zero(x.arity))
        return linear(x, mono_image, alg.zero())

    def to_primed(self, x):
        return self._apply(x, self.s)

    def to_unprimed(self, x):
        return self._apply(x, -self.s)


def shift_substitution(field: CoefficientField, numerator: Coefficient, denominator: Coefficient) -> Substitution:
    """Build A' = A - (numerator/denominator)*M; zero numerator is identity."""
    if numerator.is_zero:
        return Substitution(field, field.zero)
    if denominator.is_zero:
        raise DivisionByZeroParam("basis shift denominator parameter is zero")
    return Substitution(field, numerator / denominator)


def basis_change(family) -> Substitution:
    """The generator shift that clears primitive^primitive cocommutator terms.

    Families with nonzero c1 shift by bp/ap; families with nonzero c2 by
    yp/am; type II needs no shift.
    """
    fam = FAMILIES[family] if isinstance(family, str) else family
    field = fam.field()
    if fam.family == "Iplus":
        return shift_substitution(field, field.param("bp"), field.param("ap"))
    if fam.family == "Iminus":
        return shift_substitution(field, field.param("yp"), field.param("am"))
    return Substitution(field, field.zero)


# -- family data ---------------------------------------------------------


def family_spec(family) -> LMSpec:
    """The commuting-matrix data quantizing one classification family.

    Matrix entries are marker-graded (each parameter carries one power of h),
    so every exponential terminates at the working truncation order.
    """
    fam = FAMILIES[family] if isinstance(family, str) else family
    field = fam.field()
    p = {name: field.marked_param(name) for name in fam.params}
    z = field.zero
    if fam.family == "Iplus":
        ap, x = p["ap"], p["x"]
        yp = p["yp"] if fam.flavor == "standard" else x * x / ap
        nu = (
            ((ap, z), (z, ap)),  # attached to Ap
            ((z, -yp), (ap, 2 * x)),  # attached to M
        )
        return LMSpec(field, (AP, M), (A, AM), nu, shift=basis_change(fam).s, key=fam.key)
    if fam.family == "Iminus":
        am, x = p["am"], p["x"]
        bp = p["bp"] if fam.flavor == "standard" else x * x / am
        nu = (
            ((-am, z), (z, -am)),  # attached to Am
            ((z, bp), (-am, -2 * x)),  # attached to M
        )
        return LMSpec(field, (AM, M), (A, AP), nu, shift=basis_change(fam).s, key=fam.key)
    x = p["x"]
    y = p["y"] if fam.flavor == "standard" else z
    nu = (((z, p["bp"], -p["yp"]), (z, -(x + y), z), (z, z, x - y)),)
    return LMSpec(field, (M,), (A, AP, AM), nu, key=fam.key)


def trivial_spec(field: CoefficientField | None = None) -> LMSpec:
    """All matrices zero: every generator comes out primitive."""
    field = CoefficientField.get() if field is None else field
    z = field.zero
    return LMSpec(field, (M,), (A, AP, AM), (((z, z, z), (z, z, z), (z, z, z)),), key="trivial")


def iplus_nonstandard_closed(alg: Algebra):
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
    return tuple(tuple(scalar * e for e in row) for row in factor)


# -- the coproduct -------------------------------------------------------


@dataclass(frozen=True)
class CoproductMap:
    """Generator -> tensor-square images, stated on the original basis."""

    spec: LMSpec
    order: int
    images: dict  # generator label -> TensorElement
    basis_note: str

    def algebra(self) -> Algebra:
        return Algebra.classical(self.spec.field, self.order)

    def presentation(self, r: RMatrixSkew | None = None) -> HopfPresentation:
        """These images as a presentation without an antipode, for the
        homomorphism, coassociativity and counit checks of :mod:`.hopf`, and
        for its cocommutator check when ``r`` is given."""
        label = "exponential-matrix coproduct"
        return HopfPresentation(self.spec.key, label, self.algebra(), self.images, None, None, r)


def lm_coproduct(spec: LMSpec, order: int) -> CoproductMap:
    """Delta on all four generators, truncated at marker order ``order``."""
    alg = Algebra.classical(spec.field, order)
    P = matrix_exp(spec_matrix(spec, alg, "nu"), order)
    Q = matrix_exp(spec_matrix(spec, alg, "mu"), order)
    images = {GEN_NAMES[h]: spread(alg.gen(h), 2) for h in spec.primitives}
    subst = Substitution(spec.field, spec.shift)
    note = ""
    for k, xk in enumerate(spec.vector):
        t = alg.tensor_zero(2)
        for l, xl in enumerate(spec.vector):
            g = alg.gen(xl)
            if not Q[k][l].is_zero:
                t = t + tensor(Q[k][l], g)
            if not P[k][l].is_zero:
                t = t + tensor(g, P[k][l])
        img = subst.to_unprimed(t)
        if xk == A and not subst.is_identity:
            img = img + spread(alg.gen(M), 2).scale(spec.shift)
            note = f"computed for A' = A - ({spec.shift!r})*M, images unshifted"
        images[GEN_NAMES[xk]] = img
    return CoproductMap(spec=spec, order=order, images=images, basis_note=note)


def first_order_check(spec: LMSpec, r: RMatrixSkew):
    """Antisymmetrized order-h part of the coproduct equals delta from r:
    :func:`.hopf.cocommutator_check` on the order-1 coproduct."""
    return cocommutator_check(lm_coproduct(spec, order=1).presentation(r))


# -- the published coproduct table ---------------------------------------


@dataclass(frozen=True)
class TableIIIRow:
    key: str
    spec: LMSpec
    order: int
    images: dict  # label -> machine-expanded TensorElement
    closed: dict  # label -> decoded closed-form TensorElement ({} for matrix rows)
    matrix_form: tuple | None  # transcribed exponent matrix, for rows kept in matrix form
    match: bool


def table_III(family: str | None = None, order: int = 6):
    """Recompute the coproduct table and diff it against the fixture.

    Rows published in closed form are compared image by image at the given
    truncation order; the two standard type-I rows are published as matrix
    data, so their transcription is compared against the assembled matrix and
    the machine-expanded series is carried alongside.
    """
    from . import fixtures

    data = fixtures.load("table_III")
    keys = [family] if family else list(FAMILIES)
    rows = []
    for key in keys:
        fam = FAMILIES[key]
        cells = data[key]
        spec = family_spec(fam)
        alg = Algebra.classical(spec.field, order)
        cp = lm_coproduct(spec, order)
        ok = (
            tuple(GEN_NAMES[h] for h in spec.primitives) == tuple(cells["primitives"])
            and tuple(GEN_NAMES[v] for v in spec.vector) == tuple(cells["vector"])
            and spec.shift == parse_coefficient(spec.field, cells["shift"])
        )
        closed: dict = {}
        matrix_form = None
        if "matrix" in cells:
            matrix_form = tuple(
                tuple(fixtures.element_of(alg, entry, marked=True).truncate(order) for entry in row)
                for row in cells["matrix"]
            )
            ok = ok and matrix_form == spec_matrix(spec, alg, "nu")
        else:
            for label, summands in cells["coproducts"].items():
                closed[label] = fixtures.coproduct_tensor(alg, summands, marked=True)
            for h in spec.primitives:
                closed[GEN_NAMES[h]] = spread(alg.gen(h), 2)
            ok = ok and all(cp.images[label] == closed[label] for label in GEN_NAMES)
        rows.append(
            TableIIIRow(
                key=key,
                spec=spec,
                order=order,
                images=cp.images,
                closed=closed,
                matrix_form=matrix_form,
                match=ok,
            )
        )
    return tuple(rows)
