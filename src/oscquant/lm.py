"""Coproducts for the deformed oscillator algebra from commuting-matrix data.

Each classification family deforms the coalgebra while keeping a set of
pairwise commuting generators H_i primitive; the remaining generators,
stacked in a vector X, receive

    Delta(X_k) = 1 (x) X_k + sum_l X_l (x) exp(N)_kl,    N = sum_i nu_i H_i,

where the nu_i are square parameter matrices.  The order-h part
antisymmetrizes to the cocommutator delta(X_k) = -sum_l N_kl ^ X_l, so the
primitives (delta = 0), the vector and the nu_i are read off Table I, the
transcribed cocommutators of ``fixtures/table_I.json``.  The nu_i, N and
exp(N) are :class:`.algebra.ScalarMatrix`es, over coefficients and over
algebra elements.  The one H ^ M term of delta(A) that no matrix row can
produce is absorbed by the shift A' = A - s*M, also read off Table I: the
vector holds A', and Delta(A) = Delta(A') + s*Delta(M), so every coproduct
is stated on the original generators.

Every exp(N) is a truncated series in the grading marker; the tests check
the I+ non-standard one against its closed form: N = (ap*Ap + x*M)*1 + B
with B^2 = 0, so exp(N) = e^{ap*Ap + x*M} (1 + B).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import fixtures
from .algebra import (
    A,
    GEN_MONOS,
    GEN_NAMES,
    M,
    Algebra,
    ScalarMatrix,
    _exp_sum,
    spread,
    tensor,
)
from .bialgebra import FAMILIES, RMatrixSkew
from .coeffs import Coefficient, CoefficientField
from .expr import parse_coefficient
from .hopf import HopfPresentation


class NoncommutingEntries(ValueError):
    """Matrix data violates a commutativity requirement."""


# -- parameter matrices --------------------------------------------------


def _coeff_matrix(field: CoefficientField, rows) -> ScalarMatrix:
    """Nested rows of coefficients (or rationals) as a matrix."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("parameter matrices must be square")
    return ScalarMatrix.from_rows(field, [list(map(field.lift, row)) for row in rows])


@dataclass(frozen=True)
class LMSpec:
    """Primitive generators plus one coefficient matrix per primitive.

    ``primitives`` and ``vector`` are generator indices; ``nu[i]`` is the
    square matrix attached to ``primitives[i]``, sized by the vector, given
    as nested rows and held as a :class:`.algebra.ScalarMatrix`.  ``shift``
    is s in the absorbed substitution A' = A - s*M (zero when none);
    coproducts are stated on the original generators.  Matrix entries are
    expected marker-graded so series terminate.
    """

    field: CoefficientField
    primitives: tuple
    vector: tuple
    nu: tuple
    shift: Coefficient | None = None
    key: str = ""

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))
        object.__setattr__(self, "vector", tuple(self.vector))
        nu = tuple(_coeff_matrix(self.field, m) for m in self.nu)
        object.__setattr__(self, "nu", nu)
        if self.shift is None:
            object.__setattr__(self, "shift", self.field.zero)
        if len(nu) != len(self.primitives):
            raise ValueError("need exactly one matrix per primitive generator")
        if any(mat.dim != len(self.vector) for mat in nu):
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
        for i, a in enumerate(nu):
            for b in nu[i + 1 :]:
                if a * b != b * a:
                    raise NoncommutingEntries("nu matrices must pairwise commute")


def spec_matrix(spec: LMSpec, alg: Algebra) -> ScalarMatrix:
    """The element-valued matrix N = sum_i nu_i * H_i, in the given algebra."""
    return sum(
        (nu.map_coeffs(alg.gen(h).scale) for h, nu in zip(spec.primitives, spec.nu)),
        ScalarMatrix.zero(spec.field, len(spec.vector)),
    )


def matrix_exp(mat: ScalarMatrix, alg: Algebra) -> ScalarMatrix:
    """Truncated exponential of a square matrix of commuting elements of ``alg``.

    The entries commute and carry the marker, so exp is the series of
    :func:`.algebra._exp_sum` in powers of ``mat``, ending at the order."""
    order = alg.order
    if order is None:
        raise ValueError("matrix exp needs a truncation order")
    entries = list(mat.entries.values())
    for i, a in enumerate(entries):
        for b in entries[i + 1 :]:
            if not a.commutator(b).is_zero:
                raise NoncommutingEntries("matrix entries do not commute")
    for e in entries:
        if e.marker_degree < 1:
            raise ValueError("matrix entry has an order-0 part; series would not terminate")
    unit = ScalarMatrix(alg.field, mat.dim, {(i, i): alg.one() for i in range(mat.dim)})
    return _exp_sum(unit, lambda t: t * mat, order)


# -- family data ---------------------------------------------------------


def family_spec(family) -> LMSpec:
    """The commuting-matrix data quantizing one classification family, read
    off its cocommutators in the ``table_I`` fixture.

    The primitives are the generators with delta = 0 and the vector holds the
    rest; nu_i[k][l] is minus the coefficient of H_i (x) X_l in delta(X_k),
    marked (p -> h*p) so every exponential terminates at the working order.
    With c the coefficients of delta(A), the shift s = -c(H (x) M)/c(H (x) A)
    absorbs the one H^M term that no matrix row can produce.  Built once per
    family key and parameters for the life of the process (``_spec``).
    """
    fam = FAMILIES[family] if isinstance(family, str) else family
    return _spec(fam.key, fam.params)


@cache
def _spec(key: str, params: tuple) -> LMSpec:
    field = CoefficientField.get(*params)
    alg = Algebra.classical(field)
    cells = fixtures.load("table_I")[key]["delta"]
    delta = [fixtures.wedge_tensor(alg, cells[label]) for label in GEN_NAMES]
    primitives = tuple(g for g, d in enumerate(delta) if d.is_zero)
    vector = tuple(g for g, d in enumerate(delta) if not d.is_zero)

    def c(k, h, l):
        return delta[k].terms.get((GEN_MONOS[h], GEN_MONOS[l]), field.zero)

    nu = [[[-c(k, h, l).scale_params() for l in vector] for k in vector] for h in primitives]
    shift = sum((-c(A, h, M) / c(A, h, A) for h in primitives if not c(A, h, M).is_zero), field.zero)
    return LMSpec(field, primitives, vector, nu, shift=shift, key=key)


# -- the coproduct -------------------------------------------------------


def lm_coproduct(spec: LMSpec, order: int, r: RMatrixSkew | None = None) -> HopfPresentation:
    """Delta on all four generators, truncated at marker order ``order`` and
    stated on the original basis, as a presentation without an antipode: the
    homomorphism, coassociativity and counit checks of :mod:`.hopf` take it,
    and so does its cocommutator check when the classical ``r`` is given."""
    alg = Algebra.classical(spec.field, order)
    P = matrix_exp(spec_matrix(spec, alg), alg)
    images = {GEN_NAMES[h]: spread(alg.gen(h), 2) for h in spec.primitives}
    x = [alg.gen(v) - alg.gen(M).scale(spec.shift) if v == A else alg.gen(v) for v in spec.vector]
    for k, xk in enumerate(spec.vector):
        t = tensor(alg.one(), x[k])
        for l, xl in enumerate(x):
            if (k, l) in P.entries:
                t = t + tensor(xl, P.entries[(k, l)])
        if xk == A:
            t = t + spread(alg.gen(M), 2).scale(spec.shift)
        images[GEN_NAMES[xk]] = t
    return HopfPresentation(spec.key, alg, images, None, None, r)


# -- the published coproduct table ---------------------------------------


@dataclass(frozen=True)
class TableIIIRow:
    key: str
    spec: LMSpec
    order: int
    images: dict  # label -> machine-expanded TensorElement
    closed: dict  # label -> decoded closed-form TensorElement ({} for matrix rows)
    matrix_form: ScalarMatrix | None  # transcribed exponent matrix, for rows kept in matrix form
    match: bool


def table_III(order: int):
    """Recompute the coproduct table and diff it against the fixture.

    Rows published in closed form are compared image by image at the given
    truncation order; the two standard type-I rows are published as matrix
    data, so their transcription is compared against the assembled matrix and
    the machine-expanded series is carried alongside.
    """
    data = fixtures.load("table_III")
    rows = []
    for key, fam in FAMILIES.items():
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
            matrix_form = ScalarMatrix.from_rows(
                spec.field,
                [[fixtures.element_of(alg, e).truncate(order) for e in row] for row in cells["matrix"]],
            )
            ok = ok and matrix_form == spec_matrix(spec, alg)
        else:
            for label, summands in cells["coproducts"].items():
                closed[label] = fixtures.coproduct_tensor(alg, summands)
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
