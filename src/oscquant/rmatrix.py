"""Universal R-matrices for the deformed oscillator algebras.

Each family's R is an ordered product of exponential factors whose
exponents are marked arity-2 tensors over the deformed algebra, expanded
to the truncation order.  The module machine-checks everything the R is
supposed to do:

* base behaviour: order-0 part is 1⊗1, order-1 part is the classical
  r-matrix (plus its symmetric completion where the family has one);
* the braid relation R₁₂R₁₃R₂₃ = R₂₃R₁₃R₁₂ in the deformed three-fold
  tensor algebra;
* the intertwining property σ∘Δ(X) = R Δ(X) R⁻¹ for all four generators,
  with R⁻¹ built as a series inverse and verified against R;
* the two-step conjugation that proves intertwining for the one-parameter
  creation-type family, and the four auxiliary conjugation identities
  that prove it for the three-parameter family;
* the exact 3×3 matrix image: representation property, collapse of R to
  a finite matrix form, and the 27×27 braid identity with no truncation;
* the FRT construction R T₁T₂ = T₂T₁ R over the quantized coordinate
  rings: all 81 entries vanish, the relations extracted from the free
  (unreduced) entries are reported, and dropping any single commutation
  rule is shown to break some entry.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    A,
    AM,
    AP,
    GEN_NAMES,
    M,
    Element,
    TensorElement,
    _acc,
    _Terms,
    embed,
    exp_series,
    rebase,
    tensor,
    spread,
)
from .coeffs import CoefficientField
from .funalg import (
    LETTER_NAMES,
    FunAlgebra,
    fun_presentation,
    semiclassical_check,  # noqa: F401  (re-exported; defined on coordinate rings)
)
from .hopf import HopfPresentation, expm1_over, presentation

R_KEYS = ("Uz", "IIn", "IIs")
_R_PARAMS = {"Uz": ("z",), "IIn": ("x", "bp", "yp"), "IIs": ("z",)}


class UnsupportedFamily(KeyError):
    pass


# -- universal R as a product of exponentials ---------------------------


class UniversalR:
    """An ordered product of exponential factors in the tensor square.

    ``factors`` are the exponents (marked arity-2 tensors); ``first_order``
    is the expected order-1 part of the expansion; ``alt_factors``, when
    present, is a second factorization whose expansion must agree.
    """

    def __init__(self, key, p: HopfPresentation, factors, first_order, alt_factors=None):
        self.key = key
        self.presentation = p
        self.alg = p.alg
        self.factors = tuple(factors)
        self.first_order = first_order
        self.alt_factors = tuple(alt_factors) if alt_factors is not None else None
        self._expansion = None
        self._inverse = None

    def __repr__(self):
        return f"<UniversalR {self.key} order {self.alg.order}>"

    @property
    def expansion(self) -> TensorElement:
        if self._expansion is None:
            total = self.alg.tensor_unit(2)
            for f in self.factors:
                total = total * exp_series(f)
            self._expansion = total
        return self._expansion

    @property
    def alt_expansion(self) -> TensorElement | None:
        if self.alt_factors is None:
            return None
        total = self.alg.tensor_unit(2)
        for f in self.alt_factors:
            total = total * exp_series(f)
        return total

    @property
    def inverse(self) -> TensorElement:
        """Series inverse: (1⊗1 + N)⁻¹ = Σ (−N)^k, N of positive order."""
        if self._inverse is None:
            unit = self.alg.tensor_unit(2)
            n = self.expansion - unit
            total, term = unit, unit
            for _ in range(self.alg.order):
                term = term * (-n)
                if term.is_zero:
                    break
                total = total + term
            self._inverse = total
        return self._inverse

    def embedded(self, positions) -> TensorElement:
        """The same factor product with both legs placed in a 3-fold tensor."""
        total = self.alg.tensor_unit(3)
        for f in self.factors:
            total = total * exp_series(embed(f, positions, 3))
        return total

    def conjugate(self, t: TensorElement) -> TensorElement:
        """R t R⁻¹ through the factored form: exp(F)·t·exp(−F) for each
        factor is the exponential of ad_F, applied innermost factor first."""
        for f in reversed(self.factors):
            t = exp_ad(f, t)
        return t


def exp_ad(factor: TensorElement, t: TensorElement) -> TensorElement:
    """exp(F) t exp(−F) = Σ_k ad_F^k(t)/k!.

    Every factor used here carries positive marker degree, so each ad_F
    raises the order by at least one and the sum terminates at the
    algebra's truncation order.  This turns conjugation by a dense
    exponential series into a short chain of sparse commutators.
    """
    out = t
    term = t
    k = 0
    limit = t.alg.order
    while not term.is_zero:
        k += 1
        term = factor.commutator(term).scale(Fraction(1, k))
        if limit is not None and k > limit and not term.is_zero:
            raise AssertionError("ad chain did not terminate; factor unmarked?")
        out = out + term
    return out


def universal_R(key: str, order: int) -> UniversalR:
    try:
        p = presentation(key, order)
    except KeyError:
        raise UnsupportedFamily(f"unknown family {key!r}; choose from {R_KEYS}") from None
    alg = p.alg
    field = p.field
    gA, gAp, gAm, gM = (alg.gen(i) for i in (A, AP, AM, M))
    if key == "Uz":
        z = field.marked_param("z")
        f1 = tensor(gAp, gA).scale(-z)
        f2 = tensor(gA, gAp).scale(z)
        return UniversalR(key, p, [f1, f2], f1 + f2)
    if key == "IIn":
        x, bp, yp = (field.marked_param(n) for n in ("x", "bp", "yp"))
        w = gA.scale(x) + gAp.scale(bp) + gAm.scale(yp)
        wedge = tensor(w, gM) - tensor(gM, w)
        alt = [-tensor(gM, w), tensor(w, gM)]
        return UniversalR(key, p, [wedge], wedge, alt_factors=alt)
    # IIs; the creation slot of this presentation is the primed generator
    z = field.marked_param("z")
    sym = (tensor(gA, gM) + tensor(gM, gA)).scale(-z)
    skew = tensor(gAm, gAp).scale(2 * z)
    alt = [tensor(gA, gM).scale(-z), tensor(gM, gA).scale(-z), skew]
    return UniversalR(key, p, [sym, skew], sym + skew, alt_factors=alt)


# -- series-level checks -------------------------------------------------


def expansion_base_check(R: UniversalR):
    """Order 0 must be 1⊗1; order 1 the classical r-matrix (full form),
    whose skew part must be the presentation's six-coefficient r."""
    residuals = []
    unit = R.alg.tensor_unit(2)
    d0 = R.expansion.h_part(0) - unit.h_part(0)
    if not d0.is_zero:
        residuals.append(("order-0", d0))
    d1 = R.expansion.h_part(1) - R.first_order.h_part(1)
    if not d1.is_zero:
        residuals.append(("order-1", d1))
    h1 = R.expansion.h_part(1)
    skew = (h1 - h1.swap()).scale(Fraction(1, 2))
    dskew = skew - rebase(R.presentation.r.as_tensor(), R.alg).h_part(1)
    if not dskew.is_zero:
        residuals.append(("skew-part", dskew))
    return not residuals, residuals


def refactorization_check(R: UniversalR):
    """Both stated factorizations must expand identically."""
    alt = R.alt_expansion
    if alt is None:
        return True, []
    diff = R.expansion - alt
    return diff.is_zero, [] if diff.is_zero else [("refactorization", diff)]


def inverse_check(R: UniversalR):
    diff = R.expansion * R.inverse - R.alg.tensor_unit(2)
    return diff.is_zero, [] if diff.is_zero else [("R*Rinv", diff)]


def qybe_check(R: UniversalR):
    """R₁₂R₁₃R₂₃ = R₂₃R₁₃R₁₂ in the deformed 3-fold tensor algebra."""
    r12 = R.embedded((0, 1))
    r13 = R.embedded((0, 2))
    r23 = R.embedded((1, 2))
    diff = r12 * r13 * r23 - r23 * r13 * r12
    return diff.is_zero, [] if diff.is_zero else [("qybe", diff)]


def intertwining_check(R: UniversalR):
    """σ∘Δ(X) = R Δ(X) R⁻¹ for all four generators.

    The conjugation runs through the factored form (nested exponentials of
    ad); ``exp_ad`` is cross-validated against the dense product
    R·Δ(X)·R⁻¹ in the test suite, and ``inverse_check`` keeps the series
    inverse honest separately.
    """
    p = R.presentation
    residuals = []
    for name in GEN_NAMES:
        t = p.images[name]
        diff = R.conjugate(t) - t.swap()
        if not diff.is_zero:
            residuals.append((name, diff))
    return not residuals, residuals


def two_step_intertwining_check(order: int):
    """The two conjugations that establish intertwining on A₋ for ``Uz``:
    the inner factor strips Δ(A₋) down to the primitive coproduct, the
    outer factor then builds up the flipped coproduct."""
    p = presentation("Uz", order)
    alg = p.alg
    z = p.field.marked_param("z")
    gA, gAp, gAm = alg.gen(A), alg.gen(AP), alg.gen(AM)
    inner = tensor(gA, gAp).scale(z)
    outer = tensor(gAp, gA).scale(-z)
    residuals = []
    d1 = exp_ad(inner, p.images["Am"]) - spread(gAm, 2)
    if not d1.is_zero:
        residuals.append(("inner: conj(Delta(Am)) = primitive", d1))
    d2 = exp_ad(outer, spread(gAm, 2)) - p.images["Am"].swap()
    if not d2.is_zero:
        residuals.append(("outer: conj(primitive) = flipped Delta(Am)", d2))
    return not residuals, residuals


# The four conjugation identities, in the order they chain together.
CONJUGATION_CASES = ("Ap inner", "Ap outer", "A inner", "A outer")


def conjugation_identity_check(order: int):
    """The four auxiliary identities behind intertwining for ``IIn``.

    With W = x·A + β₊·A₊ + y₊·A₋ and w±(M) = (1−e^{∓xM})/x, conjugating
    by exp{W⊗M} and exp{−M⊗W} moves Δ(X) to σ∘Δ(X) through the primitive
    coproduct, up to central correction terms that cancel between the two
    steps.  Each identity is verified separately.
    """
    p = presentation("IIn", order)
    alg = p.alg
    field = p.field
    x, bp, yp = (field.marked_param(n) for n in ("x", "bp", "yp"))
    gA, gAp, gAm, gM = (alg.gen(i) for i in (A, AP, AM, M))
    w = gA.scale(x) + gAp.scale(bp) + gAm.scale(yp)
    inner = tensor(w, gM)
    outer = -tensor(gM, w)
    # (1 - e^{-xM})/x and (1 - e^{xM})/x as honest series
    wm = expm1_over(alg, -x, M)
    wp = -expm1_over(alg, x, M)
    # β₊·y₊/x with a single marker power, matching its net parameter degree
    byx = field.marked_param("bp") * field.param("yp") / field.param("x")
    central_p = tensor(wm, wm).scale(yp)
    central_a = (tensor(wp, wp) - tensor(wm, wm)).scale(byx)
    d0_ap = spread(gAp, 2)
    d0_a = spread(gA, 2)
    cases = [
        (CONJUGATION_CASES[0], exp_ad(inner, p.images["Ap"]), d0_ap + central_p),
        (CONJUGATION_CASES[1], exp_ad(outer, d0_ap), p.images["Ap"].swap() - central_p),
        (CONJUGATION_CASES[2], exp_ad(inner, p.images["A"]), d0_a + central_a),
        (CONJUGATION_CASES[3], exp_ad(outer, d0_a), p.images["A"].swap() - central_a),
    ]
    residuals = []
    for tag, got, want in cases:
        diff = got - want
        if not diff.is_zero:
            residuals.append((tag, diff))
    return not residuals, residuals


# -- exact 3×3 representation -------------------------------------------


class ScalarMatrix(_Terms):
    """Sparse exact square matrix over a coefficient field.

    Its parent is the field and its shape the size, so matrices over
    different fields or of different sizes never combine.
    """

    __slots__ = ("dim",)

    field = _Terms.parent
    entries = _Terms.terms
    order = None
    __mul__ = _Terms.__mul__

    def __init__(self, field: CoefficientField, dim: int, entries):
        super().__init__(field, {k: c for k, c in entries.items() if not c.is_zero})
        self.dim = dim

    @classmethod
    def identity(cls, field, dim):
        return cls(field, dim, {(i, i): field.one for i in range(dim)})

    @classmethod
    def zero(cls, field, dim):
        return cls(field, dim, {})

    @property
    def shape(self):
        return self.dim

    def _like(self, entries):
        return ScalarMatrix(self.field, self.dim, entries)

    def _unit(self):
        return ScalarMatrix.identity(self.field, self.dim)

    def __repr__(self):
        return "; ".join(f"({i},{j})={c!r}" for (i, j), c in sorted(self.entries.items())) or "0"

    def _product(self, other):
        by_row: dict = {}
        for (k, j), c in other.entries.items():
            by_row.setdefault(k, []).append((j, c))
        out: dict = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                _acc(out, (i, j), a * b)
        return ScalarMatrix(self.field, self.dim, out)

    def kron(self, other):
        d = other.dim
        out = {}
        for (i, j), a in self.entries.items():
            for (k, l), b in other.entries.items():
                out[(i * d + k, j * d + l)] = a * b
        return ScalarMatrix(self.field, self.dim * d, out)

    def dense_strings(self):
        """Full nested-list rendering with exact fraction entries."""
        return [
            [repr(self.entries.get((i, j), self.field.zero)) for j in range(self.dim)]
            for i in range(self.dim)
        ]


def _gen_matrices(field) -> dict:
    one = field.one
    return {
        A: ScalarMatrix(field, 3, {(1, 1): one}),
        AP: ScalarMatrix(field, 3, {(1, 2): one}),
        AM: ScalarMatrix(field, 3, {(0, 1): one}),
        M: ScalarMatrix(field, 3, {(0, 2): one}),
    }


def rep3(e: Element) -> ScalarMatrix:
    """Linear extension of the generator matrices to normal monomials."""
    field = e.alg.field
    gens = _gen_matrices(field)
    total = ScalarMatrix.zero(field, 3)
    for mono, c in e.terms.items():
        mat = ScalarMatrix.identity(field, 3)
        for idx, power in enumerate(mono):
            for _ in range(power):
                mat = mat * gens[idx]
        total = total + mat.scale(c)
    return total


def rep3_tensor(t: TensorElement) -> ScalarMatrix:
    field = t.alg.field
    gens = _gen_matrices(field)
    total = ScalarMatrix.zero(field, 3 ** t.arity)
    for key, c in t.terms.items():
        mat = None
        for mono in key:
            fac = ScalarMatrix.identity(field, 3)
            for idx, power in enumerate(mono):
                for _ in range(power):
                    fac = fac * gens[idx]
            mat = fac if mat is None else mat.kron(fac)
        total = total + mat.scale(c)
    return total


def rep3_check(field=None):
    """D is a homomorphism: D of each normal-ordered product equals the
    matrix product, for all 16 generator pairs (exact)."""
    from .algebra import Algebra

    field = field or CoefficientField.get("z")
    alg = Algebra.classical(field)
    gens = _gen_matrices(field)
    residuals = []
    for i in range(4):
        for j in range(4):
            lhs = rep3(alg.gen(i) * alg.gen(j))
            rhs = gens[i] * gens[j]
            diff = lhs - rhs
            if not diff.is_zero:
                residuals.append((f"{GEN_NAMES[i]}*{GEN_NAMES[j]}", diff))
    return not residuals, residuals


def primed_creation_matrix(field, marked: bool = False) -> ScalarMatrix:
    """The matrix of e^{-zM}·A₊, computed from the definition.

    D(M) is nilpotent and annihilates D(A₊) on the left, so the
    exponential collapses and the product equals D(A₊) exactly.
    """
    z = field.marked_param("z") if marked else field.param("z")
    gens = _gen_matrices(field)
    exp_m = ScalarMatrix.identity(field, 3) + gens[M].scale(-z)  # D(M)^2 = 0
    return exp_m * gens[AP]


def d_matrix(key: str, marked: bool = False, primed_reading: str = "definition") -> ScalarMatrix:
    """The finite 9×9 matrix form each universal R collapses to.

    For ``IIs`` the creation leg is the primed generator; ``primed_reading``
    selects how its matrix is taken: ``definition`` computes it from
    e^{-zM}A₊ (which collapses to D(A₊)), ``literal-A`` substitutes D(A)
    instead, the other reading a strict transcription would give.
    """
    if key not in R_KEYS:
        raise UnsupportedFamily(f"unknown family {key!r}; choose from {R_KEYS}")
    field = CoefficientField.get(*_R_PARAMS[key])
    par = field.marked_param if marked else field.param
    gens = _gen_matrices(field)
    eye = ScalarMatrix.identity(field, 9)
    if key == "Uz":
        z = par("z")
        return eye + (gens[A].kron(gens[AP]) - gens[AP].kron(gens[A])).scale(z)
    if key == "IIn":
        out = eye
        for name, idx in (("x", A), ("bp", AP), ("yp", AM)):
            out = out + (gens[idx].kron(gens[M]) - gens[M].kron(gens[idx])).scale(par(name))
        return out
    z = par("z")
    if primed_reading == "definition":
        dap = primed_creation_matrix(field, marked)
    elif primed_reading == "literal-A":
        dap = gens[A]
    else:
        raise ValueError(f"unknown primed_reading {primed_reading!r}")
    return (
        eye
        + gens[AM].kron(dap).scale(2 * z)
        - (gens[A].kron(gens[M]) + gens[M].kron(gens[A])).scale(z)
    )


def _three_site(mat9: ScalarMatrix, positions) -> ScalarMatrix:
    """Place a 9×9 two-site matrix at two of three sites (27×27)."""
    spare = ({0, 1, 2} - set(positions)).pop()
    out = {}
    for (r, c), v in mat9.entries.items():
        ra, rb = divmod(r, 3)
        ca, cb = divmod(c, 3)
        for k in range(3):
            row = [0, 0, 0]
            col = [0, 0, 0]
            row[positions[0]], row[positions[1]], row[spare] = ra, rb, k
            col[positions[0]], col[positions[1]], col[spare] = ca, cb, k
            out[(row[0] * 9 + row[1] * 3 + row[2], col[0] * 9 + col[1] * 3 + col[2])] = v
    return ScalarMatrix(mat9.field, 27, out)


def qybe_exact_matrix(mat9: ScalarMatrix):
    """Exact 27×27 braid identity for a two-site matrix (no truncation)."""
    r12 = _three_site(mat9, (0, 1))
    r13 = _three_site(mat9, (0, 2))
    r23 = _three_site(mat9, (1, 2))
    diff = r12 * r13 * r23 - r23 * r13 * r12
    return diff.is_zero, diff


def qybe_exact_rep(key: str, primed_reading: str = "definition"):
    ok, diff = qybe_exact_matrix(d_matrix(key, primed_reading=primed_reading))
    return ok, ([] if ok else [("qybe-exact", diff)])


# -- FRT: quantum-group relations out of R T₁T₂ = T₂T₁ R ----------------

# Entries of the representing group element: rows/cols 0..2, upper
# triangular, with the quantum coordinates in the written order.
_T_ENTRIES = {
    (0, 0): "1",
    (0, 1): "a_minus E",
    (0, 2): "m + a_minus a_plus",
    (1, 1): "E",
    (1, 2): "a_plus",
    (2, 2): "1",
}


class FreeElement(_Terms):
    """A finite sum of free words over the coordinate letters."""

    __slots__ = ()

    field = _Terms.parent
    order = None

    def __init__(self, field, terms):
        super().__init__(field, {w: c for w, c in terms.items() if not c.is_zero})

    @classmethod
    def unit(cls, field):
        return cls(field, {(): field.one})

    @classmethod
    def letter(cls, field, name):
        return cls(field, {(name,): field.one})

    def _unit(self):
        return FreeElement.unit(self.field)

    @staticmethod
    def _key_product(w1, w2):
        return w1 + w2

    def canonical(self):
        """Scale the commutator part to coefficient 1.

        The lead term is the first word (by length, then lexicographically)
        among those of lowest marker valuation — the reordered-product part
        of a relation, whose coefficient is ±1 — so scaling never moves the
        marker into a denominator.  Doubles as a dedup key.
        """
        if self.is_zero:
            return self
        lead = min(self.terms, key=lambda w: (self.terms[w].marker_degree, len(w), w))
        return self.scale(self.field.one / self.terms[lead])

    def render(self):
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            word = "*".join(w) if w else "1"
            bits.append(f"({c!r})*{word}")
        return " + ".join(bits) if bits else "0"

    def into(self, alg: FunAlgebra) -> Element:
        """Evaluate the free words in a coordinate ring."""
        total = alg.zero()
        for w, c in self.terms.items():
            piece = alg.one()
            for name in w:
                piece = piece * alg.coord(name)
            total = total + piece.scale(c)
        return total


def _t_matrix(make_unit, make_letter):
    out = {}
    for pos, spec in _T_ENTRIES.items():
        total = None
        for term in spec.split(" + "):
            piece = make_unit()
            for name in term.split():
                piece = piece * (make_unit() if name == "1" else make_letter(name))
            total = piece if total is None else total + piece
        out[pos] = total
    return out


def fun_t_matrix(alg: FunAlgebra) -> dict:
    return _t_matrix(alg.one, alg.coord)


def free_t_matrix(field) -> dict:
    return _t_matrix(lambda: FreeElement.unit(field), lambda n: FreeElement.letter(field, n))


def _frt_defect(r9: ScalarMatrix, tmat: dict, zero):
    """The 81 entries of R·T₁T₂ − T₂T₁·R, in whatever algebra T lives in."""
    t1t2 = {}
    t2t1 = {}
    for (i, j), tij in tmat.items():
        for (a, b), tab in tmat.items():
            t1t2[(3 * i + a, 3 * j + b)] = tij * tab
            t2t1[(3 * i + a, 3 * j + b)] = tab * tij
    out = {}
    for r in range(9):
        for c in range(9):
            acc = zero
            for k in range(9):
                rc = r9.entries.get((r, k))
                if rc is not None and (k, c) in t1t2:
                    acc = acc + t1t2[(k, c)].scale(rc)
                rc = r9.entries.get((k, c))
                if rc is not None and (r, k) in t2t1:
                    acc = acc - t2t1[(r, k)].scale(rc)
            out[(r, c)] = acc
    return out


def frt_relations(key: str, order: int | None = None):
    """Check R T₁T₂ = T₂T₁ R over the quantized coordinate ring and
    extract the relations it forces.

    Returns a dict with:
      ``ok``          all 81 entries vanish under the ring's relations;
      ``residuals``   the nonzero entries, if any;
      ``extracted``   canonical nonzero entries of the same defect computed
                      over the free (unreduced) words — the relations the
                      FRT equation imposes;
      ``necessary``   for each commutation rule of the ring, whether
                      dropping it makes some extracted relation fail
                      (rules about letters absent from T cannot appear).
    """
    if key not in R_KEYS:
        raise UnsupportedFamily(f"unknown family {key!r}; choose from {R_KEYS}")
    f = fun_presentation(key, order)
    alg = f.alg
    field = alg.field
    r9 = d_matrix(key, marked=True)
    if r9.field is not field:
        raise AssertionError("coordinate ring and R-matrix field mismatch")
    defect = _frt_defect(r9, fun_t_matrix(alg), alg.zero())
    residuals = [(pos, e) for pos, e in defect.items() if not e.is_zero]

    free_defect = _frt_defect(
        r9, free_t_matrix(field), FreeElement(field, {})
    )
    extracted = {}
    for e in free_defect.values():
        if not e.is_zero:
            c = e.canonical()
            extracted[c.render()] = c
    necessary = {}
    for pair in alg.tails:
        reduced = FunAlgebra(
            field,
            {p: t for p, t in alg.tails.items() if p != pair},
            order,
            f"{alg.label} minus one rule",
        )
        broken = any(not e.into(reduced).is_zero for e in extracted.values())
        necessary[(LETTER_NAMES[pair[0]], LETTER_NAMES[pair[1]])] = broken
    return {
        "ok": not residuals,
        "residuals": residuals,
        "extracted": extracted,
        "necessary": necessary,
    }
