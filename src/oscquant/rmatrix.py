"""Universal R-matrices for the deformed oscillator algebras.

Each family's R is an ordered product of exponential factors whose
exponents F_k are marked arity-2 tensors, stated once in ``_exponents``
over any algebra of the deformation's field.  Over the deformed algebra
they give the series R, expanded to the truncation order; over the exact
classical algebra, under the 3×3 representation D, they give the finite
9×9 matrix ∏ exp((D⊗D)F_k).  The module machine-checks everything the R is
supposed to do:

* base behaviour: order-0 part is 1⊗1, order-1 part is the classical
  r-matrix (plus its symmetric completion where the family has one);
* the inverse R⁻¹ = ∏ exp(−F_k), the factors in reverse order, checked on
  both sides against R;
* the braid relation R₁₂R₁₃R₂₃ = R₂₃R₁₃R₁₂ in the deformed three-fold
  tensor algebra, checked as (R₁₂R₁₃R₁₂⁻¹)(R₁₂R₂₃R₁₂⁻¹) = R₂₃R₁₃: R₁₂ is
  invertible and conjugation by it is an algebra automorphism, so each
  factor is conjugated on its own through the factored form;
* the intertwining property σ∘Δ(X) = R Δ(X) R⁻¹ for all four generators,
  through the same factored conjugation;
* the two-step conjugation that proves intertwining for the one-parameter
  creation-type family, and the four auxiliary conjugation identities
  that prove it for the three-parameter family;
* the exact 3×3 matrix image: representation property, collapse of the
  series R to the 9×9 matrix, and the 27×27 braid identity with no
  truncation, its three factors placed with ``kron`` and the flip P₂₃;
* the FRT construction R T₁T₂ = T₂T₁ R over the quantized coordinate
  rings, with T₁T₂ = T⊗T and T₂T₁ = P(T⊗T)P: all 81 entries vanish, the
  relations extracted from the free (unreduced) entries are reported, and
  dropping any single commutation rule is shown to break some entry.

Every matrix here is an :class:`.algebra.ScalarMatrix`, over coefficients
or over the coordinate rings' elements.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from .algebra import (
    A,
    AM,
    AP,
    GEN_NAMES,
    M,
    Algebra,
    ScalarMatrix,
    TensorElement,
    _exp_sum,
    _Terms,
    embed,
    exp_series,
    held,
    linear,
    multiplicative,
    rebase,
    signed_sum,
    tensor,
    spread,
)
from .bialgebra import deformation
from .coeffs import CoefficientField
from .funalg import fun_presentation
from .hopf import HopfPresentation, expm1_over, presentation
from .poisson import COORDS, LETTER_NAMES, FunAlgebra, t_matrix


# -- universal R as a product of exponentials ---------------------------


class UniversalR:
    """An ordered product of exponential factors in the tensor square.

    ``factors`` are the exponents (marked arity-2 tensors); ``alt_factors``,
    when not None, is a second factorization whose expansion must agree.
    """

    def __init__(self, key, p: HopfPresentation, factors, alt_factors):
        self.key = key
        self.presentation = p
        self.alg = p.alg
        self.factors = tuple(factors)
        self.alt_factors = tuple(alt_factors) if alt_factors is not None else None
        self._expansion = None

    def __repr__(self):
        return f"<UniversalR {self.key} order {self.alg.order}>"

    def _exp_product(self, factors) -> TensorElement:
        """exp(F₁)·exp(F₂)·… in the tensor square."""
        total = self.alg.tensor_unit(2)
        for f in factors:
            total = total * exp_series(f)
        return total

    @property
    def expansion(self) -> TensorElement:
        if self._expansion is None:
            self._expansion = self._exp_product(self.factors)
        return self._expansion

    @property
    def alt_expansion(self) -> TensorElement | None:
        if self.alt_factors is None:
            return None
        return self._exp_product(self.alt_factors)

    @property
    def inverse(self) -> TensorElement:
        """R⁻¹ = ∏ exp(−F_k), the factors in reverse order."""
        return self._exp_product(-f for f in reversed(self.factors))

    def embedded(self, positions) -> TensorElement:
        """The expansion with both legs placed in a 3-fold tensor.

        Embedding into distinct slots is an algebra homomorphism, so this
        equals the factor product rebuilt from exponentials of the embedded
        factors."""
        return embed(self.expansion, positions, 3)

    def conjugate(self, t: TensorElement) -> TensorElement:
        """R t R⁻¹ through the factored form, with R's legs at ``t``'s first
        two slots: exp(F)·t·exp(−F) for each factor is the exponential of
        ad_F, applied innermost factor first."""
        for f in reversed(self.factors):
            t = exp_ad(embed(f, (0, 1), t.arity), t)
        return t


def exp_ad(factor: TensorElement, t: TensorElement) -> TensorElement:
    """exp(F) t exp(−F) = Σ_k ad_F^k(t)/k!, summed by :func:`.algebra._exp_sum`.

    Every factor used here carries positive marker degree, so each ad_F
    raises the order by at least one and the sum terminates at the
    algebra's truncation order; an unmarked factor, whose chain would not
    terminate, raises ``ValueError``, as does an untruncated algebra.  This
    turns conjugation by a dense exponential series into a short chain of
    sparse commutators.
    """
    if t.alg.order is None:
        raise ValueError("exp_ad needs a truncation order")
    return _exp_sum(t, factor.commutator, t.alg.order)


def _exponents(key: str, alg: Algebra):
    """The one statement of each universal R: its marked exponents F_k, in
    product order, and its second factorization (``None`` where there is
    none), over any algebra of the deformation's field.  For ``IIs`` the
    creation slot is the primed generator A₊' = e^{−zM}A₊."""
    field = alg.field
    gA, gAp, gAm, gM = (alg.gen(i) for i in (A, AP, AM, M))
    if key == "Uz":
        z = field.marked_param("z")
        return [tensor(gAp, gA).scale(-z), tensor(gA, gAp).scale(z)], None
    if key == "IIn":
        x, bp, yp = (field.marked_param(n) for n in ("x", "bp", "yp"))
        w = gA.scale(x) + gAp.scale(bp) + gAm.scale(yp)
        return [tensor(w, gM) - tensor(gM, w)], [-tensor(gM, w), tensor(w, gM)]
    z = field.marked_param("z")
    sym = (tensor(gA, gM) + tensor(gM, gA)).scale(-z)
    skew = tensor(gAm, gAp).scale(2 * z)
    return [sym, skew], [tensor(gA, gM).scale(-z), tensor(gM, gA).scale(-z), skew]


def universal_R(key: str, order: int) -> UniversalR:
    p = presentation(key, order)
    return UniversalR(key, p, *_exponents(key, p.alg))


# -- series-level checks -------------------------------------------------


def expansion_base_check(R: UniversalR):
    """Order 0 must be 1⊗1; order 1 the classical r-matrix (full form) —
    the order-1 part of ∏exp(F_k) is ΣF_k — whose skew part must be the
    presentation's six-coefficient r."""
    h1 = R.expansion.h_part(1)
    skew = (h1 - h1.swap()).scale(Fraction(1, 2))
    return held(
        [
            ("order-0", R.expansion.h_part(0) - R.alg.tensor_unit(2).h_part(0)),
            ("order-1", h1 - sum(R.factors, R.alg.tensor_zero(2)).h_part(1)),
            ("skew-part", skew - rebase(R.presentation.r.as_tensor(), R.alg).h_part(1)),
        ]
    )


def refactorization_check(R: UniversalR):
    """Both stated factorizations must expand identically."""
    alt = R.alt_expansion
    if alt is None:
        return True, []
    return held([("refactorization", R.expansion - alt)])


def inverse_check(R: UniversalR):
    """R·R⁻¹ = 1⊗1 and R⁻¹·R = 1⊗1."""
    unit, inv = R.alg.tensor_unit(2), R.inverse
    return held([("R*Rinv", R.expansion * inv - unit), ("Rinv*R", inv * R.expansion - unit)])


def qybe_check(R: UniversalR):
    """R₁₂R₁₃R₂₃ = R₂₃R₁₃R₁₂ in the deformed 3-fold tensor algebra, checked
    as (R₁₂R₁₃R₁₂⁻¹)(R₁₂R₂₃R₁₂⁻¹) = R₂₃R₁₃: R₁₂ is invertible, so the two
    hold together, and conjugating each factor alone is conjugating their
    product, since conjugation is an algebra automorphism.  The residual is
    the conjugated difference R₁₂R₁₃R₂₃R₁₂⁻¹ − R₂₃R₁₃, accumulated in one
    dict.  Where R₁₂ commutes with R₁₃ and R₂₃ (``IIn``), conjugation
    returns them unchanged, so the residual is the commutator [R₁₃, R₂₃]
    and its pairs of commuting terms are never formed."""
    r13 = R.embedded((0, 2))
    r23 = R.embedded((1, 2))
    return held([("qybe", R.conjugate(r13).product_difference(R.conjugate(r23), r23, r13))])


def intertwining_check(R: UniversalR):
    """σ∘Δ(X) = R Δ(X) R⁻¹ for all four generators.

    The conjugation runs through the factored form (nested exponentials of
    ad); ``exp_ad`` is cross-validated in the test suite against the dense
    product R·Δ(X)·R⁻¹ with R⁻¹ summed as a Neumann series.
    """
    images = R.presentation.images
    return held((name, R.conjugate(images[name]) - images[name].swap()) for name in GEN_NAMES)


def two_step_intertwining_check(order: int):
    """The two conjugations that establish intertwining on A₋ for ``Uz``:
    the inner factor strips Δ(A₋) down to the primitive coproduct, the
    outer factor then builds up the flipped coproduct.  The factors are
    those of the ``Uz`` universal R, exp(−z·Ap⊗A)·exp(z·A⊗Ap)."""
    R = universal_R("Uz", order)
    outer, inner = R.factors
    delta, prim = R.presentation.images["Am"], spread(R.alg.gen(AM), 2)
    return held(
        [
            ("inner: conj(Delta(Am)) = primitive", exp_ad(inner, delta) - prim),
            ("outer: conj(primitive) = flipped Delta(Am)", exp_ad(outer, prim) - delta.swap()),
        ]
    )


# The four conjugation identities, in the order they chain together.
CONJUGATION_CASES = ("Ap inner", "Ap outer", "A inner", "A outer")


def conjugation_identities(order: int):
    """The four auxiliary identities behind intertwining for ``IIn``.

    With W = x·A + β₊·A₊ + y₊·A₋ and w±(M) = (1−e^{∓xM})/x, conjugating
    by exp{W⊗M} and exp{−M⊗W} (the second factorization of the ``IIn``
    universal R) moves Δ(X) to σ∘Δ(X) through the primitive coproduct, up
    to central correction terms that cancel between the two steps.  Returns
    ``(tag, diff)`` pairs in chain order, after the shared set-up;
    ``diff()`` runs one conjugation and returns its difference from the
    expected tensor, zero when the identity holds.
    """
    R = universal_R("IIn", order)
    p, alg, field = R.presentation, R.alg, R.alg.field
    outer, inner = R.alt_factors
    x, yp = field.marked_param("x"), field.marked_param("yp")
    # (1 - e^{-xM})/x and (1 - e^{xM})/x as honest series
    wm = expm1_over(alg, -x, M)
    wp = -expm1_over(alg, x, M)
    # β₊·y₊/x with a single marker power, matching its net parameter degree
    byx = field.marked_param("bp") * field.param("yp") / field.param("x")
    central_p = tensor(wm, wm).scale(yp)
    central_a = (tensor(wp, wp) - tensor(wm, wm)).scale(byx)
    d0_ap = spread(alg.gen(AP), 2)
    d0_a = spread(alg.gen(A), 2)
    return [
        (CONJUGATION_CASES[0], lambda: exp_ad(inner, p.images["Ap"]) - (d0_ap + central_p)),
        (CONJUGATION_CASES[1], lambda: exp_ad(outer, d0_ap) - (p.images["Ap"].swap() - central_p)),
        (CONJUGATION_CASES[2], lambda: exp_ad(inner, p.images["A"]) - (d0_a + central_a)),
        (CONJUGATION_CASES[3], lambda: exp_ad(outer, d0_a) - (p.images["A"].swap() - central_a)),
    ]


# -- exact 3×3 representation -------------------------------------------


def _gen_matrices(field) -> dict:
    one = field.one
    return {
        A: ScalarMatrix(field, 3, {(1, 1): one}),
        AP: ScalarMatrix(field, 3, {(1, 2): one}),
        AM: ScalarMatrix(field, 3, {(0, 1): one}),
        M: ScalarMatrix(field, 3, {(0, 2): one}),
    }


def rep3(t: TensorElement, gens=None) -> ScalarMatrix:
    """D on each slot, the slots' matrices placed with ``kron``: the
    multiplicative, then linear, extension of the generator matrices ``gens``
    (by default :func:`_gen_matrices`) to tensors of normal monomials, of
    any arity, an element of the algebra being arity 1."""
    field = t.alg.field
    gens = gens or _gen_matrices(field)
    d_mono = multiplicative(t.alg, gens.__getitem__, ScalarMatrix.identity(field, 3), t.alg.first_letter)
    return linear(t, lambda key: reduce(ScalarMatrix.kron, map(d_mono, key)), ScalarMatrix.zero(field, 3**t.arity))


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


def d_matrix(key: str, primed_reading: str = "definition") -> ScalarMatrix:
    """The finite 9×9 matrix form each universal R collapses to:
    ∏ exp((D⊗D)F_k) over the exponents of :func:`_exponents`, taken in the
    exact classical algebra, its parameters marked.

    Each (D⊗D)F_k is a nilpotent 9×9 matrix, so its exponential series ends
    within nine steps.  For ``IIs`` the creation leg is the primed generator
    e^{−zM}A₊, and ``primed_reading`` selects its matrix: ``definition``
    takes D(e^{−zM})D(A₊), which is D(A₊) because D(M) annihilates D(A₊) on
    the left; ``literal-A`` substitutes D(A) instead, the other reading a
    strict transcription would give.  Any other reading raises
    ``ValueError``, for every key.
    """
    if primed_reading not in ("definition", "literal-A"):
        raise ValueError(f"unknown primed_reading {primed_reading!r}")
    field = deformation(key).field()
    gens = _gen_matrices(field)
    if key == "IIs" and primed_reading == "literal-A":
        gens[AP] = gens[A]
    eye = out = ScalarMatrix.identity(field, 9)
    for f in _exponents(key, Algebra.classical(field))[0]:
        m = rep3(f, gens)
        out = out * _exp_sum(eye, lambda t: t * m, 9)
    return out


def qybe_exact_matrix(mat9: ScalarMatrix):
    """Exact 27×27 braid identity for a two-site matrix (no truncation):
    R₁₂ = R⊗1, R₂₃ = 1⊗R and R₁₃ = P₂₃R₁₂P₂₃."""
    eye = ScalarMatrix.identity(mat9.field, 3)
    p23 = eye.kron(ScalarMatrix.flip(mat9.field, 3))
    r12 = mat9.kron(eye)
    r13 = p23 * r12 * p23
    r23 = eye.kron(mat9)
    diff = r12 * r13 * r23 - r23 * r13 * r12
    return diff.is_zero, diff


def qybe_exact_rep(key: str, primed_reading: str = "definition"):
    ok, diff = qybe_exact_matrix(d_matrix(key, primed_reading).strip_marker())
    return ok, ([] if ok else [("qybe-exact", diff)])


# -- FRT: quantum-group relations out of R T₁T₂ = T₂T₁ R ----------------


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
        words = sorted(self.terms, key=lambda w: (len(w), w))
        return signed_sum(((self.terms[w], "*".join(w) or "1") for w in words), lambda c: f"({c!r})*")

    def into(self, alg: FunAlgebra) -> TensorElement:
        """Evaluate the free words in a coordinate ring."""
        return linear(self, lambda w: math.prod(map(alg.coord, w), start=alg.one()), alg.zero())


def fun_t_matrix(alg: FunAlgebra) -> ScalarMatrix:
    """T over a quantized coordinate ring."""
    return t_matrix({n: alg.coord(n) for n in COORDS}, alg.one().scale)


def free_t_matrix(field) -> ScalarMatrix:
    """T over the free (unreduced) words."""
    return t_matrix({n: FreeElement.letter(field, n) for n in COORDS}, FreeElement.unit(field).scale)


def _frt_defect(r9: ScalarMatrix, t: ScalarMatrix) -> ScalarMatrix:
    """R·T₁T₂ − T₂T₁·R, in whatever ring T lives in, with T₁T₂ = T⊗T and
    T₂T₁ = P(T⊗T)P."""
    tt = t.kron(t)
    flip = ScalarMatrix.flip(r9.field, 3)
    return r9 * tt - flip * tt * flip * r9


def frt_relations(key: str):
    """Check R T₁T₂ = T₂T₁ R over the exact quantized coordinate ring and
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
    f = fun_presentation(key)
    alg = f.alg
    field = alg.field
    r9 = d_matrix(key)
    if r9.field is not field:
        raise AssertionError("coordinate ring and R-matrix field mismatch")
    ok, residuals = held(sorted(_frt_defect(r9, fun_t_matrix(alg)).entries.items()))
    extracted = {}
    for _, e in sorted(_frt_defect(r9, free_t_matrix(field)).entries.items()):
        c = e.canonical()
        extracted[c.render()] = c
    necessary = {}
    for pair in alg.tails:
        reduced = FunAlgebra(
            field,
            {p: t for p, t in alg.tails.items() if p != pair},
            label=f"{alg.label} minus one rule",
        )
        broken = any(not e.into(reduced).is_zero for e in extracted.values())
        necessary[(LETTER_NAMES[pair[0]], LETTER_NAMES[pair[1]])] = broken
    return {
        "ok": ok,
        "residuals": residuals,
        "extracted": extracted,
        "necessary": necessary,
    }
