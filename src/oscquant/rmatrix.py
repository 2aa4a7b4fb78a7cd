"""Universal R-matrices for the deformed oscillator algebras.

Each family's R is an ordered product of exponential factors whose
exponents F_k are marked arity-2 tensors, stated once as text in
``_EXPONENTS`` and read by :func:`.hopf.reader` over any algebra of the
deformation's field.  Over the deformed algebra they give the series R,
expanded to the truncation order; over the exact classical algebra, under
the 3×3 representation D, they give the finite 9×9 matrix ∏ exp((D⊗D)F_k).  The module machine-checks everything the R is
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
  through the same factored conjugation, whose ad_F steps walk each pair once;
* the two-step conjugation that proves intertwining on A₋ for the
  one-parameter creation-type family and, up to central terms, on A₊ and
  A for the three-parameter family (the four identities of Appendix A),
  stated once as one conjugation step on R's factors;
* the exact 3×3 matrix image: representation property, collapse of the
  series R to the 9×9 matrix, and the 27×27 braid identity with no
  truncation, its three factors placed with ``kron`` and the flip P₂₃;
* the FRT construction R T₁T₂ = T₂T₁ R, with T₁T₂ = T⊗T and
  T₂T₁ = P(T⊗T)P: its defect is formed once over the free (unreduced)
  words, whose nonzero entries are the extracted relations; all 81 entries
  vanish in the quantized coordinate ring, and dropping any single
  commutation rule is shown to break some entry.

Every matrix here is an :class:`.algebra.ScalarMatrix`, over coefficients
or over the coordinate rings' elements.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import add

from .algebra import (
    A,
    AM,
    AP,
    GEN_NAMES,
    M,
    Algebra,
    ScalarMatrix,
    TensorElement,
    _bilinear,
    _exp_sum,
    _Terms,
    embed,
    exp_series,
    held,
    linear,
    multiplicative,
    rebase,
    signed_sum,
    spread,
)
from .bialgebra import deformation
from .funalg import fun_presentation
from .hopf import HopfPresentation, presentation, reader
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
    """exp(F) t exp(−F) = Σ_k ad_F^k(t)/k!, summed by :func:`.algebra._exp_sum`:
    conjugation by a dense series as a short chain of sparse commutators,
    each ad_F the kernel's commutator, one walk of the pairs of terms.

    Every factor used here carries positive marker degree, so each ad_F
    raises the order by at least one and the sum terminates at the
    algebra's truncation order; an unmarked factor, whose chain would not
    terminate, raises ``ValueError``, as does an untruncated algebra.
    """
    if t.alg.order is None:
        raise ValueError("exp_ad needs a truncation order")
    return _exp_sum(t, lambda s: factor.product_difference(s, s, factor), t.alg.order)


# The one statement of each universal R: its exponents F_k, in product
# order, and its second factorization (None where there is none).  For
# ``IIn`` W = x·A + β₊·A₊ + y₊·A₋; for ``IIs`` the creation slot is the
# primed generator A₊' = e^{−zM}A₊.
_W = "(x*A + bp*Ap + yp*Am)"
_EXPONENTS = {
    "Uz": (["-z*Ap@A", "z*A@Ap"], None),
    "IIn": ([f"{_W}@M - M@{_W}"], [f"-M@{_W}", f"{_W}@M"]),
    "IIs": (["-z*(A@M + M@A)", "2*z*Am@Ap"], ["-z*A@M", "-z*M@A", "2*z*Am@Ap"]),
}


def _exponents(key: str, alg: Algebra):
    """``_EXPONENTS[key]`` read over ``alg``, any algebra of the
    deformation's field, each parameter with one marker power."""
    read = reader(alg, key)
    factors, alt = _EXPONENTS[key]
    return [read(t) for t in factors], None if alt is None else [read(t) for t in alt]


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
    return held([] if alt is None else [("refactorization", R.expansion - alt)])


def inverse_check(R: UniversalR):
    """R·R⁻¹ = 1⊗1 and R⁻¹·R = 1⊗1."""
    unit, inv = R.alg.tensor_unit(2), R.inverse
    return held([("R*Rinv", R.expansion * inv - unit), ("Rinv*R", inv * R.expansion - unit)])


def qybe_check(R: UniversalR):
    """R₁₂R₁₃R₂₃ = R₂₃R₁₃R₁₂ in the deformed 3-fold tensor algebra, checked
    as (R₁₂R₁₃R₁₂⁻¹)(R₁₂R₂₃R₁₂⁻¹) = R₂₃R₁₃: R₁₂ is invertible, so the two
    hold together, and conjugating each factor alone is conjugating their
    product, since conjugation is an algebra automorphism.  The residual
    R₁₂R₁₃R₂₃R₁₂⁻¹ − R₂₃R₁₃ is one set of sums.  For ``IIn``, R₁₂ commutes
    with R₁₃ and R₂₃, so it is [R₁₃, R₂₃], one walk of its pairs of terms,
    as each ad_F step of the conjugations is."""
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


# The central term c of each two-step conjugation that has one, by key and
# generator, read with the key's series wm = (1 − e^{−xM})/x and
# wp = (e^{xM} − 1)/x; every other step has c = 0.
_CENTRAL = {("IIn", "Ap"): "yp*wm@wm", ("IIn", "A"): "bp*yp/x*(wp@wp - wm@wm)"}


def conjugation_step(R: UniversalR, tag: str) -> TensorElement:
    """One step of the two-step conjugation behind intertwining on a
    generator X, ``tag`` being "X inner" or "X outer": the inner factor takes
    Δ(X) to the primitive coproduct plus a central term c,
    exp(inner)·Δ(X) = Δ₀(X) + c, and the outer factor takes that on,
    exp(outer)·Δ₀(X) = σΔ(X) − c.  Returns the step's difference from its
    expected tensor, zero when it holds.

    The two factors are those of R's second factorization, or of R where it
    has none.  ``Uz`` takes A₋ through exp(−z·Ap⊗A)·exp(z·A⊗Ap), with c = 0.
    ``IIn`` takes A₊ and A through exp{−M⊗W}·exp{W⊗M}, W = x·A + β₊·A₊ +
    y₊·A₋, with c from ``_CENTRAL``.
    """
    name, step = tag.split()
    alg = R.alg
    delta, d0 = R.presentation.images[name], spread(alg.gen(GEN_NAMES.index(name)), 2)
    outer, inner = R.alt_factors or R.factors
    text = _CENTRAL.get((R.key, name))
    c = alg.tensor_zero(2) if text is None else reader(alg, R.key)(text)
    if step == "inner":
        return exp_ad(inner, delta) - (d0 + c)
    return exp_ad(outer, d0) - (delta.swap() - c)


def two_step_intertwining_check(R: UniversalR):
    """The two conjugations that establish intertwining on A₋ for ``Uz``:
    the inner factor strips Δ(A₋) down to the primitive coproduct, the
    outer factor then builds up the flipped coproduct."""
    return held(
        [
            ("inner: conj(Delta(Am)) = primitive", conjugation_step(R, "Am inner")),
            ("outer: conj(primitive) = flipped Delta(Am)", conjugation_step(R, "Am outer")),
        ]
    )


# The four conjugation identities behind intertwining for ``IIn``, in the
# order they chain together; their central terms cancel between the steps.
CONJUGATION_CASES = ("Ap inner", "Ap outer", "A inner", "A outer")


def conjugation_check(R: UniversalR, tag: str):
    """One conjugation identity, reported under its tag."""
    return held([(tag, conjugation_step(R, tag))])


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
    return held([("qybe-exact", r12 * r13 * r23 - r23 * r13 * r12)])


def qybe_exact_rep(key: str, primed_reading: str = "definition"):
    return qybe_exact_matrix(d_matrix(key, primed_reading).strip_marker())


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

    def _product(self, other):
        return self._like(_bilinear(self.field, self.terms, other.terms, None, add))

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

    The defect is formed once, over the free (unreduced) words; each ring
    is then asked whether its entries vanish there.  Returns a dict with:
      ``ok``          all 81 entries vanish under the ring's relations;
      ``residuals``   the entries that do not, evaluated in the ring;
      ``extracted``   canonical nonzero entries of the free defect — the
                      relations the FRT equation imposes;
      ``necessary``   for each commutation rule of the ring, whether
                      dropping it makes some extracted relation fail;
      ``letters``     the coordinate letters that occur in T's entries (a
                      rule about a letter absent from T cannot appear).
    """
    f = fun_presentation(key)
    alg = f.alg
    field = alg.field
    r9 = d_matrix(key)
    if r9.field is not field:
        raise AssertionError("coordinate ring and R-matrix field mismatch")
    t = free_t_matrix(field)
    defect = sorted(_frt_defect(r9, t).entries.items())
    ok, residuals = held((pos, e.into(alg)) for pos, e in defect)
    extracted = {}
    for _, e in defect:
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
        "letters": {name for e in t.entries.values() for word in e.terms for name in word},
    }
