"""The oscillator Lie algebra and its (deformed) enveloping algebras.

Generators, in fixed PBW order::

    A   number/boost generator        [A, Ap] =  Ap
    Ap  creation generator            [A, Am] = -Am
    Am  annihilation generator        [Am, Ap] =  M
    M   central generator

A PBW monomial is an exponent tuple ``(a, b, c, d)`` standing for
``A**a * Ap**b * Am**c * M**d``.  An :class:`Algebra` owns a set of
adjacent-swap rewrite rules ("tails"): for generators ``hi > lo`` in PBW
order, ``X_hi * X_lo = X_lo * X_hi + tail(hi, lo)``, where the tail is any
element.  The classical enveloping algebra has the Lie brackets above as
tails; deformed algebras add series corrections whose coefficients carry at
least one power of the grading marker ``h`` (see ``coeffs``), so products
truncated at a fixed marker order always terminate.

Everything heavy (monomial products, generator appends) is memoized per
algebra instance, which is what makes order-8 coproduct checks tractable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _cartesian

from .coeffs import Coefficient, CoefficientField

A, AP, AM, M = range(4)
GEN_NAMES = ("A", "Ap", "Am", "M")
UNIT_MONO = (0, 0, 0, 0)
GEN_MONOS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def mono_degree(mono) -> int:
    return sum(mono)


def mono_str(mono, names=GEN_NAMES) -> str:
    if not any(mono):
        return "1"
    parts = []
    for name, e in zip(names, mono):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _acc(terms, key, c):
    prev = terms.get(key)
    c = c if prev is None else prev + c
    if c.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = c


def _graded_items(terms, order):
    """Term items paired with their marker valuation (0 when exact)."""
    if order is None:
        return [(k, c, 0) for k, c in terms.items()]
    return [(k, c, c.marker_degree) for k, c in terms.items()]


def oscillator_tails(field: CoefficientField):
    """The undeformed commutators, as rewrite tails."""
    one = field.one
    return {
        (AP, A): {GEN_MONOS[AP]: -one},
        (AM, A): {GEN_MONOS[AM]: one},
        (AM, AP): {GEN_MONOS[M]: one},
    }


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


class Algebra:
    """Associative algebra presented by adjacent-swap rules on a letter table.

    Each letter is a ``(slot, step)`` pair: multiplying a monomial by the
    letter adds ``step`` to exponent ``slot``.  Here the letters are the
    generators A, Ap, Am, M, each stepping its own slot by +1; subclasses
    supply other tables (see :class:`.funalg.FunAlgebra`).  A normal word
    lists its letters by slot, and a product is normal-ordered by the rules
    ``X_hi * X_lo = X_lo * X_hi + tail`` for letters in higher/lower slots;
    absent pairs commute.

    ``order=None`` demands length-reducing rules (the classical case) and
    computes exactly; a finite ``order`` truncates every coefficient at that
    marker degree and is required as soon as any tail has words of length
    two or more (the deformed cases).
    """

    _classical: dict = {}

    names = GEN_NAMES
    letter_names = GEN_NAMES
    unit_mono = UNIT_MONO
    letters = ((A, 1), (AP, 1), (AM, 1), (M, 1))

    def __init__(self, field: CoefficientField, tails, order: int | None = None, label: str = ""):
        self.field = field
        self.order = order
        self.label = label
        self.tails = {}
        for pair, raw in tails.items():
            hi, lo = pair
            if self.letters[hi][0] <= self.letters[lo][0]:
                raise ValueError(f"swap rule {pair} is not an ordered pair")
            tail = {}
            for m, c in raw.items():
                c = c.truncate(order)
                if c.is_zero:
                    continue
                self._check_tail(pair, m, c)
                tail[m] = c
            if tail:
                self.tails[pair] = tail
        self._mg_cache: dict = {}
        self._mm_cache: dict = {}

    def _check_tail(self, pair, mono, c):
        """Reject a tail term under which rewriting might not terminate."""
        if mono_degree(mono) >= 2:
            if c.marker_degree < 1:
                hi, lo = (self.letter_names[g] for g in pair)
                raise ValueError(
                    f"rule ({hi},{lo}) has unmarked length-{mono_degree(mono)} tail term; "
                    "rewriting would not terminate"
                )
            if self.order is None:
                raise ValueError("series-type rewrite rules need a finite truncation order")

    def __repr__(self):
        tag = "exact" if self.order is None else f"order {self.order}"
        return f"<{type(self).__name__} {self.label or 'unlabeled'} ({tag})>"

    @classmethod
    def classical(cls, field: CoefficientField, order: int | None = None) -> "Algebra":
        key = (field, order)
        inst = cls._classical.get(key)
        if inst is None:
            inst = cls._classical[key] = cls(field, oscillator_tails(field), order, "U(h4)")
        return inst

    # -- letters and normal words ---------------------------------------

    @classmethod
    def letter_at(cls, slot, exponent):
        """The letter stepping ``slot`` towards an exponent of that sign."""
        return cls.letters.index((slot, 1 if exponent > 0 else -1))

    @classmethod
    def first_letter(cls, mono):
        """The leftmost letter of the normal word for ``mono`` (None for 1)."""
        for slot, e in enumerate(mono):
            if e:
                return cls.letter_at(slot, e)
        return None

    @classmethod
    def last_letter(cls, mono):
        """The rightmost letter of the normal word for ``mono`` (None for 1)."""
        for slot in range(len(mono) - 1, -1, -1):
            if mono[slot]:
                return cls.letter_at(slot, mono[slot])
        return None

    @classmethod
    def shift(cls, mono, letter, times=1):
        """``mono`` with ``letter`` appended ``times`` times (removed if negative)."""
        slot, step = cls.letters[letter]
        return mono[:slot] + (mono[slot] + times * step,) + mono[slot + 1 :]

    @classmethod
    def word_of(cls, mono) -> tuple[int, ...]:
        """The normal word of a monomial, as letter indices."""
        word = []
        for slot, e in enumerate(mono):
            if e:
                word.extend([cls.letter_at(slot, e)] * abs(e))
        return tuple(word)

    @classmethod
    def mono_of(cls, word) -> tuple[int, ...]:
        """The monomial whose letters are those of ``word``, in any order."""
        mono = cls.unit_mono
        for g in word:
            mono = cls.shift(mono, g)
        return mono

    # -- element constructors -------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {self.unit_mono: self.field.one})

    def letter(self, g: int) -> "Element":
        return Element(self, {self.shift(self.unit_mono, g): self.field.one})

    gen = letter

    def coord(self, name: str) -> "Element":
        return self.letter(self.letter_names.index(name))

    def gens(self) -> tuple["Element", ...]:
        return tuple(self.letter(g) for g in range(len(self.letters)))

    def monomial(self, mono, coeff=None) -> "Element":
        coeff = self.field.one if coeff is None else coeff
        return Element(self, {tuple(mono): coeff} if coeff else {})

    def element(self, terms) -> "Element":
        return Element(self, {m: c for m, c in terms.items() if not c.is_zero})

    def tensor_unit(self, arity: int) -> "TensorElement":
        return TensorElement(self, arity, {(self.unit_mono,) * arity: self.field.one})

    def tensor_zero(self, arity: int) -> "TensorElement":
        return TensorElement(self, arity, {})

    # -- the rewrite engine ---------------------------------------------

    def _clean(self, terms):
        out = {}
        for m, c in terms.items():
            c = c.truncate(self.order)
            if not c.is_zero:
                out[m] = c
        return out

    def _mul_mono_gen(self, mono, g):
        """Normal form of (normal monomial) * letter g, as a term dict."""
        key = (mono, g)
        hit = self._mg_cache.get(key)
        if hit is not None:
            return hit
        j = self.last_letter(mono)
        if j is None or self.letters[g][0] >= self.letters[j][0]:
            out = {self.shift(mono, g): self.field.one}
        else:
            prefix = self.shift(mono, j, -1)
            out = {}
            for m2, c2 in self._mul_mono_gen(prefix, g).items():
                for m3, c3 in self._mul_mono_gen(m2, j).items():
                    _acc(out, m3, c2 * c3)
            for tm, tc in self.tails.get((j, g), {}).items():
                for m4, c4 in self.mul_mono(prefix, tm).items():
                    _acc(out, m4, tc * c4)
            out = self._clean(out)
        self._mg_cache[key] = out
        return out

    def mul_mono(self, m1, m2):
        """Normal form of the product of two normal monomials, as a term dict."""
        if m2 == self.unit_mono:
            return {m1: self.field.one}
        if m1 == self.unit_mono:
            return {m2: self.field.one}
        key = (m1, m2)
        hit = self._mm_cache.get(key)
        if hit is not None:
            return hit
        j = self.last_letter(m2)
        out = {}
        for mi, ci in self.mul_mono(m1, self.shift(m2, j, -1)).items():
            for mo, co in self._mul_mono_gen(mi, j).items():
                _acc(out, mo, ci * co)
        out = self._clean(out)
        self._mm_cache[key] = out
        return out

    def normalize_word(self, word, rightmost: bool = False) -> "Element":
        """Normal form of a free word of letter indices.

        The default strategy folds left to right through the memoized
        engine.  ``rightmost=True`` runs an independent naive rewriter that
        always resolves the rightmost misordered pair first; comparing the
        two on the same words is a confluence check of the rule set.
        """
        if not rightmost:
            e = self.one()
            for g in word:
                e = e * self.letter(g)
            return e
        out: dict = {}
        stack = [(self.field.one, tuple(word))]
        while stack:
            c, w = stack.pop()
            idx = None
            for i in range(len(w) - 2, -1, -1):
                if self.letters[w[i]][0] > self.letters[w[i + 1]][0]:
                    idx = i
                    break
            if idx is None:
                _acc(out, self.mono_of(w), c)
                continue
            hi, lo = w[idx], w[idx + 1]
            pre, post = w[:idx], w[idx + 2 :]
            stack.append((c, pre + (lo, hi) + post))
            for tm, tc in self.tails.get((hi, lo), {}).items():
                cc = (c * tc).truncate(self.order)
                if not cc.is_zero:
                    stack.append((cc, pre + self.word_of(tm) + post))
        return Element(self, self._clean(out))


word_of_mono = Algebra.word_of
mono_of_word = Algebra.mono_of


def _coerce_scalar(field: CoefficientField, x):
    if isinstance(x, Coefficient):
        if x.field is not field:
            raise ValueError("scalar from a different coefficient field")
        return x
    if isinstance(x, (int, Fraction)):
        return field.rational(x)
    return None


class _Terms:
    """The one sparse linear-combination core: keys mapped to nonzero coefficients.

    Every container of the package is built on it: :class:`Element`,
    :class:`TensorElement`, :class:`.poisson.GroupFunction`,
    :class:`.rmatrix.FreeElement` and :class:`.rmatrix.ScalarMatrix`.  A
    container lives over a ``parent`` (an algebra, a group ring, or the
    coefficient field itself), which fixes the field and the truncation
    order, and may have a ``shape`` (tensor arity, matrix size).  Two
    operands combine, or compare, only when they are the same kind of
    container over the same parent with the same shape; anything else
    raises ``ValueError``.  An ``int``, ``Fraction`` or ``Coefficient`` of
    the field stands for that multiple of the unit, in ``==`` as in ``+``.

    A subclass supplies its unit (``_unit``) and its product: either
    ``_product`` itself or, for the shared bilinear loop, the product of two
    keys (``_key_product``).  It may expose ``parent`` under its usual name
    by aliasing the slot (``alg = _Terms.parent``).
    """

    __slots__ = ("parent", "terms")

    shape = None

    def __init__(self, parent, terms: dict):
        self.parent = parent
        self.terms = terms

    @property
    def field(self) -> CoefficientField:
        return self.parent.field

    @property
    def order(self) -> int | None:
        return self.parent.order

    def _like(self, terms):
        return type(self)(self.parent, terms)

    def _check(self, other):
        if type(other) is not type(self) or other.parent is not self.parent:
            raise ValueError(
                f"cannot combine {type(self).__name__} over {self.parent!r} "
                f"with {type(other).__name__} over {other.parent!r}"
            )
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} against {other.shape}")

    def _operand(self, other):
        """A compatible container, a scalar lifted to a multiple of the unit,
        or None for anything else."""
        if isinstance(other, _Terms):
            self._check(other)
            return other
        c = _coerce_scalar(self.field, other)
        return None if c is None else self._unit().scale(c)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            _acc(out, m, c)
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            _acc(out, m, -c)
        return self._like(out)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def scale(self, s):
        c = _coerce_scalar(self.field, s)
        if c is None:
            raise TypeError(f"cannot scale by {type(s).__name__}")
        if c.is_zero:
            return self._like({})
        order = self.order
        out = {}
        for m, cc in self.terms.items():
            v = (cc * c).truncate(order)
            if not v.is_zero:
                out[m] = v
        return self._like(out)

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, other):
        c = _coerce_scalar(self.field, other)
        if c is None:
            return NotImplemented
        return self.scale(self.field.one / c)

    def __mul__(self, other):
        if not isinstance(other, _Terms):
            return self.scale(other)
        self._check(other)
        return self._product(other)

    def _product(self, other):
        """The bilinear extension of ``_key_product`` (key times key is one key)."""
        key_product = self._key_product
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _acc(out, key_product(k1, k2), c1 * c2)
        return self._like(out)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be nonnegative integers")
        out = self._unit()
        for _ in range(n):
            out = out * self
        return out

    def map_coeffs(self, fn):
        out = {}
        for m, c in self.terms.items():
            v = fn(c)
            if not v.is_zero:
                out[m] = v
        return self._like(out)

    def truncate(self, order):
        return self.map_coeffs(lambda c: c.truncate(order))

    def h_part(self, k: int):
        return self.map_coeffs(lambda c: c.h_part(k))

    def scale_params(self):
        return self.map_coeffs(lambda c: c.scale_params())

    def strip_marker(self):
        return self.map_coeffs(lambda c: c.strip_marker())

    def marker_degree(self):
        """Lowest series order present across all terms (0 for zero)."""
        if self.is_zero:
            return 0
        return min(c.marker_degree for c in self.terms.values())

    def commutator(self, other):
        return self * other - other * self


class Element(_Terms):
    """An enveloping-algebra element: PBW monomials with exact coefficients."""

    __slots__ = ()

    alg = _Terms.parent

    # Bound on each container class of its own so that per-class tracing
    # (perfbench/spans.py patches through the class's __dict__) sees it.
    __mul__ = _Terms.__mul__

    def __repr__(self):
        return element_str(self) or "0"

    def _unit(self):
        return self.alg.one()

    @property
    def degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def _product(self, other):
        order = self.alg.order
        out: dict = {}
        # valuations add exactly, so pairs over the truncation order can be
        # skipped before the (expensive) coefficient product
        lhs = _graded_items(self.terms, order)
        rhs = _graded_items(other.terms, order)
        for m1, c1, d1 in lhs:
            for m2, c2, d2 in rhs:
                if order is not None and d1 + d2 > order:
                    continue
                c = (c1 * c2).truncate(order)
                if c.is_zero:
                    continue
                for m, cm in self.alg.mul_mono(m1, m2).items():
                    _acc(out, m, (c * cm).truncate(order))
        return Element(self.alg, {m: c for m, c in out.items() if not c.is_zero})

    def coeff(self, mono) -> Coefficient:
        return self.terms.get(tuple(mono), self.alg.field.zero)


class TensorElement(_Terms):
    """An element of the tensor square or cube of an :class:`Algebra`."""

    __slots__ = ("arity",)

    alg = _Terms.parent
    __mul__ = _Terms.__mul__

    def __init__(self, alg, arity, terms):
        super().__init__(alg, terms)
        self.arity = arity

    @property
    def shape(self):
        return self.arity

    def _like(self, terms):
        return TensorElement(self.alg, self.arity, terms)

    def _unit(self):
        return self.alg.tensor_unit(self.arity)

    def __repr__(self):
        return tensor_str(self) or "0"

    def _product(self, other):
        alg, order = self.alg, self.alg.order
        out: dict = {}
        lhs = _graded_items(self.terms, order)
        rhs = _graded_items(other.terms, order)
        for k1, c1, d1 in lhs:
            for k2, c2, d2 in rhs:
                if order is not None and d1 + d2 > order:
                    continue
                c = (c1 * c2).truncate(order)
                if c.is_zero:
                    continue
                slot_terms = [alg.mul_mono(k1[s], k2[s]).items() for s in range(self.arity)]
                for combo in _cartesian(*slot_terms):
                    cc = c
                    for _, cs in combo:
                        cc = cc * cs
                    # a product by the field's unit hands back c, already truncated
                    if cc is not c:
                        cc = cc.truncate(order)
                        if cc.is_zero:
                            continue
                    _acc(out, tuple(m for m, _ in combo), cc)
        return TensorElement(alg, self.arity, {k: c for k, c in out.items() if not c.is_zero})

    def permute(self, perm) -> "TensorElement":
        """Reorder slots: new slot s holds old slot perm[s]."""
        out: dict = {}
        for k, c in self.terms.items():
            _acc(out, tuple(k[p] for p in perm), c)
        return TensorElement(self.alg, self.arity, out)

    def swap(self) -> "TensorElement":
        """The flip on a tensor square."""
        if self.arity != 2:
            raise ValueError("swap is for arity-2 tensors")
        return self.permute((1, 0))

    def max_slot_degree(self) -> int:
        return max((mono_degree(m) for k in self.terms for m in k), default=0)

    def contract(self, pos: int, scalar_of_mono):
        """Apply a scalar-valued linear map to one slot and drop it."""
        keep = [s for s in range(self.arity) if s != pos]
        out: dict = {}
        for k, c in self.terms.items():
            v = c * scalar_of_mono(k[pos])
            if v.is_zero:
                continue
            key = k[keep[0]] if self.arity == 2 else tuple(k[s] for s in keep)
            _acc(out, key, v)
        if self.arity == 2:
            return Element(self.alg, out)
        return TensorElement(self.alg, self.arity - 1, out)

    def fold_slots(self, maps=None) -> Element:
        """Multiply the slots together in the base algebra, left to right.

        ``maps`` optionally supplies a per-slot linear map (monomial ->
        Element) applied before multiplying; slot maps default to identity.
        """
        alg = self.alg
        total = alg.zero()
        for k, c in self.terms.items():
            piece = alg.one()
            for s, m in enumerate(k):
                fac = maps[s](m) if maps and maps[s] is not None else Element(alg, {m: alg.field.one})
                piece = piece * fac
            total = total + piece.scale(c)
        return total


def tensor(*factors: Element) -> TensorElement:
    """The tensor product of algebra elements."""
    alg = factors[0].alg
    order = alg.order
    out: dict = {}
    keys_coeffs = [f.terms.items() for f in factors]
    for combo in _cartesian(*keys_coeffs):
        c = alg.field.one
        for _, cf in combo:
            c = c * cf
        c = c.truncate(order)
        if c.is_zero:
            continue
        _acc(out, tuple(m for m, _ in combo), c)
    return TensorElement(alg, len(factors), out)


def embed(t: TensorElement, positions: tuple[int, ...], arity: int) -> TensorElement:
    """Place a tensor's slots at ``positions`` of a wider tensor, units elsewhere."""
    out: dict = {}
    unit = t.alg.unit_mono
    for k, c in t.terms.items():
        key = [unit] * arity
        for s, p in enumerate(positions):
            key[p] = k[s]
        _acc(out, tuple(key), c)
    return TensorElement(t.alg, arity, out)


def spread(x: Element, arity: int) -> TensorElement:
    """x⊗1⊗...⊗1 + 1⊗x⊗...⊗1 + ... — the primitive embedding of x."""
    alg = x.alg
    out: dict = {}
    unit = alg.unit_mono
    for s in range(arity):
        for m, c in x.terms.items():
            key = [unit] * arity
            key[s] = m
            _acc(out, tuple(key), c)
    return TensorElement(alg, arity, out)


def tensor_adjoint(x: Element, t: TensorElement) -> TensorElement:
    """Adjoint action of x on a tensor power: [spread(x), t]."""
    return spread(x, t.arity).commutator(t)


def rebase(x, alg: Algebra):
    """Reinterpret already-normal terms in another algebra over the same field.

    Legitimate between algebras sharing a normal form on the given support
    (e.g. truncations of one another); used to compare results computed at
    different truncation orders.
    """
    if x.alg.field is not alg.field:
        raise ValueError("rebase requires the same coefficient field")
    terms = alg._clean(x.terms)
    if isinstance(x, TensorElement):
        return TensorElement(alg, x.arity, terms)
    return Element(alg, terms)


def exp_series(x, order: int | None = None):
    """exp of an element/tensor whose coefficients all carry the marker.

    The marker grading makes the series terminate at the truncation order;
    inputs with an order-0 part are rejected rather than summed blindly.
    """
    order = x.order if order is None else order
    if order is None:
        raise ValueError("exp needs a truncation order")
    if not x.is_zero and x.marker_degree() < 1:
        raise ValueError("exp argument has an order-0 part; series would not terminate")
    total = term = x._unit()
    for k in range(1, order + 1):
        term = (term * x).scale(Fraction(1, k)).truncate(order)
        if term.is_zero:
            break
        total = total + term
    return total


def mat_mul(a, b):
    """Product of two square matrices (nested sequences) over any ring."""
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(1, n)), a[i][0] * b[0][j]) for j in range(n)]
        for i in range(n)
    ]


# -- plain-text rendering ------------------------------------------------


def coeff_prefix(c: Coefficient) -> str:
    s = repr(c)
    if s == "1":
        return ""
    if s == "-1":
        return "-"
    if any(op in s[1:] for op in (" + ", " - ")) and not (s.startswith("(") and s.endswith(")")):
        s = f"({s})"
    return s + "*"


def _sorted_keys(keys, keyfn):
    return sorted(keys, key=keyfn)


def element_str(e: Element) -> str:
    names = getattr(e.alg, "names", GEN_NAMES)
    bits = []
    for m in _sorted_keys(e.terms, lambda m: (mono_degree(m), m)):
        pre = coeff_prefix(e.terms[m])
        body = mono_str(m, names)
        if body == "1":
            bits.append(repr(e.terms[m]))
        else:
            bits.append(pre + body)
    return " + ".join(bits).replace("+ -", "- ")


def tensor_str(t: TensorElement) -> str:
    names = getattr(t.alg, "names", GEN_NAMES)
    bits = []
    for k in _sorted_keys(t.terms, lambda k: (sum(mono_degree(m) for m in k), k)):
        pre = coeff_prefix(t.terms[k])
        body = " o ".join(mono_str(m, names) for m in k)
        bits.append(pre + body if body != " o ".join(["1"] * t.arity) else repr(t.terms[k]))
    return " + ".join(bits).replace("+ -", "- ")
