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

An algebra element is the arity-1 :class:`TensorElement`, keyed ``(mono,)``:
elements and their tensor powers share one container and one product
kernel, and :func:`tensor` concatenates its factors' keys.

The package's structure maps (coproduct, counit, antipode, the 3×3
representation, the Poisson pull-back) are fixed on letters, extended to
normal monomials by :func:`multiplicative`, the one memoized walk of
``image(g) * of(rest)``, and then to containers by :func:`linear`, the one
sum of ``c*image(k)`` over the terms of a container; FRT evaluation of free
words goes straight through :func:`linear`.  Every matrix of the package
(the 3×3 representation, the R-matrices and the FRT group element, the
exponent matrices of ``lm``, the group matrix of ``poisson``) is a
:class:`ScalarMatrix`, whose product is the one matrix product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as _cartesian

from .coeffs import Coefficient, CoefficientField

A, AP, AM, M = range(4)
GEN_NAMES = ("A", "Ap", "Am", "M")
UNIT_MONO = (0, 0, 0, 0)
GEN_MONOS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def mono_degree(mono) -> int:
    return sum(mono)


def mono_str(mono, names) -> str:
    """``A^2*M`` style; the unit monomial prints as the empty string."""
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


def _grade(c):
    """(valuation, polynomial top) of a term about to be multiplied under truncation."""
    top = c.poly_top
    if top is None and c.den_has_marker:
        raise ValueError(f"cannot truncate {c!r}: denominator carries the marker")
    return c.marker_degree, top


def _pair_walk(lhs, rhs, order, skip=None):
    """The one bilinear pair loop: every product of a term of ``lhs`` by a
    term of ``rhs`` that can survive truncation at ``order``, in the order
    lhs × rhs, as ``(k1, k2, c)`` with ``c = c1*c2`` truncated and nonzero.
    Every product of term dicts runs through it: the container products,
    :func:`tensor`, :func:`linear`, :func:`apply_slot_map`, :func:`spread`
    and ``kron``.

    ``rhs`` is a term dict, or a function of the left key giving one.
    Valuations add exactly, so the right-hand terms that cannot survive are
    filtered out once per distinct left valuation.  Polynomial tops add
    exactly too, so a product of two polynomials whose tops sum to at most
    the order is not truncated.  A term whose denominator carries the marker
    raises ``ValueError``, as ``truncate`` does.  A pair for which
    ``skip(k1, k2)`` is true is left out before its coefficient is formed;
    whether ``skip`` is given is asked once per left term, so a walk without
    it pays nothing per pair.
    """
    rhs_of = rhs if callable(rhs) else lambda _: rhs
    exact = order is None
    # (id(right dict), left valuation) -> (the dict, its terms that can survive)
    rows_at: dict = {}
    for k1, c1 in lhs.items():
        r = rhs_of(k1)
        d1, t1 = (0, None) if exact else _grade(c1)
        got = rows_at.get((id(r), d1))
        if got is None:
            rows = []
            for k2, c2 in r.items():
                d2, t2 = (0, None) if exact else _grade(c2)
                if exact or d1 + d2 <= order:
                    rows.append((k2, c2, t2))
            got = rows_at[(id(r), d1)] = (r, rows)
        one = c1.field.one
        rows = got[1] if skip is None else [row for row in got[1] if not skip(k1, row[0])]
        for k2, c2, t2 in rows:
            c = c2 if c1 is one else c1 if c2 is one else c1 * c2
            if not exact and (t1 is None or t2 is None or t1 + t2 > order):
                c = c.truncate(order)
            if not c.is_zero:
                yield k1, k2, c


def _times(c, consts, order):
    """``c``, already truncated, times each constant.  A constant that is the
    field's unit costs nothing, and valuations add exactly, so a product
    above ``order`` is zero without being formed."""
    one = c.field.one
    ks = [k for k in consts if k is not one]
    if not ks:
        return c
    if order is not None and c.marker_degree + sum(k.marker_degree for k in ks) > order:
        return c.field.zero
    for k in ks:
        c = c * k
    return c if order is None else c.truncate(order)


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
    supply other tables (see :class:`.poisson.FunAlgebra`).  A normal word
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

    # An element of the algebra is its arity-1 tensor; a ring of functions on
    # several copies of the group (:class:`.poisson.GroupRing`) raises this.
    sites = 1

    def zero(self) -> "TensorElement":
        return self.tensor_zero(self.sites)

    def one(self) -> "TensorElement":
        return self.tensor_unit(self.sites)

    def letter(self, g: int) -> "TensorElement":
        return self.monomial(self.shift(self.unit_mono, g))

    gen = letter

    def coord(self, name: str) -> "TensorElement":
        return self.letter(self.letter_names.index(name))

    def gens(self) -> tuple["TensorElement", ...]:
        return tuple(self.letter(g) for g in range(len(self.letters)))

    def monomial(self, mono) -> "TensorElement":
        return TensorElement(self, 1, {(tuple(mono),): self.field.one})

    def element(self, terms) -> "TensorElement":
        """The element with these terms, keyed as ``.terms`` holds them."""
        return TensorElement(self, self.sites, {k: c for k, c in terms.items() if not c.is_zero})

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

    def normalize_word(self, word, rightmost: bool = False) -> "TensorElement":
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
                _acc(out, (self.mono_of(w),), c)
                continue
            hi, lo = w[idx], w[idx + 1]
            pre, post = w[:idx], w[idx + 2 :]
            stack.append((c, pre + (lo, hi) + post))
            for tm, tc in self.tails.get((hi, lo), {}).items():
                cc = (c * tc).truncate(self.order)
                if not cc.is_zero:
                    stack.append((cc, pre + self.word_of(tm) + post))
        return TensorElement(self, 1, self._clean(out))


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

    Every container of the package is built on it, and there are three:
    :class:`TensorElement` (an algebra element is its arity-1 tensor, and a
    function on copies of the group a tensor over a
    :class:`.poisson.GroupRing`), :class:`ScalarMatrix` (the one matrix
    type) and :class:`.rmatrix.FreeElement`.  A container lives
    over a ``parent`` (an algebra or the coefficient field itself), which
    fixes the field and the truncation order, and may have a ``shape``
    (tensor arity, matrix size).  Two
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
        if order is None:
            return self.map_coeffs(lambda v: v * c)
        return self.map_coeffs(lambda v: (v * c).truncate(order))

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
        for k1, k2, c in _pair_walk(self.terms, other.terms, self.order):
            _acc(out, key_product(k1, k2), c)
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

    @property
    def marker_degree(self) -> int:
        """Lowest series order present across all terms (0 for zero)."""
        if self.is_zero:
            return 0
        return min(c.marker_degree for c in self.terms.values())

    def commutator(self, other):
        return self * other - other * self


class TensorElement(_Terms):
    """An element of a tensor power of an :class:`Algebra`: keys are tuples
    of normal monomials, one per slot.  An element of the algebra itself is
    the arity-1 tensor, keyed ``(mono,)``."""

    __slots__ = ("arity",)

    alg = _Terms.parent
    # Bound on each container class of its own so that per-class tracing
    # (perfbench/spans.py patches through the class's __dict__) sees it.
    __mul__ = _Terms.__mul__

    def __init__(self, alg, arity, terms):
        # Every algebra operation builds one, so the slots are set here
        # rather than through a call of ``_Terms.__init__``.
        self.parent = alg
        self.terms = terms
        self.arity = arity

    @property
    def shape(self):
        return self.arity

    def _like(self, terms):
        return TensorElement(self.alg, self.arity, terms)

    def _unit(self):
        return self.alg.tensor_unit(self.arity)

    def __repr__(self):
        names = self.alg.names
        pairs = []
        for k in sorted(self.terms, key=lambda k: (sum(map(mono_degree, k)), k)):
            slots = [mono_str(m, names) for m in k]
            pairs.append((self.terms[k], " o ".join(s or "1" for s in slots) if any(slots) else ""))
        return signed_sum(pairs)

    def _product(self, other, out=None, skip=None):
        """self·other, its terms accumulated into ``out`` (a new dict by
        default), leaving out the pairs of keys that ``skip`` names."""
        alg, order = self.alg, self.alg.order
        mul, one = alg.mul_mono, alg.field.one
        out = {} if out is None else out
        for k1, k2, c in _pair_walk(self.terms, other.terms, order, skip):
            slot_terms = [mul(a, b).items() for a, b in zip(k1, k2)]
            # Mostly every slot's product is one monomial with the unit
            # coefficient: then the product is ``c`` at one key.
            key = []
            for items in slot_terms:
                if len(items) != 1:
                    break
                ((m, cm),) = items
                if cm is not one:
                    break
                key.append(m)
            else:
                _acc(out, tuple(key), c)
                continue
            for combo in _cartesian(*slot_terms):
                monos, consts = zip(*combo)
                v = _times(c, consts, order)
                if not v.is_zero:
                    _acc(out, monos, v)
        return TensorElement(alg, self.arity, out)

    def product_difference(self, y, z, w) -> "TensorElement":
        """self·y − z·w, the two products accumulated into one dict: the
        terms of z·w cancel into those of self·y as they arrive, so the two
        products are never held at once.

        When (z, w) is (y, self) the difference is the commutator
        [self, y].  A pair of keys whose slots multiply the same way in
        either order then adds the same term to both products, so the
        kernel never forms it."""
        for t in (y, z, w):
            self._check(t)
        skip = self._slots_commute if z is y and w is self else None
        out: dict = {}
        self._product(y, out, skip)
        return z._product(-w, out, skip)

    def _slots_commute(self, k1, k2) -> bool:
        mul, unit = self.alg.mul_mono, self.alg.unit_mono
        return all(a == b or unit in (a, b) or mul(a, b) == mul(b, a) for a, b in zip(k1, k2))

    def permute(self, perm) -> "TensorElement":
        """Reorder slots: new slot s holds old slot perm[s]."""
        return embed(self, tuple(perm.index(s) for s in range(self.arity)), self.arity)

    def swap(self) -> "TensorElement":
        """The flip on a tensor square."""
        if self.arity != 2:
            raise ValueError("swap is for arity-2 tensors")
        return self.permute((1, 0))

    def max_slot_degree(self) -> int:
        return max((mono_degree(m) for k in self.terms for m in k), default=0)

    def contract(self, pos: int, scalar_of_mono):
        """Apply a scalar-valued linear map to one slot and drop it."""
        out: dict = {}
        for k, c in self.terms.items():
            v = c * scalar_of_mono(k[pos])
            if not v.is_zero:
                _acc(out, k[:pos] + k[pos + 1 :], v)
        return TensorElement(self.alg, self.arity - 1, out)

    def fold_slots(self, maps) -> "TensorElement":
        """Multiply the slots together in the base algebra, left to right,
        each slot first sent through its linear map in ``maps`` (monomial ->
        element), or left as it is where the map is None."""
        alg = self.alg

        def image(k):
            facs = (alg.monomial(m) if maps[s] is None else maps[s](m) for s, m in enumerate(k))
            return math.prod(facs, start=alg.one())

        return linear(self, image, alg.zero())


# The former name of an algebra element, kept only because the benchmark's
# tracer (``perfbench/spans.py``) patches ``algebra.Element.__mul__``.
Element = TensorElement


class ScalarMatrix(_Terms):
    """Sparse exact square matrix, the package's one matrix type.

    Its parent is a coefficient field and its shape the size, so matrices
    over different fields or of different sizes never combine.  The entries
    are coefficients of the field or elements of any ring over it
    (:class:`TensorElement`, :class:`.rmatrix.FreeElement`);
    a product multiplies entries in the written order, so noncommuting
    entries keep their factor order.
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

    @classmethod
    def from_rows(cls, field, rows):
        """The matrix with these dense rows (zero entries are dropped)."""
        return cls(field, len(rows), {(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row)})

    @classmethod
    def flip(cls, field, dim):
        """The flip P of C^dim ⊗ C^dim, P(u⊗v) = v⊗u (size dim²)."""
        one = field.one
        return cls(field, dim * dim, {(i * dim + j, j * dim + i): one for i in range(dim) for j in range(dim)})

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
        rows: list = [{} for _ in range(self.dim)]
        for (k, j), c in other.entries.items():
            rows[k][j] = c
        out: dict = {}
        for (i, _), j, c in _pair_walk(self.entries, lambda ik: rows[ik[1]], None):
            _acc(out, (i, j), c)
        return ScalarMatrix(self.field, self.dim, out)

    def kron(self, other):
        """The Kronecker product: entry ((i,k),(j,l)) is self[i,j]·other[k,l]."""
        d = other.dim
        pairs = _pair_walk(self.entries, other.entries, None)
        return ScalarMatrix(self.field, self.dim * d, {(i * d + k, j * d + l): c for (i, j), (k, l), c in pairs})


def tensor(*factors: TensorElement) -> TensorElement:
    """The tensor product of tensors (algebra elements being arity 1),
    truncated at their order: each key is the concatenation of its factors'.

    The pair walk folds the factors in from the left, starting from the
    unit; every key it makes is distinct, so nothing accumulates."""
    alg = factors[0].alg
    terms = {(): alg.field.one}
    for f in factors:
        terms = {k + k2: c for k, k2, c in _pair_walk(terms, f.terms, alg.order)}
    return TensorElement(alg, sum(f.arity for f in factors), terms)


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


def linear(x, image, zero):
    """The linear extension of ``image`` (a key of ``x`` -> a container like
    ``zero``): sum of c*image(k) over the terms of ``x``, truncated at
    ``zero.order``, as a container like ``zero``."""
    out: dict = {}
    for _, k2, c in _pair_walk(x.terms, lambda k: image(k).terms, zero.order):
        _acc(out, k2, c)
    return zero._like(out)


def multiplicative(alg: Algebra, image, one, peel):
    """The extension of ``image`` (a letter -> a value like ``one``) to the
    normal monomials of ``alg``: 1 goes to ``one``, and a monomial to
    ``image(g) * of(rest)``, where ``peel`` splits off its letter ``g``.
    ``alg.first_letter`` gives a morphism and ``alg.last_letter`` an
    anti-morphism.  Results are memoized per monomial; the walk down to the
    nearest memoized one is a loop, and the returned function holds no
    reference to itself, so its memo dies with it."""
    memo = {alg.unit_mono: one}
    shift = alg.shift

    def of(mono):
        hit = memo.get(mono)
        chain = []
        while hit is None:
            g = peel(mono)
            chain.append((mono, g))
            mono = shift(mono, g, -1)
            hit = memo.get(mono)
        for mono, g in reversed(chain):
            hit = memo[mono] = image(g) * hit
        return hit

    return of


def apply_slot_map(t: TensorElement, pos: int, f) -> TensorElement:
    """Replace slot ``pos`` by its arity-2 image under f (mono -> tensor)."""
    out: dict = {}
    for key, k2, c in _pair_walk(t.terms, lambda key: f(key[pos]).terms, t.alg.order):
        _acc(out, key[:pos] + k2 + key[pos + 1 :], c)
    return TensorElement(t.alg, t.arity + 1, out)


def spread(x: TensorElement, arity: int) -> TensorElement:
    """x⊗1⊗...⊗1 + 1⊗x⊗...⊗1 + ... — the primitive embedding of x: one
    pair walk of the slots by x's terms, the placements merged in one dict."""
    units = (x.alg.unit_mono,) * arity
    out: dict = {}
    for s, k, c in _pair_walk(dict.fromkeys(range(arity), x.field.one), x.terms, x.order):
        _acc(out, units[:s] + k + units[s + 1 :], c)
    return TensorElement(x.alg, arity, out)


def tensor_adjoint(x: TensorElement, t: TensorElement) -> TensorElement:
    """Adjoint action of x on a tensor power: [spread(x), t]."""
    return spread(x, t.arity).commutator(t)


def rebase(x, alg: Algebra):
    """Reinterpret already-normal terms in another algebra over the same field.

    Legitimate between algebras sharing a normal form on the given support
    (e.g. truncations of one another, or a quantized coordinate ring and the
    commutative one on the same letters); used to compare results computed
    at different truncation orders, and a quantized ring with its classical
    limit.
    """
    if x.alg.field is not alg.field:
        raise ValueError("rebase requires the same coefficient field")
    return TensorElement(alg, x.arity, alg._clean(x.terms))


def _exp_sum(term, step, bound):
    """The one exponential series: Σ_k term_k/k!, where term_0 = ``term`` and
    term_k = step(term_{k−1}) for a linear ``step``.

    It stops at the first term that vanishes.  The caller's ``bound`` says
    that term_{bound+1} vanishes (a marker raised past the truncation order,
    a nilpotent matrix); a term still nonzero there raises ``ValueError``
    instead of summing on.
    """
    total = term
    for k in range(1, bound + 2):
        term = step(term).scale(Fraction(1, k))
        if term.is_zero:
            return total
        total = total + term
    raise ValueError(f"exponential series did not terminate within {bound} steps")


def exp_series(x):
    """exp of an element/tensor whose coefficients all carry the marker.

    The marker grading makes the series terminate at the truncation order,
    summed by :func:`_exp_sum`; inputs with an order-0 part are rejected
    rather than summed blindly.
    """
    order = x.order
    if order is None:
        raise ValueError("exp needs a truncation order")
    if not x.is_zero and x.marker_degree < 1:
        raise ValueError("exp argument has an order-0 part; series would not terminate")
    return _exp_sum(x._unit(), lambda t: t * x, order)


def held(pairs):
    """The rule of every identity check: it holds iff each labelled
    difference is zero.

    ``pairs`` yields ``(label, difference)`` tuples, the difference last (a
    label may span several fields).  Returns ``(ok, residuals)``, the
    residuals being the tuples whose difference is nonzero, in order.
    """
    residuals = [p for p in pairs if not p[-1].is_zero]
    return not residuals, residuals


# -- printing ------------------------------------------------------------


def coeff_prefix(c: Coefficient) -> str:
    s = repr(c)
    if s in ("1", "-1"):
        return s[:-1]
    if any(op in s[1:] for op in (" + ", " - ")) and not (s.startswith("(") and s.endswith(")")):
        s = f"({s})"
    return s + "*"


def signed_sum(pairs, prefix=coeff_prefix, whole=repr) -> str:
    """Print ``(coefficient, body)`` pairs as one signed sum.

    A term prints as ``prefix(c) + body``, or as ``whole(c)`` when its body
    is empty; a negative term follows the one before it as ``- ...``.  No
    pairs print as ``0``.  The defaults are the plain-text formatters;
    LaTeX callers pass their own.
    """
    bits = [prefix(c) + body if body else whole(c) for c, body in pairs]
    # sympy prints a negative LaTeX coefficient with its space ("- x"), a
    # text one without ("-x"): either way one space follows the sign.
    return " + ".join(bits).replace("+ - ", "- ").replace("+ -", "- ") if bits else "0"
