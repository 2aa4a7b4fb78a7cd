"""Exact scalar arithmetic: rational functions over Q in named parameters.

Every symbolic object in this package carries coefficients from the field
Q(h, p1, ..., pk) where p1..pk are the deformation parameters of the structure
under study and ``h`` is a reserved bookkeeping variable used to grade series
truncation: scaling every deformation parameter p -> h*p makes the power of h
in a term the "order" of that term, uniformly for all parameters at once.
Truncating a computation at order N then simply means dropping numerator terms
whose h-degree exceeds N.

Canonical form of a coefficient: ``num / (q * den)``.  ``num`` and ``den``
are integer polynomials, each a plain dict from exponent tuple (h first,
then the parameters) to a nonzero ``int``; ``q`` is a positive ``int``
coprime to the content of ``num``.  ``den`` is primitive with a positive
leading term (in lex order) and coprime to ``num``, so equal coefficients
are structurally equal.  Every polynomial over Q, rational coefficients
included (in Q(h, x), ``h**2*x**2/2`` is ``{(2, 2): 1}`` over ``q = 2``),
has denominator 1, and all of those share their field's one unit polynomial.
Canonicalizing them costs at most one ``math.gcd`` of ``q`` with the
numerator's content.  A monomial or constant denominator is reduced
natively: it drops the exponents it shares with every numerator term, and
its coefficient moves into ``q``.  A denominator of two or more terms takes
the polynomial GCD (``_pcofactors``, the heuristic GCD over the integers).
A denominator that equals 1 without being the shared object (say, one
rebuilt from a pickle) is recognized by equality and replaced by the shared
one.  Denominators stay h-free for everything this package constructs;
``truncate`` enforces that invariant at the point where it matters.

Every product over ``algebra``'s pair walk, the tensor product kernel's and
every other, sums in :class:`Sums`, where a key with several polynomial
contributions holds their running sum ``[num, q]`` over a common ``q``: not
canonical, not a ``Coefficient``, and never out of ``Sums``, which
canonicalizes it once, when the product returns.

Printing is native too: ``repr`` writes the lex-ordered form sympy's
``PolyElement`` prints, over a monic denominator.  The LaTeX output
(``report.latex_coeff``) reads that text back with sympy; nothing here loads
it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, prod
from operator import add, lt, sub

MARKER = "h"


# -- integer polynomials as dicts --------------------------------------------
#
# No function here mutates its arguments: a polynomial, once built, is shared
# freely (the field's unit is the denominator of every polynomial).


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for m, c in b.items():
        v = out.get(m)
        if v is None:
            out[m] = c
        else:
            v += c
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def _pscale(a, k):
    return a if k == 1 else {m: c * k for m, c in a.items()}


def _pscale_down(a, k):
    """``a`` with every coefficient divided by ``k``, which divides them all."""
    return a if k == 1 else {m: c // k for m, c in a.items()}


def _pmul(a, b):
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # distinct monomials stay distinct under a monomial shift
        ((ma, ca),) = a.items()
        return {tuple(map(add, ma, mb)): ca * cb for mb, cb in b.items()}
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            v = out.get(m)
            if v is None:
                out[m] = ca * cb
            else:
                v += ca * cb
                if v:
                    out[m] = v
                else:
                    del out[m]
    return out


def _ppow(a, n):
    if len(a) == 1:
        ((m, c),) = a.items()
        return {tuple(e * n for e in m): c**n}
    out = None
    while n:
        if n & 1:
            out = a if out is None else _pmul(out, a)
        n >>= 1
        if n:
            a = _pmul(a, a)
    return out


def _pmap(a, f):
    """``a`` with every exponent tuple sent through ``f``; terms that meet add up."""
    out = {}
    for m, c in a.items():
        m = f(m)
        v = out.get(m, 0) + c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _h_range(poly) -> tuple[int, int]:
    if len(poly) == 1:
        ((m, _),) = poly.items()
        return m[0], m[0]
    degs = [m[0] for m in poly]
    return min(degs), max(degs)


def _lc(poly) -> int:
    """The leading coefficient, in lex order with h first."""
    return poly[max(poly)]


def _degrees(poly) -> list[int]:
    """The degree of ``poly`` in each variable."""
    return [max(e) for e in zip(*poly)]


def _pquo(a, b):
    """``a / b`` for nonzero integer polynomials, or None when ``b`` does not
    divide ``a``.

    Lex-order division: each step the leading term of what is left must be
    the leading term of ``b`` times a quotient term, whose degree in each
    variable is at most that of ``a`` less that of ``b`` (degrees add in a
    product), so a failed division stops early.
    """
    room = list(map(sub, _degrees(a), _degrees(b)))
    if min(room) < 0:
        return None
    lm = max(b)
    lc = b[lm]
    if len(b) == 1:
        out = {}
        for m, c in a.items():
            k, r = divmod(c, lc)
            if r or any(map(lt, m, lm)):
                return None
            out[tuple(map(sub, m, lm))] = k
        return out
    rest = [(m, c) for m, c in b.items() if m != lm]
    left = dict(a)
    out = {}
    while left:
        m = max(left)
        k, r = divmod(left.pop(m), lc)
        e = tuple(map(sub, m, lm))
        if r or any(map(lambda d, top: d < 0 or d > top, e, room)):
            return None
        out[e] = k
        for mb, cb in rest:
            t = tuple(map(add, e, mb))
            v = left.get(t, 0) - k * cb
            if v:
                left[t] = v
            else:
                left.pop(t, None)
    return out


def _pcofactors(a, b):
    """``(g, a / g, b / g)`` for ``g`` the GCD of nonzero integer polynomials
    ``a`` and ``b``, its leading coefficient positive: the heuristic GCD of
    Char, Geddes and Gonnet.

    A monomial's GCD with anything is read off directly.  Otherwise the
    integer contents are split off, and the first variable ``v`` either
    polynomial has is set to an integer ``x``, large against both
    polynomials' coefficients.  The GCD of the two values, polynomials in
    the later variables, and the values' cofactors come recursively.
    Written back in balanced base ``x``, their digits becoming the
    coefficients of the powers of ``v``, they give the GCD of ``a`` and
    ``b`` if the primitive part of the GCD's image divides both, or if a
    cofactor's image divides its polynomial and the quotient divides the
    other.  If none does, ``x`` grows and the step repeats.  Some ``x``
    succeeds: two coprime cofactors share a factor at finitely many points
    only, and the integer they share at a point is bounded.  The starting
    point, the three tests and the growth of ``x`` are sympy's
    (``heuristicgcd.heugcd``).
    """
    if len(a) == 1 or len(b) == 1:
        low = next(iter(a))
        for m in (*a, *b):
            low = tuple(map(min, low, m))
        g = {low: gcd(*a.values(), *b.values())}
        return g, _pquo(a, g), _pquo(b, g)
    i = 0
    while not any(m[i] for m in a) and not any(m[i] for m in b):
        i += 1
    ca, cb = gcd(*a.values()), gcd(*b.values())
    c = gcd(ca, cb)
    a, b = _pscale_down(a, ca), _pscale_down(b, cb)
    na, nb = max(map(abs, a.values())), max(map(abs, b.values()))
    bound = 2 * min(na, nb) + 29
    x = max(min(bound, 99 * isqrt(bound)), 2 * min(na // abs(_lc(a)), nb // abs(_lc(b))) + 4)
    while True:
        ea, eb = _peval(a, i, x), _peval(b, i, x)
        if ea and eb:
            h, fa, fb = _pcofactors(ea, eb)
            h = _interpolate(h, i, x)
            h = _pscale_down(h, gcd(*h.values()))
            qa = _pquo(a, h)
            qb = None if qa is None else _pquo(b, h)
            if qb is None:
                qa = _interpolate(fa, i, x)
                h = _pquo(a, qa)
                qb = None if h is None else _pquo(b, h)
            if qb is None:
                qb = _interpolate(fb, i, x)
                h = _pquo(b, qb)
                qa = None if h is None else _pquo(a, h)
            if qa is not None:
                if _lc(h) < 0:
                    h, qa, qb = _pscale(h, -1), _pscale(qa, -1), _pscale(qb, -1)
                return _pscale(h, c), _pscale(qa, ca // c), _pscale(qb, cb // c)
        x = 73794 * x * isqrt(isqrt(x)) // 27011


def _peval(poly, i, x):
    """``poly`` with variable ``i`` set to the integer ``x``."""
    out = {}
    for m, c in poly.items():
        k = m[:i] + (0,) + m[i + 1:]
        v = out.get(k, 0) + c * x ** m[i]
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _interpolate(poly, i, x):
    """The inverse of ``_peval`` for coefficients below ``x / 2``: each
    integer coefficient's balanced base-``x`` digits become the coefficients
    of the powers of variable ``i``."""
    out = {}
    half = x // 2
    for m, c in poly.items():
        d = 0
        while c:
            r = c % x
            if r > half:
                r -= x
            if r:
                out[m[:i] + (d,) + m[i + 1:]] = r
            c = (c - r) // x
            d += 1
    return out


def _pstr(poly, q, symbols) -> str:
    """``poly / q`` as sympy prints a ``PolyElement`` over QQ: terms in
    descending lex order, written like ``3/2*h*x**2*y``, joined by `` + `` and
    `` - ``, with a leading ``-`` for a negative first term."""
    if not poly:
        return "0"
    out = []
    for m in sorted(poly, reverse=True):
        c = Fraction(poly[m], q)
        out.append(" - " if c < 0 else " + ")
        factors = [s if e == 1 else f"{s}**{e}" for s, e in zip(symbols, m) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        out.append("*".join(factors))
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


class IntPolyRing:
    """Z[h, p1, ..., pk] with polynomials as dicts from exponent tuple to int.

    ``one`` is the shared unit, the denominator of every polynomial
    coefficient.
    """

    def __init__(self, symbols: tuple[str, ...]):
        self.symbols = symbols
        self.one = {(0,) * len(symbols): 1}

    def cofactors(self, a, b):
        """``a / g`` and ``b / g`` for ``g`` the GCD of nonzero ``a`` and ``b``."""
        return _pcofactors(a, b)[1:]

    def format(self, num, q, den) -> str:
        """``num / (q * den)`` as text: sympy's form of the numerator, then of
        the monic denominator in parentheses unless it is 1."""
        if den == self.one:
            return _pstr(num, q, self.symbols)
        lc = _lc(den)
        return f"({_pstr(num, q * lc, self.symbols)})/({_pstr(den, lc, self.symbols)})"


class CoefficientField:
    """A rational function field Q(h, p1, ..., pk) with named parameters.

    Instances are interned by parameter tuple: ``CoefficientField.get("z")``
    always returns the same object, so coefficients built in different modules
    against the same parameter list interoperate.  Mixing coefficients from
    different fields raises rather than silently coercing.
    """

    _instances: dict[tuple[str, ...], "CoefficientField"] = {}

    def __init__(self, params: tuple[str, ...]):
        if MARKER in params:
            raise ValueError(f"parameter name {MARKER!r} is reserved for the series marker")
        if len(set(params)) != len(params):
            raise ValueError(f"duplicate parameter names in {params!r}")
        self.params = params
        self.ring = IntPolyRing((MARKER,) + params)
        # The one denominator of every polynomial coefficient.
        self._one = self.ring.one
        self._zero_mono = (0,) * (len(params) + 1)
        self._index = {name: i + 1 for i, name in enumerate(params)}
        self.zero = Coefficient(self, {}, 1, self._one)
        self.one = Coefficient(self, self._one, 1, self._one)
        self.hbar = Coefficient(self, {self._mono(0): 1}, 1, self._one)

    @classmethod
    def get(cls, *params: str) -> "CoefficientField":
        key = tuple(params)
        inst = cls._instances.get(key)
        if inst is None:
            inst = cls._instances[key] = cls(key)
        return inst

    def __repr__(self):
        return f"CoefficientField{self.params!r}"

    def _mono(self, *slots: int) -> tuple[int, ...]:
        """The exponent tuple of the product of the given variables (0 is h)."""
        mono = list(self._zero_mono)
        for s in slots:
            mono[s] += 1
        return tuple(mono)

    def param(self, name: str) -> "Coefficient":
        """The parameter as a plain (unscaled) coefficient."""
        return Coefficient(self, {self._mono(self._index[name]): 1}, 1, self._one)

    def marked_param(self, name: str) -> "Coefficient":
        """The parameter carrying one power of the series marker (h * p)."""
        return Coefficient(self, {self._mono(0, self._index[name]): 1}, 1, self._one)

    def rational(self, p, q=1) -> "Coefficient":
        """An explicit rational number as a coefficient; 0 and 1 are the
        field's own ``zero`` and ``one``, the unit that product loops skip
        by identity."""
        val = Fraction(p) / Fraction(q)
        if not val:
            return self.zero
        if val == 1:
            return self.one
        return Coefficient(self, {self._zero_mono: val.numerator}, val.denominator, self._one)

    def coerce(self, x) -> "Coefficient | None":
        """``x`` as a coefficient of this field: an ``int`` or ``Fraction`` is
        lifted, a coefficient of another field raises ``ValueError``, and
        anything else gives None ("not a scalar")."""
        if isinstance(x, Coefficient):
            if x.field is not self:
                raise ValueError("coefficients from different fields; convert explicitly")
            return x
        if isinstance(x, (int, Fraction)):
            return self.rational(x)
        return None

    def lift(self, x) -> "Coefficient":
        """:meth:`coerce`, with ``TypeError`` for anything not a scalar."""
        c = self.coerce(x)
        if c is None:
            raise TypeError(f"not a scalar: {type(x).__name__}")
        return c


def _canon(field: CoefficientField, num, den) -> "Coefficient":
    """The canonical coefficient ``n / (q * den)`` for ``num = (n, q)``."""
    n, q = num
    one = field._one
    if den is one or den == one:
        den = one
    elif not den:
        raise ZeroDivisionError("coefficient with zero denominator")
    elif n:
        if len(den) > 1:
            n, den = field.ring.cofactors(n, den)
        if len(den) == 1:
            # A monomial (or constant) divides out by the least exponents it
            # shares with every numerator term.
            ((dm, c),) = den.items()
            low = dm
            for m in n:
                low = tuple(map(min, low, m))
            if any(low):
                n = {tuple(map(sub, m, low)): v for m, v in n.items()}
                dm = tuple(map(sub, dm, low))
            den = {dm: 1} if any(dm) else one
        else:
            c = gcd(*den.values())
            if _lc(den) < 0:
                c = -c
            if c != 1:
                den = {m: v // c for m, v in den.items()}
        if c < 0:
            n = _pscale(n, -1)
            c = -c
        q *= c
    if not n:
        return field.zero
    if q != 1:
        g = gcd(q, *n.values())
        if g != 1:
            n = {m: v // g for m, v in n.items()}
            q //= g
    return Coefficient(field, n, q, den)


class Sums:
    """Sums of products of coefficients by key, each canonicalized once: the
    one multiply-accumulate of every pair-walk product.  An entry is a Coefficient
    while its key has one contribution, or one with a real denominator, and
    else a running ``[num, q]`` (see the module doc).  A key whose sum
    empties is popped, so the terms keep the order of sequential addition."""

    __slots__ = ("field", "terms", "raw")

    def __init__(self, field: CoefficientField):
        self.field, self.terms, self.raw = field, {}, []

    def add(self, key, factors, cut):
        """Add the product of ``factors`` at ``key``, truncated at marker
        degree ``cut`` (None: no term of it is above the order)."""
        unit, one, terms = self.field.one, self.field._one, self.terms
        fs = [f for f in factors if f is not unit]
        prev = terms.get(key)
        if len(fs) > 1:
            # a product of one-term polynomials is one term k*x**m / q
            m = None
            for f in fs:
                if f.den is not one or len(f.num) > 1:
                    break
                ((e, v),) = f.num.items()
                m, k, q = (e, v, f.q) if m is None else (tuple(map(add, m, e)), k * v, q * f.q)
            else:
                if cut is not None and m[0] > cut:
                    return
                if prev is None:
                    g = gcd(k, q)
                    terms[key] = Coefficient(self.field, {m: k // g}, q // g, one)
                    return
                if type(prev) is list or prev.den is one:
                    return self._put(key, prev, ((m, k),), q)
        c = prod(fs[1:], start=fs[0]) if fs else unit
        c = c if cut is None else c.truncate(cut)
        if prev is None:
            if c.num:
                terms[key] = c
        elif c.den is one and (type(prev) is list or prev.den is one):
            self._put(key, prev, c.num.items(), c.q)
        else:
            c = (_canon(self.field, prev, one) if type(prev) is list else prev) + c
            if c.num:
                terms[key] = c
            else:
                del terms[key]

    def _put(self, key, prev, items, q):
        """Add the ``(exponents, int)`` items over ``q`` to ``prev``, the sum at ``key``."""
        if type(prev) is not list:
            prev = self.terms[key] = [dict(prev.num), prev.q]
            self.raw.append(key)
        total, s = prev
        if s % q:
            # rescale the sum to a common multiple of the two q's
            lcm = s // gcd(s, q) * q
            for m in total:
                total[m] *= lcm // s
            prev[1] = s = lcm
        for m, v in items:
            v = total.get(m, 0) + s // q * v
            if v:
                total[m] = v
            else:
                del total[m]
        if not total:
            del self.terms[key]

    def close(self) -> dict:
        """The terms, every running sum canonicalized: none leaves here."""
        for key in self.raw:
            if type(self.terms.get(key)) is list:
                self.terms[key] = _canon(self.field, self.terms[key], self.field._one)
        return self.terms


class Coefficient:
    """One exact scalar ``num / (q * den)`` in canonical form (see the module doc).

    Construct through a :class:`CoefficientField` (``field.param``,
    ``field.rational``) or :func:`_canon`; the constructor itself trusts
    its arguments to be canonical.
    """

    __slots__ = ("field", "num", "q", "den", "_hash", "_mdeg", "_htop")

    def __init__(self, field: CoefficientField, num: dict, q: int, den: dict):
        self.field = field
        self.num = num
        self.q = q
        self.den = den
        self._hash = None
        self._mdeg = None
        self._htop = None

    # -- basic protocol -------------------------------------------------

    def __repr__(self):
        return self.field.ring.format(self.num, self.q, self.den)

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        return (self.field is other.field and self.q == other.q
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.num.items()), self.q, frozenset(self.den.items())))
        return self._hash

    def __bool__(self):
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    # -- field arithmetic -----------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Coefficient or other.field is not self.field:
            other = self.field.coerce(other)
            if other is None:
                return NotImplemented
        n1, q1, d1 = self.num, self.q, self.den
        n2, q2, d2 = other.num, other.q, other.den
        if d1 is d2 or d1 == d2:
            if q1 == q2:
                return _canon(self.field, (_padd(n1, n2), q1), d1)
            q = q1 // gcd(q1, q2) * q2
            return _canon(self.field, (_padd(_pscale(n1, q // q1), _pscale(n2, q // q2)), q), d1)
        num = _padd(_pmul(n1, _pscale(d2, q2)), _pmul(n2, _pscale(d1, q1)))
        return _canon(self.field, (num, q1 * q2), _pmul(d1, d2))

    __radd__ = __add__

    def __neg__(self):
        return Coefficient(self.field, _pscale(self.num, -1), self.q, self.den)

    def __sub__(self, other):
        other = self.field.coerce(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if other.__class__ is not Coefficient or other.field is not self.field:
            other = self.field.coerce(other)
            if other is None:
                return NotImplemented
        # Structure constants are mostly the field's own unit: a product with
        # it builds nothing new.
        one = self.field._one
        if other.num is other.den is one:
            return self
        if self.num is self.den is one:
            return other
        num = (_pmul(self.num, other.num), self.q * other.q)
        if self.den is other.den is one:
            return _canon(self.field, num, one)
        return _canon(self.field, num, _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.field.coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero coefficient")
        num = _pmul(self.num, _pscale(other.den, other.q))
        return _canon(self.field, (num, self.q), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        other = self.field.coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, n: int):
        if n < 0:
            return self.field.one / self ** (-n)
        if n == 0:
            return self.field.one
        den = self.den if self.den is self.field._one else _ppow(self.den, n)
        return _canon(self.field, (_ppow(self.num, n), self.q**n), den)

    # -- marker (series order) bookkeeping ------------------------------

    def _grade(self):
        if self.is_zero:
            self._mdeg = self._htop = 0
        else:
            low, self._htop = _h_range(self.num)
            self._mdeg = low if self.den is self.field._one else low - _h_range(self.den)[0]

    @property
    def marker_degree(self) -> int:
        """h-adic valuation: the lowest series order present in this scalar."""
        if self._mdeg is None:
            self._grade()
        return self._mdeg

    @property
    def top_degree(self) -> int:
        """The highest h-degree in the numerator (0 for zero)."""
        if self._htop is None:
            self._grade()
        return self._htop

    @property
    def poly_top(self) -> int | None:
        """``top_degree`` of a polynomial (its denominator is the field's shared
        unit), None otherwise: a product of polynomials whose tops sum to at
        most the order has nothing to truncate."""
        return self.top_degree if self.den is self.field._one else None

    @property
    def den_has_marker(self) -> bool:
        return self.den is not self.field._one and not self.is_zero and _h_range(self.den)[1] > 0

    def truncate(self, order: int | None) -> "Coefficient":
        """Drop numerator terms above h-degree ``order`` (None = exact)."""
        if order is None or self.is_zero:
            return self
        if self.den_has_marker:
            raise ValueError(f"cannot truncate {self!r}: denominator carries the marker")
        if self.top_degree <= order:
            return self
        kept = {mono: c for mono, c in self.num.items() if mono[0] <= order}
        return _canon(self.field, (kept, self.q), self.den)

    def h_part(self, k: int) -> "Coefficient":
        """The coefficient of h**k, with the marker stripped off.

        Requires an h-free denominator (true for everything built here).
        """
        if self.den_has_marker:
            raise ValueError(f"h_part undefined for {self!r}: denominator carries the marker")
        kept = {(0,) + mono[1:]: c for mono, c in self.num.items() if mono[0] == k}
        if not kept:
            return self.field.zero
        return _canon(self.field, (kept, self.q), self.den)

    def _map(self, f) -> "Coefficient":
        """Send every exponent tuple of numerator and denominator through ``f``."""
        one = self.field._one
        den = one if self.den is one else _pmap(self.den, f)
        return _canon(self.field, (_pmap(self.num, f), self.q), den)

    def scale_params(self) -> "Coefficient":
        """Substitute p -> h*p for every parameter (the uniform series scaling)."""
        if not self.field.params:
            return self
        return self._map(lambda m: (m[0] + sum(m[1:]),) + m[1:])

    def strip_marker(self) -> "Coefficient":
        """Substitute h -> 1 (used when rendering internally-scaled results)."""
        return self._map(lambda m: (0,) + m[1:])
