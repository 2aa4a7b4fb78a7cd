"""Exact scalar arithmetic: rational functions over Q in named parameters.

Every symbolic object in this package carries coefficients from the field
Q(h, p1, ..., pk) where p1..pk are the deformation parameters of the structure
under study and ``h`` is a reserved bookkeeping variable used to grade series
truncation: scaling every deformation parameter p -> h*p makes the power of h
in a term the "order" of that term, uniformly for all parameters at once.
Truncating a computation at order N then simply means dropping numerator terms
whose h-degree exceeds N.

Canonical form of a coefficient: numerator and denominator are coprime
and the denominator is monic, so equal coefficients are structurally equal.
Almost every coefficient built here is a polynomial, with denominator 1.
Those all share their field's one unit polynomial, and canonicalizing them is
free: no polynomial GCD, no exact division.  Only a real denominator takes the
GCD path, which divides the GCD out and makes the denominator monic.  A
denominator that equals 1 without being the shared object (say, one rebuilt
from a pickle) is recognized by equality and replaced by the shared one.
Denominators stay h-free for everything this package constructs; ``truncate``
enforces that invariant at the point where it matters.

The polynomial plumbing is sympy's sparse multivariate rings over QQ (which use
gmpy2 rationals when available); nothing else of sympy is used.
"""

from __future__ import annotations

from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import ring as _poly_ring

MARKER = "h"


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
        self.ring, self._h, *gens = _poly_ring(" ".join((MARKER,) + params), QQ, lex)
        self._gens = dict(zip(params, gens))
        # The one denominator of every polynomial coefficient: ``ring.one``
        # builds a new polynomial on each access.
        self._one = self.ring.one
        self.zero = Coefficient(self, self.ring.zero, self._one)
        self.one = Coefficient(self, self._one, self._one)
        self.hbar = Coefficient(self, self._h, self._one)

    @classmethod
    def get(cls, *params: str) -> "CoefficientField":
        key = tuple(params)
        inst = cls._instances.get(key)
        if inst is None:
            inst = cls._instances[key] = cls(key)
        return inst

    def __repr__(self):
        return f"CoefficientField{self.params!r}"

    def param(self, name: str) -> "Coefficient":
        """The parameter as a plain (unscaled) coefficient."""
        return Coefficient(self, self._gens[name], self._one)

    def marked_param(self, name: str) -> "Coefficient":
        """The parameter carrying one power of the series marker (h * p)."""
        return Coefficient(self, self._h * self._gens[name], self._one)

    def rational(self, p, q=1) -> "Coefficient":
        """An explicit rational number as a coefficient."""
        val = Fraction(p) / Fraction(q)
        if not val:
            return self.zero
        return Coefficient(self, self.ring.ground_new(QQ(val.numerator, val.denominator)), self._one)

    def new(self, num, den=None) -> "Coefficient":
        """Canonicalize a raw numerator/denominator pair of ring elements."""
        if den is None:
            den = self._one
        return _canon(self, num, den)

    def from_string(self, text: str) -> "Coefficient":
        from .expr import parse_coefficient

        return parse_coefficient(self, text)


def _canon(field: CoefficientField, num, den) -> "Coefficient":
    one = field._one
    if den is one or den == one:
        return Coefficient(field, num, one) if num else field.zero
    if not den:
        raise ZeroDivisionError("coefficient with zero denominator")
    if not num:
        return field.zero
    g = num.gcd(den)
    if g != one:
        num = num.quo(g)
        den = den.quo(g)
    lc = den.LC
    if lc != QQ(1):
        num = num.quo_ground(lc)
        den = den.quo_ground(lc)
    return Coefficient(field, num, one if den == one else den)


class Coefficient:
    """One exact scalar: a canonical fraction of multivariate polynomials.

    Construct through a :class:`CoefficientField` (``field.param``,
    ``field.rational``, ``field.new``); the constructor itself trusts its
    arguments to be canonical.
    """

    __slots__ = ("field", "num", "den", "_hash", "_mdeg", "_htop")

    def __init__(self, field: CoefficientField, num, den):
        self.field = field
        self.num = num
        self.den = den
        self._hash = None
        self._mdeg = None
        self._htop = None

    # -- basic protocol -------------------------------------------------

    def __repr__(self):
        if self.den == self.field._one:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self.field is other.field and self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __bool__(self):
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_one(self) -> bool:
        one = self.field._one
        return self.num == one and self.den == one

    def _check(self, other) -> "Coefficient | None":
        """Coerce to a coefficient of this field; None means "not my type"."""
        if isinstance(other, Coefficient):
            if other.field is not self.field:
                raise ValueError("coefficients from different fields; convert explicitly")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    # -- field arithmetic -----------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if self.den is other.den or self.den == other.den:
            return _canon(self.field, self.num + other.num, self.den)
        return _canon(self.field, self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return Coefficient(self.field, -self.num, self.den)

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        # Structure constants are mostly the field's own unit: a product with
        # it builds nothing new.
        one = self.field._one
        if other.num is other.den is one:
            return self
        if self.num is self.den is one:
            return other
        if self.den is other.den is one:
            return _canon(self.field, self.num * other.num, one)
        return _canon(self.field, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero coefficient")
        return _canon(self.field, self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, n: int):
        if n < 0:
            return self.field.one / self ** (-n)
        if n == 0:
            return self.field.one
        return _canon(self.field, self.num**n, self.den**n)

    # -- marker (series order) bookkeeping ------------------------------

    def _h_range(self, poly) -> tuple[int, int]:
        degs = [mono[0] for mono in poly.itermonoms()]
        return (min(degs), max(degs))

    def _grade(self):
        if self.is_zero:
            self._mdeg = self._htop = 0
        else:
            low, self._htop = self._h_range(self.num)
            self._mdeg = low if self.den is self.field._one else low - self._h_range(self.den)[0]

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
        return self.den is not self.field._one and not self.is_zero and self._h_range(self.den)[1] > 0

    def truncate(self, order: int | None) -> "Coefficient":
        """Drop numerator terms above h-degree ``order`` (None = exact)."""
        if order is None or self.is_zero:
            return self
        if self.den_has_marker:
            raise ValueError(f"cannot truncate {self!r}: denominator carries the marker")
        if self.top_degree <= order:
            return self
        ring = self.field.ring
        kept = {mono: c for mono, c in self.num.terms() if mono[0] <= order}
        return _canon(self.field, ring.from_dict(kept), self.den)

    def h_part(self, k: int) -> "Coefficient":
        """The coefficient of h**k, with the marker stripped off.

        Requires an h-free denominator (true for everything built here).
        """
        if self.is_zero:
            return self
        if self.den_has_marker:
            raise ValueError(f"h_part undefined for {self!r}: denominator carries the marker")
        ring = self.field.ring
        kept = {}
        for mono, c in self.num.terms():
            if mono[0] == k:
                kept[(0,) + mono[1:]] = c
        if not kept:
            return self.field.zero
        return _canon(self.field, ring.from_dict(kept), self.den)

    def scale_params(self) -> "Coefficient":
        """Substitute p -> h*p for every parameter (the uniform series scaling)."""
        subs = [(gen, self.field._h * gen) for gen in self.field._gens.values()]
        if not subs:
            return self
        return _canon(self.field, self.num.compose(subs), self.den.compose(subs))

    def strip_marker(self) -> "Coefficient":
        """Substitute h -> 1 (used when rendering internally-scaled results)."""
        one = self.field._one
        return _canon(self.field, self.num.compose(self.field._h, one), self.den.compose(self.field._h, one))

    def subs(self, mapping: dict[str, "Coefficient | int | Fraction"]) -> "Coefficient":
        """Substitute parameters by coefficients (rational functions allowed)."""
        field = self.field
        targets = {}
        for name, val in mapping.items():
            if name not in field._gens:
                raise KeyError(f"unknown parameter {name!r}")
            if isinstance(val, (int, Fraction)):
                val = field.rational(val)
            targets[name] = self._check(val)
        if not targets:
            return self

        gen_vals = [field.hbar] + [
            targets.get(name, field.param(name)) for name in field.params
        ]

        def lift(poly):
            total = field.zero
            for mono, c in poly.terms():
                term = field.rational(Fraction(int(c.numerator), int(c.denominator)))
                for gen_val, e in zip(gen_vals, mono):
                    if e:
                        term = term * gen_val**e
                total = total + term
            return total

        return lift(self.num) / lift(self.den)
