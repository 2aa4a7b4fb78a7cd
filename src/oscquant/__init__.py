"""Exact symbolic toolkit for the quantum harmonic oscillator algebra.

Subpackages build on each other roughly in this order:

- ``coeffs``     exact rational-function scalars with a series-order marker
- ``algebra``    the oscillator Lie algebra, PBW monomials, tensor powers,
                 the one rewrite engine, shared by the deformed enveloping
                 algebras and the coordinate rings, ``linear``, the one
                 linear extension of a map given on keys, and
                 ``ScalarMatrix``, the one matrix type
- ``bialgebra``  classical r-matrices, Schouten brackets, cocommutators,
                 and the classification of coboundary Lie bialgebra families
- ``poisson``    the oscillator group, invariant vector fields, and the
                 Poisson-Lie brackets induced by each r-matrix family
- ``lm``         exponential-coproduct construction of the quantized
                 coalgebras from commuting exponent matrices, and their
                 closed forms
- ``hopf``       the deformed Hopf algebra presentations (relations,
                 coproducts, counits, antipodes, deformed Casimirs) and the
                 Hopf-axiom checks every presentation shares
- ``funalg``     the dual quantum function algebras on the oscillator group
                 and their semiclassical limit checks
- ``rmatrix``    universal R-matrices, quantum Yang-Baxter checks, a 3x3
                 matrix representation, and FRT reconstruction
- ``cli``        the ``oscquant`` command line tool (tables / classify / verify)
"""

__version__ = "0.1.0"
