"""Loaders for the versioned table fixtures shipped with the package.

Each fixture is a JSON transcription of one published table, kept as data so
"reproduce table N" is a diff against an independent computation rather than
an eyeball.  Cell encodings:

- wedge cells (cocommutator/r entries): ``[["coeff", "X", "Y"], ...]``
  meaning sum of coeff * X^Y, with coefficient expressions over the family
  parameters and generator labels A, Ap, Am, M.
- bracket cells (Poisson entries): a single expression string over the group
  coordinates ``E, Einv, a_plus, a_minus, m`` and the family parameters.
- coproduct cells: lists of summands ``{"c": coeff, "f": [factor, factor]}``
  where each tensor factor is a product list of ``{"p": poly, "e": exponent}``
  pieces meaning p * exp(e) (``e`` null for no exponential).
"""

from __future__ import annotations

import json
from importlib import resources

from .algebra import Algebra, TensorElement, exp_series, tensor
from .expr import parse_coefficient, parse_element


def load(name: str) -> dict:
    path = resources.files("oscquant").joinpath(f"fixtures/{name}.json")
    return json.loads(path.read_text())


def wedge_tensor(alg: Algebra, cells) -> TensorElement:
    """Decode ``[["coeff","X","Y"], ...]`` into sum coeff * X^Y."""
    from .bialgebra import GEN_BY_LABEL, wedge

    t = alg.tensor_zero(2)
    for coeff_text, xn, yn in cells:
        c = parse_coefficient(alg.field, coeff_text)
        t = t + wedge(alg.gen(GEN_BY_LABEL[xn]), alg.gen(GEN_BY_LABEL[yn])).scale(c)
    return t


def element_of(alg: Algebra, text: str) -> TensorElement:
    """Decode a polynomial in the generators and apply p -> h*p."""
    return parse_element(alg, text).scale_params()


def coproduct_tensor(alg: Algebra, summands) -> TensorElement:
    """Decode coproduct summands ``{"c": coeff, "f": [leg, leg]}``.

    Each leg is a product of ``{"p": poly, "e": exponent}`` pieces meaning
    p * exp(e).  Every coefficient, polynomial and exponent is marked
    (p -> h*p), which makes each exponential series finite at the algebra's
    order.
    """
    out = alg.tensor_zero(2)
    for s in summands:
        c = parse_coefficient(alg.field, s.get("c", "1")).scale_params()
        legs = []
        for leg in s["f"]:
            e = alg.one()
            for fac in leg:
                p = element_of(alg, fac["p"])
                if fac.get("e"):
                    p = p * exp_series(element_of(alg, fac["e"]))
                e = e * p
            legs.append(e)
        out = out + tensor(*legs).scale(c)
    return out
