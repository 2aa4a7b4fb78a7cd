"""A result at order n is the truncation of the same result at order n+1.

Every series of the package is cut at a marker order, and nothing computed
at order n may depend on that cut beyond dropping what order n cannot see.
For ``Uz``, ``IIn`` and ``IIs`` at n = 1–4 this compares, after ``rebase``
into the order-n algebra, every coproduct and antipode image, the coproduct
and antipode of one monomial whose antipode multiplies its letters' images
out of order, the Casimir, and the universal R and R⁻¹; and it compares the
coproduct images of the six Lyakhovsky–Mudrov families.  A mutant that drops
a series' top term at one order shows the comparison can fail.
"""

import pytest

from oscquant import hopf
from oscquant.algebra import rebase
from oscquant.bialgebra import FAMILIES
from oscquant.hopf import presentation
from oscquant.lm import family_spec, lm_coproduct
from oscquant.rmatrix import universal_R

KEYS = ("Uz", "IIn", "IIs")
ORDERS = (1, 2, 3, 4)
# Ap*Am: its antipode is S(Am) S(Ap), a misordered product
MONO = (0, 1, 1, 0)


def hopf_objects(p) -> dict:
    out = {f"delta {name}": t for name, t in p.images.items()}
    out.update({f"S {name}": s for name, s in p.antipode.items()})
    out["delta_mono"] = p.delta_mono(MONO)
    out["antipode_mono"] = p.antipode_mono(MONO)
    out["casimir"] = p.casimir
    return out


def disagreements(low: dict, high: dict, alg) -> list[str]:
    """The names whose order-(n+1) value, cut to ``alg``, is not the order-n one."""
    assert low.keys() == high.keys()
    return [name for name in low if rebase(high[name], alg) != low[name]]


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("key", KEYS)
def test_hopf_structure_and_R_truncate(key, n):
    low, high = presentation(key, n), presentation(key, n + 1)
    assert disagreements(hopf_objects(low), hopf_objects(high), low.alg) == []
    R_low, R_high = universal_R(key, n), universal_R(key, n + 1)
    assert rebase(R_high.expansion, low.alg) == R_low.expansion
    assert rebase(R_high.inverse, low.alg) == R_low.inverse


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lm_coproducts_truncate(family, n):
    spec = family_spec(family)
    low, high = lm_coproduct(spec, n), lm_coproduct(spec, n + 1)
    assert low.images.keys() == high.images.keys()
    assert disagreements(low.images, high.images, low.alg) == []


def test_a_series_cut_short_at_one_order_fails(monkeypatch):
    series = hopf._series

    def short_at_three(alg, c, gen, lag, step=1):
        x = series(alg, c, gen, lag, step)
        if alg.order != 3:
            return x
        top = max(x.terms, key=lambda k: sum(k[0]))
        return alg.element({m: v for m, v in x.terms.items() if m != top})

    monkeypatch.setattr(hopf, "_series", short_at_three)
    for key in KEYS:
        # built afresh, past the cache of presentation()
        low, high = hopf._build(key, 3), hopf._build(key, 4)
        assert disagreements(hopf_objects(low), hopf_objects(high), low.alg), key
    monkeypatch.undo()
    low, high = hopf._build("Uz", 3), hopf._build("Uz", 4)
    assert disagreements(hopf_objects(low), hopf_objects(high), low.alg) == []
