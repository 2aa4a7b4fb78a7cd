"""The order-independent data of each family, built once per process.

A family's LM spec, its r and its cocommutators do not depend on the
truncation order, so a sweep of ``verify`` over orders builds each of them
once: ``lm.family_spec`` per family, ``Family.r`` per instance and flag, and
``bialgebra.cocommutator_map`` per r.  These tests check that what the memos
serve equals a fresh computation, that each memo is keyed as documented and
stays bounded, and that a sweep does not rebuild what they hold.
"""

import dataclasses
from collections import Counter

import pytest

from oscquant import bialgebra, cli, fixtures, hopf, lm
from oscquant.algebra import GEN_NAMES, tensor_adjoint
from oscquant.bialgebra import DEFORMATIONS, FAMILIES, RMatrixSkew, cocommutator_map
from oscquant.hopf import presentation
from oscquant.lm import family_spec

KEYED = (*FAMILIES.values(), *DEFORMATIONS.values())


@pytest.mark.parametrize("marked", [True, False])
@pytest.mark.parametrize("fam", KEYED, ids=lambda f: f.key)
def test_memoized_cocommutators_equal_fresh_ones(fam, marked):
    r = fam.r(marked)
    deltas = cocommutator_map(r)
    fresh = RMatrixSkew(r.field, r.c).as_tensor()
    alg = r.algebra()
    assert list(deltas) == list(GEN_NAMES)
    for i, name in enumerate(GEN_NAMES):
        assert deltas[name] == tensor_adjoint(alg.gen(i), fresh), (fam.key, name)
    assert cocommutator_map(r) is deltas
    if not marked:
        assert fam.cocommutators() is deltas


def test_callers_cannot_change_the_shared_cocommutators():
    deltas = FAMILIES["Iplus-standard"].cocommutators()
    with pytest.raises(TypeError):
        deltas["A"] = deltas["M"]
    with pytest.raises(TypeError):
        del deltas["A"]


def test_r_is_one_instance_per_family_and_flag():
    for fam in KEYED:
        assert fam.r(True) is fam.r(True) is fam.r()
        assert fam.r(False) is fam.r(False)
        assert fam.r(True) is not fam.r(False)
        # The memo belongs to the instance: a replaced copy builds its own r.
        copy = dataclasses.replace(fam)
        assert copy.r(True) is not fam.r(True) and copy.r(True) == fam.r(True)
        assert set(fam._r) <= {True, False}


def test_presentations_of_every_order_share_one_r():
    for key, d in DEFORMATIONS.items():
        assert presentation(key, 2).r is presentation(key, 3).r is d.r()


def test_family_spec_is_built_once_per_family():
    for key, fam in FAMILIES.items():
        assert family_spec(key) is family_spec(fam)
        assert family_spec(dataclasses.replace(fam)) is family_spec(fam)


def test_a_sweep_over_orders_builds_each_familys_data_once(monkeypatch, request, capsys):
    """verify prop1 at orders 2-5 and prop2/prop4 at 2-8, in one process,
    parse each family's Table I cells once and form each r's cocommutators
    once.  Fresh copies of every family and deformation, an empty spec memo
    and an empty presentation cache make every memo start cold."""
    for table in (FAMILIES, DEFORMATIONS):
        for key, fam in table.items():
            monkeypatch.setitem(table, key, dataclasses.replace(fam))
    monkeypatch.setattr(hopf, "_cache", {})
    lm._spec.cache_clear()
    request.addfinalizer(lm._spec.cache_clear)

    parsed = Counter()  # family parameters -> Table I cells decoded
    formed = Counter()  # id(r) -> cocommutators formed
    seen = []  # every r formed from, kept alive so no id is reused
    wedge_tensor, cocommutator = fixtures.wedge_tensor, bialgebra.cocommutator

    def counted_wedge_tensor(alg, cells):
        parsed[alg.field.params] += 1
        return wedge_tensor(alg, cells)

    def counted_cocommutator(r, gen):
        seen.append(r)
        formed[id(r)] += 1
        return cocommutator(r, gen)

    monkeypatch.setattr(fixtures, "wedge_tensor", counted_wedge_tensor)
    monkeypatch.setattr(bialgebra, "cocommutator", counted_cocommutator)

    argv = [["verify", "--target", "prop1", "--order", str(n)] for n in range(2, 6)]
    argv += [["verify", "--target", t, "--order", str(n)] for n in range(2, 9) for t in ("prop2", "prop4")]
    for args in argv:
        assert cli.main(args + ["--jobs", "1", "--format", "json"]) == 0, args
    capsys.readouterr()

    assert len(parsed) == len(FAMILIES) and max(parsed.values()) <= 4, parsed
    # One r per family (prop1) and per deformation swept (Uz, IIn), all marked.
    assert len(formed) == len(FAMILIES) + 2 and max(formed.values()) <= 4, formed
    assert lm._spec.cache_info().currsize <= len(FAMILIES)
    for fam in (*FAMILIES.values(), *DEFORMATIONS.values()):
        assert set(fam._r) <= {True}, fam.key  # the sweep reads marked r's only
