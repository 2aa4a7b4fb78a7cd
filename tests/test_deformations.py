"""The deformation table is checked, not trusted.

Each record of ``bialgebra.DEFORMATIONS`` names its key, the classification
row it quantizes, its parameters and its classical r.  These tests check
the record against the classification and against every module that reads
it, and check that each entry point rejects a key that names no
deformation with the one ``UnknownDeformation``.
"""

import pytest

from oscquant import cli
from oscquant.bialgebra import DEFORMATIONS, FAMILIES, UnknownDeformation, classify
from oscquant.funalg import fun_presentation
from oscquant.hopf import presentation
from oscquant.rmatrix import d_matrix, frt_relations, universal_R


@pytest.mark.parametrize("key", DEFORMATIONS)
def test_each_deformation_quantizes_its_classification_row(key):
    d = DEFORMATIONS[key]
    assert d.key == key
    got = classify(d.r(marked=False), nonzero=d.nonzero)
    assert (got.family, got.flavor) == (d.family, d.flavor)
    row = f"{d.family}-{d.flavor}"
    assert row in FAMILIES
    assert cli.QUEA_KEY[row] == key


@pytest.mark.parametrize("key", DEFORMATIONS)
def test_every_presentation_reads_its_r_from_the_record(key):
    d = DEFORMATIONS[key]
    assert presentation(key, 3).r == d.r()
    assert fun_presentation(key).r == d.r(marked=False)


def test_quea_key_covers_exactly_the_deformations():
    assert sorted(cli.QUEA_KEY.values()) == sorted(DEFORMATIONS)


ENTRY_POINTS = {
    "presentation": lambda key: presentation(key, 3),
    "fun_presentation": fun_presentation,
    "universal_R": lambda key: universal_R(key, 3),
    "d_matrix": d_matrix,
    "frt_relations": frt_relations,
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_unknown_key_raises_unknown_deformation(name):
    with pytest.raises(UnknownDeformation, match="unknown deformation 'Iplus'"):
        ENTRY_POINTS[name]("Iplus")
