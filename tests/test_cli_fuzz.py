"""No traceback on any command line.

Argument vectors are drawn from the command-line grammar: each subcommand
with known and unknown ``--which``, ``--target``, ``--family`` and
``--format`` values, ``--order`` and ``--jobs`` in -2..2, ``--out`` to a
file or to a directory, and ``--r`` lists from ``expr``'s grammar with huge
literals and powers, division by zero, unknown names and junk characters.
``cli.main`` runs in-process, at orders of at most 2; it must end in exit
code 0, 1 or 2 (argparse's ``SystemExit(2)`` counting as 2) with no other
exception escaping, and an exit of 2 must say why on stderr.  Powers of
compound bases stay small: the input budget bounds sizes, not the cost of
the gcds (``(x+y)^128/(x-y)^128`` is within it and slow).
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscquant import cli
from oscquant.bialgebra import FAMILIES, SLOT_NAMES

NAMES = ["x", "y", "ap", "bp", "z_1", "Q"]
PLAIN = st.one_of(st.integers(0, 12).map(str), st.sampled_from(NAMES))
HUGE = st.sampled_from(["9" * 300, "9" * 400, "2^1023", "2^1024", "2**4096", "x^1023", "x^100000000000", "0^0"])
JUNK = st.sampled_from(["h", "1/0", "x/(y-y)", "$", "@x", "1.5", "", "()", "x^y", "2^-1", "x^(1+1)", "--1", "(1", "1@2", "x@x"])
# One atom in ten is huge or junk, so that most lists still parse.
ATOMS = st.integers(0, 19).flatmap(lambda i: HUGE if i == 0 else JUNK if i == 1 else PLAIN)


def _compound(inner):
    ops = st.sampled_from(["+", "-", "*", "/", "**", "@"])
    return st.one_of(
        st.tuples(inner, ops, inner).map("".join),
        inner.map(lambda e: f"-{e}"),
        st.tuples(inner, st.integers(-2, 4)).map(lambda p: f"({p[0]})^{p[1]}"),
    )


EXPRS = st.recursive(ATOMS, _compound, max_leaves=6)
# The families' r-matrices and zero classify; few drawn lists do.
CLASSIFIED = [[fam.coeff_exprs.get(n, "0") for n in SLOT_NAMES] for fam in FAMILIES.values()] + [["0"] * 6]
R_LISTS = st.one_of(
    st.sampled_from(CLASSIFIED), st.lists(EXPRS, min_size=6, max_size=6), st.lists(EXPRS, min_size=5, max_size=7)
).map(",".join)


def _flag(name, values):
    """``[name, value]``, or nothing one time in four."""
    return st.integers(0, 3).flatmap(lambda i: st.just([]) if i == 0 else values.map(lambda v: [name, v]))


def _one_bad(good, bad):
    """A value of ``good``, or of ``bad`` one time in four."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(bad if i == 0 else good))


def _orders():
    return st.integers(-2, 2).map(lambda n: ["--order", str(n)])


def _argv(out_dir):
    fmt = _flag("--format", _one_bad(["text", "json", "latex"], ["yaml"]))
    out = _flag("--out", _one_bad([str(out_dir / "report.txt")], [str(out_dir)]))
    tables = st.tuples(st.just(["tables"]), _flag("--which", _one_bad(["I", "II", "III"], ["IV"])), _orders(), fmt, out)
    classify = st.tuples(st.just(["classify"]), _flag("--r", R_LISTS), fmt, out, _one_bad([()], [("--order", "1")]))
    targets = _one_bad([*cli.TARGETS, "all"], ["prop7"])
    families = _one_bad([*cli.FAMILIES, *cli.FAMILY_ALIASES], ["Iplus", "nope"])
    verify = st.tuples(
        st.just(["verify"]),
        _flag("--target", targets),
        _flag("--family", families),
        _orders(),
        _flag("--jobs", st.integers(-2, 2).map(str)),
        fmt,
        out,
    )
    junk = st.sampled_from([[], ["frobnicate"], ["verify", "--bogus"], ["tables", "extra"]]).map(lambda a: (a,))
    return st.one_of(tables, classify, verify, junk).map(lambda parts: [a for p in parts for a in p])


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("out")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_command_line_exits_0_1_or_2(out_dir, data):
    argv = data.draw(_argv(out_dir), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2), (argv, rc)
    if rc == 2:
        assert err.getvalue().strip(), argv
