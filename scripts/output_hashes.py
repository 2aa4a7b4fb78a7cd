#!/usr/bin/env python3
"""Print sha256 prefixes of the program's outputs, to show that a change
leaves them as they were.

Seven outputs are hashed, each as one sha256 over its pieces concatenated
with no separator (the first 16 hex digits are printed):

``tables``          ``tables --which W --format F`` for W in I, II, III and
                    F in text, json, latex: stdout, then ``\\nexit=<rc>\\n``;
``verify``          ``verify --order 6 --format json --jobs 1``;
``prop2+prop4``     ``verify --target prop2`` at orders 2-8, then ``prop4``
                    at orders 2-8;
``prop1``           ``verify --target prop1`` at orders 2-5;
``classify``        ``classify --r R --format F`` for R the six families'
                    r-matrices, then ``1,1,0,0,0,0`` (not a coboundary) and
                    ``0,0,0,0,0,0`` (trivial), and F in text, json, latex:
                    stdout, then ``\\nexit=<rc>\\n``;
``verify-render``   the reports of ``verify --target prop6 --order 3``
                    rendered in text, then in LaTeX, with every wall time
                    set to 0;
``frt``             ``frt_relations(key)`` for key in Uz, IIn, IIs: each
                    extracted relation's ``render()`` in dict order, then
                    the ``necessary`` map, then ``ok``, one per line.

A ``verify`` document is hashed whole, with every ``wall_time_s`` removed,
as ``json.dumps(..., sort_keys=True)``.  ``tables`` runs at the built-in
default order.

Run from the repository root::

    PYTHONPATH=src python3 scripts/output_hashes.py            # all seven
    PYTHONPATH=src python3 scripts/output_hashes.py tables prop1
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys

from oscquant.bialgebra import FAMILIES, SLOT_NAMES
from oscquant.cli import main as cli_main
from oscquant.report import Report, render_reports_latex, render_reports_text
from oscquant.rmatrix import frt_relations

TIME_KEY = "wall_time_s"


def strip_times(obj):
    """A copy of a JSON value with every ``wall_time_s`` key removed."""
    if isinstance(obj, dict):
        return {k: strip_times(v) for k, v in obj.items() if k != TIME_KEY}
    if isinstance(obj, list):
        return [strip_times(v) for v in obj]
    return obj


def verify_piece(stdout: str) -> str:
    """The hashed form of one ``verify --format json`` document."""
    return json.dumps(strip_times(json.loads(stdout)), sort_keys=True)


def digest(pieces) -> str:
    """The first 16 hex digits of the sha256 of the pieces joined with no separator."""
    h = hashlib.sha256()
    for piece in pieces:
        h.update(piece.encode("utf-8"))
    return h.hexdigest()[:16]


def run_cli(argv):
    """(stdout, exit code) of one in-process command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    return buf.getvalue(), rc


def tables_pieces():
    for which in ("I", "II", "III"):
        for fmt in ("text", "json", "latex"):
            out, rc = run_cli(["tables", "--which", which, "--format", fmt])
            yield f"{out}\nexit={rc}\n"


def timeless_reports(stdout: str) -> list:
    """The reports of one ``verify --format json`` document, wall times set to 0."""
    return [
        Report(d["check"], d["family"], d["order"], d["status"], tuple(d["residuals"]), 0.0)
        for d in json.loads(stdout)["reports"]
    ]


def r_argument(family) -> str:
    """A family's r-matrix as the ``classify --r`` argument."""
    return ",".join(family.coeff_exprs.get(name, "0") for name in SLOT_NAMES)


def classify_pieces():
    rs = [r_argument(fam) for fam in FAMILIES.values()] + ["1,1,0,0,0,0", "0,0,0,0,0,0"]
    for r in rs:
        for fmt in ("text", "json", "latex"):
            out, rc = run_cli(["classify", "--r", r, "--format", fmt])
            yield f"{out}\nexit={rc}\n"


def verify_render_pieces():
    argv = ["verify", "--target", "prop6", "--order", "3", "--format", "json", "--jobs", "1"]
    reports = timeless_reports(run_cli(argv)[0])
    yield render_reports_text(reports)
    yield render_reports_latex(reports)


def frt_pieces():
    for key in ("Uz", "IIn", "IIs"):
        rep = frt_relations(key)
        for rel in rep["extracted"].values():
            yield rel.render() + "\n"
        yield f"{rep['necessary']!r}\nok={rep['ok']}\n"


def verify_pieces(target, orders):
    for order in orders:
        argv = ["verify", "--order", str(order), "--format", "json", "--jobs", "1"]
        if target is not None:
            argv += ["--target", target]
        yield verify_piece(run_cli(argv)[0])


OUTPUTS = {
    "tables": tables_pieces,
    "verify": lambda: verify_pieces(None, [6]),
    "prop2+prop4": lambda: (
        piece
        for target in ("prop2", "prop4")
        for piece in verify_pieces(target, range(2, 9))
    ),
    "prop1": lambda: verify_pieces("prop1", range(2, 6)),
    "classify": classify_pieces,
    "verify-render": verify_render_pieces,
    "frt": frt_pieces,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outputs", nargs="*", help=f"outputs to hash, of {', '.join(OUTPUTS)} (default: all)")
    args = ap.parse_args(argv)
    unknown = [name for name in args.outputs if name not in OUTPUTS]
    if unknown:
        ap.error(f"unknown outputs: {', '.join(unknown)}")
    for name in args.outputs or OUTPUTS:
        print(f"{name} {digest(OUTPUTS[name]())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
