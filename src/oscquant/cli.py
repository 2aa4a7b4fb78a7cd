"""Command-line front end: regenerate the published tables and run the
verification suites with machine-readable reports.

Three subcommands:

``tables``    recompute Table I (cocommutators), Table II (Poisson
              brackets), or Table III (coproducts) from first principles
              and diff each cell against the bundled fixture transcription.
``classify``  place a six-coefficient skew r-matrix into its family and
              flavor, or report why it fails the coboundary conditions.
``verify``    run the executable check suites (prop1..prop6, appendixA).

Exit codes: 0 all checks passed, 1 some asserted identity failed or a
table mismatched, 2 usage error.  ``tables`` and ``verify`` take a truncation
order (``--order``, default 6); ``classify`` is exact.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time

from .bialgebra import (
    DEFORMATIONS,
    FAMILIES,
    AmbiguousStratum,
    NotCoboundary,
    RMatrixSkew,
    classify,
    generic_r,
    schouten,
    table_I,
    three_wedge_coefficients,
    wedge_name,
)
from .coeffs import CoefficientField
from .expr import MAX_BITS, ExprError, parse_coefficient
from .funalg import FUN_CHECKS, fun_presentation
from .hopf import CHECKS as HOPF_CHECKS
from .hopf import presentation
from .lm import family_spec, lm_coproduct, table_III
from .poisson import table_II
from .report import (
    REPORT_RENDERERS,
    all_ok,
    make_report,
    render_table,
    wedge_cells_latex,
    r_matrix_cells,
)
from .rmatrix import (
    CONJUGATION_CASES,
    conjugation_check,
    expansion_base_check,
    frt_relations,
    intertwining_check,
    inverse_check,
    qybe_check,
    qybe_exact_rep,
    refactorization_check,
    two_step_intertwining_check,
    universal_R,
)

DEFAULT_ORDER = 6

# The universal QYBE and the two-sided inverse check multiply arity-3 and
# arity-2 series whose term counts grow steeply with the truncation order;
# the suite runs them at this order and each report carries the order used.
HEAVY_ORDER_CAP = 5

# The classification rows carrying a full deformation, mapped to its key; the
# other three rows are coproduct-only and appear in prop1 alone.
QUEA_KEY = {f"{d.family}-{d.flavor}": key for key, d in DEFORMATIONS.items()}
FAMILY_ALIASES = {quea: fam for fam, quea in QUEA_KEY.items()}


class UsageError(Exception):
    pass


# -- check kinds -----------------------------------------------------------


class _Row(dict):
    """What a row has built, by (build, n), beside the row's "key"; each is
    built once, and the lines after the first that needs it share it."""

    def __missing__(self, need):
        build, n = need
        self[need] = got = _BUILDS[build](self, n)
        return got


# What a kind's check reads, from its row and the line's order n (names read when a line runs).
_BUILDS = {
    "key": lambda row, n: row["key"],
    "lm_coproduct": lambda row, n: lm_coproduct(family_spec(row["key"]), n, FAMILIES[row["key"]].r()),
    "presentation": lambda row, n: presentation(row["key"], n),
    "universal_R": lambda row, n: universal_R(row["key"], n),
    "fun_presentation": lambda row, n: fun_presentation(row["key"]),
    "frt_relations": lambda row, n: frt_relations(row["key"]),
}


def _necessity(rep):
    # A rule is necessary iff both its letters occur in T: one about a letter absent
    # from T (theta, the E-inverse) cannot appear in the 81 entries.
    wrong = {pair: got for pair, got in rep["necessary"].items() if got != (set(pair) <= rep["letters"])}
    return not wrong, [f"rule {pair}: necessary={got}, expected={not got}" for pair, got in sorted(wrong.items())]


REQUESTED = (0, math.inf)

# Every line kind of verify, in report order within a row, as (build, check, orders, only,
# probe): its line reports check(build at n), n the requested order clamped to orders =
# (low, high) or None (exact); only is the one key it runs on (None: any); a failure on key
# probe is a finding.  Probed are the standard type-II R's stated intertwining and the literal-A
# reading of its primed A_+, which breaks the exact braid identity: evidence for D(A_+).
KINDS = {
    "lm-coassociativity": ("lm_coproduct", HOPF_CHECKS["coassociativity"], REQUESTED, None, None),
    "lm-counit": ("lm_coproduct", HOPF_CHECKS["counit"], REQUESTED, None, None),
    "lm-first-order": ("lm_coproduct", HOPF_CHECKS["cocommutator"], (1, 1), None, None),
    "hopf-homomorphism": ("presentation", HOPF_CHECKS["homomorphism"], REQUESTED, None, None),
    "hopf-coassociativity": ("presentation", HOPF_CHECKS["coassociativity"], REQUESTED, None, None),
    "hopf-counit": ("presentation", HOPF_CHECKS["counit"], REQUESTED, None, None),
    "hopf-antipode": ("presentation", HOPF_CHECKS["antipode"], REQUESTED, None, None),
    "hopf-center": ("presentation", HOPF_CHECKS["center"], REQUESTED, None, None),
    # The order-h part of the coproduct needs a presentation of order >= 1.
    "hopf-cocommutator": ("presentation", HOPF_CHECKS["cocommutator"], (1, math.inf), None, None),
    **{f"fun-{name}": ("fun_presentation", check, None, None, None) for name, check in FUN_CHECKS.items()},
    "frt-relations": ("frt_relations", lambda rep: (rep["ok"], rep["residuals"]), None, None, None),
    "frt-necessity": ("frt_relations", _necessity, None, None, None),
    "R-expansion-base": ("universal_R", expansion_base_check, REQUESTED, None, None),
    "R-refactorization": ("universal_R", refactorization_check, REQUESTED, None, None),
    "R-inverse": ("universal_R", inverse_check, (0, HEAVY_ORDER_CAP), None, None),
    "R-intertwining": ("universal_R", intertwining_check, REQUESTED, None, "IIs"),
    "R-two-step-intertwining": ("universal_R", two_step_intertwining_check, REQUESTED, "Uz", None),
    "R-qybe": ("universal_R", qybe_check, (0, HEAVY_ORDER_CAP), None, None),
    "R-exact-qybe": ("key", qybe_exact_rep, None, None, None),
    "R-exact-qybe-literal-A-reading": (
        "key", lambda key: qybe_exact_rep(key, primed_reading="literal-A"), None, "IIs", "IIs"
    ),
    **{
        f"conjugation [{tag}]": ("universal_R", functools.partial(conjugation_check, tag=tag), REQUESTED, None, None)
        for tag in CONJUGATION_CASES
    },
}


def _kinds(prefix: str) -> tuple:
    return tuple(name for name in KINDS if name.startswith(prefix))


# -- targets -----------------------------------------------------------------

# Each target's rows in report order.  A row (key, kinds) runs those kinds on
# key, the family or deformation its lines concern, which is what --family
# selects on.
TARGET_JOBS = {
    "prop1": [(key, _kinds("lm-")) for key in FAMILIES],
    "prop2": [("Uz", _kinds("hopf-"))],
    "prop3": [("Uz", _kinds("fun-") + _kinds("frt-") + _kinds("R-"))],
    "prop4": [("IIn", _kinds("hopf-"))],
    "prop5": [("IIn", _kinds("R-") + _kinds("fun-") + _kinds("frt-"))],
    "prop6": [("IIs", _kinds("hopf-") + _kinds("R-") + _kinds("fun-") + _kinds("frt-"))],
    "appendixA": [("IIn", _kinds("conjugation"))],
}
TARGETS = tuple(TARGET_JOBS)


# What a row is about, built before its lines are timed; what they compute from it
# (a universal R, the FRT relations) is charged to the first.
_GIVEN = {"lm_coproduct", "presentation", "fun_presentation"}


def _run(job, order: int):
    """One row's report lines: each line at its kind's order, those of
    another deformation left out and the probes marked as findings."""
    key, kinds = job
    row, lines = _Row(key=key), []
    for name in kinds:
        build, check, orders, only, probe = KINDS[name]
        if only in (None, key):
            n = None if orders is None else min(max(order, orders[0]), orders[1])
            lines.append((name, build, check, n, probe == key))
            if build in _GIVEN:
                row[build, n]  # built now, outside every line's time
    reports = []
    for name, build, check, n, finding in lines:
        t0 = time.perf_counter()
        ok, residuals = check(row[build, n])
        reports.append(make_report(name, key, n, ok, residuals, time.perf_counter() - t0, finding))
    return reports


def run_jobs(rows, order: int, jobs: int):
    """Run rows (at most one worker per row when jobs > 1); canonical report order."""
    if jobs <= 1 or len(rows) <= 1:
        chunks = [_run(row, order) for row in rows]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(rows))) as pool:
            chunks = list(pool.map(_run, rows, [order] * len(rows)))
    return [r for chunk in chunks for r in chunk]


# -- subcommands -----------------------------------------------------------


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_tables(args, order: int) -> int:
    rows = {
        "I": table_I,
        "II": table_II,
        "III": lambda: table_III(order=order),
    }[args.which]()
    _emit(render_table(args.which, rows, args.format), args.out)
    return 0 if all(r.match for r in rows) else 1


def _classify_text(cls, r: RMatrixSkew) -> str:
    lines = [f"input r: {r!r}"]
    if cls.trivial:
        lines.append("result: trivial bialgebra (r = 0, all cocommutators vanish)")
    else:
        fam = {"Iplus": "Type I+", "Iminus": "Type I-", "II": "Type II"}[cls.family]
        flavor = "non-standard" if cls.flavor == "nonstandard" else "standard"
        lines.append(f"family: {fam}")
        lines.append(f"flavor: {flavor} ([[r,r]] along Ap^Am^M: {cls.schouten_coeff!r})")
    return "\n".join(lines) + "\n"


def _classify_json(cls, r: RMatrixSkew) -> str:
    import json

    return (
        json.dumps(
            {
                "kind": "classification",
                "r": repr(r),
                "trivial": cls.trivial,
                "family": cls.family,
                "flavor": cls.flavor,
                "schouten_ApAmM": repr(cls.schouten_coeff),
            },
            indent=2,
        )
        + "\n"
    )


def _classify_latex(cls, r: RMatrixSkew) -> str:
    rtex = wedge_cells_latex(r_matrix_cells(r))
    if cls.trivial:
        return f"$r = {rtex}$: trivial bialgebra\n"
    fam = {"Iplus": "I_+", "Iminus": "I_-", "II": "II"}[cls.family]
    flavor = "non-standard" if cls.flavor == "nonstandard" else "standard"
    return f"$r = {rtex}$: type ${fam}$, {flavor}\n"


@functools.cache
def _generic_components() -> dict:
    """The wedge components of [[r,r]] for the six-parameter ansatz, by name;
    built once per process."""
    return {
        wedge_name(slots): repr(c)
        for slots, c in three_wedge_coefficients(schouten(generic_r())).items()
    }


def _violation_lines(residuals) -> list:
    """Name each violated coboundary condition with its closed form."""
    generic = _generic_components()
    return [
        f"  component {name} of [[r,r]] must vanish; "
        f"generic value {generic.get(name, '0')}, here {value!r}"
        for name, value in residuals
    ]


def cmd_classify(args) -> int:
    tokens = [t.strip() for t in args.r.split(",")]
    if len(tokens) != 6 or not all(tokens):
        raise UsageError("--r needs exactly six comma-separated coefficients")
    names = sorted({m.group(0) for tok in tokens for m in re.finditer(r"[A-Za-z_]\w*", tok)})
    if "h" in names:
        raise UsageError("the symbol 'h' is reserved for deformation-order bookkeeping")
    field = CoefficientField.get(*names)
    try:
        coeffs = [parse_coefficient(field, tok) for tok in tokens]
    except ExprError as exc:
        raise UsageError(f"cannot parse coefficient: {exc}") from exc
    # The budget's estimate can be low by a factor of two: check before printing.
    if any(n.bit_length() > MAX_BITS for c in coeffs for n in (c.q, *c.num.values(), *c.den.values())):
        raise UsageError(f"a coefficient has an integer over the budget of {MAX_BITS} bits")
    r = RMatrixSkew(field, coeffs)
    try:
        # Symbols are declared nonzero by use; set a coefficient to 0 instead
        # of passing a symbol meant to vanish.
        cls = classify(r, nonzero=names)
    except NotCoboundary as exc:
        lines = ["NotCoboundary: r does not solve the modified classical Yang-Baxter equation"]
        lines.extend(_violation_lines(exc.residuals))
        _emit("\n".join(lines) + "\n", args.out)
        return 1
    except AmbiguousStratum as exc:
        raise UsageError(str(exc)) from exc
    renderer = {"text": _classify_text, "json": _classify_json, "latex": _classify_latex}
    _emit(renderer[args.format](cls, r), args.out)
    return 0


def _select_jobs(target: str, family: str | None) -> list:
    rows = [row for t in (TARGETS if target == "all" else (target,)) for row in TARGET_JOBS[t]]
    if family is None:
        return rows
    fam_key = FAMILY_ALIASES.get(family, family)
    if fam_key not in FAMILIES:
        raise UsageError(
            f"unknown family {family!r}; choose from {', '.join(FAMILIES)} "
            f"or {', '.join(FAMILY_ALIASES)}"
        )
    quea = QUEA_KEY.get(fam_key)
    rows = [row for row in rows if row[0] in (fam_key, quea)]
    # Every family has its prop1 row, so only a single other target comes
    # up empty.
    if not rows:
        if quea is None:
            raise UsageError(
                f"family {fam_key} is coproduct-only (no Hopf deformation, "
                f"universal R-matrix, or quantized coordinate ring); "
                f"only prop1 applies"
            )
        raise UsageError(
            f"target {target} concerns the {TARGET_JOBS[target][0][0]} deformation, "
            f"not {fam_key}"
        )
    return rows


def cmd_verify(args, order: int) -> int:
    reports = run_jobs(_select_jobs(args.target, args.family), order, args.jobs)
    _emit(REPORT_RENDERERS[args.format](reports), args.out)
    return 0 if all_ok(reports) else 1


# -- argument parsing ------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="oscquant",
        description="Exact symbolic checks for the oscillator bialgebras, "
        "their Poisson-Lie brackets, and their quantum deformations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order=True):
        if order:
            p.add_argument(
                "--order",
                type=int,
                default=DEFAULT_ORDER,
                help=f"truncation order (default: {DEFAULT_ORDER})",
            )
        p.add_argument(
            "--format", choices=("text", "json", "latex"), default="text"
        )
        p.add_argument("--out", default=None, help="write output to this path")

    t = sub.add_parser(
        "tables",
        help="recompute a published table and diff it against the fixture",
    )
    t.add_argument("--which", required=True, choices=("I", "II", "III"))
    common(t)

    c = sub.add_parser(
        "classify",
        help="classify a six-coefficient skew r-matrix (c1..c6 on the "
        "ordered wedge basis A^Ap, A^Am, A^M, Ap^Am, Ap^M, Am^M)",
    )
    c.add_argument(
        "--r",
        required=True,
        help="six comma-separated coefficients; rationals or expressions in "
        "free symbols, e.g. '1,0,0,0,0,0' or 'ap,0,x,-x,bp,x^2/ap'. "
        "Symbols are treated as declared nonzero.  A list that starts with "
        "a minus sign works after a space too: --r -1,0,0,0,0,0 is "
        "--r=-1,0,0,0,0,0.",
    )
    # Classification is exact: no truncation order.
    common(c, order=False)

    v = sub.add_parser("verify", help="run the executable check suites")
    v.add_argument(
        "--target",
        default="all",
        choices=TARGETS + ("all",),
        help="prop1: exponential-matrix coproducts (all six families); "
        "prop2/prop4/prop6: Hopf axioms for Uz/IIn/IIs; "
        "prop3/prop5/prop6: universal R, coordinate ring, FRT; "
        "appendixA: the four conjugation identities",
    )
    v.add_argument(
        "--family",
        default=None,
        help="restrict to one family (classification key or Uz/IIn/IIs)",
    )
    common(v)
    v.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes, at most one per row; report order stays canonical",
    )
    return parser


def _join_r(argv: list) -> list:
    """``--r VALUE`` as ``--r=VALUE``, so that argparse takes a VALUE that
    starts with a minus sign (``-1,0,0,0,0,0``) as the value, not an option."""
    if "--r" in argv[:-1]:
        i = argv.index("--r")
        argv = argv[:i] + [f"--r={argv[i + 1]}"] + argv[i + 2 :]
    return argv


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_r(list(sys.argv[1:] if argv is None else argv)))
    try:
        if args.command == "classify":
            return cmd_classify(args)
        if args.order < 0:
            raise UsageError("order must be >= 0")
        if args.command == "tables":
            return cmd_tables(args, args.order)
        if args.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        return cmd_verify(args, args.order)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
