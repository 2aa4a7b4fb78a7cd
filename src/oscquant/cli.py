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
table mismatched, 2 usage error.  ``OSCQUANT_ORDER`` sets the default
truncation order (built-in default 6).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .bialgebra import (
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
from .expr import ExprError, parse_coefficient
from .funalg import FUN_CHECKS, fun_presentation
from .hopf import CHECKS as HOPF_CHECKS
from .hopf import presentation
from .lm import family_spec, first_order_check, lm_coproduct, table_III
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
    UnsupportedFamily,
    conjugation_identity_check,
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
ORDER_ENV = "OSCQUANT_ORDER"

# The two dense series checks (universal QYBE, Neumann-inverse sanity) grow
# steeply with the truncation order; the suite runs them at this order and
# each report carries the order actually used.
HEAVY_ORDER_CAP = 5

TARGETS = ("prop1", "prop2", "prop3", "prop4", "prop5", "prop6", "appendixA")

# The three families carrying a full deformation (Hopf algebra, universal
# R-matrix, quantized coordinate ring); the other three rows of the
# classification are coproduct-only and appear in prop1 alone.
QUEA_KEY = {
    "Iplus-nonstandard": "Uz",
    "II-nonstandard": "IIn",
    "II-standard": "IIs",
}
FAMILY_OF_TARGET = {
    "prop2": "Uz",
    "prop3": "Uz",
    "prop4": "IIn",
    "prop5": "IIn",
    "prop6": "IIs",
    "appendixA": "IIn",
}
FAMILY_ALIASES = {quea: fam for fam, quea in QUEA_KEY.items()}


class UsageError(Exception):
    pass


# -- individual jobs -------------------------------------------------------


def _timed(check, family, order, fn, finding=False):
    t0 = time.perf_counter()
    ok, residuals = fn()
    dt = time.perf_counter() - t0
    return make_report(check, family, order, ok, residuals, dt, finding=finding)


def _job_lm(key, order):
    fam = FAMILIES[key]
    spec = family_spec(fam)
    p = lm_coproduct(spec, order).presentation()
    reports = [
        _timed("lm-coassociativity", key, order, lambda: HOPF_CHECKS["coassociativity"](p)),
        _timed("lm-counit", key, order, lambda: HOPF_CHECKS["counit"](p)),
    ]

    def first_order():
        ok = first_order_check(spec, fam.r(marked=True))
        return ok, [] if ok else [("first-order", "cocommutator mismatch")]

    reports.append(_timed("lm-first-order", key, 1, first_order))
    return reports


def _job_hopf(key, name, order):
    p = presentation(key, order)
    return [_timed(f"hopf-{name}", key, order, lambda: HOPF_CHECKS[name](p))]


def _job_fun(key, order):
    del order  # the coordinate-ring relations close exactly; no truncation
    f = fun_presentation(key)
    return [
        _timed(f"fun-{name}", key, None, functools.partial(FUN_CHECKS[name], f))
        for name in FUN_CHECKS
    ]


# Rules whose removal must break some FRT-extracted relation.  Rules about
# letters absent from the representing group element (theta itself, the
# E-inverse) cannot appear in the 81 entries and stay unexercised.
_EXPECTED_NECESSARY = {
    "Uz": {
        ("a_plus", "theta"): False,
        ("m", "theta"): False,
        ("a_plus", "E"): True,
        ("a_plus", "Einv"): False,
        ("m", "E"): True,
        ("m", "Einv"): False,
        ("a_minus", "a_plus"): True,
        ("m", "a_plus"): True,
        ("m", "a_minus"): True,
    },
    "IIn": {("m", "a_plus"): True, ("m", "a_minus"): True},
    "IIs": {("m", "a_plus"): True, ("m", "a_minus"): True},
}


def _job_frt(key, order):
    del order  # exact; see _job_fun
    t0 = time.perf_counter()
    rep = frt_relations(key)
    dt = time.perf_counter() - t0
    reports = [
        make_report("frt-relations", key, None, rep["ok"], rep["residuals"], dt)
    ]
    t0 = time.perf_counter()
    expected = _EXPECTED_NECESSARY[key]
    diffs = [
        f"rule {pair}: necessary={rep['necessary'].get(pair)}, expected={want}"
        for pair, want in sorted(expected.items())
        if rep["necessary"].get(pair) != want
    ] + [
        f"unexpected rule {pair}: necessary={got}"
        for pair, got in sorted(rep["necessary"].items())
        if pair not in expected
    ]
    reports.append(
        make_report(
            "frt-necessity", key, None, not diffs, diffs, time.perf_counter() - t0
        )
    )
    return reports


def _job_universal_r(key, order):
    heavy_order = min(order, HEAVY_ORDER_CAP)
    box = {}

    def build_and_base():
        box["R"] = universal_R(key, order)
        return expansion_base_check(box["R"])

    def heavy_R():
        if "heavy" not in box:
            box["heavy"] = (
                box["R"] if heavy_order == order else universal_R(key, heavy_order)
            )
        return box["heavy"]

    # The stated intertwining property for the standard type-II R-matrix is
    # probed rather than asserted; a truncation-order failure would be
    # reported as a finding.
    probe_intertwining = key == "IIs"

    reports = [
        _timed("R-expansion-base", key, order, build_and_base),
        _timed("R-refactorization", key, order, lambda: refactorization_check(box["R"])),
        _timed("R-inverse", key, heavy_order, lambda: inverse_check(heavy_R())),
        _timed(
            "R-intertwining",
            key,
            order,
            lambda: intertwining_check(box["R"]),
            finding=probe_intertwining,
        ),
    ]
    if key == "Uz":
        reports.append(
            _timed("R-two-step-intertwining", key, order, lambda: two_step_intertwining_check(order))
        )
    reports.append(_timed("R-qybe", key, heavy_order, lambda: qybe_check(heavy_R())))
    reports.append(
        _timed("R-exact-qybe", key, None, lambda: qybe_exact_rep(key))
    )
    if key == "IIs":
        # Alternative reading of the remark on the primed creation entry:
        # substituting D(A) literally breaks the exact braid identity, which
        # is the machine evidence that the remark means D(A_+).
        reports.append(
            _timed(
                "R-exact-qybe-literal-A-reading",
                key,
                None,
                lambda: qybe_exact_rep(key, primed_reading="literal-A"),
                finding=True,
            )
        )
    return reports


def _job_appendix(order):
    t0 = time.perf_counter()
    ok, residuals = conjugation_identity_check(order)
    dt = time.perf_counter() - t0
    by_case = {tag: [] for tag in CONJUGATION_CASES}
    for tag, obj in residuals:
        by_case[tag].append((tag, obj))
    # The four identities share one computation; its time is split evenly.
    return [
        make_report(
            f"conjugation [{tag}]",
            "IIn",
            order,
            not by_case[tag],
            by_case[tag],
            dt / len(CONJUGATION_CASES),
        )
        for tag in CONJUGATION_CASES
    ]


# -- job registry ----------------------------------------------------------

JOB_FUNCS = {}
TARGET_JOBS = {}


def _register(target, job_id, fn):
    JOB_FUNCS[job_id] = fn
    TARGET_JOBS.setdefault(target, []).append(job_id)


for _key in FAMILIES:
    _register("prop1", f"prop1/{_key}", functools.partial(_job_lm, _key))
for _name in HOPF_CHECKS:
    _register("prop2", f"prop2/{_name}", functools.partial(_job_hopf, "Uz", _name))
_register("prop3", "prop3/fun", functools.partial(_job_fun, "Uz"))
_register("prop3", "prop3/frt", functools.partial(_job_frt, "Uz"))
_register("prop3", "prop3/R", functools.partial(_job_universal_r, "Uz"))
for _name in HOPF_CHECKS:
    _register("prop4", f"prop4/{_name}", functools.partial(_job_hopf, "IIn", _name))
_register("prop5", "prop5/R", functools.partial(_job_universal_r, "IIn"))
_register("prop5", "prop5/fun", functools.partial(_job_fun, "IIn"))
_register("prop5", "prop5/frt", functools.partial(_job_frt, "IIn"))
for _name in HOPF_CHECKS:
    _register("prop6", f"prop6/{_name}", functools.partial(_job_hopf, "IIs", _name))
_register("prop6", "prop6/R", functools.partial(_job_universal_r, "IIs"))
_register("prop6", "prop6/fun", functools.partial(_job_fun, "IIs"))
_register("prop6", "prop6/frt", functools.partial(_job_frt, "IIs"))
_register("appendixA", "appendixA", _job_appendix)


def _run_job(job_id: str, order: int):
    return JOB_FUNCS[job_id](order)


def _run_job_star(pair):
    return _run_job(*pair)


def run_jobs(job_ids, order: int, jobs: int):
    """Run jobs (in a worker pool when jobs > 1); canonical report order."""
    if jobs <= 1 or len(job_ids) <= 1:
        chunks = [_run_job(job_id, order) for job_id in job_ids]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_run_job_star, [(j, order) for j in job_ids]))
    return [r for chunk in chunks for r in chunk]


# -- subcommands -----------------------------------------------------------


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
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


def _violation_lines(residuals) -> list:
    """Name each violated coboundary condition with its closed form."""
    generic = {
        wedge_name(slots): repr(c)
        for slots, c in three_wedge_coefficients(schouten(generic_r())).items()
    }
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
    targets = list(TARGETS) if target == "all" else [target]
    if family is None:
        job_ids = []
        for t in targets:
            job_ids.extend(TARGET_JOBS[t])
        return job_ids
    fam_key = FAMILY_ALIASES.get(family, family)
    if fam_key not in FAMILIES:
        raise UsageError(
            f"unknown family {family!r}; choose from {', '.join(FAMILIES)} "
            f"or {', '.join(FAMILY_ALIASES)}"
        )
    quea = QUEA_KEY.get(fam_key)
    job_ids = []
    for t in targets:
        if t == "prop1":
            job_ids.append(f"prop1/{fam_key}")
        elif FAMILY_OF_TARGET[t] == quea:
            job_ids.extend(TARGET_JOBS[t])
        elif target != "all":
            if quea is None:
                raise UnsupportedFamily(
                    f"family {fam_key} is coproduct-only (no Hopf deformation, "
                    f"universal R-matrix, or quantized coordinate ring); "
                    f"only prop1 applies"
                )
            raise UnsupportedFamily(
                f"target {t} concerns the {FAMILY_OF_TARGET[t]} deformation, "
                f"not {fam_key}"
            )
    return job_ids


def cmd_verify(args, order: int) -> int:
    job_ids = _select_jobs(args.target, args.family)
    reports = run_jobs(job_ids, order, args.jobs)
    _emit(REPORT_RENDERERS[args.format](reports), args.out)
    return 0 if all_ok(reports) else 1


# -- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscquant",
        description="Exact symbolic checks for the oscillator bialgebras, "
        "their Poisson-Lie brackets, and their quantum deformations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs=False):
        p.add_argument(
            "--order",
            type=int,
            default=None,
            help=f"truncation order (default: ${ORDER_ENV} or {DEFAULT_ORDER})",
        )
        p.add_argument(
            "--format", choices=("text", "json", "latex"), default="text"
        )
        p.add_argument("--out", default=None, help="write output to this path")
        if jobs:
            p.add_argument(
                "--jobs",
                type=int,
                default=1,
                help="worker processes; report order stays canonical",
            )

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
        "Symbols are treated as declared nonzero.",
    )
    common(c)

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
    common(v, jobs=True)
    return parser


def _resolve_order(args) -> int:
    order = getattr(args, "order", None)
    if order is None:
        raw = os.environ.get(ORDER_ENV)
        if raw is None:
            return DEFAULT_ORDER
        try:
            order = int(raw)
        except ValueError:
            raise UsageError(f"${ORDER_ENV} must be an integer, got {raw!r}")
    if order < 0:
        raise UsageError("order must be >= 0")
    return order


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        order = _resolve_order(args)
        if args.command == "tables":
            return cmd_tables(args, order)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "verify":
            if args.jobs < 1:
                raise UsageError("--jobs must be >= 1")
            return cmd_verify(args, order)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, UnsupportedFamily) as exc:
        # KeyError subclasses repr-quote their message; unwrap it.
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
