"""End-to-end tests for the command-line front end.

Everything runs in process through ``cli.main`` so exit codes and emitted
text are asserted directly; the worker-pool path is exercised once and
compared report-for-report against the inline path.  Three tests run a
fresh interpreter, to see what importing the package does to it.
"""

import dataclasses
import gc
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from oscquant import bialgebra, cli, hopf, rmatrix
from oscquant.algebra import AP, tensor
from oscquant.cli import main
from oscquant.expr import MAX_BITS, MAX_DEPTH
from oscquant.hopf import HopfPresentation
from oscquant.coeffs import Coefficient
from oscquant.rmatrix import CONJUGATION_CASES


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv)
    return rc, json.loads(out), err


# -- tables ----------------------------------------------------------------


def test_tables_I_text(capsys):
    rc, out, _ = run(capsys, ["tables", "--which", "I"])
    assert rc == 0
    assert "family Iplus-standard  [ok]" in out
    assert "table I match: True" in out


def test_tables_I_latex(capsys):
    rc, out, _ = run(capsys, ["tables", "--which", "I", "--format", "latex"])
    assert rc == 0
    assert r"\wedge" in out
    assert r"\alpha_{+}" in out


def test_tables_II_json(capsys):
    rc, payload, _ = run_json(capsys, ["tables", "--which", "II", "--format", "json"])
    assert rc == 0
    assert payload["table"] == "II"
    assert payload["match"] is True
    assert len(payload["rows"]) == 6
    for row in payload["rows"]:
        assert row["match"] is True
        assert len(row["brackets"]) == 10
        assert row["beyond_table"] == ["theta,E", "E,a_plus", "E,a_minus", "E,m"]


def test_tables_III_json_carries_order(capsys):
    rc, payload, _ = run_json(
        capsys, ["tables", "--which", "III", "--format", "json", "--order", "3"]
    )
    assert rc == 0
    assert payload["match"] is True
    assert {row["order"] for row in payload["rows"]} == {3}
    by_family = {row["family"]: row for row in payload["rows"]}
    # Standard type-I rows are stated as a matrix; the others list coproducts.
    assert "nu_matrix" in by_family["Iplus-standard"]
    assert "coproducts" in by_family["Iplus-nonstandard"]


def test_tables_III_latex(capsys):
    rc, out, _ = run(
        capsys, ["tables", "--which", "III", "--format", "latex", "--order", "3"]
    )
    assert rc == 0
    assert "pmatrix" in out
    assert r"\Delta" in out


def test_tables_III_latex_wraps_only_compound_factors(capsys):
    rc, out, _ = run(capsys, ["tables", "--which", "III", "--format", "latex"])
    assert rc == 0
    # A lone generator is a name, even with a sign in its subscript ...
    assert r"\left(A_{-}\right)" not in out and r"\left(A_{+}\right)" not in out
    assert r"1 \otimes A_{-} + A_{-} \otimes e^{A_{+} \alpha_{+} + M x} \left(M x + 1\right)" in out
    # ... while a factor with an operator of its own keeps its parentheses.
    assert r"A \otimes e^{A_{+} \alpha_{+} + M x} \left(- M x + 1\right)" in out
    assert r"\left(A \alpha_{+} - M \beta_{+}\right) \otimes" in out


@pytest.mark.parametrize("which", ["I", "II", "III"])
def test_tables_latex_puts_one_space_after_a_minus(capsys, which):
    # sympy prints a negative LaTeX coefficient as "- x"; following another
    # term it must read "- x", not "-  x"
    rc, out, _ = run(capsys, ["tables", "--which", which, "--format", "latex"])
    assert rc == 0
    assert "-  " not in out
    if which == "I":
        assert r"x \, A \wedge M - x \, A_+ \wedge A_-" in out


def test_tables_latex_parenthesizes_a_coefficient_sum(capsys):
    # as the text tables print "(-x - y)*Ap^M"; a fraction stays bare
    rc, out, _ = run(capsys, ["tables", "--which", "I", "--format", "latex"])
    assert rc == 0
    assert r"\delta(A_+) = \left(- x - y\right) \, A_+ \wedge M" in out
    assert r"\delta(A_-) = \left(x - y\right) \, A_- \wedge M" in out
    assert r"+ \frac{x^{2}}{\alpha_{+}} \, A_- \wedge M" in out
    rc, out, _ = run(capsys, ["tables", "--which", "II", "--format", "latex"])
    assert rc == 0
    assert r"- \beta_{+} + \left(- x - y\right) \, a_+ + \beta_{+} \, e^{\theta}" in out


def test_tables_mismatch_exits_1(capsys, monkeypatch):
    stub_rows = [types.SimpleNamespace(match=False)]
    monkeypatch.setattr(cli, "table_I", lambda: stub_rows)
    monkeypatch.setattr(cli, "render_table", lambda which, rows, fmt: "stub\n")
    rc, out, _ = run(capsys, ["tables", "--which", "I"])
    assert rc == 1
    assert out == "stub\n"


def test_tables_III_order0_matches(capsys):
    # The fixture's matrix entries are truncated at the order like the
    # assembled matrix they are compared with.
    rc, payload, _ = run_json(
        capsys, ["tables", "--which", "III", "--format", "json", "--order", "0"]
    )
    assert rc == 0
    assert all(row["match"] for row in payload["rows"])


def test_tables_unwritable_out_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "table.txt"
    rc, out, err = run(capsys, ["tables", "--which", "I", "--out", str(path)])
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {path}: ")


# -- classify --------------------------------------------------------------


def test_classify_single_wedge(capsys):
    rc, out, _ = run(capsys, ["classify", "--r", "1,0,0,0,0,0"])
    assert rc == 0
    assert "family: Type I+" in out
    assert "flavor: non-standard" in out


def test_classify_trivial(capsys):
    rc, out, _ = run(capsys, ["classify", "--r", "0,0,0,0,0,0"])
    assert rc == 0
    assert "trivial bialgebra" in out


def test_classify_standard_flavor(capsys):
    # c1*c6 != 0 makes the three-wedge component along Ap^Am^M survive.
    rc, out, _ = run(capsys, ["classify", "--r", "1,0,0,0,0,1"])
    assert rc == 0
    assert "family: Type I+" in out
    assert "flavor: standard" in out


def test_classify_not_coboundary(capsys):
    rc, out, _ = run(capsys, ["classify", "--r", "1,1,0,0,0,0"])
    assert rc == 1
    assert "NotCoboundary" in out
    assert "-2*c1*c2" in out  # the violated condition, by closed form
    assert "here -2" in out


def test_not_coboundary_builds_the_generic_bracket_once(capsys, monkeypatch):
    generic_field = bialgebra.generic_r().field
    built = []

    def counting(r, _schouten=bialgebra.schouten):
        built.append(r.field is generic_field)
        return _schouten(r)

    monkeypatch.setattr(bialgebra, "schouten", counting)
    monkeypatch.setattr(cli, "schouten", counting)
    cli._generic_components.cache_clear()
    try:
        for r in ("1,1,0,0,0,0", "s,t,0,0,0,0"):
            rc, out, _ = run(capsys, ["classify", "--r", r])
            assert rc == 1
            assert "generic value -2*c1*c2" in out
    finally:
        cli._generic_components.cache_clear()
    # each classify builds its own bracket; the generic one is built once
    assert built == [False, True, False]


def test_classify_symbolic(capsys):
    rc, out, _ = run(capsys, ["classify", "--r", "ap,0,x,-x,bp,x^2/ap"])
    assert rc == 0
    assert "family: Type I+" in out
    assert "flavor: non-standard" in out


def test_classify_json(capsys):
    rc, payload, _ = run_json(
        capsys, ["classify", "--r", "1,0,0,0,0,0", "--format", "json"]
    )
    assert rc == 0
    assert payload["kind"] == "classification"
    assert payload["family"] == "Iplus"
    assert payload["flavor"] == "nonstandard"
    assert payload["trivial"] is False


def test_classify_latex(capsys):
    rc, out, _ = run(capsys, ["classify", "--r", "1,0,0,0,0,0", "--format", "latex"])
    assert rc == 0
    assert "I_+" in out
    assert r"\wedge" in out


@pytest.mark.parametrize(
    "name, tex", [("lambda", r"\lambda"), ("E", "E"), ("I", "I"), ("pi", r"\pi"), ("gamma", r"\gamma")]
)
def test_classify_latex_reads_every_name_as_a_symbol(capsys, name, tex):
    # not as a constant or a function (sympify would), nor a syntax error
    rc, out, _ = run(capsys, ["classify", "--r", f"{name},0,0,0,0,0", "--format", "latex"])
    assert rc == 0
    assert out == rf"$r = {tex} \, A \wedge A_+$: type $I_+$, non-standard" + "\n"


def test_classify_takes_no_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--r", "1,0,0,0,0,0", "--order", "3"])
    assert exc.value.code == 2
    assert "--order" in capsys.readouterr().err


@pytest.mark.parametrize(
    "r, fmt", [("-1,0,0,0,0,0", "text"), ("-2/3*x/(4*y-6*x),0,0,0,0,0", "latex")]
)
def test_classify_r_with_a_leading_minus_after_a_space(capsys, r, fmt):
    # argparse reads "-1,..." on its own as an option; --r takes it anyway.
    rc, want, _ = run(capsys, ["classify", f"--r={r}", "--format", fmt])
    rc_space, out, err = run(capsys, ["classify", "--r", r, "--format", fmt])
    assert rc == rc_space == 0
    assert out == want and err == ""


def test_classify_ambiguous_zeroness(capsys):
    # 1+x is neither identically zero nor a visibly nonzero monomial.
    rc, _, err = run(capsys, ["classify", "--r", "1+x,0,0,0,0,0"])
    assert rc == 2
    assert "error:" in err


def test_classify_wrong_count(capsys):
    rc, _, err = run(capsys, ["classify", "--r", "1,2,3"])
    assert rc == 2
    assert "six" in err


def test_classify_h_reserved(capsys):
    rc, _, err = run(capsys, ["classify", "--r", "h,0,0,0,0,0"])
    assert rc == 2
    assert "reserved" in err


def test_classify_parse_error(capsys):
    rc, _, err = run(capsys, ["classify", "--r", "1,)(,0,0,0,0"])
    assert rc == 2
    assert "cannot parse" in err


@pytest.mark.parametrize("op, value", [("+", "3000"), ("*", "1")])
def test_classify_reads_a_flat_chain_of_any_length(capsys, op, value):
    # A left-associative chain parses to a tree as deep as it is long.
    rc, out, err = run(capsys, ["classify", "--r", op.join(["1"] * 3000) + ",0,0,0,0,0"])
    assert rc == 0 and err == ""
    printed = "A^Ap" if value == "1" else f"{value}*A^Ap"  # a unit coefficient prints bare
    assert out.splitlines()[0] == f"input r: {printed}"


@pytest.mark.parametrize(
    "deep", ["(" * 2000 + "1" + ")" * 2000, "-" * 2000 + "1"], ids=["parentheses", "minus"]
)
def test_classify_too_deep_nesting_is_usage_error(capsys, deep):
    rc, out, err = run(capsys, ["classify", f"--r={deep},0,0,0,0,0"])
    assert rc == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: cannot parse coefficient: expression nested deeper than {MAX_DEPTH} levels"
    ]


def test_classify_nesting_up_to_the_bound_reads(capsys):
    shallow = "(" * (MAX_DEPTH - 1) + "1" + ")" * (MAX_DEPTH - 1)
    rc, out, _ = run(capsys, ["classify", "--r", f"{shallow},0,0,0,0,0"])
    assert rc == 0
    assert out.splitlines()[0] == "input r: A^Ap"


@pytest.mark.parametrize(
    "r, problem",
    [
        ("2**20000", f"'2**20000' is over the budget of {MAX_BITS} bits"),
        ("2^100000000000", f"'2^100000000000' is over the budget of {MAX_BITS} bits"),
        ("1" * 5000, f"an integer of 5000 digits is over the budget of {MAX_BITS} bits"),
    ],
    ids=["found", "huge-power", "long-literal"],
)
def test_classify_over_the_input_budget_is_refused_unevaluated(capsys, monkeypatch, r, problem):
    def no_power(c, n):
        raise AssertionError("a power was formed")

    monkeypatch.setattr(Coefficient, "__pow__", no_power)
    for fmt in ("text", "json"):
        rc, out, err = run(capsys, ["classify", "--r", f"{r},0,0,0,0,0", "--format", fmt])
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: cannot parse coefficient: {problem}"]


def test_classify_integer_over_the_budget_is_refused_before_printing(capsys):
    # Estimated at 1000 bits, 3^1000 has 1585: the integers are held to the
    # budget themselves.
    rc, out, err = run(capsys, ["classify", "--r", "3^1000,0,0,0,0,0"])
    assert (rc, out) == (2, "")
    assert err.splitlines() == [f"error: a coefficient has an integer over the budget of {MAX_BITS} bits"]
    rc, out, _ = run(capsys, ["classify", "--r", f"2^{MAX_BITS - 1},0,0,0,0,0"])
    assert rc == 0 and out.startswith(f"input r: {2 ** (MAX_BITS - 1)}*A^Ap")


@pytest.mark.parametrize("bad", ["1/0", "x/(x-x)"])
def test_classify_division_by_zero_is_usage_error(capsys, bad):
    rc, out, err = run(capsys, ["classify", "--r", f"{bad},0,0,0,0,0"])
    assert rc == 2
    assert out == ""
    assert err.splitlines() == [f"error: cannot parse coefficient: division by zero in {bad!r}"]
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["1@2", "x@x"])
def test_classify_tensor_of_scalars_is_usage_error(capsys, bad):
    rc, out, err = run(capsys, ["classify", "--r", f"{bad},0,0,0,0,0"])
    assert (rc, out) == (2, "")
    assert err.splitlines() == [f"error: cannot parse coefficient: an operator its operands do not support in {bad!r}"]


def test_classify_out_file(capsys, tmp_path):
    path = tmp_path / "cls.txt"
    rc, out, _ = run(capsys, ["classify", "--r", "1,0,0,0,0,0", "--out", str(path)])
    assert rc == 0
    assert out == ""
    assert "Type I+" in path.read_text()


# -- verify ----------------------------------------------------------------


def test_verify_prop1_order0(capsys):
    rc, out, _ = run(capsys, ["verify", "--target", "prop1", "--order", "0"])
    assert rc == 0
    assert "summary: 18 checks: 18 pass, 0 fail, 0 finding" in out


def test_verify_order0_has_no_failures(capsys):
    # The cocommutator is the order-h part of the coproduct, so its line
    # reads an order-1 presentation and says so.
    rc, payload, _ = run_json(capsys, ["verify", "--order", "0", "--format", "json"])
    assert rc == 0
    assert payload["summary"] == {"pass": 83, "fail": 0, "finding": 1}
    cocommutator = [r for r in payload["reports"] if r["check"] == "hopf-cocommutator"]
    assert [(r["family"], r["order"]) for r in cocommutator] == [("Uz", 1), ("IIn", 1), ("IIs", 1)]


def test_verify_prop1_reports_a_broken_coproduct(capsys, monkeypatch):
    """A wrong image of Am fails coassociativity and the counit law, and the
    residuals of both name it.  The extra Ap(x)1 has a unit leg, so the
    counit sees it: a term like Ap(x)Ap would pass (id (x) eps).  It is of
    order h^2, so the first-order line, which reads the row's order-1
    coproduct, does not see it."""
    built = cli.lm_coproduct

    def perturbed(spec, order, r):
        cp = built(spec, order, r)
        extra = tensor(cp.alg.gen(AP), cp.alg.one()).scale(spec.field.marked_param("x") ** 2)
        images = {**cp.images, "Am": cp.images["Am"] + extra}
        return HopfPresentation(cp.key, cp.alg, images, None, None, cp.r)

    monkeypatch.setattr(cli, "lm_coproduct", perturbed)
    rc, payload, _ = run_json(
        capsys,
        ["verify", "--target", "prop1", "--family", "II-standard", "--order", "3", "--format", "json"],
    )
    assert rc == 1
    reports = {r["check"]: r for r in payload["reports"]}
    for check in ("lm-coassociativity", "lm-counit"):
        assert reports[check]["status"] == "fail"
        lines = reports[check]["residuals"]
        named = [line for line in lines if line.split(": ")[0].split()[-1] == "Am"]
        # each names the generator and carries the nonzero residual itself
        assert named and all(": " in line for line in named), lines
    assert reports["lm-first-order"]["status"] == "pass"


def test_verify_prop1_reports_a_wrong_r_by_generator(capsys, monkeypatch):
    """A negated r fails the first-order line, and each residual names the
    generator whose cocommutator differs and carries the difference."""
    fam = cli.FAMILIES["Iplus-nonstandard"]
    wrong = dataclasses.replace(fam, coeff_exprs={k: f"-({v})" for k, v in fam.coeff_exprs.items()})
    monkeypatch.setitem(cli.FAMILIES, fam.key, wrong)
    rc, payload, _ = run_json(
        capsys,
        ["verify", "--target", "prop1", "--family", fam.key, "--order", "2", "--format", "json"],
    )
    assert rc == 1
    reports = {r["check"]: r for r in payload["reports"]}
    first = reports["lm-first-order"]
    assert first["status"] == "fail"
    named = {line.split(": ")[0] for line in first["residuals"]}
    assert named and named <= {"Ap", "Am", "M", "A"}, first["residuals"]
    assert all(line.split(": ", 1)[1] for line in first["residuals"])


def test_import_keeps_recursion_limit_and_deep_checks_pass():
    """Importing the package leaves the interpreter's recursion limit alone,
    and the order-8 Hopf checks run within the default limit."""
    code = (
        "import sys\n"
        "sys.setrecursionlimit(1000)\n"
        "import oscquant.cli as cli\n"
        "assert sys.getrecursionlimit() == 1000, sys.getrecursionlimit()\n"
        "sys.exit(cli.main(['verify', '--target', 'prop4', '--order', '8']))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]


def test_text_and_json_runs_never_load_sympy():
    """sympy is needed only for LaTeX: text tables, a JSON classification and
    JSON verify runs leave it out of ``sys.modules``; LaTeX still works."""
    code = (
        "import contextlib, io, sys\n"
        "import oscquant.cli as cli\n"
        "runs = [['tables', '--which', w] for w in ('I', 'II', 'III')] + [\n"
        "    ['classify', '--r', '0,0,x,y,bp,yp', '--format', 'json'],\n"
        "    ['verify', '--target', 'prop1', '--order', '2', '--format', 'json'],\n"
        "    ['verify', '--target', 'prop6', '--order', '3', '--format', 'json']]\n"
        "for argv in runs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'sympy')\n"
        "assert not loaded, loaded[:5]\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert cli.main(['tables', '--which', 'I', '--format', 'latex']) == 0\n"
        "assert r'\\wedge' in out.getvalue() and 'sympy' in sys.modules\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]


def test_python_dash_m_runs_the_cli(capsys):
    """``python -m oscquant`` is the ``oscquant`` command: same output, same
    exit codes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", "oscquant", *argv], env=env, capture_output=True, text=True, timeout=600
        )

    proc = python_m("tables", "--which", "I")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == run(capsys, ["tables", "--which", "I"])[1]
    proc = python_m("verify", "--jobs", "0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")


def test_verify_prop2_json(capsys):
    rc, payload, _ = run_json(
        capsys, ["verify", "--target", "prop2", "--order", "2", "--format", "json"]
    )
    assert rc == 0
    assert payload["kind"] == "verify-report"
    assert payload["ok"] is True
    assert payload["summary"] == {"pass": 6, "fail": 0, "finding": 0}
    checks = {r["check"] for r in payload["reports"]}
    assert checks == {
        "hopf-homomorphism",
        "hopf-coassociativity",
        "hopf-counit",
        "hopf-antipode",
        "hopf-center",
        "hopf-cocommutator",
    }
    # Deformation suites report under the short quantized-algebra key.
    assert {r["family"] for r in payload["reports"]} == {"Uz"}
    assert {r["order"] for r in payload["reports"]} == {2}


def test_verify_appendixA(capsys):
    rc, payload, _ = run_json(
        capsys, ["verify", "--target", "appendixA", "--order", "2", "--format", "json"]
    )
    assert rc == 0
    checks = [r["check"] for r in payload["reports"]]
    assert checks == [
        "conjugation [Ap inner]",
        "conjugation [Ap outer]",
        "conjugation [A inner]",
        "conjugation [A outer]",
    ]
    assert payload["summary"]["pass"] == 4


def test_appendix_lines_report_their_own_intervals(monkeypatch):
    """The universal R the four lines share is charged to the first, and each
    conjugation to its own line, which reports its own comparison."""
    now = [0.0]
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    build, conjugate = cli.universal_R, rmatrix.exp_ad
    costs, spoiled = iter((1.0, 2.0, 4.0, 8.0)), iter((False, False, True, False))

    def slow(key, n):
        now[0] += 10.0  # the shared build
        return build(key, n)

    def timed(factor, t):
        now[0] += next(costs)
        got = conjugate(factor, t)
        return got + got.alg.tensor_unit(2) if next(spoiled) else got

    monkeypatch.setattr(cli, "universal_R", slow)
    monkeypatch.setattr(rmatrix, "exp_ad", timed)
    reports = cli._run(cli.TARGET_JOBS["appendixA"][0], 3)
    assert [r.check for r in reports] == [f"conjugation [{tag}]" for tag in CONJUGATION_CASES]
    assert [r.wall_time_s for r in reports] == [11.0, 2.0, 4.0, 8.0]
    assert [r.status for r in reports] == ["pass", "pass", "fail", "pass"]
    assert reports[2].residuals and all(r.order == 3 for r in reports)


@pytest.mark.parametrize("slot, step", [(0, "outer"), (1, "inner")])
def test_two_step_lines_fail_on_the_factor_they_conjugate_by(monkeypatch, slot, step):
    """With one factor of the row's R doubled (Uz's R, IIn's second
    factorization; outer first), the steps that conjugate by it fail and
    the others pass: the two-step line's one residual and two appendix lines."""
    build = cli.universal_R

    def mutant(key, n):
        R = build(key, n)
        name = "factors" if key == "Uz" else "alt_factors"
        factors = list(getattr(R, name))
        factors[slot] = factors[slot].scale(2)
        setattr(R, name, tuple(factors))
        return R

    monkeypatch.setattr(cli, "universal_R", mutant)
    (two_step,) = cli._run(("Uz", ("R-two-step-intertwining",)), 3)
    assert two_step.status == "fail"
    assert [line.split(":")[0] for line in two_step.residuals] == [step]
    appendix = {r.check: r.status for r in cli._run(cli.TARGET_JOBS["appendixA"][0], 3)}
    assert appendix == {
        f"conjugation [{tag}]": "fail" if tag.endswith(step) else "pass" for tag in CONJUGATION_CASES
    }


def test_a_row_builds_what_it_is_about_and_charges_what_its_lines_compute(monkeypatch):
    """The LM coproduct a prop1 row is about is built before its lines are
    timed; the universal R that the R lines compute is charged to the first
    of them, and the lines after it share that one build."""
    now = [0.0]
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))

    def slow(build):
        def timed(*args):
            now[0] += 10.0
            return build(*args)

        return timed

    monkeypatch.setattr(cli, "lm_coproduct", slow(cli.lm_coproduct))
    monkeypatch.setattr(cli, "universal_R", slow(cli.universal_R))
    lm = cli._run(cli.TARGET_JOBS["prop1"][0], 2)
    assert [(r.check, r.wall_time_s) for r in lm] == [
        ("lm-coassociativity", 0.0),
        ("lm-counit", 0.0),
        ("lm-first-order", 0.0),
    ]
    R = {r.check: r.wall_time_s for r in cli._run(("IIn", cli._kinds("R-")), 2)}
    assert R.pop("R-expansion-base") == 10.0
    assert set(R.values()) == {0.0}
    assert all(r.status == "pass" for r in lm)


def test_verify_releases_what_it_builds(capsys, monkeypatch):
    """Once verify returns, nothing holds the presentation its lines read,
    and the Hopf and R lines of prop6 share one build of it."""
    builds = []
    build = hopf._build

    def counted(key, order):
        if key == "IIs":
            builds.append(order)
        return build(key, order)

    monkeypatch.setattr(hopf, "_cache", {})
    monkeypatch.setattr(hopf, "_build", counted)
    rc, _, _ = run(capsys, ["verify", "--target", "prop6", "--order", "3"])
    assert rc == 0
    assert builds == [3]
    gc.collect()
    assert hopf._cache[("IIs", 3)]() is None


def test_verify_prop6_probes_are_findings_not_failures(capsys):
    rc, payload, _ = run_json(
        capsys, ["verify", "--target", "prop6", "--order", "2", "--format", "json"]
    )
    assert rc == 0
    assert payload["ok"] is True
    by_check = {r["check"]: r for r in payload["reports"]}
    # The rejected reading of the primed entry fails the exact braid identity
    # and is reported as a finding (with residuals), not as a failure.
    probe = by_check["R-exact-qybe-literal-A-reading"]
    assert probe["status"] == "finding"
    assert probe["residuals"]
    assert by_check["R-exact-qybe"]["status"] == "pass"
    assert payload["summary"]["fail"] == 0


def test_verify_caps_the_heavy_R_checks(capsys):
    # R-qybe and R-inverse run at HEAVY_ORDER_CAP; every other truncated R
    # line runs at the requested order, and the exact lines carry none.
    rc, payload, _ = run_json(
        capsys, ["verify", "--target", "prop6", "--order", "6", "--format", "json"]
    )
    assert rc == 0
    assert cli.HEAVY_ORDER_CAP == 5
    orders = {r["check"]: r["order"] for r in payload["reports"] if r["check"].startswith("R-")}
    assert orders == {
        "R-expansion-base": 6,
        "R-refactorization": 6,
        "R-inverse": 5,
        "R-intertwining": 6,
        "R-qybe": 5,
        "R-exact-qybe": None,
        "R-exact-qybe-literal-A-reading": None,
    }


def test_verify_family_filter(capsys):
    rc, payload, _ = run_json(
        capsys,
        [
            "verify",
            "--target",
            "prop1",
            "--family",
            "Iminus-standard",
            "--order",
            "0",
            "--format",
            "json",
        ],
    )
    assert rc == 0
    assert len(payload["reports"]) == 3
    assert {r["family"] for r in payload["reports"]} == {"Iminus-standard"}


def test_verify_family_alias(capsys):
    rc, payload, _ = run_json(
        capsys,
        [
            "verify",
            "--target",
            "prop1",
            "--family",
            "Uz",
            "--order",
            "0",
            "--format",
            "json",
        ],
    )
    assert rc == 0
    assert {r["family"] for r in payload["reports"]} == {"Iplus-nonstandard"}


def test_verify_all_with_family_narrows_silently(capsys):
    # With --target all, targets that do not concern the family are skipped
    # instead of rejected; a coproduct-only family keeps just its prop1 jobs.
    rc, payload, _ = run_json(
        capsys,
        [
            "verify",
            "--target",
            "all",
            "--family",
            "Iminus-standard",
            "--order",
            "0",
            "--format",
            "json",
        ],
    )
    assert rc == 0
    assert len(payload["reports"]) == 3
    assert all(r["check"].startswith("lm-") for r in payload["reports"])


def test_verify_family_coproduct_only_rejected(capsys):
    rc, _, err = run(
        capsys, ["verify", "--target", "prop2", "--family", "Iminus-standard"]
    )
    assert rc == 2
    assert "coproduct-only" in err


def test_verify_family_wrong_deformation(capsys):
    rc, _, err = run(capsys, ["verify", "--target", "prop2", "--family", "IIn"])
    assert rc == 2
    assert "concerns the Uz deformation" in err


def test_verify_family_unknown(capsys):
    rc, _, err = run(capsys, ["verify", "--target", "prop1", "--family", "bogus"])
    assert rc == 2
    assert "unknown family" in err


def test_verify_order_zero_keeps_first_order_at_one(capsys):
    rc, payload, _ = run_json(
        capsys, ["verify", "--target", "prop1", "--family", "Uz", "--order", "0", "--format", "json"]
    )
    assert rc == 0
    # coassociativity/counit run at the requested order; the first-order
    # comparison is pinned at order 1 by definition.
    assert {r["order"] for r in payload["reports"]} == {0, 1}


def test_verify_jobs_pool_matches_inline(capsys):
    argv = ["verify", "--target", "prop1", "--order", "0", "--format", "json"]
    rc1, inline, _ = run_json(capsys, argv)
    rc2, pooled, _ = run_json(capsys, argv + ["--jobs", "2"])
    assert rc1 == rc2 == 0

    def strip_times(payload):
        return [
            {k: v for k, v in r.items() if k != "wall_time_s"}
            for r in payload["reports"]
        ]

    assert strip_times(inline) == strip_times(pooled)


def test_verify_jobs_starts_at_most_one_worker_per_row(monkeypatch):
    """The pool is sized to the rows, not to --jobs: a pool starts all its
    workers at its first submit, so an unbounded --jobs would fork them all."""
    import concurrent.futures

    sizes = []

    class Inline:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Inline)
    monkeypatch.setattr(cli, "_run", lambda row, order: [row[0]])
    rows = cli.TARGET_JOBS["prop1"]
    assert cli.run_jobs(rows, 0, 5000) == [key for key, _ in rows]
    assert cli.run_jobs(rows, 0, 2) == [key for key, _ in rows]
    assert sizes == [len(rows), 2]


def test_verify_jobs_zero_rejected(capsys):
    rc, _, err = run(capsys, ["verify", "--target", "appendixA", "--jobs", "0"])
    assert rc == 2
    assert "--jobs" in err


def test_verify_negative_order_rejected(capsys):
    rc, _, err = run(capsys, ["verify", "--target", "appendixA", "--order", "-1"])
    assert rc == 2
    assert "order must be >= 0" in err


def test_verify_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    rc, out, _ = run(
        capsys,
        [
            "verify",
            "--target",
            "appendixA",
            "--order",
            "1",
            "--format",
            "json",
            "--out",
            str(path),
        ],
    )
    assert rc == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["ok"] is True


def test_verify_latex_format(capsys):
    rc, out, _ = run(
        capsys, ["verify", "--target", "appendixA", "--order", "1", "--format", "latex"]
    )
    assert rc == 0
    assert r"\begin{tabular}" in out
    assert "% summary: 4 checks" in out


def test_verify_text_and_json_agree(capsys):
    argv = ["verify", "--target", "appendixA", "--order", "1"]
    rc_t, text, _ = run(capsys, argv)
    rc_j, payload, _ = run_json(capsys, argv + ["--format", "json"])
    assert rc_t == rc_j == 0
    assert "summary: 4 checks: 4 pass, 0 fail, 0 finding" in text
    assert payload["summary"] == {"pass": 4, "fail": 0, "finding": 0}


# -- argparse-level errors -------------------------------------------------


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_table_choice_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--which", "IV"])
    assert exc.value.code == 2


def test_bad_target_choice_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--target", "prop99"])
    assert exc.value.code == 2


def test_main_builds_one_parser_for_every_call(capsys):
    """Two commands in one process share one parser, and each parses from
    its own arguments: the first's ``--format json`` does not carry over."""
    cli.build_parser.cache_clear()
    try:
        rc, payload, _ = run_json(capsys, ["classify", "--r", "1,0,0,0,0,0", "--format", "json"])
        assert rc == 0
        assert (payload["family"], payload["flavor"]) == ("Iplus", "nonstandard")
        rc, out, _ = run(capsys, ["verify", "--target", "appendixA", "--order", "1"])
        assert rc == 0
        assert out.endswith("summary: 4 checks: 4 pass, 0 fail, 0 finding\n")
        info = cli.build_parser.cache_info()
    finally:
        cli.build_parser.cache_clear()
    assert (info.misses, info.hits) == (1, 1)
