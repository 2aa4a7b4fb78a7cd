"""End-to-end tests for the command-line front end.

Everything runs in process through ``cli.main`` so exit codes and emitted
text are asserted directly; the worker-pool path is exercised once and
compared report-for-report against the inline path.  One test runs a fresh
interpreter, to see what importing the package does to it.
"""

import dataclasses
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from oscquant import cli
from oscquant.algebra import AP, tensor
from oscquant.cli import main


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(cli.ORDER_ENV, raising=False)


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


def test_tables_mismatch_exits_1(capsys, monkeypatch):
    stub_rows = [types.SimpleNamespace(match=False)]
    monkeypatch.setattr(cli, "table_I", lambda: stub_rows)
    monkeypatch.setattr(cli, "render_table", lambda which, rows, fmt: "stub\n")
    rc, out, _ = run(capsys, ["tables", "--which", "I"])
    assert rc == 1
    assert out == "stub\n"


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


def test_verify_prop1_reports_a_broken_coproduct(capsys, monkeypatch):
    """A wrong image of Am fails coassociativity and the counit law, and the
    residuals of both name it.  The extra Ap(x)1 has a unit leg, so the
    counit sees it: a term like Ap(x)Ap would pass (id (x) eps)."""
    built = cli.lm_coproduct

    def perturbed(spec, order):
        cp = built(spec, order)
        alg = cp.algebra()
        extra = tensor(alg.gen(AP), alg.one()).scale(spec.field.marked_param("x"))
        return dataclasses.replace(cp, images={**cp.images, "Am": cp.images["Am"] + extra})

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
    env.pop(cli.ORDER_ENV, None)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]


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


def test_verify_env_order(capsys, monkeypatch):
    monkeypatch.setenv(cli.ORDER_ENV, "0")
    rc, payload, _ = run_json(
        capsys, ["verify", "--target", "prop1", "--family", "Uz", "--format", "json"]
    )
    assert rc == 0
    # coassociativity/counit run at the requested order; the first-order
    # comparison is pinned at order 1 by definition.
    assert {r["order"] for r in payload["reports"]} == {0, 1}


def test_verify_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.ORDER_ENV, "3")
    rc, payload, _ = run_json(
        capsys,
        ["verify", "--target", "appendixA", "--order", "1", "--format", "json"],
    )
    assert rc == 0
    assert {r["order"] for r in payload["reports"]} == {1}


def test_verify_env_order_invalid(capsys, monkeypatch):
    monkeypatch.setenv(cli.ORDER_ENV, "abc")
    rc, _, err = run(capsys, ["verify", "--target", "appendixA"])
    assert rc == 2
    assert "must be an integer" in err


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
