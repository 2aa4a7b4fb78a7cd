import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import workloads
from workloads import check_step

SRC = Path(__file__).resolve().parents[2] / "src"
SLOTS = (("A", "Ap"), ("A", "Am"), ("A", "M"), ("Ap", "Am"), ("Ap", "M"), ("Am", "M"))


def _answers(step):
    return dict(step["expect"])


def test_right_answers_pass():
    for name in workloads.WORKLOADS:
        for step in workloads.steps(name, 7):
            n = len(step["expect"])
            assert check_step(step, _answers(step)) == (n, 0)


def test_flipped_expected_verdict_is_caught():
    step = workloads.verify_step("prop6", 4)
    observed = _answers(step)
    step["expect"][f"{workloads.LITERAL_A}|IIs"] = "pass"  # flip the known answer
    assert check_step(step, observed) == (len(observed), 1)


def test_flipped_verdict_from_the_program_is_caught():
    import worker

    step = workloads.exact_step("qybe_exact_rep", "IIs", primed_reading="literal-A")
    observed = worker.run_step(None, step)["observed"]
    assert check_step(step, observed) == (1, 0)
    step["expect"][step["label"]] = True
    assert check_step(step, observed) == (1, 1)


def test_missing_or_extra_verdicts_are_wrong():
    step = workloads.verify_step("appendixA", 6)
    n = len(step["expect"])
    assert check_step(step, None) == (n, n)  # crash: every verdict is wrong
    observed = _answers(step)
    observed.pop("rc")
    observed["error"] = "Traceback ..."
    assert check_step(step, observed) == (n + 1, 2)


def test_templates_transcribe_table_I():
    rows = json.loads((SRC / "oscquant" / "fixtures" / "table_I.json").read_text())
    for row, tpl in workloads.TEMPLATES.items():
        cells = {(x, y): c for c, x, y in rows[row]["r"]}
        assert tpl == tuple(cells.get(s, "0") for s in SLOTS), row


def test_classify_batch_is_seeded():
    assert workloads.classify_batch(3) == workloads.classify_batch(3)
    assert workloads.classify_batch(3) != workloads.classify_batch(4)
    verdicts = [v for _, v in workloads.classify_batch(3)]
    assert verdicts.count("NotCoboundary") == 6 and len(verdicts) == 24


def _exact(cell):
    return eval(re.sub(r"\d+", lambda m: f"Fraction({m.group(0)})", cell.replace("^", "**")), {"Fraction": Fraction})


@pytest.mark.parametrize("seed", range(20))
def test_rational_standard_draws_stay_off_the_boundary(seed):
    for r, verdict in workloads.classify_batch(seed):
        if verdict.endswith("/standard") and not any(ch.isalpha() for ch in r):
            c = [_exact(cell) for cell in r.split(",")]
            assert c[0] * c[5] + c[1] * c[4] - c[3] ** 2 != 0, r


def test_rational_draw_on_the_boundary_is_rejected():
    tpl = workloads.TEMPLATES["Iplus-standard"]
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    # ap * yp = x^2: the Ap^Am^M coefficient vanishes
    binding = {"ap": ("1/2", half), "x": ("1/2", half), "bp": ("1/4", quarter), "yp": ("1/2", half)}
    assert workloads._on_boundary(tpl, binding)
    assert not workloads._on_boundary(tpl, dict(binding, yp=("1/4", quarter)))
    assert not workloads._on_boundary(tpl, dict(binding, yp=("s", None)))
