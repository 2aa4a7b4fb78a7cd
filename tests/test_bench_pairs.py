"""The pair statistics and run records of ``scripts/bench_pairs.py``."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_a_clear_gain_is_resolved():
    base = [1.0, 1.1, 1.2, 1.3, 1.0, 1.1, 1.2, 1.3, 1.0, 1.1]
    change = [b - 0.5 for b in base]
    row = bench_pairs.compare(base, change, "lower")
    assert row["pairs_won"] == 10 and row["pairs"] == 10
    assert row["gain_resolved"]
    assert row["change_vs_base"] < -0.4


def test_a_gain_inside_the_base_spread_is_not_resolved():
    base = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    change = [b - 0.1 for b in base]
    row = bench_pairs.compare(base, change, "lower")
    assert row["pairs_won"] == 10
    assert not row["gain_resolved"]  # 0.1 is well inside the base's quartiles


def test_eight_pairs_of_ten_do_not_resolve_a_gain():
    base = [1.0] * 10
    change = [0.5] * 8 + [1.5] * 2
    row = bench_pairs.compare(base, change, "lower")
    assert row["pairs_won"] == 8
    assert not row["gain_resolved"]


def test_higher_is_better_counts_the_other_way():
    row = bench_pairs.compare([1.0, 1.0, 1.0], [2.0, 2.0, 0.5], "higher")
    assert row["pairs_won"] == 2
    assert row["base"]["median"] == 1.0 and row["change"]["median"] == 2.0


RESULT = {"correct": True, "attempted": 12, "failed": 0,
          "metrics": {"wall_s": {"value": 0.5, "unit": "s"},
                      "coeffs.arith.calls": {"value": 40255, "unit": "count"},
                      "coeffs.den1_ratio": {"value": 0.95, "unit": "ratio"}}}
STDOUT = 'env {"python": "3.11.7"}\nrmatrix-series  wall_s  0.5 s\n' + json.dumps(RESULT) + "\n"


def test_a_finished_run_gives_its_result_and_env():
    for code in (0, 1):
        assert bench_pairs.read_result(code, STDOUT) == (RESULT, {"python": "3.11.7"})


def test_a_run_that_did_not_finish_gives_none():
    assert bench_pairs.read_result(3, STDOUT) is None  # tracing self-check failed
    assert bench_pairs.read_result(2, "") is None  # could not set up
    assert bench_pairs.read_result(1, 'env {}\nTraceback (most recent call last):\n') is None


def test_a_failure_keeps_the_tail_of_stderr():
    err = "x" * 5000 + "error: tracing self-check failed"
    row = bench_pairs.failure("change", "paper-exact", 3, 1, 3, err)
    assert row["stderr_tail"].endswith("self-check failed") and len(row["stderr_tail"]) == bench_pairs.STDERR_TAIL
    assert (row["side"], row["workload"], row["seed"], row["trace"], row["exit"]) == ("change", "paper-exact", 3, 1, 3)


def test_layer_counts_are_the_count_metrics():
    assert bench_pairs.layer_counts(RESULT) == {"coeffs.arith.calls": 40255}


def test_pairs_with_a_missing_side_are_left_out():
    base, change = bench_pairs.both_finished([1, None, 3, 4], [5, 6, None, 8])
    assert (base, change) == ([1, 4], [5, 8])


def test_setup_conditions_count_each_sides_source_lines(tmp_path, monkeypatch):
    for side, lines in (("base", 3), ("change", 5)):
        pkg = tmp_path / side / "src" / "oscquant"
        (pkg / "fixtures").mkdir(parents=True)
        (pkg / "a.py").write_text("x = 1\n" * (lines - 1))
        (pkg / "fixtures" / "b.py").write_text("y = 2\n")
        (pkg / "fixtures" / "t.json").write_text("{}\n" * 9)  # not source
    trees = {side: tmp_path / side for side in ("base", "change")}
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    got = bench_pairs.setup_conditions(trees)
    assert got == {"PYTHONDONTWRITEBYTECODE": "1", "src_lines": {"base": 3, "change": 5}}
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_pairs.setup_conditions(trees)["PYTHONDONTWRITEBYTECODE"] is None


def test_span_coverage_is_self_time_over_traced_wall_time():
    summary = {"complete": True, "wall_s": 2.0, "self_s_total": 1.8, "layers": {}}
    assert bench_pairs.span_coverage(summary) == 0.9
    assert bench_pairs.span_coverage({**summary, "complete": False}) is None  # crashed or timed out
    assert bench_pairs.span_coverage({"complete": True, "wall_s": 2.0}) is None  # an untraced pass
