"""The pair statistics of ``scripts/bench_pairs.py``."""

import importlib.util
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
