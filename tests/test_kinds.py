"""``cli.KINDS`` and ``cli.TARGET_JOBS`` against the benchmark's answer key.

``perfbench/workloads.py`` writes down, from the paper's statements, every
``(check, family)`` line that ``verify --target T`` must report.  The lines
the table declares are expanded here without running a check, and must be
that answer key line for line.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from oscquant import cli
from oscquant.bialgebra import DEFORMATIONS

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def declared_lines(target) -> list:
    """The (check, key) lines of a target's rows, those of a kind limited
    to another key left out."""
    return [
        (name, key)
        for key, kinds in cli.TARGET_JOBS[target]
        for name in kinds
        if cli.KINDS[name][3] in (None, key)
    ]


@pytest.mark.parametrize("target", cli.TARGETS)
def test_each_target_declares_the_answer_keys_lines(target):
    assert Counter(declared_lines(target)) == Counter(workloads.verify_lines(target))


def test_every_kind_is_reached_by_a_target():
    reached = {name for target in cli.TARGETS for name, _ in declared_lines(target)}
    assert reached == set(cli.KINDS)


def test_only_and_probe_name_deformations():
    named = {key for _, _, _, only, probe in cli.KINDS.values() for key in (only, probe) if key is not None}
    assert named and named <= set(DEFORMATIONS)


def test_verify_reports_every_kind(capsys):
    assert cli.main(["verify", "--order", "0", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert {r["check"] for r in reports} == set(cli.KINDS)


def test_every_build_is_declared_and_read():
    read = {build for build, *_ in cli.KINDS.values()}
    assert read == set(cli._BUILDS)
