import os
import subprocess
import sys

import pytest

import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = spans.Tracer(clock)
    # outer [0, 10] holds a [1, 4] and b [5, 6]; b holds c [5.25, 5.75]
    for at, op, name in [
        (0.0, "enter", "outer"), (1.0, "enter", "a"), (4.0, "exit", None),
        (5.0, "enter", "b"), (5.25, "enter", "c"), (5.75, "exit", None),
        (6.0, "exit", None), (10.0, "exit", None),
    ]:
        clock.now = at
        t.enter(name) if op == "enter" else t.exit()
    assert t.stats["outer"] == [1, 10.0, 6.0]
    assert t.stats["a"] == [1, 3.0, 3.0]
    assert t.stats["b"] == [1, 1.0, 0.5]
    assert t.stats["c"] == [1, 0.5, 0.5]
    assert spans.total_self_s(t) == pytest.approx(10.0)


def test_repeated_spans_aggregate_by_name():
    clock = FakeClock()
    t = spans.Tracer(clock)

    def leaf():
        clock.now += 1.0

    wrapped = t.wrap("leaf", leaf)
    t.enter("root")
    wrapped()
    wrapped()
    clock.now += 0.5
    t.exit()
    assert t.calls("leaf") == 2
    assert t.self_s("leaf") == 2.0
    assert t.self_s("root") == 0.5
    assert t.self_s(prefix="le") == 2.0


def _steps(clock, t, close_last):
    """Two step spans over [0, 10], each with a child; the last may be left open."""
    for start in (0.0, 5.0):
        clock.now = start
        t.enter("cli.step")
        clock.now = start + 1.0
        t.enter("coeffs.arith")
        clock.now = start + 4.0
        t.exit()
        clock.now = start + 5.0
        if close_last or start == 0.0:
            t.exit()


def test_coverage_check_passes_when_spans_cover_the_wall_time():
    clock = FakeClock()
    t = spans.Tracer(clock)
    _steps(clock, t, close_last=True)
    assert spans.total_self_s(t) == pytest.approx(10.0)
    assert spans.coverage_error(spans.total_self_s(t), 10.0) is None


def test_coverage_check_fires_on_a_dropped_span():
    clock = FakeClock()
    t = spans.Tracer(clock)
    _steps(clock, t, close_last=False)  # the second step never closes
    assert "less than" in spans.coverage_error(spans.total_self_s(t), 10.0)


def test_coverage_check_fires_on_double_counting():
    assert "more than" in spans.coverage_error(10.5, 10.0)


INSTALL_PROBE = """
import oscquant.cli
from oscquant import algebra, rmatrix
from oscquant.coeffs import CoefficientField
import spans

original = algebra.exp_series
t = spans.Tracer()
spans.install(t)
assert rmatrix.exp_series is algebra.exp_series is not original
f = CoefficientField.get("z")
(f.param("z") - f.one).truncate(3)
assert t.calls("coeffs.arith") == 1, t.stats  # __sub__ goes through __add__
assert t.calls("coeffs.truncate") == 1, t.stats
canon, den1 = t.counts["coeffs.canon"], t.counts["coeffs.canon.den1"]
f.one / 2  # enters canonicalization with denominator 2
assert t.counts["coeffs.canon"] == canon + 1 and t.counts["coeffs.canon.den1"] == den1, t.counts
print("ok")
"""


def test_install_patches_names_imported_elsewhere():
    # in a child process: installing the spans patches classes for good
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", INSTALL_PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "ok", out.stderr
