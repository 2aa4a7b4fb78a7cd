"""One benchmark pass, in a fresh single-threaded interpreter.

Started by ``run.py`` with ``src`` on the path.  It times the import of
``oscquant.cli`` from the moment the parent spawned it (``--spawned-at``, a
``time.monotonic`` reading, which is system-wide on Linux), then runs the
workload's steps one after another.  It prints one JSON line with the
set-up time, one per step with what the program answered, and a last
``summary`` line with the timings.
With ``--setup-only`` it stops after the import.

The host's speed changes by tens of percent within minutes, for the same
work, on a shared machine.  So the worker also measures it, with a fixed
loop of the kind of work the library does (products of dict-keyed
polynomials with ``Fraction`` coefficients), timed every ``SAMPLE_S``
seconds from a timer signal, from before the import to the end of the pass.
A speed is ``REF_S`` divided by the loop's time; the set-up, each step
and the whole pass get the mean of the speeds sampled while they ran, so a
slow spell counts for as long as it lasts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

import spans
import workloads


REF_POLY = {(i, j, i * j % 3): Fraction(i + 1, j + 2) for i in range(5) for j in range(4)}
# The loop's time at speed 1: about its time on the baseline machine when
# it interrupts a pass.
REF_S = 0.002
SAMPLE_S = 0.05


def reference_speed():
    """One timing of the reference loop, as a speed."""
    t0 = time.perf_counter()
    out = {}
    for m1, c1 in REF_POLY.items():
        for m2, c2 in REF_POLY.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = out.get(m, 0) + c1 * c2
    return REF_S / (time.perf_counter() - t0)


def _mean_speed(speeds):
    return statistics.fmean(speeds) if speeds else reference_speed()


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _observe_cli(cli, argv):
    """Run one command line in-process; return (observed labels, slowest line)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code
    dt = time.perf_counter() - t0
    text = buf.getvalue()
    observed = {"rc": rc}
    slowest = dt
    if argv[0] == "verify" and text.startswith("{"):
        reports = json.loads(text)["reports"]
        for r in reports:
            observed[f"{r['check']}|{r['family']}"] = r["status"]
        slowest = max((r["wall_time_s"] for r in reports), default=dt)
    elif argv[0] == "classify":
        if rc == 0:
            doc = json.loads(text)
            observed = {"verdict": f"{doc['family']}/{doc['flavor']}"}
        elif rc == 1 and text.startswith("NotCoboundary"):
            observed = {"verdict": "NotCoboundary"}
        else:
            observed = {"verdict": f"exit {rc}"}
    return observed, slowest


def _observe_exact(step):
    """Call one public exact check; map its label(s) to ok flags."""
    # looked up at call time, so a traced pass calls the wrapped functions
    from oscquant import bialgebra, coeffs, funalg, rmatrix

    key, kwargs, label = step["key"], step["kwargs"], step["label"]
    if step["check"] == "frt_relations":
        return {label: bool(rmatrix.frt_relations(key, **kwargs)["ok"])}
    if step["check"] == "qybe_exact_rep":
        return {label: bool(rmatrix.qybe_exact_rep(key, **kwargs)[0])}
    if step["check"] == "invariant_basis":
        return {label: len(bialgebra.invariant_basis(coeffs.CoefficientField.get()))}
    results = funalg.fun_hopf_check(funalg.fun_presentation(key), **kwargs)
    return {f"{label} {name}": bool(ok) for name, (ok, _) in results.items()}


def run_step(cli, step):
    t0 = time.perf_counter()
    if step["kind"] == "cli":
        observed, slowest = _observe_cli(cli, step["argv"])
    else:
        observed = _observe_exact(step)
        slowest = time.perf_counter() - t0
    return {"observed": observed, "slowest_s": slowest, "seconds": time.perf_counter() - t0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    speeds = []
    signal.signal(signal.SIGALRM, lambda signum, frame: speeds.append(reference_speed()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    import oscquant.cli as cli

    setup_s = time.monotonic() - args.spawned_at
    setup_speed = _mean_speed(speeds)
    out = sys.stdout
    print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}), file=out, flush=True)
    if args.setup_only:
        return 0

    steps = workloads.steps(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    first = len(speeds)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for i, step in enumerate(steps):
        k = len(speeds)
        if tracer:
            tracer.enter(spans.STEP)
        try:
            rec = run_step(cli, step)
        except Exception:  # a failing step is a wrong verdict, not the end of the pass
            rec = {"observed": {"error": traceback.format_exc(limit=3)}, "slowest_s": 0.0, "seconds": 0.0}
        finally:
            if tracer:
                tracer.exit()
        rec["i"] = i
        rec["speed"] = _mean_speed(speeds[k:])
        print(json.dumps(rec), file=out, flush=True)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    signal.setitimer(signal.ITIMER_REAL, 0)

    summary = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "speed": _mean_speed(speeds[first:]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        summary["layers"] = spans.layer_metrics(tracer)
        summary["self_s_total"] = spans.total_self_s(tracer)
        summary["counts"] = dict(tracer.counts)
    print(json.dumps({"summary": summary}), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
