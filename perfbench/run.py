"""Benchmark for oscquant: how long a user waits for the paper's verdicts.

    python3 perfbench/run.py --workload rmatrix-series --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                      # all three workloads, seed 1

Each pass of a workload is one fresh single-threaded Python process (see
``worker.py``) that runs the workload's steps one after another: a closed
loop with one caller, ``--jobs 1`` and no worker pool.  Every verdict is
checked against the answer key in ``workloads.py``.

With ``--trace 0`` the run first spawns a few processes that only import
``oscquant.cli`` (set-up probes), then makes as many passes as fill
``--seconds`` at the workload's nominal pass time (at least one; the count
does not depend on how fast the program is, so two versions of it get the
same number), and reports medians over passes of the end-to-end metrics.
Times are reported at speed 1 of the reference loop in ``worker.py``: a
measured time times the host speed measured over the same interval, so
that a slow spell of a shared machine does not read as a slower program.
The measured times are printed next to them.  With ``--trace 1`` it runs
one untraced and one traced pass and reports the per-layer metrics of the
traced pass, plus the tracing overhead, as measured.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every verdict was right, 1 when one was wrong, 2 when the program could
not be set up (for instance, ``src/oscquant`` is missing), 3 when a tracing
self-check failed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; leave room for the set-up probes and exit.
DEADLINE_S = 165.0
SETUP_PROBES = 5

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "slowest_step_s": "s"}


class SetupFailed(Exception):
    pass


class SelfCheckFailed(Exception):
    pass


# -- environment stamp -----------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from its own .git; none outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = None
    return {
        "python": platform.python_version(),
        "sympy": sympy,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


# -- one worker process ----------------------------------------------------


def _children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def spawn(workload, seed, trace=0, setup_only=False, timeout=DEADLINE_S):
    """Run one worker; return (set-up record, step records, summary or None,
    elapsed, cpu).  SetupFailed when it never got past importing oscquant."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"  # string hashing fixed, so counts repeat
    env.pop("OSCQUANT_ORDER", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cpu0 = _children_cpu_s()
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(t0)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nworker timed out after {timeout:.0f} s"
    elapsed = time.monotonic() - t0
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    setup = next((r for r in records if "setup_s" in r), None)
    if setup is None:
        raise SetupFailed(err.strip()[-2000:] or f"worker exited with {proc.returncode}")
    summary = next((r["summary"] for r in records if "summary" in r), None)
    if summary is None and not setup_only:
        sys.stderr.write(err[-2000:])
    steps = [r for r in records if "i" in r]
    return setup, steps, summary, elapsed, _children_cpu_s() - cpu0


def run_pass(workload, seed, trace, timeout):
    """One pass: its summary and its verdict counts against the answer key."""
    steps = workloads.steps(workload, seed)
    setup, records, summary, elapsed, cpu = spawn(workload, seed, trace, timeout=timeout)
    by_i = {r["i"]: r for r in records}
    attempted = failed = 0
    for i, step in enumerate(steps):
        rec = by_i.get(i)
        a, f = workloads.check_step(step, rec["observed"] if rec else None)
        attempted += a
        failed += f
    if summary is None:  # crashed or timed out: time what the parent saw
        summary = {"wall_s": elapsed, "cpu_s": cpu, "peak_rss_mib": 0.0, "speed": setup["setup_speed"]}
    summary.update(setup)
    summary["slowest_step_s"] = max((r["slowest_s"] for r in records), default=elapsed)
    speed = summary["speed"]
    summary["at_speed_1"] = {
        "wall_s": summary["wall_s"] * speed,
        "cpu_s": summary["cpu_s"] * speed,
        # each step at the speed sampled while it ran: a step is short next
        # to the host's slow spells
        "slowest_step_s": max((r["slowest_s"] * r["speed"] for r in records), default=elapsed * speed),
    }
    summary["complete"] = len(by_i) == len(steps)
    return summary, attempted, failed


# -- a run -----------------------------------------------------------------


def measure(workload, seed, seconds, trace):
    """(metrics {name: (value, unit)}, measured {name: value}, attempted,
    failed, passes) for one run; ``measured`` holds the times as measured."""
    start = time.monotonic()

    def left():
        return DEADLINE_S - (time.monotonic() - start)

    if trace:
        base, a0, f0 = run_pass(workload, seed, 0, left())
        traced, a1, f1 = run_pass(workload, seed, 1, left())
        if not traced["complete"]:
            return {}, {}, a0 + a1, f0 + f1, 2
        error = spans.coverage_error(traced["self_s_total"], traced["wall_s"])
        if error:
            raise SelfCheckFailed(error)
        metrics = {name: tuple(vu) for name, vu in traced["layers"].items()}
        metrics["trace.overhead_s"] = (traced["wall_s"] - base["wall_s"], "s")
        return metrics, {}, a0 + a1, f0 + f1, 2

    def probe_setup(n):
        return [spawn(workload, seed, setup_only=True)[0] for _ in range(n)]

    # half the probes before the passes and half after, so that a slow spell
    # of a shared machine does not take them all
    setups = probe_setup(SETUP_PROBES // 2)
    passes, attempted, failed = [], 0, 0
    for _ in range(workloads.passes(workload, seconds)):
        summary, a, f = run_pass(workload, seed, 0, left())
        passes.append(summary)
        attempted += a
        failed += f
        if not summary["complete"] or left() < 1.5 * summary["wall_s"]:
            break
    setups += probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    setups += passes
    metrics = {"setup_s": (statistics.median(p["setup_s"] * p["setup_speed"] for p in setups), "s")}
    measured = {"setup_s": statistics.median(p["setup_s"] for p in setups),
                "host_speed": statistics.median(p["speed"] for p in passes)}
    for name, unit in E2E_UNITS.items():
        metrics[name] = (statistics.median(p["at_speed_1"].get(name, p[name]) for p in passes), unit)
        if name in passes[0]["at_speed_1"]:
            measured[name] = statistics.median(p[name] for p in passes)
    return metrics, measured, attempted, failed, len(passes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "oscquant" / "cli.py").is_file():
        print(f"error: no oscquant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print("env " + json.dumps(environment()), flush=True)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            metrics, measured, attempted, failed, passes = measure(name, args.seed, args.seconds, args.trace)
        except SetupFailed as exc:
            print(f"error: could not set up the program:\n{exc}", file=sys.stderr)
            return 2
        except SelfCheckFailed as exc:
            print(f"error: tracing self-check failed: {exc}", file=sys.stderr)
            return 3
        for metric, (value, unit) in metrics.items():
            note = f"   (measured {measured[metric]:.6g} {unit})" if metric in measured else ""
            print(f"{name}  {metric:34s} {value:>14.6g} {unit}{note}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            result["metrics"][key] = {"value": value, "unit": unit}
        if "host_speed" in measured:
            print(f"{name}  {'host_speed':34s} {measured['host_speed']:>14.6g} (median over passes)")
        ratio = failed / attempted if attempted else 1.0
        print(f"{name}  {'fail_ratio':34s} {ratio:>14.6g} ratio ({failed} of {attempted} verdicts wrong, {passes} passes)")
        result["attempted"] += attempted
        result["failed"] += failed
    result["correct"] = result["failed"] == 0 and result["attempted"] > 0
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
