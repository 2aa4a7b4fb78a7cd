"""Benchmark two commits against each other over alternating pairs of runs.

    python3 scripts/bench_pairs.py BASE CHANGE --pairs 10 --first-seed 801

Each commit's committed files are unpacked (``git archive``) into a
temporary directory of their own, so the working tree, its uncommitted
edits and ``.git`` are left alone.  Pair ``i`` runs ``perfbench/run.py
--workload W --seed S --trace 0`` once in each tree, for every workload of
``BENCHMARK.json`` with its ``run_seconds`` and with seed ``first_seed +
i``; even pairs run BASE first and odd pairs CHANGE first, so a drift of
the host's speed does not favour one side.

It writes ``BENCH_<n>.json`` at the repository root, ``n`` one more than
the highest existing ``BENCH_*.json`` there or under ``perfbench/``.  For
every workload and end-to-end metric the file holds both sides' values,
medians and quartiles, the change's median relative to the base, the pairs
the change won, and whether the gain is resolved: won in at least 9 of 10
pairs and better in the median by more than the base's interquartile
range.  It also holds the two commits and the environment stamp of
``run.py`` (Python, sympy, gmpy2, cores), plus two set-up conditions that
move ``setup_s``: ``PYTHONDONTWRITEBYTECODE`` and each side's line count of
``src/oscquant``.

A run that exits with a code other than 0 (every verdict right) or 1 (one
wrong), or prints no result, is recorded under ``failures`` with its side,
workload, seed, exit code and the tail of its standard error, and the pairs
go on; the statistics use the pairs in which both sides finished.  After the
pairs, each side runs every workload once more with ``--trace 1`` and seed
``first_seed``; ``traced`` holds each such run's exit code, verdicts and
per-layer counts, and the span coverage of one more traced pass of the same
workload and seed: the spans' self time over the traced wall time, which
``run.py --trace 1`` refuses below its floor of 0.90.  That pass is made by
calling ``run.run_pass`` of the tree's own ``perfbench/`` in a subprocess.
Exit code 1 if any verdict was wrong or any run failed, a traced run
included.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9
STDERR_TAIL = 2000


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def unpack(commit: str, into: Path) -> None:
    """The committed files of ``commit`` under ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as tf:
        tf.extractall(into, filter="data")


def setup_conditions(trees: dict) -> dict:
    """What moves ``setup_s`` besides the program's speed.  Without written
    bytecode every fresh process compiles the package, so each side's line
    count of ``src/oscquant`` counts too."""
    def lines(tree):
        return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (tree / "src" / "oscquant").rglob("*.py"))

    return {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "src_lines": {side: lines(tree) for side, tree in trees.items()}}


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """(exit code, standard output, standard error) of one run of ``run.py``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    return out.returncode, out.stdout, out.stderr


# One traced pass of a tree's own perfbench, run in that tree; prints the
# pass's summary as its last line.
TRACED_PASS = (
    "import json, sys\n"
    "sys.path.insert(0, 'perfbench')\n"
    "import run\n"
    "print(json.dumps(run.run_pass(sys.argv[1], int(sys.argv[2]), 1, run.DEADLINE_S)[0]))\n"
)


def span_coverage(summary: dict):
    """The spans' self time over the traced wall time of one traced pass, the
    number ``run.py`` holds against its floor; None for a pass that did not
    complete."""
    if not summary.get("complete") or "self_s_total" not in summary or not summary["wall_s"]:
        return None
    return summary["self_s_total"] / summary["wall_s"]


def traced_coverage(tree: Path, workload: str, seed: int):
    """The span coverage of one traced pass in ``tree``, or None."""
    out = subprocess.run([sys.executable, "-c", TRACED_PASS, workload, str(seed)],
                         cwd=tree, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return span_coverage(json.loads(lines[-1]))


def read_result(code: int, stdout: str):
    """(result object, env stamp) of a run that finished, else None.

    A run finished when it exited 0 or 1 and its last line of output is the
    result object; a crash can exit 1 too, after printing no result."""
    lines = stdout.strip().splitlines()
    if code not in (0, 1) or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return result, env


def failure(side: str, workload: str, seed: int, trace: int, code: int, stderr: str) -> dict:
    """The record of a run that failed."""
    return {"side": side, "workload": workload, "seed": seed, "trace": trace, "exit": code,
            "stderr_tail": stderr[-STDERR_TAIL:]}


def layer_counts(result) -> dict:
    """The per-layer counts of a traced run's result (its metrics in unit ``count``)."""
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def both_finished(base, change):
    """The two sides' values over the pairs in which both runs finished
    (a run that did not finish is None)."""
    kept = [(b, c) for b, c in zip(base, change) if b is not None and c is not None]
    return [b for b, _ in kept], [c for _, c in kept]


def describe(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(base, change, better):
    """Both sides of one metric over paired runs, and what the pairs show."""
    b, c = describe(base), describe(change)
    sign = 1 if better == "lower" else -1
    won = sum(sign * (y - x) < 0 for x, y in zip(base, change))
    gain = sign * (b["median"] - c["median"])
    return {
        "base": b,
        "change": c,
        "change_vs_base": (c["median"] - b["median"]) / b["median"] if b["median"] else 0.0,
        "pairs_won": won,
        "pairs": len(base),
        "gain_resolved": won >= WIN_SHARE * len(base) and gain > b["q3"] - b["q1"],
    }


def next_label() -> int:
    found = [int(m.group(1)) for p in list(ROOT.glob("BENCH_*.json")) + list(ROOT.glob("perfbench/BENCH_*.json"))
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return max(found, default=-1) + 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="the commit to compare against")
    ap.add_argument("change", help="the commit under test")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1, help="pair i runs seed first_seed + i")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 to give quartiles")

    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    commits = {"base": git("rev-parse", args.base), "change": git("rev-parse", args.change)}
    label = next_label()
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {}
        for side, sha in commits.items():
            trees[side] = tmp / side
            unpack(sha, trees[side])
        setup = setup_conditions(trees)
        runs = {w: {"base": [], "change": []} for w in names}
        verdicts = {"attempted": 0, "failed": 0}
        failures = []
        env = None
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in names:
                for side in order:
                    code, stdout, stderr = run_once(trees[side], workload, seed, seconds, 0)
                    got = read_result(code, stdout)
                    if got is None:
                        failures.append(failure(side, workload, seed, 0, code, stderr))
                        runs[workload][side].append(None)
                        print(f"pair {i + 1} seed {seed} {workload} {side}: exited {code}", flush=True)
                        continue
                    result, env = got
                    metrics = {name: m["value"] for name, m in result["metrics"].items()}
                    runs[workload][side].append(metrics)
                    verdicts["attempted"] += result["attempted"]
                    verdicts["failed"] += result["failed"]
                    print(f"pair {i + 1} seed {seed} {workload} {side}: "
                          + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
        traced = {w: {} for w in names}
        for workload in names:
            for side in ("base", "change"):
                code, stdout, stderr = run_once(trees[side], workload, args.first_seed, seconds, 1)
                got = read_result(code, stdout)
                row = traced[workload][side] = {"exit": code}
                row["coverage"] = traced_coverage(trees[side], workload, args.first_seed)
                if got is not None:
                    result = got[0]
                    row.update(attempted=result["attempted"], failed=result["failed"], counts=layer_counts(result))
                if code != 0:
                    failures.append(failure(side, workload, args.first_seed, 1, code, stderr))
                print(f"traced {workload} {side}: exited {code}, coverage {row['coverage']}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = {**{k: v for k, v in (env or {}).items() if k != "git_commit"}, **setup}
    doc = {"label": label, "commits": commits, "pairs": args.pairs,
           "seeds": [args.first_seed + i for i in range(args.pairs)], "seconds": seconds,
           "env": env, "verdicts": verdicts, "failures": failures, "traced": traced, "workloads": {}}
    for workload in names:
        entry = doc["workloads"][workload] = {}
        base, change = both_finished(runs[workload]["base"], runs[workload]["change"])
        if len(base) < 2:
            print(f"{workload}: {len(base)} pairs finished on both sides, too few to compare")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            row = compare([r[name] for r in base], [r[name] for r in change], m["better"])
            entry[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"], **row}
            print(f"{workload} {name}: {row['base']['median']:.4g} -> {row['change']['median']:.4g} "
                  f"({row['change_vs_base']:+.1%}), won {row['pairs_won']}/{row['pairs']}"
                  + (", gain resolved" if row["gain_resolved"] else ""), flush=True)
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    for f in failures:
        print(f"failed: {f['side']} {f['workload']} seed {f['seed']} trace {f['trace']} exited {f['exit']}")
    return 0 if verdicts["failed"] == 0 and verdicts["attempted"] > 0 and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
