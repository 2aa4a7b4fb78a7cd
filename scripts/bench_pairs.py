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
``run.py`` (Python, sympy, gmpy2, cores).  Exit code 1 if any verdict was
wrong or any run failed.
"""

from __future__ import annotations

import argparse
import io
import json
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


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def unpack(commit: str, into: Path) -> None:
    """The committed files of ``commit`` under ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as tf:
        tf.extractall(into, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    """(metrics {name: value}, attempted, failed, env stamp) of one untraced run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n{out.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, result["attempted"], result["failed"], env


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
        runs = {w: {"base": [], "change": []} for w in names}
        verdicts = {"attempted": 0, "failed": 0}
        env = None
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in names:
                for side in order:
                    metrics, attempted, failed, env = run_once(trees[side], workload, seed, seconds)
                    runs[workload][side].append(metrics)
                    verdicts["attempted"] += attempted
                    verdicts["failed"] += failed
                    print(f"pair {i + 1} seed {seed} {workload} {side}: "
                          + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = {k: v for k, v in (env or {}).items() if k != "git_commit"}
    doc = {"label": label, "commits": commits, "pairs": args.pairs,
           "seeds": [args.first_seed + i for i in range(args.pairs)], "seconds": seconds,
           "env": env, "verdicts": verdicts, "workloads": {}}
    for workload in names:
        entry = doc["workloads"][workload] = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            row = compare([r[name] for r in runs[workload]["base"]],
                          [r[name] for r in runs[workload]["change"]], m["better"])
            entry[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"], **row}
            print(f"{workload} {name}: {row['base']['median']:.4g} -> {row['change']['median']:.4g} "
                  f"({row['change_vs_base']:+.1%}), won {row['pairs_won']}/{row['pairs']}"
                  + (", gain resolved" if row["gain_resolved"] else ""), flush=True)
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if verdicts["failed"] == 0 and verdicts["attempted"] > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
