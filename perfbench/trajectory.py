"""Run the benchmark over several seeds, twice, and write one BENCH_<label>.json.

    python3 perfbench/trajectory.py --label 0 --runs 10

It makes two sets of ``--runs`` untraced runs of ``run.py`` on every
workload of BENCHMARK.json, with its ``run_seconds``: seeds 1..runs, then
runs+1..2*runs, the second set after the first has finished on all
workloads.  For each end-to-end metric and set it records every value, the
median, the quartiles and the spread (q3 - q1) / median, and how much worse
the second median is than the first, next to the bound in BENCHMARK.json.
It then makes two traced runs per workload with seed 1, keeps the per-layer
metrics of the first, and checks that every count (``*.calls``,
``*_ratio``, ``*.peak_terms``, ``*.builds``) is the same in both.

The exit code is 1 if a verdict was wrong, a run failed, a count did not
repeat, a spread (other than that of ``setup_s``) exceeded its bound or a
second median was worse than the first by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", "_ratio", ".peak_terms", ".builds")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return json.loads(lines[-1]), env


def describe(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    doc = {"label": args.label, "runs": args.runs, "seconds": seconds, "workloads": {}}
    ok = True

    results = {w: ([], []) for w in names}
    for s, first_seed in enumerate((1, args.runs + 1)):
        for workload in names:
            for seed in range(first_seed, first_seed + args.runs):
                res, env = run(workload, seed, seconds, 0)
                doc.setdefault("env", env)
                results[workload][s].append(res)
                print(f"set {s + 1} {workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    for workload in names:
        runs = results[workload][0] + results[workload][1]
        entry = {
            "seeds": list(range(1, 2 * args.runs + 1)),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        ok &= entry["failed"] == 0
        for name, m in metrics.items():
            sets = [describe([r["metrics"][name]["value"] for r in rs]) for rs in results[workload]]
            m1, m2 = sets[0]["median"], sets[1]["median"]
            worse_by = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            entry["end_to_end"][name] = {"unit": m["unit"], "bound": m["bound"], "sets": sets, "worse_by": worse_by}
            within = worse_by <= m["bound"] and (name == "setup_s" or all(d["spread"] <= m["bound"] for d in sets))
            ok &= within
            print(f"{workload} {name}: medians {m1:.4g} {m2:.4g} (worse by {worse_by:+.4f}), spreads "
                  f"{sets[0]['spread']:.4f} {sets[1]['spread']:.4f}, bound {m['bound']}"
                  + ("" if within else "  OUT OF BOUND"), flush=True)

        traced = [run(workload, 1, seconds, 1)[0] for _ in range(2)]
        ok &= all(t["failed"] == 0 for t in traced)
        entry["per_layer"] = traced[0]["metrics"]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(COUNT_SUFFIXES)} for t in traced]
        entry["counts_repeat"] = counts[0] == counts[1]
        ok &= entry["counts_repeat"]
        print(f"{workload} traced runs: 2, counts repeat: {entry['counts_repeat']}", flush=True)
        doc["workloads"][workload] = entry
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
