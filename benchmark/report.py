#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Run from the root of the repository:

    python3 benchmark/report.py --seeds 1-10
    python3 benchmark/report.py --seeds 1-3 --trace 1

For every workload in BENCHMARK.json and every seed it calls
benchmark/run.py once for run_seconds, then prints per metric the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, next to the bound BENCHMARK.json gives the metric, plus
the attempted and failed run counts.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"report.py: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(workload, s, bench["run_seconds"], args.trace)
                   for s in parse_seeds(args.seeds)]
        attempted = [r["attempted"] for r in results]
        failed = [r["failed"] for r in results]
        print(f"\n{workload}: {len(results)} runs, attempted {min(attempted)}..{max(attempted)}, "
              f"failed {sum(failed)}, all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"  {name:30} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {unit}")


if __name__ == "__main__":
    main()
