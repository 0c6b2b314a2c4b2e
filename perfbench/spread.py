"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload vass-bfs --seeds 1-10 [--seconds 10]

Runs run.py once per seed, one run at a time, and prints per metric the
median and the distance between the first and third quartiles as a
share of the median (``statistics.quantiles(values, n=4)``), next to
the metric's bound from BENCHMARK.json.  Also reports whether every
run was correct, how long each took and its deterministic block, so two
sets of runs can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    all_correct = True
    for seed in seed_list(args.seeds):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
        )
        took = time.perf_counter() - started
        result = json.loads(proc.stdout.splitlines()[-1])
        all_correct = all_correct and result["correct"] and proc.returncode == 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
        det = next(ln for ln in proc.stdout.splitlines() if ln.startswith("deterministic: "))
        print(f"seed {seed}: exit {proc.returncode} correct={result['correct']}"
              f" failed={result['failed']}/{result['attempted']} took {took:.1f}s  {shown}", flush=True)
        print(f"  {det}", flush=True)
    print(f"{'metric':<16} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name, vals in values.items():
        mid = median(vals)
        q1, _, q3 = quantiles(vals, n=4)
        spread = (q3 - q1) / mid if mid else 0.0
        bound = bounds.get(name)
        print(f"{name:<16} {mid:>12.6g} {spread:>11.4f} {bound if bound is not None else '-':>6}")
    print("all correct" if all_correct else "SOME RUNS INCORRECT")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
