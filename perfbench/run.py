"""vasskit benchmark: seeded workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload vass-bfs --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Each workload runs in a child process of its own (child.py), one at a
time.  This process then checks every answer with oracle.py, outside
any timed region, and prints the metrics by name with their units.
The last line of output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics, or with ``--trace 1`` the per-layer ones
(from spans around calls into each vasskit module).  A wrong answer
makes ``correct`` false and the exit code 1.

Results, with the deterministic block kept apart from the timings, go
to perfbench/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from statistics import fmean, median, quantiles

import oracle
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mib", "MiB"),
]


def run_child(workload, seed, seconds, trace, size, workdir) -> dict:
    cfg = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "workdir": workdir, "src": SRC,
    }
    env = {k: v for k, v in os.environ.items() if k != "VASSKIT_INJECT_FAILURE"}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, env=env, timeout=CHILD_TIMEOUT_S, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_answers(workload, seed, size, answers) -> list:
    """One outcome per operation: None (right), "budget", "error" or a
    reason starting with "wrong"."""
    if workload == "fuzz-oracles":
        inputs, check = answers, lambda _, a: oracle.check_fuzz(a)
    else:
        inputs = workloads.GENERATORS[workload](seed, workloads.SIZES[size])
        check = {"cli-certify": oracle.check_cli, "slps-decide": oracle.check_slps,
                 "vass-bfs": check_vass_bfs}[workload]
    return [oracle.failure(a) or check(spec, a) for spec, a in zip(inputs, answers)]


def check_vass_bfs(spec, answer):
    reason = oracle.check_vass(spec, answer)
    if reason is not None:
        return reason
    from vasskit import core, decide  # the oracle this workload is compared with

    vass, source, target = workloads.vass_query(core, spec)
    return oracle.compare_with_brute_force(decide, vass, source, target, spec["cap"], answer)


def deterministic_block(raw, outcomes) -> dict:
    """Fields that a second run of the same code and seed reproduces
    exactly; timings live elsewhere.  The counts are per pass, taken by
    plain counting wrappers that every run installs."""
    counts = raw["counts"]
    return {
        "answer_digest": raw["answer_digest"],
        "operations": len(raw["answers"]),
        "budget_outs": sum(o == oracle.BUDGET for o in outcomes),
        "decide.bfs.explored": counts.get("decide.bfs.explored", 0),
        "schemes.reach.budget_outs": counts.get("schemes.reach.budget_outs", 0),
        "fuzzing.check.calls": counts.get("fuzzing.check.calls", 0),
    }


def end_to_end(raw, attempted, failed) -> tuple[dict, dict]:
    """Times are scaled to the reference host's speed: each operation by
    the calibration loop's mean time around it, each set-up by the
    loop's time just before and after it (see child.calibrate)."""
    ref = raw["calibration_ref_s"]
    passes = [[t * ref / c for t, c in zip(times, cs)] for times, cs in zip(raw["passes"], raw["speeds"])]
    samples = [t for times in passes for t in times]
    deciles = quantiles(samples, n=10, method="inclusive")
    metrics = {
        "setup_s": median(t * ref / speed for t, speed in zip(raw["setup_s"], raw["setup_speed_s"])),
        "wall_s": median(sum(times) for times in passes),
        "op_p50_ms": median(samples) * 1000,
        "op_p90_ms": deciles[8] * 1000,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mib": raw["peak_rss_kib"] / 1024,
    }
    counts = {
        "passes": len(passes),
        "samples": len(samples),
        "beyond_p90": sum(t * 1000 > metrics["op_p90_ms"] for t in samples),
        "raw_setup_s": median(raw["setup_s"]),
        "raw_wall_s": median(sum(times) for times in raw["passes"]),
        "host_speed": ref / fmean(c for cs in raw["speeds"] for c in cs),
    }
    return metrics, counts


def run_workload(workload, seed, seconds, trace, size) -> tuple[dict, bool]:
    workdir = os.path.join(HERE, "work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        raw = run_child(workload, seed, seconds, trace, size, workdir)
        answers = raw["answers"]
        outcomes = check_answers(workload, seed, size, answers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wrong = [(i, o) for i, o in enumerate(outcomes) if o not in (None, oracle.BUDGET, oracle.ERROR)]
    if not raw["answers_stable"]:
        wrong.append((None, "wrong: answers differ between passes"))
    attempted = len(answers)
    failed = sum(o is not None for o in outcomes)
    metrics, counts = end_to_end(raw, attempted, failed)
    det = deterministic_block(raw, outcomes)

    print(f"workload {workload} seed {seed}: {attempted} operations x {counts['passes']} passes"
          f" = {counts['samples']} samples, {counts['beyond_p90']} beyond p90")
    print(f"  host speed {counts['host_speed']:.3f} x reference; unscaled set-up"
          f" {counts['raw_setup_s']:.6g} s, pass {counts['raw_wall_s']:.6g} s")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_frac':<14} {failed / attempted:.6g} ratio"
          f" ({det['budget_outs']} out of budget,"
          f" {sum(o == oracle.ERROR for o in outcomes)} errors, {len(wrong)} wrong)")
    for index, reason in wrong[:10]:
        print(f"  operation {index}: {reason}")
    if trace:
        for name, unit in tracer.PER_LAYER:
            print(f"  {name:<34} {raw['per_layer'][name]:.6g} {unit}")
    print("deterministic: " + json.dumps(det, sort_keys=True))

    shown = raw["per_layer"] if trace else metrics
    units = dict(tracer.PER_LAYER if trace else END_TO_END)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "deterministic": det,
        "timing": {"end_to_end": metrics, "counts": counts, "setup_s": raw["setup_s"],
                   "setup_speed_s": raw["setup_speed_s"],
                   "pass_speed_s": [fmean(cs) for cs in raw["speeds"]],
                   "pass_wall_s": [sum(p) for p in raw["passes"]]},
    }
    if trace:
        record["per_layer"] = raw["per_layer"]
        record["spans"] = {"fields": ["id", "name", "start", "end", "parent", "op"],
                           "kept": raw["spans"], "dropped": raw["spans_dropped"]}
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh)
    return result, not wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="operation-set size; tiny is for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vasskit", "__init__.py")):
        print(f"error: no vasskit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    all_right = True
    for name in names:
        try:
            result, right = run_workload(name, args.seed, args.seconds, args.trace, args.size)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        all_right = all_right and right
        print(json.dumps(result))
    return 0 if all_right else 1


if __name__ == "__main__":
    raise SystemExit(main())
