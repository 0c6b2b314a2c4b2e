"""One workload in its own process: set up, run the operation set for
the stated time, and print the raw results as one JSON line.

Usage (the parent, run.py, builds this call):
    python3 perfbench/child.py '<json config>'

The operations run one after another in this process, a closed loop
with one client.  Every operation is timed on its own; the conversion
of its result to plain data happens after the clock stops.  Between
operations, outside their times, a fixed calibration loop measures the
host's current speed (see ``calibrate``).  Set-up (import, input
generation, file writes) is timed three times first and again before
every untraced pass.  With tracing on, the first half of the time runs
untraced and the second half traced, so the difference is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict
from random import Random
from statistics import fmean
from time import perf_counter

import tracer
import workloads

INITIAL_SETUPS = 3
MODULES = (
    "errors", "core", "cones", "decide", "schemes", "shortening",
    "instances", "certificates", "fuzzing", "cli",
)


def import_vasskit() -> dict:
    """A fresh import of the package: earlier copies are dropped first."""
    for name in [n for n in sys.modules if n == "vasskit" or n.startswith("vasskit.")]:
        del sys.modules[name]
    importlib.import_module("vasskit")
    return {name: importlib.import_module(f"vasskit.{name}") for name in MODULES}


# ---------------------------------------------------------------------------
# operations: (call, to_answer) pairs; call takes no arguments


def _verdict_answer(v):
    return {
        "kind": v.kind,
        "length": v.length,
        "explored": v.explored,
        "word": None if v.witness is None else [[w.x, w.y] for w in v.witness],
        "states": None if v.states is None else list(v.states),
    }


def vass_bfs_ops(vk, specs, workdir, counts):
    decide = vk["decide"]
    ops = []
    for spec in specs:
        vass, s, t = workloads.vass_query(vk["core"], spec)
        cap = spec["cap"]
        ops.append((lambda vass=vass, s=s, t=t, cap=cap: decide.decide_capped_bfs(vass, s, t, cap),
                    _verdict_answer))
    return ops


def slps_decide_ops(vk, specs, workdir, counts):
    core, schemes = vk["core"], vk["schemes"]
    V, C = core.PlaneVector, core.Configuration

    def answer(r):
        return {"reachable": r.reachable, "exponents": None if r.exponents is None else list(r.exponents)}

    ops = []
    for spec in specs:
        scheme = core.slps_of([V(*a) for a in spec["alphas"]], [V(*b) for b in spec["betas"]])
        s, t, budget = C(*spec["source"]), C(*spec["target"]), spec["budget"]
        ops.append((
            lambda scheme=scheme, s=s, t=t, budget=budget: schemes.slps_reach(scheme, s, t, budget=budget),
            answer,
        ))
    return ops


def cli_certify_ops(vk, items, workdir, counts):
    cli = vk["cli"]

    def command(argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        return call

    def answer(result):
        code, out, err = result
        ans = {"code": code, "out": out}
        if code not in (0, 1):
            ans["err"] = err.strip().splitlines()[-1:] if err else []
        return ans

    ops = []
    for item in items:
        if item["kind"] == "verify":
            argv = ["verify", os.path.join(workdir, item["name"])]
        else:
            path = os.path.join(workdir, item["name"])
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(item["text"])
            argv = [item["kind"], path, *item["args"]]
            if item["cert"]:
                argv += ["--cert", path[:-4] + ".cert"]
        ops.append((command(argv), answer))
    return ops


def fuzz_plan(vk, seed, size) -> list[dict]:
    """thm12 cases stratified by cycle count (its cost grows about
    tenfold per cycle: K = 3 cases take ~0.8 s each and would dominate
    the spread) and, for K = 2, by the signs of the cycles' effects,
    plus every other target for a fixed number of rounds."""
    fuzzing = vk["fuzzing"]
    rng = workloads.fuzz_rng(seed)
    want = dict(size["fuzz_thm12_k2"], small=size["fuzz_thm12_small"])
    plan = []
    while any(want.values()):
        s = rng.randrange(1 << 30)
        case = fuzzing.TARGETS["thm12"].generate(Random(s))
        if case.K <= 1:
            stratum = "small"
        elif case.K == 2:
            effects = [(sum(v.x for v in b), sum(v.y for v in b)) for b in case.betas]
            stratum = workloads.cycle_pair_class(effects)
        else:
            continue
        if want.get(stratum):
            want[stratum] -= 1
            plan.append({"target": "thm12", "iters": 1, "seed": s})
    for name, iters in workloads.FUZZ_ITERS.items():
        for _ in range(size["fuzz_rounds"]):
            plan.append({"target": name, "iters": iters, "seed": rng.randrange(1 << 30)})
    rng.shuffle(plan)
    return plan


def fuzz_oracles_ops(vk, plan, workdir, counts):
    """Each answer carries the number of target checks the operation
    made, counted outside the fuzz report."""
    fuzzing = vk["fuzzing"]

    def op(item):
        before = []

        def call():
            before[:] = [counts["fuzzing.check.calls"]]
            return fuzzing.run_target(item["target"], item["iters"], item["seed"])

        def answer(report):
            return {**item, "checks": counts["fuzzing.check.calls"] - before[0],
                    "failures": len(report.failures)}

        return call, answer

    return [op(item) for item in plan]


MAKE_OPS = {
    "vass-bfs": vass_bfs_ops,
    "slps-decide": slps_decide_ops,
    "cli-certify": cli_certify_ops,
    "fuzz-oracles": fuzz_oracles_ops,
}


def setup(cfg, counts):
    """Import, generate the seeded inputs and write the files: the
    set-up time a later change must not quietly grow."""
    start = perf_counter()
    vk = import_vasskit()
    size = workloads.SIZES[cfg["size"]]
    if cfg["workload"] == "fuzz-oracles":
        inputs = fuzz_plan(vk, cfg["seed"], size)
    else:
        inputs = workloads.GENERATORS[cfg["workload"]](cfg["seed"], size)
    ops = MAKE_OPS[cfg["workload"]](vk, inputs, cfg["workdir"], counts)
    elapsed = perf_counter() - start
    tracer.install_counters(counts, vk)
    return elapsed, vk, ops


def digest(answers) -> str:
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python search (dict, tuples, integer
    arithmetic, like vasskit's inner loops).  On a shared virtual machine
    a process's speed drifts, by up to 1.85x over tens of seconds; this
    loop drifts with it, so a
    time multiplied by ``CALIBRATION_REF_S / calibrate()`` measured
    alongside it is steady.  The garbage collector is off meanwhile, so
    the loop's time does not depend on how many objects the workload
    keeps alive."""
    gc.disable()
    start = perf_counter()
    seen = {(0, 0): 0}
    queue = [(0, 0)]
    for i in range(2500):
        x, y = queue[i]
        for dx, dy in ((1, 2), (2, -1), (-1, 1)):
            point = (x + dx, y + dy)
            if point not in seen:
                seen[point] = i
                queue.append(point)
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


# the calibration loop's time on the reference host (a 2-vCPU Intel
# Xeon virtual machine); reported times are in its seconds
CALIBRATION_REF_S = 0.0025
CALIBRATE_EVERY_S = 0.025
SPEED_WINDOW_S = 0.5


def _budget_answer(_):
    return {"budget": True}


def _error_answer(exc):
    return {"error": f"{type(exc).__name__}: {exc}"}


def local_speeds(op_marks, cal_marks, window: float) -> list[float]:
    """For each operation (start, end), the mean calibration time of the
    samples (at, seconds) taken within ``window`` seconds of its
    midpoint, or of the two nearest samples when fewer are that close.
    Both lists are in time order."""
    ats = [at for at, _ in cal_marks]
    prefix = [0.0]
    for _, took in cal_marks:
        prefix.append(prefix[-1] + took)
    out = []
    for start, end in op_marks:
        mid = (start + end) / 2
        lo, hi = bisect_left(ats, mid - window), bisect_right(ats, mid + window)
        if hi - lo < 2:
            at = bisect_left(ats, mid)
            lo, hi = max(0, at - 1), min(len(ats), at + 1)
        out.append((prefix[hi] - prefix[lo]) / (hi - lo))
    return out


def run_passes(next_pass, seconds: float):
    """Repeat the operation set while another pass still fits in
    ``seconds`` (at least once); ``next_pass()`` gives the operations,
    the vasskit errors module and the counters for each pass.  The
    calibration loop runs before and after each pass and between
    operations every CALIBRATE_EVERY_S, outside the operation times.
    Returns per pass the op times, each op's local calibration time (see
    ``local_speeds``) and the counters; and the answers of the first
    pass and the answer digest of every pass.  An operation that raises
    a vasskit error is answered by the error."""
    passes, speeds, counted, digests, first = [], [], [], [], None
    started = perf_counter()

    def calibrate_now():
        at = perf_counter()
        took = calibrate()
        cal_marks.append((at + took / 2, took))
        return at + took

    while True:
        ops, errors, counts = next_pass()
        gc.collect()
        counts.clear()
        times, results, op_marks, cal_marks = [], [], [], []
        last = calibrate_now()
        for call, to_answer in ops:
            t0 = perf_counter()
            try:
                raw = call()
            except errors.BudgetExceededError:
                raw, to_answer = None, _budget_answer
            except errors.VasskitError as exc:
                raw, to_answer = exc, _error_answer
            t1 = perf_counter()
            times.append(t1 - t0)
            op_marks.append((t0, t1))
            results.append(to_answer(raw))
            if perf_counter() - last > CALIBRATE_EVERY_S:
                last = calibrate_now()
        calibrate_now()
        passes.append(times)
        speeds.append(local_speeds(op_marks, cal_marks, SPEED_WINDOW_S))
        counted.append(dict(counts))
        digests.append(digest(results))
        if first is None:
            first = results
        elapsed = perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, speeds, counted, first, digests


def scaled_wall(passes, speeds) -> float:
    """Mean time of a pass, each operation scaled by its local speed."""
    return fmean(sum(t * CALIBRATION_REF_S / c for t, c in zip(times, cs))
                 for times, cs in zip(passes, speeds))


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, cfg["src"])
    setup_times, setup_speeds, latest = [], [], {}

    def fresh_setup():
        # set up again before every untraced pass, so the set-up samples
        # spread over the run like the passes do
        calibration = [calibrate(), calibrate()]
        counts = defaultdict(int)
        elapsed, latest["vk"], latest["ops"] = setup(cfg, counts)
        calibration += [calibrate(), calibrate()]
        latest["counts"] = counts
        setup_times.append(elapsed)
        setup_speeds.append(fmean(calibration))
        return latest["ops"], latest["vk"]["errors"], counts

    for _ in range(INITIAL_SETUPS):
        fresh_setup()
    core_file = latest["vk"]["core"].__file__
    if not core_file.startswith(cfg["src"]):
        print(f"vasskit imported from {core_file}, not {cfg['src']}", file=sys.stderr)
        return 2
    seconds = cfg["seconds"]
    result = {"setup_s": setup_times, "setup_speed_s": setup_speeds,
              "calibration_ref_s": CALIBRATION_REF_S}
    if not cfg["trace"]:
        result["passes"], result["speeds"], counted, answers, digests = run_passes(fresh_setup, seconds)
    else:
        untraced, speeds, counted, answers, digests = run_passes(fresh_setup, seconds / 2)
        vk, counts, tr = latest["vk"], latest["counts"], tracer.Tracer()
        tracer.install(tr, vk)
        traced_ops = [(tr.wrap("op", call), to_answer) for call, to_answer in latest["ops"]]
        traced, traced_speeds, traced_counted, _, traced_digests = run_passes(
            lambda: (traced_ops, vk["errors"], counts), seconds / 2)
        digests += traced_digests
        counted += traced_counted
        scale = CALIBRATION_REF_S / fmean(c for cs in traced_speeds for c in cs)
        overhead = scaled_wall(traced, traced_speeds) - scaled_wall(untraced, speeds)
        result["passes"], result["speeds"] = untraced, speeds
        result["traced_passes"] = traced
        result["per_layer"] = tracer.per_layer(tr.stats, tr.counts, len(traced), overhead, scale)
        result["spans"] = tr.spans
        result["spans_dropped"] = tr.dropped
    result["answers"] = answers
    result["answer_digest"] = digests[0]
    result["counts"] = counted[0]
    result["answers_stable"] = len(set(digests)) == 1 and all(c == counted[0] for c in counted)
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
