"""Self-test of the benchmark harness at the tiny size (about ten seconds).

    python3 perfbench/selftest.py

Checks, for every workload, that a run prints the result object with
exactly the keys correct, attempted, failed and metrics, and every
metric with its unit; that a second run, and the traced run, reproduce
the deterministic block; and that the traced run reports every
per-layer metric.  Then checks that the answer checks
catch deliberately wrong answers, and that the benchmark refuses to run
without the vasskit sources.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import oracle
import run
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def bench(*args, cwd=run.ROOT, script=None):
    proc = subprocess.run(
        [sys.executable, script or os.path.join(HERE, "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_run(workload: str, trace: int) -> str:
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                        "--trace", str(trace), "--size", "tiny")
    result = json.loads(lines[-1])
    det = next(ln for ln in lines if ln.startswith("deterministic: "))
    names = [n for n, _ in (tracer.PER_LAYER if trace else run.END_TO_END)]
    assert code == 0, f"{workload}: exit {code}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and isinstance(result["attempted"], int)
    assert list(result["metrics"]) == names, list(result["metrics"])
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    return det


def check_determinism():
    for workload in workloads.WORKLOADS:
        first = check_run(workload, 0)
        again = check_run(workload, 0)
        assert first == again, f"{workload}: deterministic block differs\n{first}\n{again}"
        traced = check_run(workload, 1)
        assert traced == first, f"{workload}: traced run's deterministic block differs\n{first}\n{traced}"
        print(f"ok: {workload} runs, reproduces its deterministic block, traces")


def check_oracles_catch_wrong_answers():
    size = workloads.SIZES["tiny"]
    spec = next(s for s in workloads.gen_vass_bfs(1, size) if s["expect"] == "Reachable")
    assert oracle.check_vass(spec, {"kind": "UnreachableWithinCap", "length": None}).startswith("wrong")
    detour = {"kind": "Reachable", "length": 1, "word": [[0, 2]], "states": ["p", "p"]}
    assert oracle.check_vass(spec, detour).startswith("wrong")

    # seg (0,0) cyc (1,0) seg (0,0): (0,0) -> (3,0) in three turns
    scheme = {"alphas": [[0, 0], [0, 0]], "betas": [[1, 0]], "source": [0, 0], "target": [3, 0]}
    assert oracle.check_slps(scheme, {"reachable": True, "exponents": [3]}) is None
    assert oracle.check_slps(scheme, {"reachable": True, "exponents": [2]}).startswith("wrong")
    assert oracle.check_slps(scheme, {"reachable": False, "exponents": None}).startswith("wrong")
    assert oracle.failure({"budget": True}) == oracle.BUDGET

    items = workloads.gen_cli_certify(1, size)
    shorten = next(it for it in items if it["kind"] == "shorten" and it["spec"].get("case") is None)
    p = shorten["spec"]["path"]
    line = (f"shortening: scheme={shorten['name']} original={','.join(map(str, p))}"
            f" reduced={','.join(map(str, p))} delta=0,0 source={','.join(map(str, shorten['spec']['source']))}")
    assert oracle.check_cli(shorten, {"code": 0, "out": line + "\n"}).startswith("wrong")
    flatten = next(it for it in items if it["kind"] == "flatten")
    assert oracle.check_cli(flatten, {"code": 0, "out": "members: 1\n"}).startswith("wrong")
    verify = next(it for it in items if it["kind"] == "verify")
    assert oracle.check_cli(verify, {"code": 1, "out": "verify: bad\n"}).startswith("wrong")
    assert oracle.check_cli(verify, {"code": 3, "out": ""}) == oracle.BUDGET
    assert oracle.check_fuzz({"iters": 2, "checks": 2, "failures": 1}).startswith("wrong")
    assert oracle.check_fuzz({"iters": 2, "checks": 1, "failures": 0}).startswith("wrong")
    print("ok: the answer checks reject wrong answers")


def check_refuses_without_sources():
    bare = os.path.join(HERE, "work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        code, lines = bench("--workload", "vass-bfs", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=bare, script=os.path.join("perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not any(ln.startswith("{") for ln in lines), (code, lines)
    print("ok: refuses to run without the vasskit sources")


def main() -> int:
    check_oracles_catch_wrong_answers()
    check_refuses_without_sources()
    check_determinism()
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
