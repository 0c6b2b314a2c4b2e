"""Acceptance gate: nine desk-scale suites (eight seeded, one exhaustive),
one pass/fail line each.

Each test prints `acceptance N: PASS/FAIL ...` outside pytest's capture so
the line is visible in the test log, then asserts.
"""

import hashlib
import os
import time
from itertools import combinations
from random import Random

import pytest

from conftest import CERTIFIED, GOLDENS_DIR, golden_argv
from test_paper_lemmas import check_loop_lemma, drift_violation, gen_drift_case, gen_slps
from vasskit import (
    BudgetExceededError,
    Configuration,
    PlaneVector,
    REACHABLE,
    Vass,
    ZERO,
    brute_force_oracle,
    cli,
    cone_contains_zero,
    decide_capped_bfs,
    instantiate,
    run,
    slps_of,
)
from vasskit import decide, fuzzing, schemes
from vasskit.certificates import verify_certificate_file


def report(capsys, number: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"acceptance {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_acceptance_1_cone_suite(capsys):
    rng = Random(101)
    started = time.monotonic()
    violations = []
    for i in range(2000):
        cone_set = fuzzing._gen_vector_set(rng)
        for check in (fuzzing._check_lemma1, fuzzing._check_lemma2):
            reason = check(cone_set)
            if reason:
                violations.append((i, reason))
        if not fuzzing.oracle_cone_contains_zero(cone_set):
            reason = fuzzing._check_lemma3(cone_set)
            if reason:
                violations.append((i, reason))
        from vasskit import cone_contains

        if ZERO not in cone_set and not cone_contains(cone_set, fuzzing.PlaneVector(0, 1)):
            reason = fuzzing._check_lemma4(cone_set)
            if reason:
                violations.append((i, reason))
    elapsed = time.monotonic() - started
    ok = not violations and elapsed < 60
    report(
        capsys, 1,
        ok,
        f"2000 vector sets, {len(violations)} violations, {elapsed:.1f}s"
        + (f"; first: {violations[0]}" if violations else ""),
    )


def test_acceptance_2_drift_suite(capsys):
    rng = Random(102)
    violations = []
    for i in range(1000):
        reason = drift_violation(gen_drift_case(rng))
        if reason:
            violations.append((i, reason))
    report(capsys, 2, not violations, f"1000 drift tuples, {len(violations)} violations")


def test_acceptance_3_shortening_suite(capsys):
    started = time.monotonic()
    failures = []
    for target in ("lemma6", "thm5", "thm6", "thm7", "thm8", "thm9"):
        rep = fuzzing.run_target(target, 200, 103)
        failures.extend((target, f.iteration, f.violation) for f in rep.failures)
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 300
    report(
        capsys, 3,
        ok,
        f"6 operations x 200 instances, {len(failures)} violations, {elapsed:.1f}s"
        + (f"; first: {failures[0]}" if failures else ""),
    )


@pytest.mark.slow
def test_acceptance_4_norm_bound_suite(capsys):
    rng = Random(104)
    origin = Configuration(0, 0)
    violations = []
    produced = 0
    observed = 0
    while produced < 200:
        scheme, _ = gen_slps(rng, max_cycles=3, max_norm=2, max_exp=0)
        try:
            witness = schemes.slps_reach(scheme, origin, origin, budget=60_000).exponents
        except BudgetExceededError:
            continue
        if witness is None:
            continue
        produced += 1
        bound = schemes.norm_bound(scheme)
        trace = run(instantiate(scheme, witness), origin)
        peak = max(p.norm for p in trace.visited)
        observed = max(observed, peak)
        if not trace.admissible or not trace.target.is_zero():
            violations.append((produced, "witness does not run 0 -> 0"))
        elif peak > bound:
            violations.append((produced, f"visited norm {peak} exceeds bound {bound}"))
    report(
        capsys, 4,
        not violations,
        f"200 schemes with zero witnesses, {len(violations)} violations,"
        f" empirical max visited norm {observed}",
    )


def test_acceptance_5_loop_lemma_suite(capsys):
    rng = Random(105)
    violations = []
    for i in range(2000):
        word = [
            (rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 5))
        ]
        start = (rng.randint(0, 6), rng.randint(0, 6))
        m = rng.randint(0, 4)
        repeated, flanked = check_loop_lemma(word, start, m)
        if repeated != flanked:
            violations.append((i, word, start, m))
    report(capsys, 5, not violations, f"2000 loop tuples, {len(violations)} disagreements")


def test_acceptance_6_split_suite(capsys):
    rep = fuzzing.run_target("thm12", 300, 106)
    failures = [(f.iteration, f.violation) for f in rep.failures]
    report(
        capsys, 6,
        not failures,
        f"300 schemes split and compared, {len(failures)} violations"
        + (f"; first: {failures[0]}" if failures else ""),
    )


def test_acceptance_7_decider_suite(capsys):
    started = time.monotonic()
    rep = fuzzing.run_target("decider", 500, 107)
    elapsed = time.monotonic() - started
    failures = [(f.iteration, f.violation) for f in rep.failures]
    ok = not failures and elapsed < 120
    report(
        capsys, 7,
        ok,
        f"500 paired decisions, {len(failures)} disagreements, {elapsed:.1f}s"
        + (f"; first: {failures[0]}" if failures else ""),
    )


def test_acceptance_8_cli_goldens(capsys, tmp_path):
    problems = []
    names = sorted(n for n in os.listdir(GOLDENS_DIR) if n.endswith(".vas"))
    if len(names) < 20:
        problems.append(f"only {len(names)} golden instances")
    for name in names:
        argv = golden_argv(name)
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        if first != second:
            problems.append(f"{name}: output differs between runs")
        expected = os.path.join(GOLDENS_DIR, "expected", name.replace(".vas", ".out"))
        with open(expected, "r", encoding="utf-8") as fh:
            if fh.read() != first:
                problems.append(f"{name}: output differs from the bundled expectation")
    for name in CERTIFIED:
        fresh = tmp_path / (name + ".cert")
        cli.main(golden_argv(name) + ["--cert", str(fresh)])
        capsys.readouterr()
        if verify_certificate_file(str(fresh)):
            problems.append(f"{name}: freshly produced certificate fails verification")
        bundled = os.path.join(GOLDENS_DIR, "certs", name.replace(".vas", ".cert"))
        code = cli.main(["verify", bundled])
        capsys.readouterr()
        if code != 0:
            problems.append(f"{name}: bundled certificate fails cmdVerify")
    report(
        capsys, 8,
        not problems,
        f"{len(names)} goldens byte-stable, {len(CERTIFIED)} certificates verified"
        + (f"; first problem: {problems[0]}" if problems else ""),
    )


def _small_scope():
    """Every automaton with letters in {-1,0,1}^2: one state, initial and
    accepting, with at most two self-loops, or an initial state a and an
    accepting state b with one or two of their 36 edges."""
    letters = [PlaneVector(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    loops = [("a", v, "a") for v in letters]
    for k in range(3):
        for edges in combinations(loops, k):
            yield Vass(("a",), edges, frozenset("a"), frozenset("a"))
    pairs = [(p, v, q) for p in "ab" for v in letters for q in "ab"]
    for k in (1, 2):
        for edges in combinations(pairs, k):
            yield Vass(("a", "b"), edges, frozenset("a"), frozenset("b"))


# sha256 of the answers' (kind, length, explored) lines, in query order
SMALL_SCOPE_DIGEST = "b1e5afe070cb1803b742a9554716c3206d645517f0b77dac299a33abda4db7fe"


def test_acceptance_9_small_scope_decider(capsys, monkeypatch):
    # both kernel forms and brute_force_oracle on every query of the scope
    started = time.monotonic()
    points = [Configuration(x, y) for x in range(3) for y in range(3)]
    queries = [(vass, s, t) for vass in _small_scope() for s in points for t in points]
    dense = [decide_capped_bfs(vass, s, t, 12) for vass, s, t in queries]
    with monkeypatch.context() as m:
        m.setattr(decide, "GRID_BITS", 0)
        sparse = [decide_capped_bfs(vass, s, t, 12) for vass, s, t in queries]
    slow = [brute_force_oracle(vass, s, t, 12) for vass, s, t in queries]
    disagreements = [
        query for query, a, b, c in zip(queries, dense, sparse, slow)
        if a != b or (a.kind, a.length, a.explored) != (c.kind, c.length, c.explored)
    ]
    lines = "".join(f"{v.kind} {v.length} {v.explored}\n" for v in dense)
    digest = hashlib.sha256(lines.encode()).hexdigest()
    reachable = sum(v.kind == REACHABLE for v in dense)
    elapsed = time.monotonic() - started
    report(
        capsys, 9,
        not disagreements and digest == SMALL_SCOPE_DIGEST and len(queries) == 57_672,
        f"{len(queries)} queries on {len(queries) // 81} automata, {reachable} reachable,"
        f" {len(disagreements)} disagreements, digest {digest[:12]}, {elapsed:.1f}s"
        + (f"; first: {disagreements[0]}" if disagreements else ""),
    )
