"""Command-line interface: exit codes, output stability, verification."""

import dataclasses
import io
import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

from conftest import GOLDENS_DIR, golden_argv, random_lps, reference_split, serialize_instance
from vasskit import Instance, Lps, PlaneVector, ZERO, certificates, cli, effect, fuzzing, schemes, slps_of
from vasskit.core import MAX_PATH_LENGTH

LOOP_TEXT = "vass\nstates a\ninit a\nfinal a\nedge a a -1 1\nquery 2 0 -> 0 2\n"


def run_cli(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def run_cli_err(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_exit_codes(tmp_path, capsys):
    f = tmp_path / "loop.vas"
    f.write_text(LOOP_TEXT)
    code, out = run_cli(["decide", str(f), "--cap", "10"], capsys)
    assert code == 0
    assert out.startswith("verdict: kind=Reachable cap=10 length=2")
    f.write_text(LOOP_TEXT.replace("query 2 0 -> 0 2", "query 0 0 -> 1 0"))
    code, out = run_cli(["decide", str(f), "--cap", "10"], capsys)
    assert code == 1


def test_decide_refutes_a_lattice_query_at_the_default_cap(tmp_path, capsys, monkeypatch):
    # every reachable point has both coordinates divisible by 3; the whole
    # capped region holds millions of nodes
    f = tmp_path / "threes.vas"
    f.write_text(
        "vass\nstates p q\ninit p\nfinal q\nedge p p 3 0\nedge p p 0 3\nedge p q 0 0\n"
        "query 0 0 -> 1 1\n"
    )
    cert = tmp_path / "threes.cert"
    started = time.monotonic()
    code, out = run_cli(["decide", str(f), "--cert", str(cert)], capsys)
    assert time.monotonic() - started < 0.5
    assert (code, out) == (1, "verdict: kind=UnreachableWithinCap cap=49152\n")
    assert cert.read_text().splitlines()[1] == (
        "verdict: kind=UnreachableWithinCap cap=49152 refute=lattice basis=3,0,3 phi=p:0,0;q:0,0"
    )

    def refuse(*args, **kwargs):
        raise AssertionError("verify re-searched a refuted negative")

    monkeypatch.setattr(certificates, "brute_force_oracle", refuse)
    assert run_cli(["verify", str(cert)], capsys) == (0, "verify: ok\n")


def test_decide_missing_file(capsys):
    assert cli.main(["decide", "/nonexistent/x.vas"]) == 2
    capsys.readouterr()


def test_decide_trace(tmp_path, capsys):
    f = tmp_path / "loop.vas"
    f.write_text(LOOP_TEXT)
    code, out = run_cli(["decide", str(f), "--cap", "10", "--trace"], capsys)
    assert code == 0
    assert "trace: (2,0)" in out and "trace: (0,2)" in out


def test_decide_length_bound(tmp_path, capsys):
    f = tmp_path / "loop.vas"
    f.write_text(LOOP_TEXT)
    code, _ = run_cli(["decide", str(f), "--length-bound", "1"], capsys)
    assert code == 1
    code, _ = run_cli(["decide", str(f), "--length-bound", "2"], capsys)
    assert code == 0


def test_decide_length_bound_certificates(tmp_path, capsys):
    f = tmp_path / "step.vas"
    f.write_text("vass\nstates a\ninit a\nfinal a\nedge a a 1 0\nquery 5 5 -> 6 5\n")
    cert = tmp_path / "step.cert"
    for bound, want_code, want_out, tampered in [
        ("1", 0, "verdict: kind=Reachable cap=6 bound=1 length=1 word=1,0 states=a,a\n", "0"),
        ("0", 1, "verdict: kind=UnreachableWithinCap cap=6 bound=0\n", "1"),
    ]:
        code, out = run_cli(["decide", str(f), "--length-bound", bound, "--cert", str(cert)], capsys)
        assert (code, out) == (want_code, want_out)
        assert run_cli(["verify", str(cert)], capsys) == (0, "verify: ok\n")
        cert.write_text(cert.read_text().replace(f"bound={bound}", f"bound={tampered}"))
        assert run_cli(["verify", str(cert)], capsys)[0] == 1
    code, out = run_cli(["decide", str(f), "--length-bound", "1", "--cap", "5"], capsys)
    assert (code, out) == (2, "")
    code, out = run_cli(["decide", str(f), "--length-bound", "3", "--cap", "7"], capsys)
    assert out.startswith("verdict: kind=Reachable cap=7 bound=3 length=1 ")


def test_slps_decide(tmp_path, capsys):
    f = tmp_path / "up.vas"
    f.write_text("slps\nseg 0 0\ncyc 0 1\nseg 0 0\nquery 0 0 -> 0 3\n")
    code, out = run_cli(["slps-decide", str(f)], capsys)
    assert code == 0
    assert "result: reachable=true member=0 exponents=3 maxnorm=3" in out
    f.write_text("slps\nseg 0 0\ncyc 0 1\nseg 0 0\nquery 0 0 -> 1 0\n")
    code, out = run_cli(["slps-decide", str(f)], capsys)
    assert code == 1
    assert "kind=Unreachable" in out


def test_shorten_and_verify(tmp_path, capsys):
    f = tmp_path / "far.vas"
    f.write_text(
        "slps\nseg 0 0\ncyc 0 1\nseg 0 0\ncyc 0 -1\nseg 0 0\n"
        "path 60 60\nquery 6 6 -> 6 6\n"
    )
    cert = tmp_path / "far.cert"
    code, out = run_cli(["shorten", str(f), "--op", "far", "--cert", str(cert)], capsys)
    assert code == 0
    assert "shortening:" in out
    code, out = run_cli(["verify", str(cert)], capsys)
    assert code == 0 and out == "verify: ok\n"
    tampered = cert.read_text().replace("delta=0,0", "delta=0,1")
    cert.write_text(tampered)
    code, out = run_cli(["verify", str(cert)], capsys)
    assert code == 1
    cert.write_text(tampered.replace("delta=0,1", "delta=1"))
    assert run_cli_err(["verify", str(cert)], capsys) == (
        2, "", "error: line 2: expected an x,y pair, got '1'\n"
    )
    assert run_cli_err(["shorten", str(f), "--op", "cut", "--direction", "1"], capsys) == (
        2, "", "error: expected an x,y pair, got '1'\n"
    )


def test_shorten_count_below_one_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "two.vas"
    f.write_text(
        "slps\nseg 0 0\ncyc 0 1\nseg 0 0\ncyc 1 0\nseg 0 0\npath 0 5\nquery 6 6 -> 6 6\n"
    )
    away = os.path.join(GOLDENS_DIR, "g18-shorten-away.vas")
    far = tmp_path / "far.vas"  # 30 single (0,1) then 30 single (0,-1) repetitions
    far.write_text(
        "slps\n" + "seg 0 0\ncyc 0 1\n" * 30 + "seg 0 0\ncyc 0 -1\n" * 30
        + "seg 0 0\npath " + " ".join(["1"] * 60) + "\nquery 6 6 -> 6 6\n"
    )
    climb = tmp_path / "climb.vas"  # 30 vertical cycles climbing a corridor
    climb.write_text(
        "slps\n" + "seg 0 1\ncyc 0 1\n" * 30
        + "seg 0 1\npath " + " ".join(["5"] * 24 + ["4"] * 6) + "\nquery 3 5 -> 3 180\n"
    )
    for argv, message in [
        (["shorten", str(f), "--op", "cut", "--direction", "0,1", "--count", "0"],
         "count must be at least 1, got 0"),
        (["shorten", str(f), "--op", "cut", "--direction", "0,1", "--count", "-1"],
         "count must be at least 1, got -1"),
        (["shorten", away, "--op", "away-both", "--count", "0"],
         "count must be at least 1, got 0"),
        # a cycle cap below the cycle count is an input error, not a defect
        (["shorten", str(far), "--op", "far", "--cycle-cap", "0"],
         "scheme has 60 cycles, more than the stated bound 0"),
        (["shorten", str(climb), "--op", "away-other", "--corridor", "6", "--cycle-cap", "1"],
         "scheme has 30 cycles, more than the stated bound 1"),
    ]:
        assert run_cli_err(argv, capsys) == (2, "", f"error: {message}\n")


def test_path_over_the_length_limit_exits_3(tmp_path, capsys):
    huge = 10**19
    f = tmp_path / "far.vas"
    f.write_text(
        "slps\nseg 0 0\ncyc 0 1\nseg 0 0\ncyc 0 -1\nseg 0 0\n"
        f"path {huge} 60\nquery 6 6 -> 6 6\n"
    )
    assert run_cli_err(["shorten", str(f), "--op", "far"], capsys) == (
        3, "", f"error: path of {huge + 63} letters exceeds the limit of {MAX_PATH_LENGTH}\n"
    )
    # verify reads a result's corners, so its length is no limit there
    cert = tmp_path / "far.cert"
    cert.write_text(f"instance: far.vas\nresult: reachable=true member=0 exponents={huge},0 maxnorm=0\n")
    assert run_cli_err(["verify", str(cert)], capsys) == (
        1, "verify: line 2: stated exponents are not a valid witness\n", ""
    )


def test_shorten_close_away_narrower_than_its_cycle_exits_2(tmp_path, capsys):
    # corridor // gamma is 0: no member fits, so nothing may be certified
    f = tmp_path / "narrow.vas"
    f.write_text("slps\nseg 0 0\ncyc 0 2\nseg 0 0\npath 10\nquery 0 1 -> 0 21\n")
    cert = tmp_path / "narrow.cert"
    argv = ["shorten", str(f), "--op", "close-away", "--corridor", "1", "--cert", str(cert)]
    assert run_cli_err(argv, capsys) == (
        2, "", "error: corridor 1 is narrower than the vertical cycle's height gamma = 2\n"
    )
    assert not cert.exists()


def test_flatten(tmp_path, capsys):
    f = tmp_path / "l.vas"
    f.write_text("lps\nseg 1,0\ncyc 1,1\nseg\n")
    code, out = run_cli(["flatten", str(f)], capsys)
    assert code == 0
    assert out.startswith("members: 3\n")
    assert out.count("# member profile=") == 3


def _seeded_general_scheme(rng: Random, k: int) -> Lps:
    """A general scheme with K = k: segments of 0-3 letters, which may be
    empty, and cycles of 1-3 letters, a quarter of them of zero effect;
    letters in [-3, 3]^2."""

    def letter():
        return PlaneVector(rng.randint(-3, 3), rng.randint(-3, 3))

    def cycle():
        word = [letter() for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.25:  # close it with the negated rest when that is a letter
            rest = effect(word[:-1])
            word[-1] = -rest if rest.norm <= 3 else ZERO
        return tuple(word)

    alphas = tuple(tuple(letter() for _ in range(rng.randint(0, 3))) for _ in range(k + 1))
    return Lps(alphas, tuple(cycle() for _ in range(k)))


def test_flatten_writes_each_reference_member(tmp_path, capsys):
    rng = Random(31)
    schemes_ = [Lps(((),), ()), random_lps(Random(29), 5)]  # K = 0 with an empty segment first
    schemes_ += [_seeded_general_scheme(rng, k) for k in [6] * 10 + list(range(6)) * 50]
    shapes = {"zero-effect cycle": 0, "multi-letter cycle": 0, "empty segment": 0}
    f = tmp_path / "general.vas"
    for scheme in schemes_:
        shapes["zero-effect cycle"] += any(effect(b).is_zero() for b in scheme.betas)
        shapes["multi-letter cycle"] += any(len(b) > 1 for b in scheme.betas)
        shapes["empty segment"] += any(not a for a in scheme.alphas)
        f.write_text(serialize_instance(Instance(kind="lps", scheme=scheme)))
        members = reference_split(scheme)
        expected = f"members: {len(members)}\n" + "".join(
            "# member profile=" + ",".join(map(str, m.profile)) + "\n"
            + serialize_instance(Instance(kind="slps", scheme=m.scheme))
            for m in members
        )
        assert run_cli(["flatten", str(f)], capsys) == (0, expected), scheme
    assert len(schemes_) == 312 and min(shapes.values()) >= 100, shapes
    f.write_text("lps\nseg\n")
    assert run_cli(["flatten", str(f)], capsys) == (
        0, "members: 1\n# member profile=\nslps\nseg 0 0\n"
    )


def test_flatten_into_a_closed_pipe_exits_141_quietly(tmp_path):
    f = tmp_path / "eight.vas"
    f.write_text("lps\n" + "seg 1,0\ncyc 0,1 1,-1\n" * 8 + "seg 0,0\n")
    # the child imports the same sources as this test, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "vasskit.cli", "flatten", str(f)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
    )
    # 3^8 members are some MB, far more than a pipe holds, so the writer is cut off
    assert proc.stdout.readline() == b"members: 6561\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == cli.EXIT_CLOSED_OUTPUT == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
    missing = subprocess.run(
        [sys.executable, "-m", "vasskit.cli", "flatten", str(tmp_path / "missing.vas")],
        capture_output=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert missing.returncode == 2 and missing.stderr.startswith(b"error: [Errno 2]")


def test_flatten_over_the_split_limit_exits_3(tmp_path, capsys):
    f = tmp_path / "eleven.vas"
    f.write_text("lps\n" + "seg 1,0\ncyc 0,1\n" * 11 + "seg 0,0\n")
    assert run_cli_err(["flatten", str(f)], capsys) == (
        3, "", "error: splitting 11 cycles makes 177147 simple schemes,"
        " more than the limit of 59049\n"
    )


def test_fuzz_clean_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(["fuzz", "lemma1", "--iters", "30", "--seed", "5"], capsys)
    assert code == 0
    assert out == "fuzz: target=lemma1 iters=30 seed=5 failures=0\n"


def test_fuzz_iteration_count_below_one_is_an_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for iters in ("0", "-5"):
        assert run_cli_err(["fuzz", "lemma1", "--iters", iters, "--seed", "1"], capsys) == (
            2, "", f"error: iteration count must be at least 1, got {iters}\n"
        )


def test_fuzz_injection_hook(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    injected = dataclasses.replace(fuzzing.TARGETS["lemma1"], check=lambda case: "injected failure")
    monkeypatch.setitem(fuzzing.TARGETS, "lemma1", injected)
    repro = tmp_path / "repro.txt"
    code, out = run_cli(
        ["fuzz", "lemma1", "--iters", "5", "--seed", "5", "--repro", str(repro)], capsys
    )
    assert code == 1
    assert "injected failure" in out
    assert repro.exists() and "minimized:" in repro.read_text()


INJECT_DECIDER_FAILURE = """
import dataclasses, sys
from vasskit import cli, fuzzing
fuzzing.TARGETS["decider"] = dataclasses.replace(
    fuzzing.TARGETS["decider"], check=lambda case: "injected failure"
)
sys.exit(cli.main(sys.argv[1:]))
"""


def test_fuzz_repro_file_is_byte_identical_across_hash_seeds(tmp_path):
    # a decider case holds its initial and accepting states as frozensets
    # of names, whose iteration order follows PYTHONHASHSEED
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    repros = []
    for hash_seed in ("1", "2"):
        repro = tmp_path / f"repro-{hash_seed}.txt"
        proc = subprocess.run(
            [
                sys.executable, "-c", INJECT_DECIDER_FAILURE,
                "fuzz", "decider", "--iters", "30", "--seed", "1", "--repro", str(repro),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 1 and "injected failure" in proc.stdout
        repros.append(repro.read_bytes())
    assert repros[0] == repros[1]
    assert b"case: (Vass(" in repros[0] and b"initial=frozenset({" in repros[0]


def test_fuzz_thm10_generates_each_case_once(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []

    def generate(rng):
        calls.append(rng)
        return slps_of([ZERO, ZERO], [PlaneVector(0, 1)])

    stub = dataclasses.replace(fuzzing.TARGETS["thm10"], generate=generate)
    monkeypatch.setitem(fuzzing.TARGETS, "thm10", stub)
    code, out = run_cli(["fuzz", "thm10", "--iters", "3"], capsys)
    assert (code, len(calls)) == (0, 3)
    assert out == (
        "fuzz: target=thm10 iters=3 seed=0 failures=0\n"
        "fuzz: max observed visited norm 0 vs bound 2915\n"
    )


def test_fuzz_unknown_target(capsys):
    for target in ("nonsense", "lemma5", "lemma11"):
        code, out, err = run_cli_err(["fuzz", target], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage:") and f"invalid choice: '{target}'" in err
    code, out = run_cli(["fuzz", "--help"], capsys)
    assert code == 0 and "{" + ",".join(fuzzing.TARGETS) + "}" in out


def test_verify_rejects_a_negative_cap_below_the_endpoint_norms(tmp_path, capsys):
    (tmp_path / "loop.vas").write_text(LOOP_TEXT)
    cert = tmp_path / "verdict.cert"
    for cap in (0, 1):
        cert.write_text(f"instance: loop.vas\nverdict: kind=UnreachableWithinCap cap={cap}\n")
        assert run_cli(["verify", str(cert)], capsys) == (
            1, f"verify: line 2: stated cap {cap} is below the endpoint norms 2\n"
        )


def test_verify_rejects_a_negative_length_bound(tmp_path, capsys):
    (tmp_path / "loop.vas").write_text(LOOP_TEXT)
    cert = tmp_path / "verdict.cert"
    cert.write_text("instance: loop.vas\nverdict: kind=UnreachableWithinCap cap=5 bound=-3\n")
    assert run_cli_err(["verify", str(cert)], capsys) == (
        2, "", "error: length bound -3 is negative\n"
    )


def test_verify_rejects_an_empty_file(tmp_path, capsys):
    cert = tmp_path / "empty.cert"
    for text in ("", "# nothing\n\n"):
        cert.write_text(text)
        code, out, err = run_cli_err(["verify", str(cert)], capsys)
        assert (code, out, err) == (2, "", "error: empty certificate file\n")
    # a case-2 corridor exit yields no shortening, so its certificate is the instance line alone
    scheme = tmp_path / "exit.vas"
    scheme.write_text("slps\nseg 0 1\ncyc -1 1\nseg 0 1\npath 170\nquery 174 5 -> 174 5\n")
    argv = ["shorten", str(scheme), "--op", "away-other", "--corridor", "6", "--cycle-cap", "1"]
    assert run_cli(argv + ["--cert", str(cert)], capsys) == (0, "case: 2 vector=-1,1\n")
    assert cert.read_text() == "instance: exit.vas\n"
    assert run_cli(["verify", str(cert)], capsys) == (0, "verify: ok\n")


def test_verify_loads_the_instance_line(tmp_path, capsys):
    scheme = tmp_path / "cut.vas"
    scheme.write_text(Path(GOLDENS_DIR, "g17-shorten-cut.vas").read_text())
    cert = tmp_path / "cut.cert"
    argv = ["shorten", str(scheme), "--op", "cut", "--direction", "0,0", "--cert", str(cert)]
    assert run_cli(argv, capsys)[0] == 0
    lines = cert.read_text().splitlines()
    assert lines[0] == "instance: cut.vas"
    missing = f"error: [Errno 2] No such file or directory: '{tmp_path / 'missing.vas'}'\n"
    # a missing instance is an input error, both beside a shortening line and on its own
    for text in ["instance: missing.vas"] + lines[1:], ["instance: missing.vas"]:
        cert.write_text("\n".join(text) + "\n")
        assert run_cli_err(["verify", str(cert)], capsys) == (2, "", missing)


def test_kind_mismatches(tmp_path, capsys):
    up = os.path.join(GOLDENS_DIR, "g09-slps-up.vas")
    loop = os.path.join(GOLDENS_DIR, "g01-loop.vas")
    for argv, message in [
        (["decide", up], "decide needs an automaton file with a query line"),
        (["slps-decide", loop], "slps-decide needs a simple scheme file with a query line"),
        (["shorten", up, "--op", "far"], "shorten needs a simple scheme file with path and query lines"),
        (["flatten", up], "flatten needs a general scheme file"),
    ]:
        assert run_cli_err(argv, capsys) == (2, "", f"error: {message}\n")
    (tmp_path / "up.vas").write_text(Path(up).read_text())
    (tmp_path / "loop.vas").write_text(LOOP_TEXT)
    cert = tmp_path / "mismatch.cert"
    for text, violation in [
        (
            "instance: up.vas\nverdict: kind=UnreachableWithinCap cap=5\n",
            "line 2: verdict instance must be a vass with a query",
        ),
        (
            "instance: loop.vas\nresult: reachable=false\n",
            "line 2: result instance must be a simple scheme with a query",
        ),
        (
            "instance: loop.vas\nshortening: scheme=loop.vas original=1 reduced=0 delta=0,1 source=0,0\n",
            "line 2: shortening references a non-simple-scheme file",
        ),
        (
            "verdict: kind=UnreachableWithinCap cap=5\n",
            "line 1: verdict without a preceding instance line",
        ),
    ]:
        cert.write_text(text)
        assert run_cli(["verify", str(cert)], capsys) == (1, f"verify: {violation}\n")


def test_goldens_match_expected_outputs(capsys):
    for name in sorted(os.listdir(GOLDENS_DIR)):
        if not name.endswith(".vas"):
            continue
        expected = os.path.join(GOLDENS_DIR, "expected", name.replace(".vas", ".out"))
        with open(expected, "r", encoding="utf-8") as fh:
            want = fh.read()
        cli.main(golden_argv(name))
        assert capsys.readouterr().out == want, f"output drifted for {name}"


def test_console_script_entry_point():
    # the child imports the same sources as this test, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "vasskit.cli",
            "verify", os.path.join(GOLDENS_DIR, "certs", "g01-loop.cert"),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "verify: ok\n"


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_no_state_carries_between_calls(tmp_path, capsys):
    f = tmp_path / "loop.vas"
    f.write_text(LOOP_TEXT)
    cert = tmp_path / "a.cert"
    code, out = run_cli(
        ["decide", str(f), "--cap", "10", "--length-bound", "1", "--cert", str(cert)], capsys
    )
    assert (code, out) == (1, "verdict: kind=UnreachableWithinCap cap=10 bound=1\n")
    written = cert.read_text()
    code, out = run_cli(["decide", str(f), "--cap", "10"], capsys)
    assert code == 0 and "bound=" not in out
    assert cert.read_text() == written
    assert sorted(os.listdir(tmp_path)) == ["a.cert", "loop.vas"]
    assert cli.main(["shorten", str(f)]) == 2
    assert "usage:" in capsys.readouterr().err
    assert cli.main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage:") and captured.err == ""
    assert run_cli(["verify", str(cert)], capsys) == (0, "verify: ok\n")


def test_internal_defect_exits_4(monkeypatch, capsys):
    # a state trace that never takes the self-loop: exponent 0 misses the target
    monkeypatch.setattr(schemes, "search_table", lambda *args: (0, ([0, 1, 2], [0, 1])))
    code = cli.main(["slps-decide", os.path.join(GOLDENS_DIR, "g09-slps-up.vas")])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "error: search produced an invalid witness\n"
