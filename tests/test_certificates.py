"""Certificate serialization round-trips and independent re-checking."""

import inspect
import os
import sys
from pathlib import Path
from random import Random

import pytest

from vasskit import (
    Configuration,
    ParseError,
    PlaneVector,
    Verdict,
    WitnessResult,
    ZERO,
    certificates,
    cli,
    cut_by_vector,
    decide,
    instances,
    parse_instance,
    schemes,
    slps_of,
)
from vasskit.certificates import (
    parse_result,
    parse_shortening,
    parse_verdict,
    serialize_result,
    serialize_shortening,
    serialize_verdict,
    verify_certificate_file,
)

from conftest import GOLDEN_COMMANDS, GOLDENS_DIR, golden_argv, refuse_words

V = PlaneVector
UP = slps_of([ZERO, ZERO], [V(0, 1)])
UP_TEXT = "slps\nseg 0 0\ncyc 0 1\nseg 0 0\n"


def _member():
    return cut_by_vector(UP, (3,), Configuration(6, 6), 1, V(0, 1)).members[1]


def test_shortening_round_trip():
    line = serialize_shortening(_member(), "scheme.vas")
    assert line == (
        "shortening: scheme=scheme.vas original=3 reduced=2 delta=0,1 source=6,6"
    )
    cert = parse_shortening(line.split(": ", 1)[1])
    assert cert.original == (3,) and cert.reduced == (2,)
    assert cert.delta == V(0, 1) and (cert.source.x, cert.source.y) == (6, 6)


def test_verdict_round_trip():
    verdict = Verdict(
        kind="Reachable", cap=10, witness=(V(-1, 1), V(-1, 1)), states=("a", "a", "a")
    )
    line = serialize_verdict(verdict)
    again = parse_verdict(line.split(": ", 1)[1])
    assert again == verdict
    for negative in (
        Verdict(kind="UnreachableWithinCap", cap=5),
        Verdict(kind="UnreachableWithinCap", cap=6, bound=0),
    ):
        assert parse_verdict(serialize_verdict(negative).split(": ", 1)[1]) == negative


def test_result_round_trip():
    result = WitnessResult(reachable=True, member=0, exponents=(3,), max_visited_norm=9)
    line = serialize_result(result)
    assert parse_result(line.split(": ", 1)[1]) == result
    assert parse_result("reachable=false") == WitnessResult(reachable=False)
    with pytest.raises(ParseError):
        parse_result("reachable=maybe")


def test_verify_certificate_file_valid(tmp_path):
    (tmp_path / "scheme.vas").write_text(UP_TEXT)
    cert = tmp_path / "good.cert"
    cert.write_text(serialize_shortening(_member(), "scheme.vas") + "\n")
    assert verify_certificate_file(str(cert)) == []


def test_verify_certificate_file_tampered_delta(tmp_path):
    (tmp_path / "scheme.vas").write_text(UP_TEXT)
    line = serialize_shortening(_member(), "scheme.vas").replace("delta=0,1", "delta=0,2")
    cert = tmp_path / "bad.cert"
    cert.write_text(line + "\n")
    violations = verify_certificate_file(str(cert))
    assert len(violations) == 1 and "delta" in violations[0] or violations


def test_verify_verdict_certificate(tmp_path):
    (tmp_path / "loop.vas").write_text(
        "vass\nstates a\ninit a\nfinal a\nedge a a -1 1\nquery 2 0 -> 0 2\n"
    )
    cert = tmp_path / "verdict.cert"
    cert.write_text(
        "instance: loop.vas\n"
        "verdict: kind=Reachable cap=10 length=2 word=-1,1;-1,1 states=a,a,a\n"
    )
    assert verify_certificate_file(str(cert)) == []
    cert.write_text(
        "instance: loop.vas\n"
        "verdict: kind=UnreachableWithinCap cap=10\n"
    )
    assert verify_certificate_file(str(cert)) != []  # target actually reachable


def test_verify_negative_does_not_trust_the_kernel(tmp_path, monkeypatch):
    def always_unreachable(vass, source, target, cap, **limits):
        return Verdict(kind="UnreachableWithinCap", cap=cap, bound=limits.get("length_bound"))

    monkeypatch.setattr(decide, "decide_capped_bfs", always_unreachable)
    monkeypatch.setattr(certificates, "decide_capped_bfs", always_unreachable, raising=False)
    (tmp_path / "loop.vas").write_text(
        "vass\nstates a\ninit a\nfinal a\nedge a a -1 1\nquery 2 0 -> 0 2\n"
    )
    cert = tmp_path / "verdict.cert"
    for limits, valid in (("cap=10", False), ("cap=10 bound=2", False), ("cap=10 bound=1", True)):
        cert.write_text(f"instance: loop.vas\nverdict: kind=UnreachableWithinCap {limits}\n")
        assert (verify_certificate_file(str(cert)) == []) == valid, limits


def test_verify_result_certificate(tmp_path):
    (tmp_path / "up.vas").write_text(UP_TEXT + "query 0 0 -> 0 3\n")
    cert = tmp_path / "result.cert"
    cert.write_text(
        "instance: up.vas\nresult: reachable=true member=0 exponents=3 maxnorm=3\n"
    )
    assert verify_certificate_file(str(cert)) == []
    cert.write_text("instance: up.vas\nresult: reachable=false\n")
    assert verify_certificate_file(str(cert)) != []


def test_verify_scheme_negative_does_not_trust_slps_reach(tmp_path, monkeypatch):
    def always_unreachable(scheme, source, target, budget=None):
        return WitnessResult(reachable=False)

    monkeypatch.setattr(schemes, "slps_reach", always_unreachable)
    monkeypatch.setattr(certificates, "slps_reach", always_unreachable, raising=False)
    (tmp_path / "up.vas").write_text(UP_TEXT + "query 0 0 -> 0 3\n")
    cert = tmp_path / "result.cert"
    cert.write_text("instance: up.vas\nresult: reachable=false\n")
    assert verify_certificate_file(str(cert)) != []
    bundled = os.path.join(GOLDENS_DIR, "certs", "g10-slps-unreach.cert")
    assert verify_certificate_file(bundled) == []


def test_verify_scheme_negative_does_not_trust_search_cap(tmp_path, monkeypatch, capsys):
    def endpoint_cap(scheme, source, target):
        return max(source.norm, target.norm)

    monkeypatch.setattr(schemes, "search_cap", endpoint_cap)
    monkeypatch.setattr(certificates, "search_cap", endpoint_cap, raising=False)
    (tmp_path / "down.vas").write_text("slps\nseg 5 0\ncyc -1 0\nseg 0 0\nquery 0 0 -> 0 0\n")
    cert = tmp_path / "down.cert"
    assert cli.main(["slps-decide", str(tmp_path / "down.vas"), "--cert", str(cert)]) == 1
    assert "kind=Unreachable" in capsys.readouterr().out  # though exponent 5 reaches the target
    assert verify_certificate_file(str(cert)) == [
        "line 2: re-decision disagrees on reachability"
    ]


def test_checker_paper_cap_agrees_with_search_cap():
    rng = Random(23)
    for _ in range(300):
        k = rng.randint(0, 4)
        letters = [V(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2 * k + 1)]
        scheme = slps_of(letters[: k + 1], letters[k + 1 :])
        s, t = (Configuration(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(2))
        assert certificates._paper_cap(scheme, s, t) == schemes.search_cap(scheme, s, t)


def _bundled_certs(*kinds):
    """The paths of the bundled certificates holding a line of one of ``kinds``."""
    certs = os.path.join(GOLDENS_DIR, "certs")
    paths = [os.path.join(certs, name) for name in sorted(os.listdir(certs))]
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            if any(line.startswith(kinds) for line in fh):
                found.append(path)
    return found


def test_verify_does_not_trust_the_shortening_module(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify ran code of the shortening module")

    for name, module in sorted(sys.modules.items()):
        if name == "vasskit" or name.startswith("vasskit."):
            for attr, value in sorted(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == "vasskit.shortening":
                    monkeypatch.setattr(module, attr, refuse)
    bundled = _bundled_certs("shortening:")
    assert len(bundled) == 6
    for path in bundled:
        assert verify_certificate_file(path) == [], path
    # dips to y = -4: a checker that reads the producer's geometry can miss it
    far = os.path.abspath(os.path.join(GOLDENS_DIR, "g15-shorten-far.vas"))
    cert = tmp_path / "dip.cert"
    cert.write_text(
        f"instance: {far}\n"
        f"shortening: scheme={far} original=60,60 reduced=0,10 delta=0,10 source=6,6\n"
    )
    assert verify_certificate_file(str(cert)) == [
        "line 2: reduced path is not admissible from the source"
    ]


def test_scheme_answers_build_no_word(monkeypatch, capsys):
    """``slps-decide`` without ``--trace`` prints the bundled outputs, and
    every bundled result and shortening certificate verifies, with every
    name bound to ``core.instantiate`` or ``core.run`` made to fail."""
    refuse_words(monkeypatch)
    decided = [name for name, argv in GOLDEN_COMMANDS.items() if argv[0] == "slps-decide"]
    assert len(decided) == 6
    for name in decided:
        assert cli.main(golden_argv(name)) in (0, 1)
        with open(os.path.join(GOLDENS_DIR, "expected", name.replace(".vas", ".out"))) as fh:
            assert capsys.readouterr().out == fh.read(), name
    bundled = _bundled_certs("result:", "shortening:")
    assert len(bundled) == 12
    for path in bundled:
        assert verify_certificate_file(path) == [], path


def test_verify_parses_each_referenced_file_once(tmp_path, monkeypatch, capsys):
    scheme = tmp_path / "g.vas"
    scheme.write_text(Path(GOLDENS_DIR, "g17-shorten-cut.vas").read_text())
    cert = tmp_path / "g.cert"
    argv = ["shorten", str(scheme), "--op", "cut", "--direction", "0,0", "--count", "3"]
    assert cli.main(argv + ["--cert", str(cert)]) == 0
    capsys.readouterr()
    parses = []

    def counting_parse(text):
        parses.append(text)
        return parse_instance(text)

    monkeypatch.setattr(instances, "parse_instance", counting_parse)
    assert verify_certificate_file(str(cert)) == []
    assert len(parses) == 1
    lines = cert.read_text().splitlines()
    lines[2] = lines[2].replace("delta=0,0", "delta=0,1")
    cert.write_text("\n".join(lines) + "\n")
    assert verify_certificate_file(str(cert)) == ["line 3: effect difference does not equal delta"]
    assert len(parses) == 2


def test_verify_unknown_line(tmp_path):
    cert = tmp_path / "odd.cert"
    cert.write_text("mystery: a=b\n")
    with pytest.raises(ParseError):
        verify_certificate_file(str(cert))
