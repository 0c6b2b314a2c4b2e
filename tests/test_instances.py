"""Instance file parsing and canonical serialization."""

from itertools import product
from random import Random

import pytest

from conftest import serialize_instance
from vasskit import (
    Configuration,
    Instance,
    ParseError,
    PlaneVector,
    cli,
    parse_instance,
    slps_of,
)

V = PlaneVector

VASS_TEXT = """\
vass
states q0 q1
init q0
final q1
edge q0 q0 -1 1
edge q0 q1 0 0
query 2 0 -> 0 2
"""

SLPS_TEXT = """\
slps
seg 0 0
cyc 0 1
seg 0 0
query 6 6 -> 6 9
"""

LPS_TEXT = """\
lps
seg 1,0 0,1
cyc 1,-1 -1,1
seg
"""


def test_parse_vass():
    inst = parse_instance(VASS_TEXT)
    assert inst.kind == "vass"
    assert len(inst.vass.edges) == 2
    assert inst.query[0].x == 2 and inst.query[1].y == 2


def test_parse_slps():
    inst = parse_instance(SLPS_TEXT)
    assert inst.kind == "slps"
    assert inst.scheme.K == 1
    assert inst.scheme.beta_vec(0) == V(0, 1)


def test_parse_lps_empty_segment():
    inst = parse_instance(LPS_TEXT)
    assert inst.kind == "lps"
    assert inst.scheme.alphas[1] == ()
    assert inst.scheme.betas[0] == (V(1, -1), V(-1, 1))


def test_round_trips():
    for text in (VASS_TEXT, SLPS_TEXT, LPS_TEXT):
        inst = parse_instance(text)
        assert serialize_instance(inst) == text
        assert parse_instance(serialize_instance(inst)) == inst


def test_simple_scheme_text_round_trips():
    rng = Random(23)
    for k, with_path, with_query in list(product(range(7), (False, True), (False, True))) * 5:
        alphas = [V(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k + 1)]
        betas = [V(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k)]
        lines = ["slps", f"seg {alphas[0].x} {alphas[0].y}"]
        for a, b in zip(alphas[1:], betas):
            lines += [f"cyc {b.x} {b.y}", f"seg {a.x} {a.y}"]
        exponents = query = None
        if with_path:
            exponents = tuple(rng.randint(0, 9) for _ in range(k))
            lines.append("path " + " ".join(map(str, exponents)))
        if with_query:
            query = (Configuration(rng.randint(0, 9), 0), Configuration(0, rng.randint(0, 9)))
            lines.append(f"query {query[0].x} 0 -> 0 {query[1].y}")
        text = "\n".join(lines) + "\n"
        inst = Instance(kind="slps", scheme=slps_of(alphas, betas), exponents=exponents, query=query)
        assert serialize_instance(inst) == text
        assert parse_instance(serialize_instance(inst)) == inst
        assert serialize_instance(parse_instance(text)) == text


def test_comments_and_blank_lines():
    inst = parse_instance("# hello\n\nvass\nstates a\ninit a\nfinal a  # trailing\n")
    assert inst.kind == "vass"


def test_errors_are_positioned():
    with pytest.raises(ParseError):
        parse_instance("")
    with pytest.raises(ParseError) as err:
        parse_instance("vass\nedge a b 1,\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_instance("vass\nstates a\nedge a b 0 0\n")  # undeclared state b
    with pytest.raises(ParseError):
        parse_instance("slps\nseg 0 0\ncyc 0 1\ncyc 1 0\nseg 0 0\n")  # no alternation
    with pytest.raises(ParseError):
        parse_instance("slps\nseg 0 0\ncyc 0 1\nseg 0 0\npath 1 2\n")  # exponent count
    with pytest.raises(ParseError):
        parse_instance("lps\nseg 1,0\ncyc\nseg\n")  # empty cycle
    with pytest.raises(ParseError, match="line 2: expected an x,y pair, got '1'"):
        parse_instance("lps\nseg 1\ncyc 1,1\nseg\n")


@pytest.mark.parametrize(
    "text, message",
    [
        (VASS_TEXT + "query 0 0 -> 1 1\n", "line 8: second query line"),
        (SLPS_TEXT + "query 0 0 -> 0 1\n", "line 6: second query line"),
        (SLPS_TEXT + "path 1\npath 2\n", "line 7: second path line"),
        ("vass\nstates p p q\n", "line 2: state 'p' declared twice"),
        ("vass\nstates p q\nstates q\n", "line 3: state 'q' declared twice"),
    ],
)
def test_repeated_lines_are_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_instance(text)


@pytest.mark.parametrize("name", ["a,b", "c;d"])
def test_state_names_hold_no_certificate_separator(name):
    # a witness's states= field splits on ",", and the boxes= and phi=
    # fields of a refutation on ";", so a certificate naming such a state
    # would misparse
    with pytest.raises(ParseError, match=f"line 2: state name '{name}' holds a certificate separator"):
        parse_instance(f"vass\nstates p {name}\n")
    assert parse_instance("vass\nstates p q:1 k=v\n").vass.states == ("p", "q:1", "k=v")


def test_repeated_query_line_exits_2(tmp_path, capsys):
    f = tmp_path / "twice.vas"
    f.write_text(VASS_TEXT + "query 0 0 -> 1 1\n")
    assert cli.main(["decide", str(f)]) == 2
    assert "line 8: second query line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("vass\nstates p\nedge p p 1 x\n", "expected an integer, got 'x'", 3),
        ("vass\nstates p\nquery 0 0 1 1\n", "query syntax is: query sx sy -> tx ty", 3),
        (
            "slps\nseg 0 0\nquery 0 -1 -> 0 0\n",
            "configuration coordinates must be non-negative, got (0,-1)", 3,
        ),
        ("# kind below\nvas\n", "unknown instance kind 'vas'", 2),
        ("vass\nstates p\nfrom p\n", "unknown directive 'from'", 3),
        ("lps\nseg\nloop 1,0\n", "unknown directive 'loop'", 3),
        ("slps\nseg 0 0 1\n", "seg in a simple scheme takes exactly one vector: seg x y", 2),
        ("slps\nseg 0 0\ncyc 1,0\nseg 0 0\n", "cyc in a simple scheme takes exactly one vector: cyc x y", 3),
        ("slps\nseg 0 0\nseg 0 1\n", "simple scheme segments must alternate seg/cyc", 3),
        ("slps\ncyc 0 1\nseg 0 0\n", "simple scheme must start with a seg line", 2),
        ("slps\nseg 0 0\ncyc 0 1\n", "simple scheme must end with a seg line", None),
        ("lps\nseg 1,0\ncyc 0,1\nseg\npath 1 2\n", "path line has 2 exponents, scheme has 1 cycles", None),
    ],
    ids=[
        "token", "query-syntax", "negative-query", "kind", "vass-directive", "scheme-directive",
        "slps-seg-vector", "slps-cyc-vector", "slps-two-segs", "slps-starts-cyc", "slps-ends-cyc",
        "path-count",
    ],
)
def test_each_error_names_its_message_and_line(text, message, line):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_consecutive_lps_segments_concatenate():
    inst = parse_instance("lps\nseg 1,0\nseg\nseg 0,1 2,2\ncyc 1,1\nseg 0,2\nseg -1,0\n")
    assert inst.scheme.alphas == ((V(1, 0), V(0, 1), V(2, 2)), (V(0, 2), V(-1, 0)))
    assert inst.scheme.betas == ((V(1, 1),),)


def test_the_first_of_two_errors_by_line_is_reported():
    # a token error on a later line once beat the structural error on line 3
    with pytest.raises(ParseError) as err:
        parse_instance("slps\nseg 0 0\nseg 0 1\nquery 0 0 -> x 0\n")
    assert str(err.value) == "line 3: simple scheme segments must alternate seg/cyc"
