"""Instance file parsing and canonical serialization."""

import pytest

from vasskit import ParseError, PlaneVector, cli, parse_instance, serialize_instance

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


def test_repeated_query_line_exits_2(tmp_path, capsys):
    f = tmp_path / "twice.vas"
    f.write_text(VASS_TEXT + "query 0 0 -> 1 1\n")
    assert cli.main(["decide", str(f)]) == 2
    assert "line 8: second query line" in capsys.readouterr().err
