"""Instance file parsing, and the line a simple scheme's letter is written as.

The format is UTF-8 and line-based; ``#`` starts a comment and blank lines
are ignored.  The first meaningful line names the kind: ``vass``, ``lps``
or ``slps``.  Simple-scheme files carry one vector per ``seg``/``cyc``
line (``seg 0 1``); general LPS files carry a space-separated list of
``x,y`` pairs instead, which may be empty for ``seg``.  An optional
``path n1 n2 ...`` line fixes cycle exponents and an optional
``query sx sy -> tx ty`` line states a reachability question; a second
``path`` or ``query`` line, a state named twice on ``states`` lines, or
a state name holding ``,`` or ``;``, which separate the state names of
a certificate line, is a ParseError naming its line.  A file is read in
one pass, so of several errors the first by line is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Configuration, Lps, PlaneVector, Slps, Vass, Word
from .errors import ParseError


@dataclass(frozen=True)
class Instance:
    """A parsed instance file."""

    kind: str  # "vass" | "lps" | "slps"
    vass: Optional[Vass] = None
    scheme: Optional[Lps] = None
    exponents: Optional[tuple[int, ...]] = None
    query: Optional[tuple[Configuration, Configuration]] = None


def _int(token: str, line: Optional[int]) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line)


def parse_pair(token: str, line: Optional[int] = None) -> PlaneVector:
    """An ``x,y`` token as a vector; a ParseError names ``line`` when given."""
    parts = token.split(",")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ParseError(f"expected an x,y pair, got {token!r}", line)
    return PlaneVector(_int(parts[0], line), _int(parts[1], line))


def _once(previous, key: str, line: int) -> None:
    """A ParseError naming ``line`` when a ``key`` line came before it."""
    if previous is not None:
        raise ParseError(f"second {key} line; an instance has at most one", line)


def _parse_query(tokens: list[str], line: int) -> tuple[Configuration, Configuration]:
    if len(tokens) != 5 or tokens[2] != "->":
        raise ParseError("query syntax is: query sx sy -> tx ty", line)
    try:
        s = Configuration(_int(tokens[0], line), _int(tokens[1], line))
        t = Configuration(_int(tokens[3], line), _int(tokens[4], line))
    except ValueError as exc:
        raise ParseError(str(exc), line)
    return s, t


def _meaningful_lines(text: str):
    """(line number, text) of each line that holds more than a comment:
    cut at ``#`` and stripped, numbered from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_instance(text: str) -> Instance:
    """Parse an instance file; raises ParseError with a line number."""
    body = ((lineno, line.split()) for lineno, line in _meaningful_lines(text))
    first = next(body, None)
    if first is None:
        raise ParseError("empty instance file")
    lineno, header = first
    kind = header[0]
    if kind not in ("vass", "lps", "slps") or len(header) != 1:
        raise ParseError(f"unknown instance kind {' '.join(header)!r}", lineno)
    if kind == "vass":
        return _parse_vass(body)
    return _parse_scheme(kind, body)


# the separators of the state names in a certificate's states=, boxes= and phi= fields
_SEPARATORS = frozenset(",;")


def _parse_vass(body) -> Instance:
    states: list[str] = []
    init: set[str] = set()
    final: set[str] = set()
    edges: list[tuple[str, PlaneVector, str]] = []
    query = None
    for lineno, tokens in body:
        key, rest = tokens[0], tokens[1:]
        if key == "states":
            for name in rest:
                if name in states:
                    raise ParseError(f"state {name!r} declared twice", lineno)
                if not _SEPARATORS.isdisjoint(name):
                    raise ParseError(f"state name {name!r} holds a certificate separator", lineno)
                states.append(name)
        elif key == "init":
            init.update(rest)
        elif key == "final":
            final.update(rest)
        elif key == "edge":
            if len(rest) != 4:
                raise ParseError("edge syntax is: edge from to dx dy", lineno)
            edges.append((rest[0], PlaneVector(_int(rest[2], lineno), _int(rest[3], lineno)), rest[1]))
        elif key == "query":
            _once(query, key, lineno)
            query = _parse_query(rest, lineno)
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    try:
        vass = Vass(tuple(states), tuple(edges), frozenset(init), frozenset(final))
    except ValueError as exc:
        raise ParseError(str(exc))
    return Instance(kind="vass", vass=vass, query=query)


def _parse_scheme(kind: str, body) -> Instance:
    alphas: list[Word] = []
    betas: list[Word] = []
    alpha: Optional[Word] = None  # the segment since the last cycle, None before its first seg line
    exponents = None
    query = None
    for lineno, tokens in body:
        key, rest = tokens[0], tokens[1:]
        if key in ("seg", "cyc"):
            if kind == "slps":
                if len(rest) != 2:
                    raise ParseError(f"{key} in a simple scheme takes exactly one vector: {key} x y", lineno)
                word: Word = (PlaneVector(_int(rest[0], lineno), _int(rest[1], lineno)),)
            else:
                word = tuple(parse_pair(tok, lineno) for tok in rest)
                if key == "cyc" and not word:
                    raise ParseError("cycles must be nonempty", lineno)
            if key == "seg":
                if kind == "slps" and alpha is not None:
                    raise ParseError("simple scheme segments must alternate seg/cyc", lineno)
                alpha = word if alpha is None else alpha + word
            else:
                if kind == "slps" and alpha is None:
                    raise ParseError("simple scheme must start with a seg line", lineno)
                alphas.append(alpha or ())
                betas.append(word)
                alpha = None
        elif key == "path":
            _once(exponents, key, lineno)
            exponents = tuple(_int(tok, lineno) for tok in rest)
        elif key == "query":
            _once(query, key, lineno)
            query = _parse_query(rest, lineno)
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if kind == "slps" and alpha is None:
        raise ParseError("simple scheme must end with a seg line")
    # every check Slps and Lps make has been made above, with its line
    alphas.append(alpha or ())
    scheme = (Slps if kind == "slps" else Lps)(tuple(alphas), tuple(betas))
    if exponents is not None and len(exponents) != scheme.K:
        raise ParseError(f"path line has {len(exponents)} exponents, scheme has {scheme.K} cycles")
    return Instance(kind=kind, scheme=scheme, exponents=exponents, query=query)


def slps_line(key: str, v: PlaneVector) -> str:
    """The ``seg`` or ``cyc`` line of a simple scheme's letter v, with its newline."""
    return f"{key} {v.x} {v.y}\n"


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())
