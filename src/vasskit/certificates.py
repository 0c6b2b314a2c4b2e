"""Serialization and independent re-checking of result certificates.

Three line formats exist:

    shortening: scheme=<file> original=<n1,..> reduced=<n1,..> delta=<x,y> source=<x,y>
    verdict: kind=<k> cap=<n> bound=<n> length=<n> word=<x1,y1;x2,y2;...> states=<q0,q1,...>
    result: reachable=<bool> member=<i> exponents=<n1,..> maxnorm=<n>

A certificate file holds one such line; verdict and result lines are
preceded by an ``instance: <file>`` line naming the instance they answer,
since those formats carry no file reference themselves.  The verdict
line of a negative answered without a search (``decide.decide``) ends
with its refutation, one of

    refute=box boxes=<q>:<xlo>,<xhi>,<ylo>,<yhi>;...
    refute=lattice basis=<a>,<b>,<c> phi=<q>:<x>,<y>;...

a box per state, or a potential per state and the lattice spanned by
(a, b) and (0, c); the states left out have none.
``refutation_violation`` checks either in one pass over the edges: the
initial boxes hold the source, each edge's image of its source's box,
clipped to [0, cap]^2, lies in its target's box, and no accepting box
holds the target; or the initial potentials are 0, the edges from a
state with a potential lead to one, every discrepancy
phi(p) + v - phi(r) lies in the lattice, and no accepting state's
t - s - phi(q) does.

Verification never trusts the producer and imports no check from its
module.  A scheme answer is checked in O(K) steps, on the 2K+2 corners of its path
(``_corners``) where a segment or a stretch of cycle repetitions ends:
along a straight stretch, each coordinate's least value and the infinity
norm's largest are at its ends.  So neither ``shortening_violation``
(which the shortening operations also run on what they build) nor a
``reachable=true`` result builds a word.  Verdict witnesses are re-run
against the automaton, and the other negative answers are re-decided by
``brute_force_oracle``, a naive search defined here that shares no code
with the searches that produced them: "unreachable within cap" verdicts
under the stated cap and bound, and simple-scheme "reachable=false"
results on the scheme's path automaton under the cap of the
simple-scheme bound.  The checker computes that cap itself
(``_paper_cap``), from its own copy of the paper's formula, and imports
only ``core``, ``errors`` and ``instances``, so a wrong negative from a
producer whose cap falls short of the paper's is rejected.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .core import (
    REACHABLE, UNREACHABLE_WITHIN_CAP, Configuration, PlaneVector, Refutation, SchemePath, Slps,
    Vass, Verdict, WitnessResult, Word, require_path, run,
)
from .errors import BudgetExceededError, ParseError, PreconditionError
from .instances import Instance, _meaningful_lines, load_instance, parse_pair


def _fields(rest: str, lineno: Optional[int] = None) -> dict[str, str]:
    out: dict[str, str] = {}
    for token in rest.split():
        if "=" not in token:
            raise ParseError(f"expected key=value, got {token!r}", lineno)
        key, value = token.split("=", 1)
        out[key] = value
    return out


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok != "")


def _word(text: str, lineno: Optional[int]) -> Word:
    return tuple(parse_pair(tok, lineno) for tok in text.split(";") if tok != "")


# ---------------------------------------------------------------------------
# shortening certificates


@dataclass(frozen=True)
class Shortening:
    """A certificate: dropping some cycle repetitions of ``original``
    yields ``reduced``, whose effect is smaller by ``delta`` and whose run
    from ``source`` is admissible."""

    scheme: Slps
    original: SchemePath
    reduced: SchemePath
    delta: PlaneVector
    source: Configuration


def shortening_violation(sh: Shortening) -> Optional[str]:
    """Check all certificate invariants; None when valid, else the first
    violated invariant, named."""
    k = sh.scheme.K
    if len(sh.original) != k or len(sh.reduced) != k:
        return "exponent-count mismatch with scheme"
    if any(n < 0 for n in sh.reduced):
        return "negative exponent in reduced path"
    if any(r > o for r, o in zip(sh.reduced, sh.original)):
        return "reduced path is not a subword (exponent exceeds original)"
    if sum(sh.reduced) >= sum(sh.original):
        return "reduced path is not a proper subword (nothing deleted)"
    dx = dy = 0
    for i, (o, r) in enumerate(zip(sh.original, sh.reduced)):
        beta = sh.scheme.beta_vec(i)
        dx += (o - r) * beta.x
        dy += (o - r) * beta.y
    if PlaneVector(dx, dy) != sh.delta:
        return "effect difference does not equal delta"
    if any(x < 0 or y < 0 for x, y in _corners(sh.scheme, sh.reduced, sh.source)):
        return "reduced path is not admissible from the source"
    return None


def _corners(scheme: Slps, exponents: SchemePath, source: Configuration):
    """The 2K+2 corners of the path's run (see the module docstring),
    source first, as (x, y) pairs."""
    x, y = source.x, source.y
    yield x, y
    for i in range(scheme.K + 1):
        alpha = scheme.alpha_vec(i)
        x += alpha.x
        y += alpha.y
        yield x, y
        if i < scheme.K:
            beta = scheme.beta_vec(i)
            x += exponents[i] * beta.x
            y += exponents[i] * beta.y
            yield x, y


@dataclass(frozen=True)
class ShorteningCert:
    scheme_file: str
    original: SchemePath
    reduced: SchemePath
    delta: PlaneVector
    source: Configuration


def serialize_shortening(sh: Shortening, scheme_file: str) -> str:
    return (
        f"shortening: scheme={scheme_file}"
        f" original={','.join(str(n) for n in sh.original)}"
        f" reduced={','.join(str(n) for n in sh.reduced)}"
        f" delta={sh.delta.x},{sh.delta.y}"
        f" source={sh.source.x},{sh.source.y}"
    )


def parse_shortening(line: str, lineno: Optional[int] = None) -> ShorteningCert:
    fields = _fields(line, lineno)
    try:
        src = parse_pair(fields["source"], lineno)
        return ShorteningCert(
            scheme_file=fields["scheme"],
            original=_int_list(fields["original"]),
            reduced=_int_list(fields["reduced"]),
            delta=parse_pair(fields["delta"], lineno),
            source=Configuration(src.x, src.y),
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad shortening certificate: {exc}", lineno)


# ---------------------------------------------------------------------------
# verdict certificates


def witness_violation(
    vass: Vass, source: Configuration, target: Configuration, word: Word, states,
    cap: Optional[int] = None,
) -> Optional[str]:
    """Check a reachability witness against the automaton and the counters
    and, given a ``cap``, the norm of every point it visits; None when
    valid, else the violated condition."""
    if states is None or len(states) != len(word) + 1:
        return "state trace length must be word length plus one"
    if states[0] not in vass.initial:
        return f"first state {states[0]!r} is not initial"
    if states[-1] not in vass.accepting:
        return f"last state {states[-1]!r} is not accepting"
    edges = set(vass.edges)
    for i, letter in enumerate(word):
        if (states[i], letter, states[i + 1]) not in edges:
            return f"no edge {states[i]} -> {states[i + 1]} with label {letter}"
    trace = run(word, source)
    if not trace.admissible:
        return "witness run leaves the non-negative quadrant"
    if trace.target != target.to_vector():
        return f"witness run ends at {trace.target}, not {target}"
    outside = next((p for p in trace.visited if p.norm > cap), None) if cap is not None else None
    return None if outside is None else f"witness leaves the stated cap at {outside}"


# per refutation route: the field of its per-state values and their arity
_REFUTATION_VALUES = {"box": ("boxes", 4), "lattice": ("phi", 2)}


def serialize_verdict(v: Verdict, with_refutation: bool = False) -> str:
    """The verdict line; with ``with_refutation``, a certificate's, which
    adds the refutation's fields when the verdict has one."""
    parts = [f"verdict: kind={v.kind}", f"cap={v.cap}"]
    if v.bound is not None:
        parts.append(f"bound={v.bound}")
    if v.length is not None:
        parts.append(f"length={v.length}")
    if v.witness is not None:
        parts.append("word=" + ";".join(f"{w.x},{w.y}" for w in v.witness))
    if v.states is not None:
        parts.append("states=" + ",".join(v.states))
    r = v.refutation
    if with_refutation and r is not None:
        parts.append(f"refute={r.route}")
        if r.basis is not None:
            parts.append("basis=" + ",".join(map(str, r.basis)))
        values = ";".join(f"{q}:{','.join(map(str, value))}" for q, value in r.values)
        parts.append(f"{_REFUTATION_VALUES[r.route][0]}={values}")
    return " ".join(parts)


def parse_verdict(line: str, lineno: Optional[int] = None) -> Verdict:
    fields = _fields(line, lineno)
    try:
        return Verdict(
            kind=fields["kind"],
            cap=int(fields["cap"]),
            bound=int(fields["bound"]) if "bound" in fields else None,
            witness=_word(fields["word"], lineno) if "word" in fields else None,
            states=tuple(fields["states"].split(",")) if "states" in fields else None,
            length=int(fields["length"]) if "length" in fields else None,
            refutation=_refutation(fields) if "refute" in fields else None,
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad verdict certificate: {exc}", lineno)


def _refutation(fields: dict[str, str]) -> Refutation:
    route = fields["refute"]
    if route not in _REFUTATION_VALUES:
        raise ValueError(f"unknown refutation route {route!r}")
    key, arity = _REFUTATION_VALUES[route]
    values = []
    for entry in filter(None, fields[key].split(";")):
        state, _, numbers = entry.rpartition(":")
        value = _int_list(numbers)
        if not state or len(value) != arity:
            raise ValueError(f"{key} entry {entry!r} is not a state and {arity} integers")
        values.append((state, value))
    basis = _int_list(fields["basis"]) if route == "lattice" else None
    if basis is not None and len(basis) != 3:
        raise ValueError("basis needs 3 integers")
    return Refutation(route, tuple(values), basis)


# ---------------------------------------------------------------------------
# witness-result certificates


def serialize_result(r: WitnessResult) -> str:
    parts = [f"result: reachable={'true' if r.reachable else 'false'}"]
    if r.member is not None:
        parts.append(f"member={r.member}")
    if r.exponents is not None:
        parts.append("exponents=" + ",".join(str(n) for n in r.exponents))
    if r.max_visited_norm is not None:
        parts.append(f"maxnorm={r.max_visited_norm}")
    return " ".join(parts)


def parse_result(line: str, lineno: Optional[int] = None) -> WitnessResult:
    fields = _fields(line, lineno)
    try:
        if fields["reachable"] not in ("true", "false"):
            raise ValueError(f"reachable must be true or false, got {fields['reachable']!r}")
        return WitnessResult(
            reachable=fields["reachable"] == "true",
            member=int(fields["member"]) if "member" in fields else None,
            exponents=_int_list(fields["exponents"]) if "exponents" in fields else None,
            max_visited_norm=int(fields["maxnorm"]) if "maxnorm" in fields else None,
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad result certificate: {exc}", lineno)


# ---------------------------------------------------------------------------
# whole-file verification


def verify_certificate_file(path: str) -> list[str]:
    """Re-check every certificate line in a file; returns violations
    (empty means valid).  Referenced files resolve relative to the
    certificate's directory, and each is parsed once."""
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8") as fh:
        lines = list(_meaningful_lines(fh.read()))
    if not lines:
        raise ParseError("empty certificate file")
    loaded: dict[str, Instance] = {}

    def load(file: Optional[str]) -> Optional[Instance]:
        if file is not None and file not in loaded:
            loaded[file] = load_instance(file)
        return loaded.get(file)

    violations: list[str] = []
    instance_file: Optional[str] = None
    for lineno, line in lines:
        key, _, rest = line.partition(":")
        rest = rest.strip()
        if key == "instance":
            instance_file = os.path.join(base, rest)
            load(instance_file)
        elif key == "shortening":
            cert = parse_shortening(rest, lineno)
            instance = load(os.path.join(base, cert.scheme_file))
            violations.extend(_check_shortening(cert, instance, lineno))
        elif key == "verdict":
            verdict = parse_verdict(rest, lineno)
            violations.extend(_check_verdict(verdict, load(instance_file), lineno))
        elif key == "result":
            result = parse_result(rest, lineno)
            violations.extend(_check_result(result, load(instance_file), lineno))
        else:
            raise ParseError(f"unknown certificate line {key!r}", lineno)
    return violations


def _check_shortening(cert: ShorteningCert, instance: Instance, lineno: int) -> list[str]:
    if instance.kind != "slps":
        return [f"line {lineno}: shortening references a non-simple-scheme file"]
    sh = Shortening(
        scheme=instance.scheme,
        original=cert.original,
        reduced=cert.reduced,
        delta=cert.delta,
        source=cert.source,
    )
    reason = shortening_violation(sh)
    return [f"line {lineno}: {reason}"] if reason else []


def _check_verdict(verdict: Verdict, instance: Optional[Instance], lineno: int) -> list[str]:
    if instance is None:
        return [f"line {lineno}: verdict without a preceding instance line"]
    if instance.kind != "vass" or instance.query is None:
        return [f"line {lineno}: verdict instance must be a vass with a query"]
    s, t = instance.query
    if verdict.kind == REACHABLE:
        word = verdict.witness or ()
        late = None  # the length checks rank below the run's and above the cap's
        if verdict.length != len(word):
            late = "stated length does not match the witness"
        elif verdict.bound is not None and verdict.length > verdict.bound:
            late = "witness is longer than the stated bound"
        cap = None if late else verdict.cap
        reason = witness_violation(instance.vass, s, t, word, verdict.states, cap) or late
        return [f"line {lineno}: {reason}"] if reason else []
    if verdict.kind == UNREACHABLE_WITHIN_CAP:
        floor = max(s.norm, t.norm)
        if verdict.cap < floor:
            return [f"line {lineno}: stated cap {verdict.cap} is below the endpoint norms {floor}"]
        if verdict.refutation is not None:
            reason = refutation_violation(instance.vass, s, t, verdict.cap, verdict.refutation)
            return [f"line {lineno}: {reason}"] if reason else []
        again = brute_force_oracle(
            instance.vass, s, t, verdict.cap, budget=2_000_000, length_bound=verdict.bound
        )
        if again.kind != UNREACHABLE_WITHIN_CAP:
            return [f"line {lineno}: target is reachable within the stated cap"]
        return []
    return [f"line {lineno}: unknown verdict kind {verdict.kind!r}"]


def refutation_violation(
    vass: Vass, source: Configuration, target: Configuration, cap: int, refutation: Refutation,
) -> Optional[str]:
    """Check a refutation in one pass over the edges; None when it shows
    that no run within the cap reaches the target, else the violated
    condition.  A state without a box or a potential holds nothing."""
    values = dict(refutation.values)
    if refutation.route == "box":
        def holds(q, x, y):
            box = values.get(q)
            return box is not None and box[0] <= x <= box[1] and box[2] <= y <= box[3]

        if not all(holds(q, source.x, source.y) for q in vass.initial):
            return "an initial state's box does not hold the source"
        for p, v, q in vass.edges:
            if p in values:  # the image of p's box, clipped to [0, cap]^2
                xlo, xhi, ylo, yhi = values[p]
                lo = max(xlo + v.x, 0), max(ylo + v.y, 0)
                hi = min(xhi + v.x, cap), min(yhi + v.y, cap)
                if lo[0] <= hi[0] and lo[1] <= hi[1] and not (holds(q, *lo) and holds(q, *hi)):
                    return f"edge {p} -> {q} with label {v} leaves the box of {q}"
        if any(holds(q, target.x, target.y) for q in vass.accepting):
            return "an accepting state's box holds the target"
        return None
    a, b, c = refutation.basis

    def member(x, y):  # (x, y) in Z(a, b) + Z(0, c)
        if a == 0:
            return x == 0 and _divides(gcd(b, c), y)
        return x % a == 0 and _divides(c, y - x // a * b)

    if any(values.get(q) != (0, 0) for q in vass.initial):
        return "an initial state's potential is not 0"
    for p, v, q in vass.edges:
        if p in values:
            if q not in values:
                return f"edge {p} -> {q} leaves the states with a potential"
            if not member(values[p][0] + v.x - values[q][0], values[p][1] + v.y - values[q][1]):
                return f"the discrepancy of edge {p} -> {q} with label {v} is not in the lattice"
    dx, dy = target.x - source.x, target.y - source.y
    if any(member(dx - values[q][0], dy - values[q][1]) for q in vass.accepting if q in values):
        return "an accepting state's potential admits the target"
    return None


def _divides(d: int, n: int) -> bool:
    return n == 0 if d == 0 else n % d == 0


def _check_result(result: WitnessResult, instance: Optional[Instance], lineno: int) -> list[str]:
    if instance is None:
        return [f"line {lineno}: result without a preceding instance line"]
    if instance.kind != "slps" or instance.query is None:
        return [f"line {lineno}: result instance must be a simple scheme with a query"]
    s, t = instance.query
    scheme = instance.scheme
    if result.reachable:
        exponents = result.exponents or ()
        require_path(scheme, exponents)
        corners = list(_corners(scheme, exponents, s))
        if any(x < 0 or y < 0 for x, y in corners) or corners[-1] != (t.x, t.y):
            return [f"line {lineno}: stated exponents are not a valid witness"]
        if result.max_visited_norm != max(max(corner) for corner in corners):
            return [f"line {lineno}: stated maxnorm does not match the witness run"]
        return []
    again = brute_force_oracle(_path_vass(scheme), s, t, _paper_cap(scheme, s, t), budget=2_000_000)
    if again.kind != UNREACHABLE_WITHIN_CAP:
        return [f"line {lineno}: re-decision disagrees on reachability"]
    return []


def _path_vass(scheme: Slps) -> Vass:
    """The simple scheme a_0 b_0* a_1 ... b_(K-1)* a_K as a path automaton:
    a_i is the edge q_i -> q_(i+1), b_i a self-loop on q_(i+1), q0 initial
    and q(K+1) accepting."""
    states = tuple(f"q{i}" for i in range(scheme.K + 2))
    edges = [(states[i], scheme.alpha_vec(i), states[i + 1]) for i in range(scheme.K + 1)]
    edges += [(states[i + 1], scheme.beta_vec(i), states[i + 1]) for i in range(scheme.K)]
    return Vass(states, tuple(edges), frozenset({states[0]}), frozenset({states[-1]}))


def _paper_cap(scheme: Slps, source: Configuration, target: Configuration) -> int:
    """The paper's norm cap of a simple-scheme query, ceil(2914.5 * (K+2) * n^15) for n
    the largest scheme or endpoint norm: ``schemes.search_cap``, copied on purpose."""
    return (5829 * (scheme.K + 2) * max(scheme.norm, source.norm, target.norm) ** 15 + 1) // 2


def brute_force_oracle(
    vass: Vass, source: Configuration, target: Configuration, cap: int,
    budget: int = 200_000, length_bound: Optional[int] = None,
) -> Verdict:
    """Independent oracle: naive level-set fixpoint over explicit word
    prefixes within the cap, no data structures shared with the decider.
    With a length bound it stops after that many levels.

    Returns the same verdict kind, and for positive answers the length of
    a shortest in-cap witness (no witness word is produced).  ``explored``
    is the number of nodes in the levels expanded before the answer.
    """
    if length_bound is not None and length_bound < 0:
        raise PreconditionError(f"length bound {length_bound} is negative")
    out: dict[str, list[tuple[int, int, str]]] = {q: [] for q in vass.states}
    for p, letter, r in vass.edges:
        out[p].append((letter.x, letter.y, r))
    level = {(q, source.x, source.y) for q in vass.initial}
    seen = set(level)
    explored = 0
    length = 0
    goal = {(q, target.x, target.y) for q in vass.accepting}
    while level:
        if level & goal:
            return Verdict(
                kind=REACHABLE, cap=cap, explored=explored, length=length, bound=length_bound
            )
        if length == length_bound:
            break
        explored += len(level)
        if explored > budget:
            raise BudgetExceededError(f"oracle exceeded its budget of {budget} states")
        nxt = set()
        for q, x, y in level:
            for dx, dy, r in out[q]:
                nx, ny = x + dx, y + dy
                if 0 <= nx <= cap and 0 <= ny <= cap and (r, nx, ny) not in seen:
                    nxt.add((r, nx, ny))
        seen |= nxt
        level = nxt
        length += 1
    return Verdict(kind=UNREACHABLE_WITHIN_CAP, cap=cap, explored=explored, bound=length_bound)
