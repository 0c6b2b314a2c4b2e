"""Serialization and independent re-checking of result certificates.

Three line formats exist:

    shortening: scheme=<file> original=<n1,..> reduced=<n1,..> delta=<x,y> source=<x,y>
    verdict: kind=<k> cap=<n> bound=<n> length=<n> word=<x1,y1;x2,y2;...> states=<q0,q1,...>
    result: reachable=<bool> member=<i> exponents=<n1,..> maxnorm=<n>

A certificate file holds one such line; verdict and result lines are
preceded by an ``instance: <file>`` line naming the instance they answer,
since those formats carry no file reference themselves.  Verification
never trusts the producer: shortening invariants are re-run, witnesses
are re-executed against the automaton, and negative answers are
re-decided by ``brute_force_oracle``, which shares no code with the
searches that produced them: "unreachable within cap" verdicts under the
stated cap and bound, and simple-scheme "reachable=false" results on the
scheme's path automaton under the cap of the simple-scheme bound.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .core import Configuration, PlaneVector, SchemePath, Slps, Vass, Word, instantiate, run
from .decide import (
    REACHABLE, UNREACHABLE_WITHIN_CAP, Verdict, brute_force_oracle, witness_violation,
)
from .errors import ParseError
from .instances import load_instance, parse_pair
from .schemes import WitnessResult, search_cap
from .shortening import Shortening, shortening_violation


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


def serialize_verdict(v: Verdict) -> str:
    parts = [f"verdict: kind={v.kind}", f"cap={v.cap}"]
    if v.bound is not None:
        parts.append(f"bound={v.bound}")
    if v.length is not None:
        parts.append(f"length={v.length}")
    if v.witness is not None:
        parts.append("word=" + ";".join(f"{w.x},{w.y}" for w in v.witness))
    if v.states is not None:
        parts.append("states=" + ",".join(v.states))
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
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad verdict certificate: {exc}", lineno)


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
    certificate's directory."""
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    violations: list[str] = []
    instance_file: Optional[str] = None
    empty = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        empty = False
        key, _, rest = line.partition(":")
        rest = rest.strip()
        if key == "instance":
            instance_file = os.path.join(base, rest)
        elif key == "shortening":
            cert = parse_shortening(rest, lineno)
            violations.extend(_check_shortening(cert, base, lineno))
        elif key == "verdict":
            verdict = parse_verdict(rest, lineno)
            violations.extend(_check_verdict(verdict, instance_file, lineno))
        elif key == "result":
            result = parse_result(rest, lineno)
            violations.extend(_check_result(result, instance_file, lineno))
        else:
            raise ParseError(f"unknown certificate line {key!r}", lineno)
    if empty:
        raise ParseError("empty certificate file")
    return violations


def _check_shortening(cert: ShorteningCert, base: str, lineno: int) -> list[str]:
    instance = load_instance(os.path.join(base, cert.scheme_file))
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


def _check_verdict(verdict: Verdict, instance_file: Optional[str], lineno: int) -> list[str]:
    if instance_file is None:
        return [f"line {lineno}: verdict without a preceding instance line"]
    instance = load_instance(instance_file)
    if instance.kind != "vass" or instance.query is None:
        return [f"line {lineno}: verdict instance must be a vass with a query"]
    s, t = instance.query
    if verdict.kind == REACHABLE:
        reason = witness_violation(instance.vass, s, t, verdict.witness or (), verdict.states)
        if reason is not None:
            return [f"line {lineno}: {reason}"]
        if verdict.length != len(verdict.witness or ()):
            return [f"line {lineno}: stated length does not match the witness"]
        if verdict.bound is not None and verdict.length > verdict.bound:
            return [f"line {lineno}: witness is longer than the stated bound"]
        for point in run(verdict.witness or (), s).visited:
            if point.norm > verdict.cap:
                return [f"line {lineno}: witness leaves the stated cap at {point}"]
        return []
    if verdict.kind == UNREACHABLE_WITHIN_CAP:
        floor = max(s.norm, t.norm)
        if verdict.cap < floor:
            return [f"line {lineno}: stated cap {verdict.cap} is below the endpoint norms {floor}"]
        again = brute_force_oracle(
            instance.vass, s, t, verdict.cap, budget=2_000_000, length_bound=verdict.bound
        )
        if again.kind != UNREACHABLE_WITHIN_CAP:
            return [f"line {lineno}: target is reachable within the stated cap"]
        return []
    return [f"line {lineno}: unknown verdict kind {verdict.kind!r}"]


def _check_result(result: WitnessResult, instance_file: Optional[str], lineno: int) -> list[str]:
    if instance_file is None:
        return [f"line {lineno}: result without a preceding instance line"]
    instance = load_instance(instance_file)
    if instance.kind != "slps" or instance.query is None:
        return [f"line {lineno}: result instance must be a simple scheme with a query"]
    s, t = instance.query
    scheme = instance.scheme
    if result.reachable:
        trace = run(instantiate(scheme, result.exponents or ()), s)
        if not trace.admissible or trace.target != t.to_vector():
            return [f"line {lineno}: stated exponents are not a valid witness"]
        if result.max_visited_norm != max(p.norm for p in trace.visited):
            return [f"line {lineno}: stated maxnorm does not match the witness run"]
        return []
    again = brute_force_oracle(_path_vass(scheme), s, t, search_cap(scheme, s, t), budget=2_000_000)
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
