"""Scheme transformations and the complete simple-scheme decider.

A general linear path scheme is split into at most 3^K simple schemes by
fixing, per cycle, whether it is used zero times, exactly once, or at
least twice; the last case replaces the cycle by its single-vector effect
flanked by one unrolled copy on each side.  Simple schemes admit a
complete reachability decision: admissible paths between the endpoints
can be capped by an explicit bound on visited-point norms.  The decider
has no search of its own: it runs ``decide.decide_capped_bfs`` at that
cap on the scheme's path automaton, segments as edges and cycles as
self-loops, and reads the cycle exponents off the witness's state trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .core import (
    Configuration,
    Lps,
    PlaneVector,
    SchemePath,
    Slps,
    Vass,
    ZERO,
    effect,
    instantiate,
    run,
)
from .decide import decide_capped_bfs
from .errors import InternalDefectError


@dataclass(frozen=True)
class SlpsMember:
    """One simple scheme of a split family, with its usage profile and,
    per cycle position, the index of the originating cycle (None for
    padding zero-cycles)."""

    scheme: Slps
    profile: tuple[int, ...]
    cycle_origin: tuple[Optional[int], ...]


def _assemble_simple(groups: list[list[PlaneVector]], cycles) -> tuple[Slps, tuple]:
    """Turn alternating fixed-letter groups and starred cycles into a
    simple scheme, inserting zero-cycles between extra fixed letters and
    zero letters for empty groups.  ``cycles`` holds (vector, origin)."""
    alphas: list[PlaneVector] = []
    betas: list[PlaneVector] = []
    origins: list[Optional[int]] = []
    for j, group in enumerate(groups):
        letters = group or [ZERO]
        alphas.append(letters[0])
        for letter in letters[1:]:
            betas.append(ZERO)
            origins.append(None)
            alphas.append(letter)
        if j < len(cycles):
            vec, origin = cycles[j]
            betas.append(vec)
            origins.append(origin)
    scheme = Slps(tuple((a,) for a in alphas), tuple((b,) for b in betas))
    return scheme, tuple(origins)


def split_lps(scheme: Lps) -> tuple[SlpsMember, ...]:
    """Split a general scheme into simple schemes, one per cycle-usage
    profile (0, 1 or >=2 uses), preserving the union of reachability
    relations."""
    k = scheme.K
    members = []
    for profile in product((0, 1, 2), repeat=k):
        groups: list[list[PlaneVector]] = [list(scheme.alphas[0])]
        cycles: list[tuple[PlaneVector, int]] = []
        for i, usage in enumerate(profile):
            beta = scheme.betas[i]
            if usage == 0:
                pass
            elif usage == 1:
                groups[-1].extend(beta)
            else:
                groups[-1].extend(beta)
                cycles.append((effect(beta), i))
                groups.append(list(beta))
                groups[-1].extend(scheme.alphas[i + 1])
                continue
            groups[-1].extend(scheme.alphas[i + 1])
        simple, origins = _assemble_simple(groups, cycles)
        members.append(SlpsMember(scheme=simple, profile=profile, cycle_origin=origins))
    return tuple(members)


def origin_exponents(member: SlpsMember, exponents: SchemePath, origin_cycles: int) -> SchemePath:
    """Map a member path back to origin-cycle repetition counts: omitted
    cycles contribute 0, unrolled ones 1, normalized ones m+2."""
    reps = [0] * origin_cycles
    for i, usage in enumerate(member.profile):
        if usage == 1:
            reps[i] = 1
    for pos, origin in enumerate(member.cycle_origin):
        if origin is not None:
            reps[origin] = exponents[pos] + 2
    return tuple(reps)


def norm_bound_value(cycles: int, norm: int) -> int:
    """Exact ceiling of 2914.5 * K * norm^15 (0 in the degenerate cases)."""
    if cycles == 0 or norm == 0:
        return 0
    return (5829 * cycles * norm**15 + 1) // 2


def norm_bound(scheme: Slps) -> int:
    return norm_bound_value(scheme.K, scheme.norm)


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of a complete simple-scheme decision."""

    reachable: bool
    member: Optional[int] = None
    exponents: Optional[SchemePath] = None
    max_visited_norm: Optional[int] = None


def _path_automaton(scheme: Slps) -> Vass:
    """The scheme as a path automaton over states q0..q(K+1): a_i is the
    edge q_i -> q_(i+1) and b_i a self-loop on q_(i+1).  Each state lists
    its self-loop before its exit edge; that order fixes which of several
    equally short witnesses the kernel returns."""
    states = tuple(f"q{i}" for i in range(scheme.K + 2))
    edges = [(states[0], scheme.alpha_vec(0), states[1])]
    for i in range(scheme.K):
        q = states[i + 1]
        edges += [(q, scheme.beta_vec(i), q), (q, scheme.alpha_vec(i + 1), states[i + 2])]
    return Vass(states, tuple(edges), frozenset({states[0]}), frozenset({states[-1]}))


DEFAULT_SEARCH_BUDGET = 5_000_000


def search_cap(scheme: Slps, source: Configuration, target: Configuration) -> int:
    """The explicit norm cap of a simple-scheme query: if an admissible
    source -> target path exists, one exists whose visited norms all stay
    within it."""
    return norm_bound_value(scheme.K + 2, max(scheme.norm, source.norm, target.norm))


def slps_reach(
    scheme: Slps, source: Configuration, target: Configuration, budget: int = DEFAULT_SEARCH_BUDGET
) -> WitnessResult:
    """Complete reachability decision for a simple scheme.

    Runs the capped BFS kernel on the scheme's path automaton from source
    to target at ``search_cap``, so a negative answer is unconditional
    and a positive one is a shortest admissible path within that cap.
    The kernel's witness spends n_i + 1 states on q_(i+1), which gives
    cycle exponent n_i.  Raises BudgetExceededError once more than
    ``budget`` automaton states have been expanded.
    """
    cap = search_cap(scheme, source, target)
    verdict = decide_capped_bfs(_path_automaton(scheme), source, target, cap, budget=budget)
    if verdict.states is None:
        return WitnessResult(reachable=False)
    exponents = tuple(verdict.states.count(f"q{i + 1}") - 1 for i in range(scheme.K))
    trace = run(instantiate(scheme, exponents), source)
    if not trace.admissible or trace.target != target.to_vector():
        raise InternalDefectError("search produced an invalid witness")
    return WitnessResult(
        reachable=True,
        member=0,
        exponents=exponents,
        max_visited_norm=max(p.norm for p in trace.visited),
    )
