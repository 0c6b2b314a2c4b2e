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
from itertools import accumulate
from typing import Iterator, Optional

from .core import (
    Configuration,
    Lps,
    PlaneVector,
    Slps,
    Vass,
    WitnessResult,
    ZERO,
    effect,
)
from .decide import decide_capped_bfs
from .errors import BudgetExceededError, InternalDefectError


@dataclass(frozen=True)
class SlpsMember:
    """One simple scheme of a split family, with its usage profile and,
    per cycle position, the index of the originating cycle (None for
    padding zero-cycles)."""

    scheme: Slps
    profile: tuple[int, ...]
    cycle_origin: tuple[Optional[int], ...]


# the most simple schemes ``split_lps`` yields (3^10 are 32 MB of ``flatten`` output)
MAX_SPLIT_MEMBERS = 3**10


def split_lps(scheme: Lps) -> Iterator[SlpsMember]:
    """Split a general scheme into simple schemes, one per cycle-usage
    profile (0, 1 or >=2 uses), preserving the union of reachability
    relations.

    A member's fixed letters fall into groups split by its normalized
    cycles; a group's letters after its first are segments behind
    zero-cycles, and an empty group is the zero letter.  Profiles are
    walked depth-first in (0, 1, 2) order, ``itertools.product``'s, each
    prefix carrying its closed segments, cycles and origins and its open
    group, so members share the input's letters; each is yielded as the
    walk reaches it.

    Raises BudgetExceededError when called, before building anything, if
    the 3^K members would be more than MAX_SPLIT_MEMBERS.
    """
    k = scheme.K
    if 3**k > MAX_SPLIT_MEMBERS:
        raise BudgetExceededError(
            f"splitting {k} cycles makes {3**k} simple schemes,"
            f" more than the limit of {MAX_SPLIT_MEMBERS}"
        )
    alphas = [tuple((a,) for a in word) for word in scheme.alphas]
    betas = [tuple((b,) for b in word) for word in scheme.betas]
    effects = [((effect(word),),) for word in scheme.betas]
    zero = (ZERO,)

    def walk(i, profile, segs, cycs, origins, group):
        if i == k:
            pad = len(group) - 1
            simple = Slps(segs + (group or (zero,)), cycs + (zero,) * pad)
            yield SlpsMember(simple, profile, origins + (None,) * pad)
            return
        beta, alpha = betas[i], alphas[i + 1]
        yield from walk(i + 1, profile + (0,), segs, cycs, origins, group + alpha)
        yield from walk(i + 1, profile + (1,), segs, cycs, origins, group + beta + alpha)
        pad = len(group) + len(beta) - 1
        yield from walk(i + 1, profile + (2,), segs + group + beta, cycs + (zero,) * pad + effects[i],
                        origins + (None,) * pad + (i,), beta + alpha)

    return walk(0, (), (), (), (), alphas[0])


def origin_turns(member: SlpsMember) -> tuple[tuple[int, Optional[int]], ...]:
    """How a member path takes each origin cycle, as (turns, position): the
    cycle is taken ``turns`` times plus the member path's exponent at cycle
    ``position`` (None: no exponent).  Omitted cycles are (0, None),
    unrolled ones (1, None) and normalized ones (2, position), since m
    turns of the effect letter stand for m+2 turns of the cycle."""
    turns = [(1 if usage == 1 else 0, None) for usage in member.profile]
    for pos, origin in enumerate(member.cycle_origin):
        if origin is not None:
            turns[origin] = (2, pos)
    return tuple(turns)


def norm_bound_value(cycles: int, norm: int) -> int:
    """Exact ceiling of 2914.5 * K * norm^15 (0 in the degenerate cases)."""
    if cycles == 0 or norm == 0:
        return 0
    return (5829 * cycles * norm**15 + 1) // 2


def norm_bound(scheme: Slps) -> int:
    return norm_bound_value(scheme.K, scheme.norm)


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
    cycle exponent n_i; its run is re-checked, and its largest visited norm
    read, on the 2K+2 corners where its straight stretches end.  Raises
    BudgetExceededError when the levels the kernel must expand hold more
    than ``budget`` automaton states.
    """
    cap = search_cap(scheme, source, target)
    verdict = decide_capped_bfs(_path_automaton(scheme), source, target, cap, budget=budget)
    if verdict.states is None:
        return WitnessResult(reachable=False)
    exponents = tuple(verdict.states.count(f"q{i + 1}") - 1 for i in range(scheme.K))
    steps = [scheme.alpha_vec(0)]
    for i, n in enumerate(exponents):
        steps += [scheme.beta_vec(i).scale(n), scheme.alpha_vec(i + 1)]
    corners = list(accumulate(steps, PlaneVector.__add__, initial=source.to_vector()))
    if min(min(p.x, p.y) for p in corners) < 0 or corners[-1] != target.to_vector():
        raise InternalDefectError("search produced an invalid witness")
    return WitnessResult(
        reachable=True,
        member=0,
        exponents=exponents,
        max_visited_norm=max(p.norm for p in corners),
    )
