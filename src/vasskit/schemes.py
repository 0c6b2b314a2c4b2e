"""Scheme transformations and the complete simple-scheme decider.

A general linear path scheme is split into at most 3^K simple schemes by
fixing, per cycle, whether it is used zero times, exactly once, or at
least twice; the last case replaces the cycle by its single-vector effect
flanked by one unrolled copy on each side.  Simple schemes admit a
complete reachability decision: admissible paths between the endpoints
can be capped by an explicit bound on visited-point norms.  The decider
has no search of its own and builds no automaton: it fills
``decide.search_table``'s integer table straight from the scheme's
letters, segments as edges to the next state and cycles as self-loops,
runs that search at the cap, and reads the cycle exponents off the
witness's state trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    Configuration,
    Lps,
    Slps,
    WitnessResult,
    ZERO,
    effect,
)
from .decide import search_table
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

    Runs ``decide.search_table`` from source to target at ``search_cap``
    on the scheme's chain of states 0..K+1: a_0 is the edge 0 -> 1, and
    state i+1 lists its self-loop b_i before its exit a_(i+1) to state
    i+2, the order that fixes which of several equally short witnesses
    the search returns.  So a negative answer is unconditional and a
    positive one is a shortest admissible path within that cap.  The
    witness spends n_i + 1 states on state i+1, which gives cycle exponent
    n_i; its run is re-checked, and its largest visited norm read, on the
    2K+2 corners where its straight stretches end.  Raises
    BudgetExceededError when the levels the search must expand hold more
    than ``budget`` nodes.
    """
    (a,) = scheme.alphas[0]
    out = [[(a.x, a.y, 1)]]
    for i, ((b,), (a,)) in enumerate(zip(scheme.betas, scheme.alphas[1:]), 1):
        out.append([(b.x, b.y, i), (a.x, a.y, i + 1)])
    out.append([])
    cap = search_cap(scheme, source, target)
    _, trace = search_table(out, [0], [scheme.K + 1], source, target, cap, None, budget)
    if trace is None:
        return WitnessResult(reachable=False)
    states = trace[0]
    exponents = tuple(states.count(i + 1) - 1 for i in range(scheme.K))
    # the coordinates of the corners: the source, then where a_0 and each
    # stretch b_i^n_i and a_(i+1) end
    (a,) = scheme.alphas[0]
    x, y = source.x + a.x, source.y + a.y
    corners = [source.x, source.y, x, y]
    for (b,), (a,), n in zip(scheme.betas, scheme.alphas[1:], exponents):
        x, y = x + n * b.x, y + n * b.y
        corners += (x, y, x + a.x, y + a.y)
        x, y = x + a.x, y + a.y
    if min(corners) < 0 or (x, y) != (target.x, target.y):
        raise InternalDefectError("search produced an invalid witness")
    return WitnessResult(reachable=True, member=0, exponents=exponents, max_visited_norm=max(corners))
