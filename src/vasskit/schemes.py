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
runs that search at the cap ``query_cap`` gives the table's norm, and
reads the cycle exponents off the witness's state trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, Optional

from .core import (
    Configuration,
    Lps,
    Slps,
    WitnessResult,
    ZERO,
    effect,
)
from .decide import search_table, table_norm_and_degree
from .errors import BudgetExceededError, InternalDefectError


@dataclass(frozen=True)
class SlpsMember:
    """One simple scheme of a split family, with its usage profile and,
    per cycle position, the index of the originating cycle (None for
    padding zero-cycles)."""

    scheme: Slps
    profile: tuple[int, ...]
    cycle_origin: tuple[Optional[int], ...]


# the most simple schemes ``split_walk`` yields (3^10 are 32 MB of ``flatten`` output)
MAX_SPLIT_MEMBERS = 3**10


def split_walk(scheme: Lps, usages: tuple, segment: Callable, cycle: Callable) -> Iterator[tuple]:
    """Split a general scheme into simple schemes, one per cycle-usage
    profile (0, 1 or >=2 uses), preserving the union of reachability
    relations; yields (profile, member), both in the caller's forms.

    A profile is the concatenation of its cycles' ``usages[n]``.  A member
    is written in ``segment(v)``, the form of a segment letter v, and
    ``cycle(v, origin)``, that of a cycle letter, ``origin`` the index of
    the cycle whose effect v is or None for a zero-cycle pad.  Forms
    concatenate with ``+`` (text or tuples).  A cycle is omitted (0),
    unrolled once into the open group of letters (1), or normalized (2):
    its first copy closes the group, its effect letter stands for its
    further turns, and its second copy opens the next group.  A group is
    written as its letters with a zero-cycle pad between each two
    (``then``), an empty group as the zero letter.  Profiles are walked
    depth-first in (0, 1, 2) order, ``itertools.product``'s, each prefix
    carrying its closed part and its open group already written, so the
    members share them and each costs one concatenation; each is yielded
    as the walk reaches it.

    Raises BudgetExceededError when called, before building anything, if
    the 3^K members would be more than MAX_SPLIT_MEMBERS.
    """
    k = scheme.K
    if 3**k > MAX_SPLIT_MEMBERS:
        raise BudgetExceededError(
            f"splitting {k} cycles makes {3**k} simple schemes,"
            f" more than the limit of {MAX_SPLIT_MEMBERS}"
        )
    pad, zero = cycle(ZERO, None), segment(ZERO)

    def then(first, second):
        """Two written groups as one (None: an empty group)."""
        if first is None:
            return second
        return first if second is None else first + pad + second

    def written(word):
        return reduce(then, map(segment, word), None)

    alphas = [written(word) for word in scheme.alphas]
    betas = [written(word) for word in scheme.betas]
    effects = [cycle(effect(word), i) for i, word in enumerate(scheme.betas)]
    omitted, unrolled, normalized = usages

    def walk():
        # the pending prefixes as (cycles decided, profile, closed part, open
        # group), pushed in reverse so that the profiles come out in order;
        # x[:0] is the empty form of x's kind, "" or ()
        stack = [(0, omitted[:0], zero[:0], alphas[0])]
        while stack:
            i, profile, closed, group = stack.pop()
            if i == k:
                yield profile, closed + (zero if group is None else group)
                continue
            beta, alpha = betas[i], alphas[i + 1]
            stack += (
                (i + 1, profile + normalized, closed + then(group, beta) + effects[i], then(beta, alpha)),
                (i + 1, profile + unrolled, closed, then(then(group, beta), alpha)),
                (i + 1, profile + omitted, closed, then(group, alpha)),
            )

    return walk()


def split_lps(scheme: Lps) -> Iterator[SlpsMember]:
    """``split_walk``'s members as ``SlpsMember``s, which share the input's
    letters; raises BudgetExceededError as it does, when called."""
    # a member's flat form: segment word, cycle word, cycle origin, and so
    # on, ending with a segment word
    members = split_walk(scheme, ((0,), (1,), (2,)), lambda v: ((v,),), lambda v, origin: ((v,), origin))
    return (SlpsMember(Slps(flat[0::3], flat[1::3]), profile, flat[2::3]) for profile, flat in members)


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


def query_cap(cycles: int, norm: int, source: Configuration, target: Configuration) -> int:
    """The explicit norm cap of a query on a simple scheme of ``cycles``
    cycles and letter norm ``norm``: if an admissible source -> target
    path exists, one exists whose visited norms all stay within it."""
    return norm_bound_value(cycles + 2, max(norm, source.norm, target.norm))


def search_cap(scheme: Slps, source: Configuration, target: Configuration) -> int:
    """``query_cap`` of a query on ``scheme``."""
    return query_cap(scheme.K, scheme.norm, source, target)


# the answer of every negative query; WitnessResult is frozen, so it is shared
_UNREACHABLE = WitnessResult(reachable=False)


def slps_reach(
    scheme: Slps, source: Configuration, target: Configuration, budget: int = DEFAULT_SEARCH_BUDGET
) -> WitnessResult:
    """Complete reachability decision for a simple scheme.

    Runs ``decide.search_table`` from source to target at ``search_cap``'s
    cap on the scheme's chain of states 0..K+1: a_0 is the edge 0 -> 1, and
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
    # the table holds each letter of the scheme once, so its norm is the scheme's
    norm, _ = table_norm_and_degree(out)
    cap = query_cap(scheme.K, norm, source, target)
    _, trace = search_table(out, [0], [scheme.K + 1], source, target, cap, None, budget)
    if trace is None:
        return _UNREACHABLE
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
