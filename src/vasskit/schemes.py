"""Scheme transformations and the complete simple-scheme decider.

A general linear path scheme is split into at most 3^K simple schemes by
fixing, per cycle, whether it is used zero times, exactly once, or at
least twice; the last case replaces the cycle by its single-vector effect
flanked by one unrolled copy on each side.  Simple schemes admit a
complete reachability decision: admissible paths between the wrapped
endpoints can be capped by an explicit bound on visited-point norms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .core import (
    Configuration,
    Lps,
    PlaneVector,
    SchemePath,
    Slps,
    Word,
    ZERO,
    effect,
    instantiate,
    run,
)
from .errors import BudgetExceededError, PreconditionError


def loop_normalize(scheme: Lps) -> Lps:
    """Replace every starred cycle by its effect vector, flanked by one
    unrolled copy of the cycle on each side.

    Sound only when every cycle is meant to be used at least twice: m
    repetitions of the effect letter stand for m+2 repetitions of the
    original cycle, and the two runs are admissible for exactly the same
    sources (see check_loop_lemma).
    """
    k = scheme.K
    if k == 0:
        return scheme
    alphas: list[Word] = []
    for i in range(k + 1):
        word = scheme.alphas[i]
        if i > 0:
            word = scheme.betas[i - 1] + word
        if i < k:
            word = word + scheme.betas[i]
        alphas.append(word)
    betas = tuple((effect(b),) for b in scheme.betas)
    return Lps(tuple(alphas), betas)


def _tuple_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _admissible_from(word: Sequence[tuple], start: tuple) -> bool:
    point = tuple(start)
    if any(c < 0 for c in point):
        return False
    for step in word:
        point = _tuple_add(point, step)
        if any(c < 0 for c in point):
            return False
    return True


def check_loop_lemma(word, start, m: int, d: int) -> tuple[bool, bool]:
    """Compare admissibility of word^(m+2) with word (eff word)^m word.

    Works in dimension d <= 4 over plain integer tuples.  Returns the two
    booleans; they are provably equal, which callers assert.
    """
    if not 1 <= d <= 4:
        raise PreconditionError(f"dimension {d} outside the supported range 1..4")
    if m < 0:
        raise PreconditionError("repetition count must be non-negative")
    letters = [tuple(v) for v in word]
    start = tuple(start)
    if len(start) != d or any(len(v) != d for v in letters):
        raise PreconditionError("vector dimensions must all equal d")
    if any(c < 0 for c in start):
        raise PreconditionError("start point must be non-negative")
    eff = tuple(sum(v[i] for v in letters) for i in range(d))
    repeated = letters * (m + 2)
    flanked = letters + [eff] * m + letters
    return _admissible_from(repeated, start), _admissible_from(flanked, start)


@dataclass(frozen=True)
class SlpsMember:
    """One simple scheme of a split family, with its usage profile and,
    per cycle position, the index of the originating cycle (None for
    padding zero-cycles)."""

    scheme: Slps
    profile: tuple[int, ...]
    cycle_origin: tuple[Optional[int], ...]


@dataclass(frozen=True)
class SlpsFamily:
    origin: Lps
    members: tuple[SlpsMember, ...]


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


def split_lps(scheme: Lps) -> SlpsFamily:
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
    return SlpsFamily(origin=scheme, members=tuple(members))


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


def _scheme_items(scheme: Slps, prefix: Word = (), suffix: Word = ()):
    """Flatten a scheme (with optional wrapper letters) into a list of
    ('L', vector) fixed letters and ('C', vector, cycle index) cycles."""
    items: list[tuple] = [("L", v) for v in prefix]
    items.append(("L", scheme.alpha_vec(0)))
    for i in range(scheme.K):
        items.append(("C", scheme.beta_vec(i), i))
        items.append(("L", scheme.alpha_vec(i + 1)))
    items.extend(("L", v) for v in suffix)
    return items


def _capped_search(items, cycles: int, cap: int, budget: int):
    """Shortest admissible 0 -> 0 path through the item list with every
    visited point's norm at most ``cap``.

    0-1 breadth-first search: letter edges cost one, skipping past a
    cycle costs nothing, so the front is ordered by word length.  Returns
    cycle exponents or None when the capped space is exhausted.
    """
    start = (0, 0, 0)
    goal = (len(items), 0, 0)
    dist: dict[tuple, int] = {start: 0}
    parents: dict[tuple, Optional[tuple]] = {start: None}
    queue: deque[tuple[int, tuple]] = deque([(0, start)])
    explored = 0
    while queue:
        d, state = queue.popleft()
        if d > dist.get(state, d):
            continue  # stale entry superseded by a relaxation
        if state == goal:
            break
        explored += 1
        if explored > budget:
            raise BudgetExceededError(f"capped search exceeded its budget of {budget} states")
        pos, x, y = state
        moves = []
        if pos < len(items):
            kind, vec = items[pos][0], items[pos][1]
            if kind == "C":
                moves.append((1, (pos, x + vec.x, y + vec.y)))  # take the cycle once
                moves.append((0, (pos + 1, x, y)))  # or move past it
            else:
                moves.append((1, (pos + 1, x + vec.x, y + vec.y)))
        for cost, nxt in moves:
            _, nx, ny = nxt
            if nx < 0 or ny < 0 or nx > cap or ny > cap:
                continue
            nd = d + cost
            if nd >= dist.get(nxt, nd + 1):
                continue
            dist[nxt] = nd
            parents[nxt] = state
            if cost == 0:
                queue.appendleft((nd, nxt))
            else:
                queue.append((nd, nxt))
    if goal not in parents:
        return None
    exponents = [0] * cycles
    state = goal
    while parents[state] is not None:
        prev = parents[state]
        if prev[0] == state[0] and state != prev:
            kind, _vec, idx = items[prev[0]][0], items[prev[0]][1], items[prev[0]][2]
            if kind == "C":
                exponents[idx] += 1
        state = prev
    return tuple(exponents)


DEFAULT_SEARCH_BUDGET = 5_000_000


def slps_reach(
    scheme: Slps, source: Configuration, target: Configuration, budget: int = DEFAULT_SEARCH_BUDGET
) -> WitnessResult:
    """Complete reachability decision for a simple scheme.

    Wraps the scheme as (source) . scheme . (-target), so the question
    becomes an admissible 0 -> 0 path; such a path, if one exists, exists
    within the explicit norm cap, making a negative answer unconditional.
    """
    if scheme.norm == 0:
        reachable = source == target
        exps = (0,) * scheme.K if reachable else None
        return WitnessResult(
            reachable, member=0 if reachable else None, exponents=exps,
            max_visited_norm=source.norm if reachable else None,
        )
    wrapped_norm = max(scheme.norm, source.norm, target.norm)
    cap = norm_bound_value(scheme.K + 2, wrapped_norm)
    items = _scheme_items(
        scheme, prefix=(source.to_vector(),), suffix=(-target.to_vector(),)
    )
    exponents = _capped_search(items, scheme.K, cap, budget)
    if exponents is None:
        return WitnessResult(reachable=False)
    trace = run(instantiate(scheme, exponents), source)
    if not trace.admissible or trace.target != target.to_vector():
        raise BudgetExceededError("search produced an invalid witness")  # pragma: no cover
    return WitnessResult(
        reachable=True,
        member=0,
        exponents=exponents,
        max_visited_norm=max(p.norm for p in trace.visited),
    )


def shortest_zero_witness(
    scheme: Slps, budget: int = DEFAULT_SEARCH_BUDGET
) -> Optional[SchemePath]:
    """A minimum-length admissible 0 -> 0 path of the scheme, or None."""
    cap = norm_bound(scheme)
    return _capped_search(_scheme_items(scheme), scheme.K, cap, budget)
