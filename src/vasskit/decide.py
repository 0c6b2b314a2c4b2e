"""Reachability decisions for planar vector addition systems with states.

One breadth-first search, ``decide_capped_bfs``, decides the general
system.  It explores (automaton state, configuration) pairs with both
counters bounded by a cap, level by level, each pair at most once; an
optional length bound stops it from expanding past that depth, and a
budget on expanded pairs ends every search.  A positive answer comes with
a shortest in-cap witness; a negative answer is only ever "unreachable
within this cap" (and bound), because the cap for the general system is
heuristic.  Unconditional negative answers are reserved for the
simple-scheme decider, whose cap is backed by an explicit bound.

``brute_force_oracle`` is a separate, deliberately naive search that
shares no code with the kernel, so that it can cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Configuration, PlaneVector, Vass, Word, run
from .errors import BudgetExceededError, PreconditionError

REACHABLE = "Reachable"
UNREACHABLE_WITHIN_CAP = "UnreachableWithinCap"


@dataclass(frozen=True)
class Verdict:
    """A decision with provenance: the cap and any length bound used, the
    witness (word and state trace) when reachable, and an explored-state
    statistic."""

    kind: str
    cap: int
    witness: Optional[Word] = None
    states: Optional[tuple[str, ...]] = None
    explored: int = 0
    length: Optional[int] = None  # witness length; oracles report it without a word
    bound: Optional[int] = None  # the length bound of a length-bounded search

    def __post_init__(self):
        if self.witness is not None and self.length is None:
            object.__setattr__(self, "length", len(self.witness))


def default_cap(vass: Vass, source: Configuration, target: Configuration) -> int:
    """Pragmatic pseudo-polynomial cap: 64*(n+1)*(norm+1)^4 over the
    state count and the norm of the alphabet plus both endpoints.

    A heuristic default, not a completeness guarantee.
    """
    n = len(vass.states)
    norm = max(vass.norm, source.norm, target.norm)
    return 64 * (n + 1) * (norm + 1) ** 4


def witness_violation(
    vass: Vass, source: Configuration, target: Configuration, word: Word, states
) -> Optional[str]:
    """Check a reachability witness against the automaton and the counters;
    None when valid, else the violated condition."""
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
    return None


def _reconstruct(parents, goal):
    word: list[PlaneVector] = []
    states: list[str] = [goal[0]]
    node = goal
    while parents[node] is not None:
        prev, letter = parents[node]
        word.append(letter)
        states.append(prev[0])
        node = prev
    word.reverse()
    states.reverse()
    return tuple(word), tuple(states)


def decide_capped_bfs(
    vass: Vass,
    source: Configuration,
    target: Configuration,
    cap: int,
    *,
    length_bound: Optional[int] = None,
    budget: int = 2_000_000,
) -> Verdict:
    """Breadth-first search over (state, x, y) with x, y <= cap, and with
    words of at most length_bound letters when a bound is given.

    Returns a shortest in-cap witness when one exists, else
    UnreachableWithinCap.  Raises BudgetExceededError once more than
    budget states have been expanded.
    """
    if cap < max(source.norm, target.norm):
        raise PreconditionError(
            f"cap {cap} below the endpoint norms {max(source.norm, target.norm)}"
        )
    if length_bound is not None and length_bound < 0:
        raise PreconditionError(f"length bound {length_bound} is negative")
    goal_xy = (target.x, target.y)
    parents: dict[tuple, Optional[tuple]] = {}
    frontier: list[tuple] = []
    for q in sorted(vass.initial):
        node = (q, source.x, source.y)
        if node not in parents:
            parents[node] = None
            frontier.append(node)
    explored = 0
    depth = 0
    while frontier:
        last = depth == length_bound
        nxt_frontier = []
        for node in frontier:
            if node[0] in vass.accepting and (node[1], node[2]) == goal_xy:
                word, states = _reconstruct(parents, node)
                return Verdict(
                    kind=REACHABLE, cap=cap, witness=word, states=states,
                    explored=explored, bound=length_bound,
                )
            if last:
                continue
            explored += 1
            if explored > budget:
                raise BudgetExceededError(f"search exceeded its budget of {budget} states")
            q, x, y = node
            for letter, nxt_state in vass.edges_from(q):
                nx, ny = x + letter.x, y + letter.y
                if nx < 0 or ny < 0 or nx > cap or ny > cap:
                    continue
                nxt = (nxt_state, nx, ny)
                if nxt not in parents:
                    parents[nxt] = (node, letter)
                    nxt_frontier.append(nxt)
        frontier = nxt_frontier
        depth += 1
    return Verdict(kind=UNREACHABLE_WITHIN_CAP, cap=cap, explored=explored, bound=length_bound)


def brute_force_oracle(
    vass: Vass, source: Configuration, target: Configuration, cap: int, budget: int = 200_000
) -> Verdict:
    """Independent oracle: naive level-set fixpoint over explicit word
    prefixes within the cap, no data structures shared with the decider.

    Returns the same verdict kind, and for positive answers the length of
    a shortest in-cap witness (no witness word is produced).
    """
    level = {(q, source.x, source.y) for q in vass.initial}
    seen = set(level)
    explored = 0
    length = 0
    goal = {(q, target.x, target.y) for q in vass.accepting}
    while level:
        if level & goal:
            return Verdict(kind=REACHABLE, cap=cap, explored=explored, length=length)
        explored += len(level)
        if explored > budget:
            raise BudgetExceededError(f"oracle exceeded its budget of {budget} states")
        nxt = set()
        for q, x, y in level:
            for p, letter, r in vass.edges:
                if p != q:
                    continue
                nx, ny = x + letter.x, y + letter.y
                if 0 <= nx <= cap and 0 <= ny <= cap and (r, nx, ny) not in seen:
                    nxt.add((r, nx, ny))
        seen |= nxt
        level = nxt
        length += 1
    return Verdict(kind=UNREACHABLE_WITHIN_CAP, cap=cap, explored=explored)
