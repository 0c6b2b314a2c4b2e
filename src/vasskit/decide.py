"""Reachability decisions for planar vector addition systems with states.

One breadth-first search, ``decide_capped_bfs``, decides the general
system.  It explores (automaton state, configuration) pairs with both
counters bounded by a cap, level by level, each pair at most once; an
optional length bound stops it from expanding past that depth, and a
budget on expanded pairs ends every search.  A positive answer comes with
a shortest in-cap witness; a negative answer is only ever "unreachable
within this cap" (and bound), because the cap for the general system is
heuristic.  The same kernel decides simple schemes: ``schemes.slps_reach``
runs it on a scheme's path automaton at a cap backed by an explicit bound,
so there, and only there, a negative answer is unconditional.

The kernel numbers the automaton's states 0..n-1 in declaration order
and keys a node (state i, x, y) by the one int ``(x*(cap+1) + y)*n + i``.
Each state's successor list, built once per call from ``Vass.edges_from``,
stores per edge the key delta ``(dx*(cap+1) + dy)*n + j - i`` next to the
letter and the edge's position in that list.  ``parents`` maps each
discovered key to ``parent_key*maxdeg + position`` (None for a start node),
where maxdeg is the largest out-degree; the witness is decoded from these
codes.  ``parents`` is a dict, so memory follows the reachable region,
never the cap.  The exploration order is fixed: initial states in sorted
order, edges in declaration order, the first parent found wins, the goal
test runs when a node is taken from the frontier and the budget test when
it is expanded.  Hence ``explored``, the witness and its state trace do
not depend on how nodes are represented.

``brute_force_oracle`` is a separate, deliberately naive search that
shares no code with the kernel, so that it can cross-check it; verifying
an "unreachable within cap" certificate runs it, not the kernel.
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


def _rebuild(parents, key, names, out, maxdeg):
    """The word and state trace of the search path ending at node ``key``,
    decoded from its chain of parent codes."""
    n = len(names)
    word: list[PlaneVector] = []
    states = [names[key % n]]
    code = parents[key]
    while code is not None:
        key, j = divmod(code, maxdeg)
        word.append(out[key % n][j][0])
        states.append(names[key % n])
        code = parents[key]
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
    names = vass.states
    n = len(names)
    width = cap + 1
    index = {q: i for i, q in enumerate(names)}
    out = [vass.edges_from(q) for q in names]
    succ = [
        [((v.x * width + v.y) * n + index[r] - i, v.x, v.y, j) for j, (v, r) in enumerate(edges)]
        for i, edges in enumerate(out)
    ]
    maxdeg = max(map(len, out), default=0)
    goals = {(target.x * width + target.y) * n + index[q] for q in vass.accepting}
    parents: dict[int, Optional[int]] = {}
    frontier: list[int] = []
    for q in sorted(vass.initial):
        key = (source.x * width + source.y) * n + index[q]
        if key not in parents:
            parents[key] = None
            frontier.append(key)
    explored = 0
    depth = 0
    while frontier:
        last = depth == length_bound
        nxt_frontier: list[int] = []
        push = nxt_frontier.append
        for key in frontier:
            if key in goals:
                word, states = _rebuild(parents, key, names, out, maxdeg)
                return Verdict(
                    kind=REACHABLE, cap=cap, witness=word, states=states,
                    explored=explored, bound=length_bound,
                )
            if last:
                continue
            explored += 1
            if explored > budget:
                largest = max(max(divmod(k // n, width)) for k in frontier)
                # a caught exception keeps this frame alive through its traceback
                del parents, frontier, nxt_frontier, push
                raise BudgetExceededError(
                    f"search exceeded its budget of {budget} states at depth {depth};"
                    f" largest counter on the frontier: {largest}"
                )
            point, i = divmod(key, n)
            x, y = divmod(point, width)
            base = key * maxdeg
            for delta, dx, dy, j in succ[i]:
                if 0 <= x + dx <= cap and 0 <= y + dy <= cap:
                    nxt = key + delta
                    if nxt not in parents:
                        parents[nxt] = base + j
                        push(nxt)
        frontier = nxt_frontier
        depth += 1
    return Verdict(kind=UNREACHABLE_WITHIN_CAP, cap=cap, explored=explored, bound=length_bound)


def brute_force_oracle(
    vass: Vass, source: Configuration, target: Configuration, cap: int,
    budget: int = 200_000, length_bound: Optional[int] = None,
) -> Verdict:
    """Independent oracle: naive level-set fixpoint over explicit word
    prefixes within the cap, no data structures shared with the decider.
    With a length bound it stops after that many levels.

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
            for p, letter, r in vass.edges:
                if p != q:
                    continue
                nx, ny = x + letter.x, y + letter.y
                if 0 <= nx <= cap and 0 <= ny <= cap and (r, nx, ny) not in seen:
                    nxt.add((r, nx, ny))
        seen |= nxt
        level = nxt
        length += 1
    return Verdict(kind=UNREACHABLE_WITHIN_CAP, cap=cap, explored=explored, bound=length_bound)
