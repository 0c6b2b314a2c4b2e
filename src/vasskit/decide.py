"""Reachability decisions for planar vector addition systems with states.

One breadth-first search, ``decide_capped_bfs``, decides the general
system.  It explores (automaton state, configuration) pairs with both
counters bounded by a cap, level by level, each pair at most once.  A
positive answer comes with a shortest in-cap witness; a negative answer
is only ever "unreachable within this cap" (and bound), because the cap
for the general system is heuristic.  The same kernel decides simple
schemes: ``schemes.slps_reach`` runs it on a scheme's path automaton at a
cap backed by an explicit bound, so there, and only there, a negative
answer is unconditional.

Both forms of the kernel and ``brute_force_oracle`` keep one level
contract.  Level d holds the pairs first reached by d letters.  Before it
is expanded, the search returns the first goal in it, stops if d is the
optional length bound, adds the level's size to ``explored``, and raises
BudgetExceededError if that passes the budget, naming depth d and the
largest counter in the level.  So ``explored`` counts the pairs of the
levels expanded before the answer.

The kernel stores the nodes in one of two forms, chosen per call by the
size of the grid: padded grids of at most ``GRID_BITS`` bits per
automaton state go to the dense form, and a cap whose grid is larger
even unpadded (the command line's default caps, the scheme caps) goes
straight to the sparse form, before any other set-up.

The dense form, ``_dense_levels``, holds node sets as one int per
automaton state, a bitset over the padded grid [0,cap] x [0,cap+P] with
bit x*W + y for node (x, y), row stride W = cap+1+P and P the largest
|dy| of a letter.  A letter (dx, dy) on an edge i -> j is one shift by
dx*W + dy OR-ed into state j's set; the P pad columns and the int's two
ends catch every step that leaves the cap, and a mask clears them.  A
letter with a coordinate beyond the cap never fires inside it, so the
dense form leaves it out of its shifts and of the pad P.

Without a length bound it first saturates in place: each letter's shift
of its source state's whole reached set is OR-ed into the target state's,
sweep after sweep, until a sweep adds nothing, a goal is reached or a
count finds more than ``budget`` nodes.  The BFS levels partition the
in-cap reachable set, so when no goal is in it and it holds at most
``budget`` nodes, its size is the ``explored`` of the level-by-level
search and the answer is UnreachableWithinCap.  The set is counted at
that fixpoint, and after any other sweep only when the last count, a
lower bound as the set only grows, does not already keep the search
dense under the thin test below.  A length bound, a goal
or a larger set runs the levels: each level is the shifted previous one
minus the nodes already seen.  The level that holds a goal is answered
from the levels kept so far (``_spell``): a backward pass marks the
nodes of each level that lead to a goal, and a forward walk from the
first marked initial state takes, at each node, the first edge into a
marked node.  That is the least shortest path in the sparse form's
order, so it is the sparse form's witness.  Both the saturation and the
levels hand the query to the sparse form once their shifts have cost
more word operations per node than ``THIN_WORDS``, so that a deep search
of a few nodes per level costs about what the sparse form costs; the
levels are let go once they hold more than ``KEEP_WORDS`` words per
expanded node, and a goal after that also goes to the sparse form.

The sparse form, ``_sparse_bfs``, numbers the automaton's states 0..n-1
in declaration order and keys a node (state i, x, y) by the one int
``(x*(cap+1) + y)*n + i``.  Each state's successor list, built once per
call from ``Vass.edges_from``, stores per edge the key delta
``(dx*(cap+1) + dy)*n + j - i`` next to the letter and the edge's
position in that list.  ``parents`` maps each discovered key to
``parent_key*maxdeg + position`` (None for a start node), where maxdeg is
the largest out-degree; the witness is decoded from these codes.
``parents`` is a dict, so memory follows the reachable region; only
grids of at most ``GRID_BITS`` bits per state are ever sized by the cap.
The exploration order is fixed: initial states in sorted order, edges in
declaration order, the first parent found wins.  A node's search-tree
path is therefore the least of its shortest paths in the order (initial
state, edge position, edge position, ...), and both forms return the one
to the first goal in that order, with the same state trace.

``brute_force_oracle`` is a separate, deliberately naive search that
shares no code with the kernel, so that it can cross-check it; verifying
an "unreachable within cap" certificate runs it, not the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Configuration, PlaneVector, Vass, Word
from .errors import BudgetExceededError, PreconditionError

REACHABLE = "Reachable"
UNREACHABLE_WITHIN_CAP = "UnreachableWithinCap"


@dataclass(frozen=True)
class Verdict:
    """A decision with provenance: the cap and any length bound used, the
    witness (word and state trace) when reachable, and ``explored``, the
    number of nodes in the BFS levels expanded before the answer."""

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


# Grids of at most this many bits per automaton state, (cap+1)*(cap+1+pad),
# are searched as bitsets; larger ones go straight to the sparse loop.  On
# the path automata of 400 random simple schemes (K = 1..3, letters of norm
# <= 2, endpoints <= 6; 2-vCPU Xeon VM) dense/sparse time was 0.87 at cap
# 30, 0.47 at cap 100, 0.40 at cap 250 and 2.51 at cap 1000.  Those
# searches are shallow, a few nodes per level over few levels.
GRID_BITS = 1 << 16

# A dense level costs about (words + SHIFT_WORDS) word operations per shift,
# however few nodes it holds, and one node of the sparse loop about 220 of
# them (least squares over 139 searches, 2-vCPU Xeon VM: 5.9 ns per word,
# 1.65 us per shift, 1.30 us per sparse node).  Once the shifts so far
# cost more than THIN_WORDS per node expanded (or reached, in the
# saturation), with a grace of cap nodes, the levels are too thin for
# bitsets and the query goes to the sparse loop.  No vass-bfs query of
# seeds 1..10 and 7919 crosses it, in the saturation or in the levels; a
# search of one node per level at cap 250, which took 8.6x the sparse time
# when the level loop ran to the end, hands over after about 45 sweeps.
SHIFT_WORDS = 256
THIN_WORDS = 384

# The dense form keeps its levels for spelling a witness while they hold at
# most this many words per expanded node, twice that while spelling; the
# sparse loop's parent codes cost about 18.6 (tracemalloc peak of a
# 90,596-node search).  vass-bfs positives keep at most 3.5.
KEEP_WORDS = 16


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
    UnreachableWithinCap.  Raises BudgetExceededError when the levels it
    must expand hold more than budget states.
    """
    if cap < max(source.norm, target.norm):
        raise PreconditionError(
            f"cap {cap} below the endpoint norms {max(source.norm, target.norm)}"
        )
    if length_bound is not None and length_bound < 0:
        raise PreconditionError(f"length bound {length_bound} is negative")
    if (cap + 1) ** 2 <= GRID_BITS:
        verdict = _dense_levels(vass, source, target, cap, length_bound, budget)
        if verdict is not None:
            return verdict
    return _sparse_bfs(vass, source, target, cap, length_bound, budget)


def _budget_error(budget: int, depth: int, largest: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"search exceeded its budget of {budget} states at depth {depth};"
        f" largest counter on the frontier: {largest}"
    )


def _dense_levels(vass, source, target, cap, length_bound, budget):
    """The search on one bitset per automaton state, bit x*w + y for node
    (x, y); None when the padded grid has more than GRID_BITS bits, once
    the levels turn out too thin, or when a level holds a goal after its
    levels were let go."""
    # a letter with a coordinate beyond the cap never fires inside it
    letters = [(p, v, q) for p, v, q in vass.edges if v.norm <= cap]
    w = cap + 1 + max((abs(v.y) for _, v, _ in letters), default=0)
    if (cap + 1) * w > GRID_BITS:
        return None
    names = vass.states
    index = {q: i for i, q in enumerate(names)}
    row = (1 << (cap + 1)) - 1
    # sum of 2^(r*w) over r = 0..cap is (2^((cap+1)*w) - 1) / (2^w - 1)
    mask = row * (((1 << ((cap + 1) * w)) - 1) // ((1 << w) - 1))
    words = ((cap + 1) * w >> 6) + 1
    moves = [set() for _ in names]
    for p, v, q in letters:
        moves[index[p]].add((v.x * w + v.y, index[q]))
    level = [0] * len(names)
    for q in vass.initial:
        level[index[q]] = 1 << (source.x * w + source.y)
    goal = 1 << (target.x * w + target.y)
    goals = [index[q] for q in vass.accepting]

    def thin(shifts, nodes):
        return shifts * (words + SHIFT_WORDS) > THIN_WORDS * (nodes + cap)

    if length_bound is None:
        reached = list(level)
        shifts = nodes = 0  # nodes: the last count, a lower bound as the set only grows
        while not any(reached[j] & goal for j in goals):
            before = list(reached)
            for i, out in enumerate(moves):
                if reached[i]:
                    shifts += len(out)
                    for shift, j in out:
                        bits = reached[i]
                        reached[j] |= (bits << shift if shift >= 0 else bits >> -shift) & mask
            fixed = reached == before
            if fixed or thin(shifts, nodes):
                nodes = sum(bits.bit_count() for bits in reached)
                if nodes > budget:
                    break  # the levels name the depth of the budget error
            if fixed:
                return Verdict(kind=UNREACHABLE_WITHIN_CAP, cap=cap, explored=nodes)
            if thin(shifts, nodes):
                return None
    unseen = [mask & ~bits for bits in level]
    levels = []  # kept to spell a witness while they cost at most KEEP_WORDS per node
    kept = explored = depth = shifts = 0
    while any(level):
        if any(level[j] & goal for j in goals):
            if levels is None:
                return None
            word, states = _spell(vass, source, cap, w, moves, levels + [level], goal, goals)
            return Verdict(
                kind=REACHABLE, cap=cap, witness=word, states=states,
                explored=explored, bound=length_bound,
            )
        if depth == length_bound:
            break
        explored += sum(bits.bit_count() for bits in level)
        if explored > budget:
            raise _budget_error(budget, depth, _largest(level, w, cap))
        if levels is not None:
            levels.append(level)
            kept += sum(bits.bit_length() for bits in level) >> 6
            if kept > KEEP_WORDS * (explored + cap):
                levels = None
        shifts += sum(len(out) for bits, out in zip(level, moves) if bits)
        nxt = _successors(level, moves)
        for j, bits in enumerate(nxt):
            bits &= unseen[j]
            unseen[j] ^= bits
            nxt[j] = bits
        if thin(shifts, explored):
            return None
        level = nxt
        depth += 1
    return Verdict(kind=UNREACHABLE_WITHIN_CAP, cap=cap, explored=explored, bound=length_bound)


def _successors(sets, moves):
    """The bitsets one letter away from the given ones, unmasked."""
    nxt = [0] * len(sets)
    for bits, out in zip(sets, moves):
        if bits:
            for shift, j in out:
                nxt[j] |= bits << shift if shift >= 0 else bits >> -shift
    return nxt


def _largest(level, w, cap):
    """The largest counter of a node in the level's bitsets."""
    row = (1 << (cap + 1)) - 1
    union = 0
    for bits in level:
        union |= bits
    ys = max(((union >> (r * w)) & row).bit_length() for r in range(cap + 1))
    return max((union.bit_length() - 1) // w, ys - 1)


def _spell(vass, source, cap, w, moves, levels, goal, goals):
    """The sparse loop's witness from the dense levels 0..L, the last one
    holding a goal: the least shortest path to a goal in the order
    (initial state, edge position, edge position, ...), as its word and
    state trace."""
    n = len(levels[0])
    last = len(levels) - 1
    # on[i]: the nodes of level i that start a path to a goal in level L
    on = [[0] * n for _ in levels]
    for j in goals:
        on[last][j] = levels[last][j] & goal
    for i in range(last - 1, -1, -1):
        for p, out in enumerate(moves):
            if levels[i][p]:
                back = 0
                for shift, j in out:
                    bits = on[i + 1][j]
                    back |= bits >> shift if shift >= 0 else bits << -shift
                on[i][p] = levels[i][p] & back
    index = {q: i for i, q in enumerate(vass.states)}
    edges = [vass.edges_from(q) for q in vass.states]
    pos = source.x * w + source.y
    first = next(q for q in sorted(vass.initial) if on[0][index[q]])
    i = index[first]
    word, states = [], [first]
    for k in range(last):
        x, y = divmod(pos, w)
        for v, r in edges[i]:
            if 0 <= x + v.x <= cap and 0 <= y + v.y <= cap:
                step = pos + v.x * w + v.y
                j = index[r]
                if on[k + 1][j] >> step & 1:
                    break
        word.append(v)
        states.append(r)
        pos, i = step, j
    return tuple(word), tuple(states)


def _sparse_bfs(vass, source, target, cap, length_bound, budget):
    """The search node by node, with a parent code per discovered node."""
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
        if not goals.isdisjoint(frontier):
            key = next(key for key in frontier if key in goals)
            word, states = _rebuild(parents, key, names, out, maxdeg)
            return Verdict(
                kind=REACHABLE, cap=cap, witness=word, states=states,
                explored=explored, bound=length_bound,
            )
        if depth == length_bound:
            break
        explored += len(frontier)
        if explored > budget:
            largest = max(max(divmod(k // n, width)) for k in frontier)
            # a caught exception keeps this frame alive through its traceback
            del parents, frontier
            raise _budget_error(budget, depth, largest)
        nxt_frontier: list[int] = []
        push = nxt_frontier.append
        for key in frontier:
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
    a shortest in-cap witness (no witness word is produced).  ``explored``
    is the number of nodes in the levels expanded before the answer.
    """
    if length_bound is not None and length_bound < 0:
        raise PreconditionError(f"length bound {length_bound} is negative")
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
