"""Reachability decisions for planar vector addition systems with states.

The route runner ``decide`` answers the command line's queries.  Without
a length bound it tries two search-free routes at the cap, in this
order, and answers UnreachableWithinCap with ``explored`` 0 and the
route's ``Refutation`` when one refutes the query; otherwise, and always
under a length bound, it returns the verdict of ``decide_capped_bfs``.
The box route (``_box_refutation``) joins the source into the initial
states' boxes and each edge's image of its source's box, clipped to
[0, cap]^2, into its target's box, one strongly connected component at
a time in topological order (``_components``); inside a component it
sweeps the component's edges until a sweep changes nothing, widening to 0
or to the cap any bound that still grows after the second sweep, and
then fires the edges that leave it once; it gives up as soon as an
accepting state's box holds the target.  The lattice route
(``_lattice_refutation``) gives the states a breadth-first spanning
forest's potentials, the initial states 0, and spans the lattice of the
other edges' discrepancies in ``lattice``.  It ignores the cap: its
refutations hold at every cap.

One breadth-first search, ``decide_capped_bfs``, decides the general
system.  It explores (automaton state, configuration) pairs with both
counters bounded by a cap, level by level, each pair at most once.  A
positive answer comes with a shortest in-cap witness; a negative answer
is only ever "unreachable within this cap" (and bound), because the cap
for the general system is heuristic.  The same kernel decides simple
schemes: ``schemes.slps_reach`` runs its sparse form on a scheme's chain
table at a cap backed by an explicit bound, so there, and only there, a
negative answer is unconditional.

Both forms of the kernel and ``certificates.brute_force_oracle`` keep
one level contract.  Level d holds the pairs first reached by d letters.
Before it is expanded, the search returns the first goal in it, stops if
d is the optional length bound, adds the level's size to ``explored``,
and raises BudgetExceededError if that passes the budget, naming depth d
and the largest counter in the level.  So ``explored`` counts the pairs
of the levels expanded before the answer.

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

Without a length bound it first saturates in place, one strongly
connected component of the automaton at a time, in topological order
(``_components``).  A component's own letters, each state's self-loops
before its other edges, shift their source state's whole reached set and
OR it into the target state's, sweep after sweep, until a sweep adds
nothing; then the letters that leave the component fire once.  No later
component feeds an earlier one, so each is swept only once its inputs
are final.  The sweeps stop early when a goal is reached or a count
finds more than ``budget`` nodes.  The BFS levels partition the in-cap
reachable set, so when no goal is in it and it holds at most ``budget``
nodes, its size is the ``explored`` of the level-by-level search and the
answer is UnreachableWithinCap.  The set is counted at each component's
fixpoint, and after any other sweep only when the last count, a lower
bound as the set only grows, does not already keep the search dense
under the thin test below.  A length bound, a goal
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

The sparse form, ``search_table``, runs on an integer table, its input
contract.  The automaton's states are 0..n-1, ``out[i]`` lists the edges
of state i as (dx, dy, j), j the target state, in edge order, and the
initial and accepting states are lists of indices, the initial ones in
the order they are explored.  It returns ``explored`` and, when it
reaches a goal, the witness as its trace of states and of edge positions
in their ``out`` lists.  Two front doors fill the table.
``_sparse_bfs`` numbers a ``Vass``'s states in declaration order, lists
each state's edges in ``Vass.edges_from`` order and its initial states
in sorted order, and spells the trace back as a ``Verdict``'s word and
state names.  ``schemes.slps_reach`` fills a chain straight from a simple
scheme's letters and reads the cycle exponents off the state trace.

The sparse form keys a node (state i, x, y) by the one int
``((x*W + y) << b) | i``, with b the bit length of n-1, so ``key & low``
(low = 2^b - 1) is its state.  The row width W is min(cap, R) + 1, with
R = max(source norm, target norm) + L * (norm of the alphabet) and L the
budget plus one, or min(budget, length bound) plus one: a level is
expanded only while ``explored``, which every level raises by at least
one, is within the budget, so no node keyed before the answer or the
budget-out has a counter above R, and the goal's key, which R covers
too, aliases no other node's.  Under a scheme cap of about 10^15 a key
thus stays below about (budget*norm)^2 * 2^b, one or two 30-bit digits
of a Python int, where cap^2 took four.  The set-up reads the table
twice: once for the alphabet's norm and maxdeg, the largest out-degree,
together (``table_norm_and_degree``, which ``slps_reach`` also calls for
its cap), then, with W, b and (cap+1)*W fixed, for the successor lists.
Each state's successor list stores per edge the key delta
``((dx*W + dy) << b) + j - i``, the keys whose x lets the letter fire
(as 0 <= y < W, the bounds 0 <= x + dx <= cap read
``(-dx*W) << b <= key < ((cap+1-dx)*W) << b``), the range [-dy, cap-dy]
its y must lie in, and the edge's position in that list.  A node reads
its y, ``(key >> b) % W``, once; a letter that keeps y has the range
[0, cap], which every y meets.  ``parents`` maps each discovered key to
``parent_key*maxdeg + position`` (None for a start node); ``_rebuild``
decodes the trace from these codes.  ``parents`` is a dict, so memory
follows the reachable region; only grids of at most ``GRID_BITS`` bits
per state are ever sized by the cap.  The exploration order is fixed:
initial states in their given order, edges in table order, the first
parent found wins.  A node's search-tree path is therefore the least
of its shortest paths in the order (initial state, edge position, edge
position, ...), and both forms return the one to the first goal in that
order, with the same state trace.

``brute_force_oracle`` is a separate, deliberately naive search that
shares no code with the kernel, so that it can cross-check it.  It lives
in ``certificates``, whose check of an "unreachable within cap"
certificate runs it, not the kernel; ``decide.brute_force_oracle`` is
only a re-export of it, the name the benchmark harness calls.
"""

from __future__ import annotations

from typing import Optional

from . import certificates, lattice
from .core import REACHABLE, UNREACHABLE_WITHIN_CAP, Configuration, Refutation, Vass, Verdict
from .errors import BudgetExceededError, PreconditionError

brute_force_oracle = certificates.brute_force_oracle  # perfbench calls decide.brute_force_oracle


def default_cap(vass: Vass, source: Configuration, target: Configuration) -> int:
    """Pragmatic pseudo-polynomial cap: 64*(n+1)*(norm+1)^4 over the
    state count and the norm of the alphabet plus both endpoints.

    A heuristic default, not a completeness guarantee.
    """
    n = len(vass.states)
    norm = max(vass.norm, source.norm, target.norm)
    return 64 * (n + 1) * (norm + 1) ** 4


def _rebuild(parents, key, maxdeg, low):
    """The state and position trace of the search path ending at node
    ``key``, decoded from its chain of parent codes: ``divmod(code,
    maxdeg)`` is the parent's key and the edge's position in the parent
    state's list, and ``key & low`` is a key's state."""
    states = [key & low]
    positions = []
    code = parents[key]
    while code is not None:
        key, j = divmod(code, maxdeg)
        positions.append(j)
        states.append(key & low)
        code = parents[key]
    states.reverse()
    positions.reverse()
    return states, positions


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
# seeds 1..10 and 7919 crosses it, in the saturation or in the levels
# (re-checked with the saturation in component order); a search of one
# node per level at cap 250, which took 8.6x the sparse time when the
# level loop ran to the end, hands over after 46 sweeps.
SHIFT_WORDS = 256
THIN_WORDS = 384

# The dense form keeps its levels for spelling a witness while they hold at
# most this many words per expanded node, twice that while spelling; the
# sparse loop's parent codes cost about 18.7 at any cap (tracemalloc peak
# per node: 18.6 on the 90,600-node grid at cap 300, 18.7 on 90,000-node
# budget-outs of that grid at caps 300 to 7*10**18, where keys sized by
# the cap took 20.6).  vass-bfs positives keep at most 3.5.
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


def decide(
    vass: Vass, source: Configuration, target: Configuration, cap: int,
    length_bound: Optional[int] = None,
) -> Verdict:
    """The route runner: UnreachableWithinCap with ``explored`` 0 and a
    refutation when the box route or else the lattice route refutes the
    query at the cap, and otherwise, or with a length bound, the verdict
    of ``decide_capped_bfs``."""
    if length_bound is None and cap >= max(source.norm, target.norm):
        index = {q: i for i, q in enumerate(vass.states)}
        moves = [[] for _ in vass.states]  # per state: (letter, target) in edge order
        for p, v, q in vass.edges:
            moves[index[p]].append(((v.x, v.y), index[q]))
        initial = sorted(index[q] for q in vass.initial)
        accepting = [index[q] for q in vass.accepting]
        for route in (_box_refutation, _lattice_refutation):
            refutation = route(moves, initial, accepting, source, target, cap)
            if refutation is not None:
                route_name, values, basis = refutation
                named = tuple((q, value) for q, value in zip(vass.states, values) if value is not None)
                return Verdict(
                    kind=UNREACHABLE_WITHIN_CAP, cap=cap,
                    refutation=Refutation(route_name, named, basis),
                )
    return decide_capped_bfs(vass, source, target, cap, length_bound=length_bound)


def _box_refutation(moves, initial, accepting, source, target, cap):
    """The forward boxes per state of the module docstring, None for a
    state without one; ("box", boxes, None) when no accepting state's box
    holds the target, else None, returned once one does: boxes only grow,
    so it is checked after each sweep and after each component's exits."""
    boxes = [None] * len(moves)
    for i in initial:
        boxes[i] = (source.x, source.x, source.y, source.y)

    tx, ty = target.x, target.y

    def holds_target():
        for j in accepting:
            box = boxes[j]
            if box is not None and box[0] <= tx <= box[1] and box[2] <= ty <= box[3]:
                return True
        return False

    for part, inner, exits in _components(moves):
        if not any(boxes[i] for i in part):
            continue
        sweeps = 0
        while True:
            before = [boxes[i] for i in part]
            _join_images(inner, boxes, cap)
            if holds_target():
                return None
            sweeps += 1
            if [boxes[i] for i in part] == before:
                break
            if sweeps > 2:
                for i, old in zip(part, before):
                    if old is not None:
                        xlo, xhi, ylo, yhi = boxes[i]
                        boxes[i] = (
                            0 if xlo < old[0] else xlo, cap if xhi > old[1] else xhi,
                            0 if ylo < old[2] else ylo, cap if yhi > old[3] else yhi,
                        )
        _join_images(exits, boxes, cap)
        if holds_target():
            return None
    # a box only changes in a component that holds one, which ends in a check
    return "box", boxes, None


def _join_images(moves, boxes, cap):
    """Join each move's image of its source's box, clipped to [0, cap]^2,
    into its target's box, in order and in place."""
    for i, (dx, dy), j in moves:
        box = boxes[i]
        if box is None:
            continue
        xlo, xhi = max(box[0] + dx, 0), min(box[1] + dx, cap)
        ylo, yhi = max(box[2] + dy, 0), min(box[3] + dy, cap)
        if xlo > xhi or ylo > yhi:
            continue
        old = boxes[j]
        if old is not None:
            xlo, xhi = min(xlo, old[0]), max(xhi, old[1])
            ylo, yhi = min(ylo, old[2]), max(yhi, old[3])
        boxes[j] = (xlo, xhi, ylo, yhi)


def _lattice_refutation(moves, initial, accepting, source, target, cap):
    """The potentials of the module docstring, None for a state the
    control graph does not reach, and the lattice of the discrepancies
    phi(p) + v - phi(r); ("lattice", potentials, basis) when no accepting
    state's t - s - phi(q) lies in the lattice, else None."""
    phi = [None] * len(moves)
    for i in initial:
        phi[i] = (0, 0)
    basis = lattice.ZERO_LATTICE
    queue = list(initial)  # breadth first: the list grows while it is read
    for p in queue:
        px, py = phi[p]
        for (dx, dy), r in moves[p]:
            x, y = px + dx, py + dy
            if phi[r] is None:
                phi[r] = (x, y)
                queue.append(r)
            else:
                basis = lattice.add(basis, x - phi[r][0], y - phi[r][1])
    dx, dy = target.x - source.x, target.y - source.y
    for j in accepting:
        if phi[j] is not None and lattice.contains(basis, dx - phi[j][0], dy - phi[j][1]):
            return None
    return "lattice", phi, basis


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
        for part, inner, exits in _components(moves):
            if not any(reached[i] for i in part):
                continue
            fixed = not inner  # nothing to sweep; the end tests and counts it
            while not (fixed or any(reached[j] & goal for j in goals)):
                before = [reached[i] for i in part]
                shifts += _fire(inner, reached, mask)
                fixed = [reached[i] for i in part] == before
                if fixed or thin(shifts, nodes):
                    nodes = sum(bits.bit_count() for bits in reached)
                    if nodes > budget:
                        break
                if thin(shifts, nodes):
                    return None
            if not fixed or nodes > budget:
                break  # a goal, or more than budget nodes: the levels name the depth
            shifts += _fire(exits, reached, mask)
        else:
            if not any(reached[j] & goal for j in goals):
                nodes = sum(bits.bit_count() for bits in reached)
                if nodes <= budget:
                    return Verdict(kind=UNREACHABLE_WITHIN_CAP, cap=cap, explored=nodes)
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


def _components(moves):
    """The strongly connected components of the moves between automaton
    states, in topological order, each as (states, inner moves, exit
    moves); a move is (source, label, target), the label a bitset shift
    or a letter, and among each state's inner moves its self-loops come
    first."""
    n = len(moves)
    reach = [1 << i for i in range(n)]  # reach[i]: the states i reaches, as a bitmask
    for i, out in enumerate(moves):
        for _, j in out:
            reach[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    # the states of a component share a reach set, and a component that
    # reaches another reaches strictly more states
    parts = {}
    for i in sorted(range(n), key=lambda i: -reach[i].bit_count()):
        parts.setdefault(reach[i], []).append(i)
    components = []
    for part in parts.values():
        inner, exits = [], []
        for i in part:
            inner += [(i, shift, i) for shift, j in moves[i] if j == i]
            for shift, j in moves[i]:
                if j != i:
                    (inner if reach[j] == reach[i] else exits).append((i, shift, j))
        components.append((part, inner, exits))
    return components


def _fire(moves, reached, mask):
    """OR each move's shift of its source's set, masked, into its target's
    set, in order and in place; returns the number of shifts."""
    for i, shift, j in moves:
        bits = reached[i]
        reached[j] |= (bits << shift if shift >= 0 else bits >> -shift) & mask
    return len(moves)


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
    """The sparse search on a Vass: its table in declaration order, its
    initial states in sorted order, and the witness spelled back in its
    letters and state names."""
    names = vass.states
    index = {q: i for i, q in enumerate(names)}
    out = [[] for _ in names]  # Vass.edges_from of each state, in one pass
    letters = [[] for _ in names]
    for p, v, r in vass.edges:
        i = index[p]
        out[i].append((v.x, v.y, index[r]))
        letters[i].append(v)
    initial = [index[q] for q in sorted(vass.initial)]
    accepting = [index[q] for q in vass.accepting]
    explored, trace = search_table(out, initial, accepting, source, target, cap, length_bound, budget)
    if trace is None:
        return Verdict(kind=UNREACHABLE_WITHIN_CAP, cap=cap, explored=explored, bound=length_bound)
    states, positions = trace
    return Verdict(
        kind=REACHABLE, cap=cap,
        witness=tuple(letters[i][j] for i, j in zip(states, positions)),
        states=tuple(names[i] for i in states), explored=explored, bound=length_bound,
    )


def table_norm_and_degree(out):
    """A table's alphabet norm and largest out-degree, in one pass."""
    norm = maxdeg = 0
    for edges in out:
        if len(edges) > maxdeg:
            maxdeg = len(edges)
        for dx, dy, _ in edges:
            if not -norm <= dx <= norm:
                norm = abs(dx)
            if not -norm <= dy <= norm:
                norm = abs(dy)
    return norm, maxdeg


def search_table(out, initial, accepting, source, target, cap, length_bound, budget):
    """The search node by node on a table, with a parent code per
    discovered node: ``explored``, and the trace (states, positions) of the
    search path to the first goal reached, or None."""
    n = len(out)
    norm, maxdeg = table_norm_and_degree(out)
    # Level d is expanded only below the length bound and while explored,
    # at least d+1 as every level holds a node, is within the budget; so a
    # node keyed before the answer or the budget-out is at most
    # min(budget, length bound) letters from a source, each letter moves a
    # counter by at most the alphabet's norm, and both its counters are
    # below width.  target.norm keeps the goal's key from aliasing another.
    steps = max(0, budget if length_bound is None else min(budget, length_bound))
    width = min(cap, max(source.x, source.y, target.x, target.y) + (steps + 1) * norm) + 1
    shift = (n - 1).bit_length()
    low = (1 << shift) - 1
    # x steps a key by unit, and the keys below top are those with x <= cap
    unit = width << shift
    top = (cap + 1) * unit
    # per edge: the key delta, the keys whose x lets the letter fire (as
    # 0 <= y < width, a plain range), the y range it needs, and its position
    succ = []
    for i, edges in enumerate(out):
        row = []
        for pos, (dx, dy, j) in enumerate(edges):
            lo = -dx * unit
            row.append(((dy << shift) + j - i - lo, lo, top + lo, -dy, cap - dy, pos))
        succ.append(row)
    start = (source.x * width + source.y) << shift
    goal = (target.x * width + target.y) << shift
    goals = {goal | j for j in accepting}
    parents: dict[int, Optional[int]] = {}
    frontier: list[int] = []
    for i in initial:
        key = start | i
        if key not in parents:
            parents[key] = None
            frontier.append(key)
    explored = 0
    depth = 0
    while frontier:
        if not goals.isdisjoint(frontier):
            key = next(key for key in frontier if key in goals)
            return explored, _rebuild(parents, key, maxdeg, low)
        if depth == length_bound:
            break
        explored += len(frontier)
        if explored > budget:
            largest = max(max(divmod(k >> shift, width)) for k in frontier)
            # a caught exception keeps this frame alive through its traceback
            del parents, frontier
            raise _budget_error(budget, depth, largest)
        nxt_frontier: list[int] = []
        push = nxt_frontier.append
        for key in frontier:
            i = key & low
            y = (key >> shift) % width
            base = key * maxdeg
            for delta, lo, hi, ylo, yhi, j in succ[i]:
                if lo <= key < hi and ylo <= y <= yhi:
                    nxt = key + delta
                    if nxt not in parents:
                        parents[nxt] = base + j
                        push(nxt)
        frontier = nxt_frontier
        depth += 1
    return explored, None
