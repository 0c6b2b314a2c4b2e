"""Capped and length-bounded reachability decisions for automata."""

from dataclasses import replace
from random import Random

import pytest

from vasskit import decide
from vasskit import (
    BudgetExceededError,
    Configuration,
    PlaneVector,
    PreconditionError,
    REACHABLE,
    UNREACHABLE_WITHIN_CAP,
    Vass,
    brute_force_oracle,
    decide_capped_bfs,
    default_cap,
    witness_violation,
)

V = PlaneVector

LOOP = Vass(("a",), (("a", V(-1, 1), "a"),), frozenset({"a"}), frozenset({"a"}))
ZERO_EDGE = Vass(
    ("a", "b"),
    (("a", V(-1, 1), "a"), ("a", V(0, 0), "b")),
    frozenset({"a"}),
    frozenset({"b"}),
)


def test_loop_reachable():
    verdict = decide_capped_bfs(LOOP, Configuration(2, 0), Configuration(0, 2), 10)
    assert verdict.kind == REACHABLE
    assert verdict.length == 2
    assert witness_violation(
        LOOP, Configuration(2, 0), Configuration(0, 2), verdict.witness, verdict.states
    ) is None


def test_loop_unreachable():
    verdict = decide_capped_bfs(LOOP, Configuration(0, 0), Configuration(1, 0), 10)
    assert verdict.kind == UNREACHABLE_WITHIN_CAP


def test_zero_edge_in_witness():
    verdict = decide_capped_bfs(ZERO_EDGE, Configuration(2, 0), Configuration(0, 2), 10)
    assert verdict.kind == REACHABLE
    assert V(0, 0) in verdict.witness
    assert verdict.states[-1] == "b"


def test_cap_below_endpoints():
    with pytest.raises(PreconditionError):
        decide_capped_bfs(LOOP, Configuration(2, 0), Configuration(0, 2), 1)


GRID = Vass(
    ("a",), (("a", V(1, 0), "a"), ("a", V(0, 1), "a")),
    frozenset({"a"}), frozenset({"a"}),
)
WALK = Vass(
    ("a",), tuple(("a", v, "a") for v in (V(1, 0), V(-1, 0), V(0, 1), V(0, -1))),
    frozenset({"a"}), frozenset({"a"}),
)


def test_bounded_witness():
    s, t = Configuration(2, 0), Configuration(0, 2)
    verdict = decide_capped_bfs(LOOP, s, t, 10, length_bound=2)
    assert verdict.kind == REACHABLE and verdict.bound == 2
    assert decide_capped_bfs(LOOP, s, t, 10, length_bound=1).kind == UNREACHABLE_WITHIN_CAP


def test_bounded_witness_budget():
    with pytest.raises(BudgetExceededError):
        decide_capped_bfs(
            GRID, Configuration(0, 0), Configuration(90, 90), 180, length_bound=180, budget=50
        )


def test_capped_budget():
    with pytest.raises(BudgetExceededError):
        decide_capped_bfs(GRID, Configuration(0, 0), Configuration(90, 90), 100, budget=50)


def test_bounded_search_expands_each_point_once():
    verdict = decide_capped_bfs(
        WALK, Configuration(60, 60), Configuration(200, 200), 200, length_bound=120
    )
    assert verdict.kind == UNREACHABLE_WITHIN_CAP
    assert verdict.explored < 25_000


def test_bounded_search_matches_oracle():
    rng = Random(2016)
    letters = [V(x, y) for x in range(-1, 2) for y in range(-1, 2)]
    for _ in range(200):
        states = ("a", "b", "c")[: rng.randint(1, 3)]
        edges = tuple(
            (rng.choice(states), rng.choice(letters), rng.choice(states))
            for _ in range(rng.randint(2, 6))
        )
        vass = Vass(states, edges, frozenset({states[0]}), frozenset({states[-1]}))
        s = Configuration(rng.randint(0, 4), rng.randint(0, 4))
        t = Configuration(rng.randint(0, 4), rng.randint(0, 4))
        bound = rng.randint(0, 8)
        cap = max(s.norm + bound * vass.norm, t.norm)
        slow = brute_force_oracle(vass, s, t, cap)
        verdict = decide_capped_bfs(vass, s, t, cap, length_bound=bound)
        if slow.kind == REACHABLE and slow.length <= bound:
            assert verdict.kind == REACHABLE and verdict.length == slow.length
            assert witness_violation(vass, s, t, verdict.witness, verdict.states) is None
        else:
            assert verdict.kind == UNREACHABLE_WITHIN_CAP


# two initial states, a parallel edge (p -> q by 1,0 and by 0,1) and
# duplicate edges (p -> q by 1,0 and q -> r by 0,0, twice each)
MULTI = Vass(
    ("p", "q", "r"),
    (
        ("q", V(0, 1), "q"),
        ("p", V(1, 0), "q"),
        ("p", V(1, 0), "q"),
        ("p", V(0, 1), "q"),
        ("q", V(-1, 1), "p"),
        ("q", V(0, 0), "r"),
        ("p", V(1, 1), "r"),
        ("q", V(0, 0), "r"),
    ),
    frozenset({"q", "p"}),
    frozenset({"r"}),
)


def test_exploration_order_pinned():
    s = Configuration(1, 0)
    verdict = decide_capped_bfs(MULTI, s, Configuration(2, 4), 6)
    assert verdict.witness == (V(1, 0), V(0, 1), V(0, 1), V(-1, 1), V(1, 1))
    assert verdict.states == ("p", "q", "q", "q", "p", "r")
    assert verdict.explored == 31
    verdict = decide_capped_bfs(MULTI, s, Configuration(1, 5), 6)
    assert verdict.witness == (V(0, 1), V(0, 1), V(0, 1), V(-1, 1), V(1, 1))
    assert verdict.states == ("p", "q", "q", "q", "p", "r")
    # both goals are in level 5, so the same levels are expanded before them
    assert verdict.explored == 31
    verdict = decide_capped_bfs(MULTI, s, Configuration(3, 3), 6)
    assert verdict.kind == UNREACHABLE_WITHIN_CAP and verdict.explored == 51


def test_huge_cap_tiny_region():
    verdict = decide_capped_bfs(LOOP, Configuration(2, 0), Configuration(0, 3), 10**9)
    assert verdict.kind == UNREACHABLE_WITHIN_CAP
    assert verdict.explored < 100
    verdict = decide_capped_bfs(LOOP, Configuration(10**9, 0), Configuration(10**9 - 2, 2), 10**9)
    assert verdict.witness == (V(-1, 1), V(-1, 1)) and verdict.explored == 2


def test_budget_message_diagnoses():
    with pytest.raises(BudgetExceededError) as info:
        decide_capped_bfs(GRID, Configuration(0, 0), Configuration(90, 90), 100, budget=50)
    # levels 0..8 of the grid hold 45 points, so level 9 passes the budget
    assert str(info.value) == (
        "search exceeded its budget of 50 states at depth 9;"
        " largest counter on the frontier: 9"
    )
    # a goal in that level is found before the level is charged
    verdict = decide_capped_bfs(GRID, Configuration(0, 0), Configuration(0, 9), 100, budget=50)
    assert verdict.kind == REACHABLE and verdict.explored == 45


def _outcome(vass, s, t, cap, bound, budget):
    try:
        return decide_capped_bfs(vass, s, t, cap, length_bound=bound, budget=budget)
    except BudgetExceededError as exc:
        return str(exc)


def _random_vass(rng):
    letters = [V(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    states = ("a", "b", "c", "d")[: rng.randint(1, 4)]
    edges = [
        (rng.choice(states), rng.choice(letters), rng.choice(states))
        for _ in range(rng.randint(1, 7))
    ]
    edges += rng.sample(edges, rng.randint(0, len(edges)))  # duplicate edges
    rng.shuffle(edges)
    return Vass(
        states, tuple(edges),
        frozenset(rng.sample(states, rng.randint(1, len(states)))),
        frozenset(rng.sample(states, rng.randint(1, len(states)))),
    )


def _summary(outcome):
    return "budget" if isinstance(outcome, str) else (outcome.kind, outcome.length, outcome.explored)


def test_dense_levels_match_sparse_loop(monkeypatch):
    # both forms and the oracle keep the same level contract
    rng = Random(7)
    budget_outs = reachable = 0
    for _ in range(2000):
        vass = _random_vass(rng)
        cap = rng.randint(0, 30)
        s = Configuration(rng.randint(0, cap), rng.randint(0, cap))
        t = Configuration(rng.randint(0, cap), rng.randint(0, cap))
        bound = rng.randint(-1, 15)
        bound = None if bound < 0 else bound
        budgets = [rng.randint(0, 300)]
        if bound is None:
            # either side of the grid's size, of the reached set's size and
            # of the levels expanded before the answer
            grid = len(vass.states) * (cap + 1) ** 2
            closed = replace(vass, accepting=frozenset())
            everything = _forced_sparse(monkeypatch, closed, s, s, cap, budget=grid)
            answer = _forced_sparse(monkeypatch, vass, s, t, cap, budget=grid)
            budgets += [
                size + d for size in (grid, everything.explored, answer.explored)
                for d in (-1, 0, 1) if size + d >= 0
            ]
        for budget in budgets:
            dense = _outcome(vass, s, t, cap, bound, budget)
            with monkeypatch.context() as m:
                m.setattr(decide, "GRID_BITS", 0)
                sparse = _outcome(vass, s, t, cap, bound, budget)
            assert dense == sparse, (vass, s, t, cap, bound, budget)
            try:
                slow = brute_force_oracle(vass, s, t, cap, budget=budget, length_bound=bound)
            except BudgetExceededError:
                slow = "budget"
            assert _summary(dense) == _summary(slow), (vass, s, t, cap, bound, budget)
            budget_outs += isinstance(dense, str)
            reachable += not isinstance(dense, str) and dense.kind == REACHABLE
    # every outcome class is exercised
    assert budget_outs > 100 and reachable > 100


def _counting_sparse(monkeypatch):
    """Patch the sparse loop to record its calls; returns the record."""
    real = decide._sparse_bfs
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(decide, "_sparse_bfs", counting)
    return calls


def test_dense_saturation_and_spelling_match_sparse_loop(monkeypatch):
    # no length bound and a budget no search here reaches: negatives end in
    # the saturation and positives are spelled from the dense levels
    rng = Random(11)
    calls = _counting_sparse(monkeypatch)
    real_successors = decide._successors
    level_steps = []

    def counting_successors(*args):
        level_steps.append(None)
        return real_successors(*args)

    monkeypatch.setattr(decide, "_successors", counting_successors)
    saturated = spelled = 0
    for _ in range(2000):
        vass = _random_vass(rng)
        cap = rng.randint(0, 60)
        s = Configuration(rng.randint(0, cap), rng.randint(0, cap))
        t = Configuration(rng.randint(0, cap), rng.randint(0, cap))
        calls.clear()
        level_steps.clear()
        dense = decide_capped_bfs(vass, s, t, cap, budget=2_000_000)
        if not calls:
            # a saturation negative never steps a level
            saturated += dense.kind == UNREACHABLE_WITHIN_CAP and not level_steps
            spelled += dense.kind == REACHABLE
        sparse = _forced_sparse(monkeypatch, vass, s, t, cap, budget=2_000_000)
        assert dense == sparse, (vass, s, t, cap)
    assert saturated >= 300 and spelled >= 300


# every node of both states' grids is reached, and no goal ends the search
FULL = Vass(
    ("a", "b"), WALK.edges + (("a", V(0, 0), "b"), ("b", V(0, 0), "a")),
    frozenset({"a"}), frozenset(),
)


def test_saturation_exits_at_full_grid():
    # a search that reaches every node of its grid
    s = Configuration(0, 0)
    for cap in (1, 5, 12):
        grid = 2 * (cap + 1) ** 2
        assert _outcome(FULL, s, s, cap, None, grid - 1).startswith("search exceeded")
        verdict = _outcome(FULL, s, s, cap, None, grid)
        assert verdict.kind == UNREACHABLE_WITHIN_CAP and verdict.explored == grid


# the components in topological order are e, u, {r1, r2} and g1 (in either
# order), g2 and f: "e" has only exit edges, no initial state reaches "u",
# the sink "f" is entered only by gate edges, "g1" -> "g2" is a chain of
# looping states, and the ring r1 <-> r2 holds a duplicate edge
PARTS = Vass(
    ("f", "g2", "r1", "u", "g1", "r2", "e"),
    (
        ("f", V(-1, 0), "f"),
        ("r1", V(1, 0), "r2"),
        ("r2", V(0, 1), "r1"),
        ("r2", V(0, 1), "r1"),
        ("r1", V(-1, 1), "r1"),
        ("r2", V(1, -2), "r2"),
        ("r1", V(0, -2), "f"),
        ("r2", V(0, -3), "f"),
        ("u", V(1, 1), "u"),
        ("u", V(2, 0), "r1"),
        ("e", V(0, 0), "r1"),
        ("e", V(1, 0), "g1"),
        ("g1", V(0, 1), "g1"),
        ("g1", V(1, 0), "g2"),
        ("g2", V(1, 1), "g2"),
        ("g2", V(-1, 0), "f"),
    ),
    frozenset({"e"}),
    frozenset(),
)


def _moves(vass):
    """The automaton's moves as ``_components`` takes them, a letter in
    place of its shift."""
    index = {q: i for i, q in enumerate(vass.states)}
    moves = [set() for _ in vass.states]
    for p, v, q in vass.edges:
        moves[index[p]].add((v, index[q]))
    return moves


def _closure(start, edges):
    """The nodes reachable from ``start`` along ``edges(node)``."""
    seen, todo = set(start), list(start)
    while todo:
        for node in edges(todo.pop()):
            if node not in seen:
                seen.add(node)
                todo.append(node)
    return seen


def test_components_in_topological_order():
    rng = Random(5)
    for _ in range(500):
        n = rng.randint(1, 6)
        moves = [
            {(rng.randint(-3, 3), rng.randrange(n)) for _ in range(rng.randint(0, 4))}
            for _ in range(n)
        ]
        parts = decide._components(moves)
        where = {i: k for k, (part, _, _) in enumerate(parts) for i in part}
        assert sorted(where) == list(range(n))
        for k, (part, inner, exits) in enumerate(parts):
            assert sorted(inner + exits) == sorted((i, s, j) for i in part for s, j in moves[i])
            assert all(where[j] == k for _, _, j in inner)
            assert all(where[j] > k for _, _, j in exits)  # every exit leads on
            for i in part:
                targets = [j for p, _, j in inner if p == i]
                assert targets == sorted(targets, key=lambda j: j != i)  # self-loops first
                assert _closure([i], lambda p: [j for q, _, j in inner if q == p]) == set(part)


def _fixpoint_counts(vass, s, cap):
    """The size of the saturated set at each fixpoint of a component that
    the initial states reach, in topological order: the nodes of the
    components so far, and those one exit away from the earlier ones."""
    reached = _closure(
        [(q, s.x, s.y) for q in vass.initial],
        lambda node: [
            (r, node[1] + v.x, node[2] + v.y) for p, v, r in vass.edges
            if p == node[0] and 0 <= node[1] + v.x <= cap and 0 <= node[2] + v.y <= cap
        ],
    )
    names = vass.states
    counts, done = [], set()
    for part, _, _ in decide._components(_moves(vass)):
        if not any(node[0] == names[i] for node in reached for i in part):
            continue
        earlier = set(done)
        done |= {names[i] for i in part}
        sent = {
            (r, x + v.x, y + v.y) for q, x, y in reached for p, v, r in vass.edges
            if p == q and q in earlier and r not in done
            and 0 <= x + v.x <= cap and 0 <= y + v.y <= cap
        }
        counts.append(sum(node[0] in done for node in reached) + len(sent))
    assert counts[-1] == len(reached)
    return counts


def test_saturation_by_components_matches_sparse_loop(monkeypatch):
    # budgets either side of each component's fixpoint count break the
    # saturation part-way through the order
    cap = 7
    calls = _counting_sparse(monkeypatch)
    outcomes = set()
    for accepting in ("f", "g2", "r2", None):
        vass = replace(PARTS, accepting=frozenset({accepting} - {None}))
        for s in (Configuration(0, 0), Configuration(3, 5), Configuration(6, 6)):
            counts = _fixpoint_counts(vass, s, cap)
            assert len(counts) >= 4
            for t in (Configuration(0, 0), Configuration(2, 6), Configuration(7, 1)):
                final = _forced_sparse(monkeypatch, vass, s, t, cap).explored
                budgets = {c + d for c in counts + [final] for d in (-1, 0, 1)}
                for budget in sorted(budgets):
                    calls.clear()
                    dense = _outcome(vass, s, t, cap, None, budget)
                    assert not calls  # the dense form answers
                    with monkeypatch.context() as m:
                        m.setattr(decide, "GRID_BITS", 0)
                        sparse = _outcome(vass, s, t, cap, None, budget)
                    assert dense == sparse, (accepting, s, t, budget)
                    try:
                        slow = brute_force_oracle(vass, s, t, cap, budget=budget)
                    except BudgetExceededError:
                        slow = "budget"
                    assert _summary(dense) == _summary(slow), (accepting, s, t, budget)
                    outcomes.add("budget" if isinstance(dense, str) else dense.kind)
    assert outcomes == {"budget", REACHABLE, UNREACHABLE_WITHIN_CAP}


@pytest.mark.parametrize("cap, pad", [(255, 0), (254, 2), (253, 3), (230, 1), (200, 3)])
def test_caps_at_grid_edge_match_sparse_loop(monkeypatch, cap, pad):
    # the row mask at the widest padded grids of at most GRID_BITS bits
    assert (cap + 1) * (cap + 1 + pad) <= decide.GRID_BITS
    rng = Random(cap * 8 + pad)
    # long strides, so that a one-row search (pad 0) is not too thin for bitsets
    letters = [V(x, y) for x in range(-40, 41) for y in range(-pad, pad + 1)]
    dense_answers = 0
    for _ in range(4):
        states = ("a", "b")[: rng.randint(1, 2)]
        edges = [(rng.choice(states), rng.choice(letters), rng.choice(states)) for _ in range(4)]
        edges.append((states[0], V(rng.randint(-40, 40), rng.choice((-pad, pad))), states[-1]))
        vass = Vass(states, tuple(edges), frozenset({states[0]}), frozenset({states[-1]}))
        s = Configuration(rng.choice((0, cap)), rng.randint(0, cap))
        t = Configuration(rng.randint(0, cap), rng.randint(cap - 3, cap))
        expected = _forced_sparse(monkeypatch, vass, s, t, cap)
        for budget in (2_000_000, max(expected.explored - 1, 0)):
            with monkeypatch.context() as m:
                m.setattr(decide, "GRID_BITS", 0)
                sparse = _outcome(vass, s, t, cap, None, budget)
            with monkeypatch.context() as m:
                calls = _counting_sparse(m)
                assert _outcome(vass, s, t, cap, None, budget) == sparse, (vass, s, t, budget)
            dense_answers += not calls
    assert dense_answers >= 4


def test_dense_selector(monkeypatch):
    calls = _counting_sparse(monkeypatch)
    # x + y is invariant, so the whole diagonal of 31 nodes is expanded
    verdict = decide_capped_bfs(LOOP, Configuration(30, 0), Configuration(0, 29), 30)
    assert verdict.kind == UNREACHABLE_WITHIN_CAP and verdict.explored == 31
    verdict = decide_capped_bfs(LOOP, Configuration(2, 0), Configuration(0, 2), 30)
    assert verdict.witness == (V(-1, 1), V(-1, 1)) and not calls


def _forced_sparse(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(decide, "GRID_BITS", 0)
        return decide_capped_bfs(*args, **kwargs)


def test_dense_skips_letters_beyond_cap(monkeypatch):
    huge = Vass(
        ("a",),
        (("a", V(10**12, 0), "a"), ("a", V(0, 10**12), "a"), ("a", V(-1, 1), "a")),
        frozenset({"a"}),
        frozenset({"a"}),
    )
    s = Configuration(5, 0)
    for t in (Configuration(0, 5), Configuration(1, 1)):
        expected = _forced_sparse(monkeypatch, huge, s, t, 5)
        assert decide_capped_bfs(huge, s, t, 5) == expected
    assert expected.kind == UNREACHABLE_WITHIN_CAP and expected.explored == 6


def test_thin_levels_go_to_sparse_loop(monkeypatch):
    # one node per level, row by row: 63001 levels at cap 250
    cap = 250
    thin = Vass(
        ("a", "b"), (("a", V(1, 0), "a"), ("a", V(-cap, 1), "a")), frozenset({"a"}), frozenset({"b"})
    )
    s, t = Configuration(0, 0), Configuration(cap, cap)
    expected = _forced_sparse(monkeypatch, thin, s, t, cap)
    assert expected.explored == (cap + 1) ** 2
    real = decide._sparse_bfs
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(decide, "_sparse_bfs", counting)
    assert decide_capped_bfs(thin, s, t, cap) == expected and len(calls) == 1


def test_let_go_levels_go_to_sparse_loop(monkeypatch):
    s, t = Configuration(2, 0), Configuration(0, 2)
    expected = _forced_sparse(monkeypatch, LOOP, s, t, 30)
    calls = _counting_sparse(monkeypatch)
    monkeypatch.setattr(decide, "KEEP_WORDS", 0)
    assert decide_capped_bfs(LOOP, s, t, 30) == expected and len(calls) == 1


def test_oracle_length_bound():
    s, t = Configuration(2, 0), Configuration(0, 2)
    assert brute_force_oracle(LOOP, s, t, 10, length_bound=1).kind == UNREACHABLE_WITHIN_CAP
    verdict = brute_force_oracle(LOOP, s, t, 10, length_bound=2)
    assert verdict.kind == REACHABLE and verdict.length == 2 and verdict.bound == 2
    assert brute_force_oracle(LOOP, s, s, 10, length_bound=0).kind == REACHABLE


def test_default_cap_formula():
    assert default_cap(LOOP, Configuration(2, 0), Configuration(0, 2)) == 64 * 2 * 3**4


def test_oracle_agreement_on_examples():
    for s, t in [((2, 0), (0, 2)), ((0, 0), (1, 0)), ((3, 1), (1, 3))]:
        fast = decide_capped_bfs(LOOP, Configuration(*s), Configuration(*t), 20)
        slow = brute_force_oracle(LOOP, Configuration(*s), Configuration(*t), 20)
        assert fast.kind == slow.kind
        if fast.kind == REACHABLE:
            assert fast.length == slow.length


def test_oracle_dead_machine():
    dead = Vass(("a", "b"), (), frozenset({"a"}), frozenset({"b"}))
    s = Configuration(0, 0)
    assert brute_force_oracle(dead, s, s, 5).kind == UNREACHABLE_WITHIN_CAP


def test_witness_violation_messages():
    s, t = Configuration(2, 0), Configuration(0, 2)
    word = (V(-1, 1), V(-1, 1))
    assert witness_violation(LOOP, s, t, word, ("a", "a")) is not None  # trace too short
    assert witness_violation(LOOP, s, t, word, ("a", "a", "a")) is None
    bad_word = (V(-1, 1), V(1, 1))
    assert witness_violation(LOOP, s, t, bad_word, ("a", "a", "a")) is not None
