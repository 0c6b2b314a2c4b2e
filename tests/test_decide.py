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
