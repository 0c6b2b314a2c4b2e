"""Scheme transformations, the norm bound, and the complete simple-scheme
decider."""

from itertools import product
from random import Random

import pytest

from vasskit import (
    REACHABLE,
    BudgetExceededError,
    Configuration,
    InternalDefectError,
    Lps,
    PlaneVector,
    Vass,
    Verdict,
    WitnessResult,
    ZERO,
    brute_force_oracle,
    decide_capped_bfs,
    effect,
    instantiate,
    norm_bound,
    norm_bound_value,
    origin_turns,
    run,
    search_cap,
    slps_of,
    slps_reach,
    split_lps,
)
from vasskit import certificates, schemes

from conftest import random_lps, reference_split

V = PlaneVector
O = Configuration(0, 0)
UP = slps_of([ZERO, ZERO], [V(0, 1)])


def instantiate_lps(scheme: Lps, reps):
    word = list(scheme.alphas[0])
    for i in range(scheme.K):
        word.extend(scheme.betas[i] * reps[i])
        word.extend(scheme.alphas[i + 1])
    return tuple(word)


def test_split_lps_counts_and_bounds():
    scheme = Lps(
        ((V(0, 1),), (V(1, 1),), ()),
        ((V(1, 0),), (V(1, -1), V(-1, 1))),
    )
    members = tuple(split_lps(scheme))
    assert len(members) == 3**scheme.K
    size = max(scheme.length, 1)
    for member in members:
        assert member.scheme.length <= 4 * size
        assert member.scheme.norm <= 2 * scheme.norm * size


def test_split_lps_refuses_too_many_members_before_building_any(monkeypatch):
    def refuse(*args):
        raise AssertionError("a member was built")

    two = Lps(((), (), ()), ((V(1, 0),), (V(0, 1),)))
    monkeypatch.setattr(schemes, "MAX_SPLIT_MEMBERS", 9)
    assert len(tuple(split_lps(two))) == 9  # exactly at the limit
    monkeypatch.setattr(schemes, "Slps", refuse)
    monkeypatch.setattr(schemes, "SlpsMember", refuse)
    three = Lps(((), (), (), ()), ((V(1, 0),), (V(0, 1),), (V(1, 1),)))
    with pytest.raises(BudgetExceededError) as info:
        split_lps(three)
    assert str(info.value) == "splitting 3 cycles makes 27 simple schemes, more than the limit of 9"


def test_split_lps_matches_the_product_reference_in_order():
    rng = Random(17)
    for k in [6] * 20 + [5] * 40 + list(range(5)) * 390:  # 2,010 schemes
        scheme = random_lps(rng, k)
        assert tuple(split_lps(scheme)) == reference_split(scheme), scheme
    profiles = [member.profile for member in split_lps(random_lps(rng, 4))]
    assert profiles == list(product((0, 1, 2), repeat=4))


def test_split_lps_members_share_the_input_letters():
    scheme = Lps(((V(1, 0),), (V(0, 1),)), ((V(1, 1), V(2, 2)),))
    members = tuple(split_lps(scheme))
    words = {id(word) for m in members for word in m.scheme.alphas + m.scheme.betas}
    assert len(words) == 6  # four input letters, the zero letter and the cycle's effect


def test_split_lps_origin_mapping():
    scheme = Lps(((), ()), ((V(1, -2), V(0, 1)),))
    by_profile = {m.profile: m for m in split_lps(scheme)}
    assert origin_turns(by_profile[(0,)]) == ((0, None),)
    assert origin_turns(by_profile[(1,)]) == ((1, None),)
    member = by_profile[(2,)]
    pos = member.cycle_origin.index(0)
    assert origin_turns(member) == ((2, pos),)
    exps = tuple(3 if origin is not None else 0 for origin in member.cycle_origin)
    reps = (exps[pos] + 2,)  # m turns of the effect letter stand for m+2 cycles
    member_word = instantiate(member.scheme, exps)
    origin = instantiate_lps(scheme, reps)
    assert effect(member_word) == effect(origin)


def test_norm_bound_value():
    assert norm_bound_value(1, 1) == 2915
    assert norm_bound_value(0, 5) == 0
    assert norm_bound_value(3, 0) == 0
    assert norm_bound_value(2, 2) == (5829 * 2 * 2**15 + 1) // 2
    assert norm_bound(UP) == 2915
    assert search_cap(UP, O, Configuration(0, 3)) == norm_bound_value(3, 3)


def test_slps_reach_examples():
    result = slps_reach(UP, Configuration(0, 0), Configuration(0, 3))
    assert result.reachable
    assert result.exponents == (3,)
    assert result.max_visited_norm == 3
    assert not slps_reach(UP, Configuration(0, 0), Configuration(1, 0)).reachable


def test_slps_reach_degenerate():
    still = slps_of([ZERO, ZERO], [ZERO])
    assert slps_reach(still, Configuration(2, 2), Configuration(2, 2)).reachable
    assert not slps_reach(still, Configuration(2, 2), Configuration(2, 3)).reachable


def test_slps_reach_needs_dip_room():
    dip = slps_of([V(0, -1), V(0, 1)], [V(1, 0)])
    assert not slps_reach(dip, Configuration(0, 0), Configuration(2, 0)).reachable
    assert slps_reach(dip, Configuration(0, 1), Configuration(2, 1)).reachable


def test_slps_reach_witness_revalidates():
    scheme = slps_of(
        [V(1, 0), ZERO, V(0, 1)], [V(1, 1), V(-1, 0)]
    )
    result = slps_reach(scheme, Configuration(2, 0), Configuration(1, 4))
    assert result.reachable
    trace = run(instantiate(scheme, result.exponents), Configuration(2, 0))
    assert trace.admissible and trace.target == V(1, 4)
    assert result.max_visited_norm == max(p.norm for p in trace.visited)


def test_slps_reach_budget_is_distinct():
    wide = slps_of([ZERO, ZERO, ZERO], [V(1, 0), V(0, 1)])
    with pytest.raises(BudgetExceededError):
        slps_reach(wide, Configuration(0, 0), Configuration(500, 500), budget=100)


def test_shortest_zero_witness():
    balance = slps_of([ZERO, ZERO, ZERO], [V(1, -1), V(-1, 1)])
    witness = slps_reach(balance, O, O).exponents
    assert witness == (0, 0)  # the empty-cycle path already returns to zero
    forced_up = slps_of([V(0, 1), ZERO], [V(0, 1)])
    assert not slps_reach(forced_up, O, O).reachable
    round_trip = slps_of([V(0, 2), ZERO], [V(0, -1)])
    assert slps_reach(round_trip, O, O).exponents == (2,)


def test_witness_tie_breaks_pinned():
    # each path state tries its self-loop before its exit edge; exit-first
    # would return (0, 1) and (0, 1, 0), equally short
    scheme = slps_of([V(-1, -1), V(2, 2), V(-1, 0)], [V(0, -2), V(0, -2)])
    assert slps_reach(scheme, Configuration(3, 3), Configuration(3, 2)).exponents == (1, 0)
    scheme = slps_of([V(2, 0), V(-2, 2), ZERO, V(-1, -2)], [V(1, 0), V(1, 0), V(0, 1)])
    assert slps_reach(scheme, O, O).exponents == (1, 0, 0)


def test_slps_reach_budget_message():
    drift = slps_of([ZERO, ZERO], [V(2, 0)])
    with pytest.raises(BudgetExceededError) as info:
        slps_reach(drift, Configuration(0, 0), Configuration(0, 1), budget=10)
    assert str(info.value) == (
        "search exceeded its budget of 10 states at depth 6; largest counter on the frontier: 10"
    )


def test_kept_budget_error_does_not_pin_the_search():
    drift = slps_of([ZERO, ZERO], [V(2, 0)])
    with pytest.raises(BudgetExceededError) as info:
        slps_reach(drift, Configuration(0, 0), Configuration(0, 1), budget=1_000)
    tb = info.value.__traceback__
    while tb is not None:
        assert "parents" not in tb.tb_frame.f_locals, tb.tb_frame.f_code.co_name
        tb = tb.tb_next


def test_invalid_witness_is_a_defect_not_a_budget_out(monkeypatch):
    def bogus(out, initial, accepting, source, target, cap, length_bound, budget):
        # claims 0 -> 1 -> 2, a0 then the exit a1, reaches the target: exponent 0 never climbs
        return 0, ([0, 1, 2], [0, 1])

    monkeypatch.setattr(schemes, "search_table", bogus)
    with pytest.raises(InternalDefectError, match="invalid witness"):
        slps_reach(UP, Configuration(0, 0), Configuration(0, 3))


def _path_automaton(scheme):
    """The scheme as a path automaton over states q0..q(K+1): a_i is the
    edge q_i -> q_(i+1) and b_i a self-loop on q_(i+1), listed before the
    state's exit edge."""
    states = tuple(f"q{i}" for i in range(scheme.K + 2))
    edges = [(states[0], scheme.alpha_vec(0), states[1])]
    for i in range(scheme.K):
        q = states[i + 1]
        edges += [(q, scheme.beta_vec(i), q), (q, scheme.alpha_vec(i + 1), states[i + 2])]
    return Vass(states, tuple(edges), frozenset({states[0]}), frozenset({states[-1]}))


def _outcome(search):
    """A search's answer, or its budget message."""
    try:
        return search()
    except BudgetExceededError as err:
        return str(err)


def test_slps_reach_matches_the_kernel_on_the_path_automaton():
    # slps_reach fills its table straight from the letters; the general
    # kernel on the path automaton must give the same answers, exponents and
    # budget messages, around each answer's own explored count too.  A zero
    # query on a norm-0 scheme has cap 0, where the kernel takes its dense form.
    rng = Random(27)
    seen = set()
    for _ in range(2_000):
        k = rng.randint(0, 4)
        norm = rng.randint(0, 3)
        letter = lambda: V(rng.randint(-norm, norm), rng.randint(-norm, norm))
        scheme = slps_of([letter() for _ in range(k + 1)], [letter() for _ in range(k)])
        s = Configuration(rng.randint(0, 5), rng.randint(0, 5))
        t = Configuration(rng.randint(0, 5), rng.randint(0, 5))
        trace = run(instantiate(scheme, [rng.randint(0, 3) for _ in range(k)]), s)
        if rng.random() < 0.5 and trace.admissible:
            t = Configuration(trace.target.x, trace.target.y)  # reachable by construction
        automaton = _path_automaton(scheme)
        for s, t in [(s, t)] + [(O, O)] * (norm == 0):
            cap = search_cap(scheme, s, t)
            verdict = _outcome(lambda: decide_capped_bfs(automaton, s, t, cap, budget=2_000))
            budgets = [2_000]
            if isinstance(verdict, Verdict):
                budgets += [max(0, verdict.explored - 1), verdict.explored, verdict.explored + 1]
            for budget in budgets:
                verdict = _outcome(lambda: decide_capped_bfs(automaton, s, t, cap, budget=budget))
                result = _outcome(lambda: slps_reach(scheme, s, t, budget=budget))
                if isinstance(verdict, str):
                    assert result == verdict
                    kind = "budget"
                elif verdict.kind == REACHABLE:
                    exponents = tuple(verdict.states.count(f"q{i + 1}") - 1 for i in range(k))
                    assert result.reachable and result.exponents == exponents
                    kind = "reachable"
                else:
                    assert result == WitnessResult(reachable=False)
                    kind = "unreachable"
                seen.add((kind, cap == 0))
    # at cap 0 every letter is zero and the query is 0 -> 0, so it is reachable
    assert seen == {
        ("budget", False), ("reachable", False), ("unreachable", False),
        ("budget", True), ("reachable", True),
    }


def test_slps_reach_matches_oracle_on_path_automaton():
    # the oracle runs on the verifier's own path automaton; the decider builds none
    rng = Random(5)
    compared = reachable = 0
    for _ in range(400):
        k = rng.randint(0, 3)
        norm = rng.randint(0, 2)
        letter = lambda: V(rng.randint(-norm, norm), rng.randint(-norm, norm))
        scheme = slps_of([letter() for _ in range(k + 1)], [letter() for _ in range(k)])
        s = Configuration(rng.randint(0, 3), rng.randint(0, 3))
        t = Configuration(rng.randint(0, 3), rng.randint(0, 3))
        trace = run(instantiate(scheme, [rng.randint(0, 3) for _ in range(k)]), s)
        if rng.random() < 0.5 and trace.admissible:
            t = Configuration(trace.target.x, trace.target.y)  # reachable by construction
        for s, t in ((s, t), (O, O)):  # the drawn query, then origin -> origin
            try:
                result = slps_reach(scheme, s, t, budget=2_000)
                oracle = brute_force_oracle(
                    certificates._path_vass(scheme), s, t, search_cap(scheme, s, t), budget=4_000
                )
            except BudgetExceededError:
                continue
            compared += 1
            assert result.reachable == (oracle.kind == REACHABLE)
            if result.reachable:
                reachable += 1
                assert k + 1 + sum(result.exponents) == oracle.length
    assert compared >= 600 and reachable >= 200


def test_slps_reach_table_search_keeps_the_oracle_level_contract(monkeypatch):
    # The kernel test above takes decide_capped_bfs as its reference, which
    # at these caps runs the same search_table set-up, so a set-up fault
    # could pass on both sides.  Here the reference is the oracle, which
    # shares no code with the kernel, on the verifier's path automaton at
    # search_cap: slps_reach's table search must expand as many nodes as
    # the oracle on every finished query, and both must run out of budget
    # one node short of that and finish at it.  A drifting cycle (both
    # coordinates of its effect at least 0) never runs out of room, so
    # many of those queries end in a budget-out, which both must reach.
    counts = []
    search = schemes.search_table

    def counted(*args):
        explored, trace = search(*args)
        counts.append(explored)
        return explored, trace

    monkeypatch.setattr(schemes, "search_table", counted)
    rng = Random(30)
    finished = budget_outs = drifting = 0
    for _ in range(1_000):
        k = rng.randint(0, 3)
        norm = rng.randint(0, 2)
        letter = lambda: V(rng.randint(-norm, norm), rng.randint(-norm, norm))
        scheme = slps_of([letter() for _ in range(k + 1)], [letter() for _ in range(k)])
        drifting += any(b.x >= 0 and b.y >= 0 and not b.is_zero() for (b,) in scheme.betas)
        s = Configuration(rng.randint(0, 4), rng.randint(0, 4))
        t = Configuration(rng.randint(0, 4), rng.randint(0, 4))
        trace = run(instantiate(scheme, [rng.randint(0, 3) for _ in range(k)]), s)
        if rng.random() < 0.5 and trace.admissible:
            t = Configuration(trace.target.x, trace.target.y)  # reachable by construction
        automaton = certificates._path_vass(scheme)
        cap = search_cap(scheme, s, t)
        decided = lambda budget: slps_reach(scheme, s, t, budget=budget)
        oracle = lambda budget: brute_force_oracle(automaton, s, t, cap, budget=budget)
        try:
            result = decided(300)
        except BudgetExceededError:
            with pytest.raises(BudgetExceededError):
                oracle(300)
            budget_outs += 1
            continue
        explored = counts[-1]
        verdict = oracle(300)
        assert verdict.explored == explored
        assert result.reachable == (verdict.kind == REACHABLE)
        if explored:
            for decision in (decided, oracle):
                with pytest.raises(BudgetExceededError):
                    decision(explored - 1)
            assert decided(explored) == result and oracle(explored) == verdict
        finished += 1
    assert finished >= 800 and budget_outs >= 80 and drifting >= 200
