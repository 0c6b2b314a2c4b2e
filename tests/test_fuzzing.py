"""Fuzzing harness internals: oracles, determinism, minimization."""

from random import Random

import pytest

from vasskit import Configuration, PlaneVector, ZERO, cone_contains, cone_contains_zero, slps_of
from vasskit import fuzzing, schemes
from vasskit.core import Lps, effect, instantiate, run

V = PlaneVector


def test_angle_gap_oracle_matches_implementation():
    rng = Random(11)
    for _ in range(300):
        cone_set = fuzzing._gen_vector_set(rng)
        assert fuzzing.oracle_cone_contains_zero(cone_set) == cone_contains_zero(cone_set)


def test_membership_oracle_on_pairs():
    rng = Random(12)
    pool = fuzzing._all_vectors(3)
    for _ in range(300):
        a, b, c = (rng.choice(pool) for _ in range(3))
        if a.is_zero() or b.is_zero() or cone_contains_zero({a, b}):
            continue
        assert fuzzing.oracle_cone_member(a, b, c) == cone_contains({a, b}, c)


def test_enumeration_oracle_matches_membership():
    rng = Random(13)
    for _ in range(100):
        cone_set = fuzzing._gen_vector_set(rng)
        assert fuzzing.oracle_zero_combination_exists(cone_set) == cone_contains_zero(
            cone_set
        )


def test_bounded_relation_single_cycle():
    up = slps_of([ZERO, ZERO], [V(0, 1)])
    states = fuzzing.bounded_relation(fuzzing._lps_blocks(up), 6)
    effects = {(ex, ey) for (_, ex, ey, _, _) in states}
    assert effects == {(0, n) for n in range(5)}  # two zero letters + up to 4 turns


def test_path_profile_matches_run():
    scheme = Lps(((V(0, 1),), ()), ((V(1, -1), V(-1, 1)),))
    cases = [(scheme, (3,))]
    rng = Random(21)
    for _ in range(2500):
        scheme = fuzzing._gen_lps(rng)
        reps = tuple(rng.choice((0, 1, 2, rng.randint(0, 45))) for _ in range(scheme.K))
        cases.append((scheme, reps))
    for scheme, reps in cases:
        word = instantiate(scheme, reps)
        visited = run(word, Configuration(0, 0)).visited
        expected = (
            len(word),
            effect(word),
            V(min(p.x for p in visited), min(p.y for p in visited)),
        )
        assert fuzzing.path_profile(scheme, reps) == expected, (scheme, reps)


def _lost_by_sources(origin, union):
    """Per-source reference: the set difference of reached targets."""

    def targets(compressed, sx, sy):
        return {
            (sx + ex, sy + ey)
            for (ex, ey), drops in compressed.items()
            if 0 <= sx + ex <= 48 and 0 <= sy + ey <= 48
            and any(sx + dx >= 0 and sy + dy >= 0 for dx, dy in drops)
        }

    for sx in range(9):
        for sy in range(9):
            missing = targets(origin, sx, sy) - targets(union, sx, sy)
            if missing:
                return (sx, sy), min(missing)
    return None


def _pareto(pairs):
    return [p for p in pairs if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in pairs)]


def test_lost_target_matches_per_source_reference():
    rng = Random(22)
    lost = 0
    for _ in range(6000):
        origin, union = {}, {}
        for _ in range(rng.randint(1, 6)):
            eff = (rng.randint(-12, 12), rng.randint(-12, 12))
            drops = {(rng.randint(-10, 0), rng.randint(-10, 0)) for _ in range(rng.randint(1, 3))}
            origin[eff] = _pareto(drops)
            if rng.random() < 0.8:  # a shifted copy: often weaker, sometimes stronger
                shifted = {(dx + rng.randint(-3, 1), dy + rng.randint(-3, 1)) for dx, dy in drops}
                union[eff] = _pareto({(min(dx, 0), min(dy, 0)) for dx, dy in shifted})
        if rng.random() < 0.3:
            union[(rng.randint(-12, 12), rng.randint(-12, 12))] = [(0, 0)]
        expected = _lost_by_sources(origin, union)
        assert fuzzing._lost_target(origin, union) == expected, (origin, union)
        lost += expected is not None
    assert lost >= 2000


@pytest.mark.parametrize(
    "scheme, dropped, violation",
    [
        (
            Lps(((), (V(2, -2), V(-2, 2))), ((V(-1, 0), V(2, -2)),)),
            1,
            "target (2, 2) from (1,4) lost by the split",
        ),
        (
            Lps(((), (), (), ()), ((V(2, 2),), (V(1, 1),), (V(-2, -1),))),
            1,
            "target (0, 0) from (2,1) lost by the split",
        ),
    ],
    ids=["one-cycle", "three-cycles"],
)
def test_thm12_reports_the_first_lost_target(monkeypatch, scheme, dropped, violation):
    split = schemes.split_lps

    def without_member(origin):
        members = split(origin)
        return members[:dropped] + members[dropped + 1:]

    assert fuzzing._check_thm12(scheme) is None
    monkeypatch.setattr(schemes, "split_lps", without_member)
    assert fuzzing._check_thm12(scheme) == violation


def test_run_target_deterministic():
    a = fuzzing.run_target("lemma5", 40, 9)
    b = fuzzing.run_target("lemma5", 40, 9)
    assert a == b and not a.failures


def test_minimize_shrinks_vector_sets(monkeypatch):
    target = fuzzing.TARGETS["lemma1"]
    big = frozenset({V(1, 0), V(0, 1), V(2, 2), V(-1, -1)})

    def fails_if_contains_antiparallel(case):
        return "boom" if fuzzing.oracle_cone_contains_zero(case) else None

    small = fuzzing.minimize(target, big, fails_if_contains_antiparallel)
    assert len(small) == 2 and fuzzing.oracle_cone_contains_zero(small)
