"""Fuzzing harness internals: oracles, determinism, minimization."""

import hashlib
from random import Random

import pytest

from vasskit import (
    Configuration,
    PlaneVector,
    PreconditionError,
    Shortening,
    ZERO,
    cone_contains,
    cone_contains_zero,
    slps_of,
)
from vasskit import certificates, cones, fuzzing, schemes
from vasskit.shortening import ShorteningFamily
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
    states = fuzzing.bounded_relation(fuzzing._block_summaries(up), 6)
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


def _accumulated(drops_by_effect):
    """The drops of each effect, put through the thm12 accumulator."""
    return fuzzing._least_sources(
        (0, ex, ey, dx, dy) for (ex, ey), drops in drops_by_effect.items() for dx, dy in drops
    )


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
        assert fuzzing._lost_target(_accumulated(origin), _accumulated(union)) == expected, (
            origin, union
        )
        lost += expected is not None
    assert lost >= 2000


def _thresholds_by_source(drops):
    """Per-source reference: the least source y that some drop admits."""
    return [
        min([max(0, -dy) for dx, dy in drops if sx + dx >= 0] + [9]) for sx in range(9)
    ]


def _thresholds(drops):
    return fuzzing._thresholds(_accumulated({(0, 0): drops}), (0, 0))


def test_thresholds_match_the_per_source_definition():
    assert _thresholds(()) == [9] * 9
    assert _thresholds([(-9, 0), (-20, -1)]) == [9] * 9  # dx < -8 admits no source
    assert _thresholds([(0, 3)]) == [0] * 9  # dy > 0
    rng = Random(23)
    for _ in range(5000):
        drops = [
            (rng.randint(-12, 3), rng.randint(-12, 3)) for _ in range(rng.randint(0, 5))
        ]
        assert _thresholds(drops) == _thresholds_by_source(drops), drops


def test_lost_target_skips_effects_outside_the_box():
    rng = Random(24)
    lost = skipped = 0
    for _ in range(3000):
        origin, union = {}, {}
        for _ in range(rng.randint(1, 6)):
            # about a third of the effects cannot land in [0,48]^2 from any source
            eff = (rng.randint(-14, 54), rng.randint(-14, 54))
            skipped += not (-8 <= eff[0] <= 48 and -8 <= eff[1] <= 48)
            drops = {(rng.randint(-10, 0), rng.randint(-10, 0)) for _ in range(rng.randint(1, 3))}
            origin[eff] = _pareto(drops)
            if rng.random() < 0.5:
                union[eff] = _pareto({(min(dx + rng.randint(-3, 1), 0), dy) for dx, dy in drops})
        expected = _lost_by_sources(origin, union)
        assert fuzzing._lost_target(_accumulated(origin), _accumulated(union)) == expected, (
            origin, union
        )
        lost += expected is not None
    assert lost >= 1000 and skipped >= 3000


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
        members = tuple(split(origin))
        return members[:dropped] + members[dropped + 1:]

    assert fuzzing._check_thm12(scheme) is None
    monkeypatch.setattr(schemes, "split_lps", without_member)
    assert fuzzing._check_thm12(scheme) == violation


@pytest.mark.parametrize("target", ["lemma2", "lemma4"])
def test_cone_targets_search_for_zero_once_per_case(monkeypatch, target):
    searches = []
    search = cones.zero_combination
    monkeypatch.setattr(cones, "zero_combination", lambda c: searches.append(c) or search(c))
    assert not fuzzing.run_target(target, 200, 1).failures
    assert len(searches) == 200


def test_lemma2_checks_refusals_against_the_oracle(monkeypatch):
    zero_free, with_zero = frozenset({V(1, 0), V(1, 1)}), frozenset({V(1, 0), V(-1, 0)})
    assert fuzzing._check_lemma2(zero_free) is None
    assert fuzzing._check_lemma2(with_zero) is None

    def refuse(cone_set):
        raise PreconditionError("refused")

    monkeypatch.setattr(cones, "outermost_pair", refuse)
    assert fuzzing._check_lemma2(zero_free) == (
        "outermost pair refused although the cone is zero-free (oracle)"
    )
    monkeypatch.setattr(cones, "outermost_pair", lambda cone_set: (V(1, 0), V(1, 0)))
    assert fuzzing._check_lemma2(with_zero) == (
        "outermost pair produced although the cone contains zero (oracle)"
    )


@pytest.mark.parametrize(
    "member, violation",
    [
        # four turns up, then five down: the reduced path reaches (0,-1)
        (
            Shortening(slps_of([ZERO, V(0, -5)], [V(0, 1)]), (6,), (4,), V(0, 2), Configuration(0, 0)),
            "member 1: reduced path dips below an axis from (0,0)",
        ),
        # one turn deleted, but a delta of n*gamma*direction = (0,2) stated
        (
            Shortening(slps_of([ZERO, ZERO], [V(0, 1)]), (3,), (2,), V(0, 2), Configuration(6, 6)),
            "member 1: delta (0,2) is not the effect difference (0,1)",
        ),
    ],
    ids=["dip", "delta-off-by-one"],
)
def test_validate_family_checks_members_on_its_own(monkeypatch, member, violation):
    def refuse(sh):
        raise AssertionError("the producer's checker was called")

    monkeypatch.setattr(certificates, "shortening_violation", refuse)
    assert fuzzing._validate_family(ShorteningFamily(2, {1: member}), V(0, 1), 2) == violation
    good = Shortening(member.scheme, member.original, (member.original[0] - 1,), V(0, 1), Configuration(6, 6))
    assert fuzzing._validate_family(ShorteningFamily(1, {1: good}), V(0, 1), 2) is None


def test_run_target_deterministic():
    a = fuzzing.run_target("lemma6", 40, 9)
    b = fuzzing.run_target("lemma6", 40, 9)
    assert a == b and not a.failures


def test_minimize_shrinks_vector_sets(monkeypatch):
    target = fuzzing.TARGETS["lemma1"]
    big = frozenset({V(1, 0), V(0, 1), V(2, 2), V(-1, -1)})

    def fails_if_contains_antiparallel(case):
        return "boom" if fuzzing.oracle_cone_contains_zero(case) else None

    small = fuzzing.minimize(target, big, fails_if_contains_antiparallel)
    assert len(small) == 2 and fuzzing.oracle_cone_contains_zero(small)


# sha256 of repr(run_target(target, n, seed).cases), which no string hash
# seed changes (Vass renders its state sets sorted); a change of these
# values means a generator draws differently from its Random
CASE_STREAMS = {
    "lemma1": (60, 1, "e2e04c3830b57bcb95b3a88eef791705059c8743ca9384b9fdba828652bb9c1d"),
    "lemma2": (60, 2, "db4426de2daa2aee48906b6a1c0e550a729796921c6af86c968585f50c3c07c9"),
    "lemma3": (60, 3, "ff502a25f151b516ec167f7bf626551c039eb07d542a7a081a31ea631cf276f1"),
    "lemma4": (60, 4, "725d0edd065e76f4c48925ece5e794781e8d1d62bc114d57639bd15696433480"),
    "lemma6": (30, 5, "e686381be2178192ae52428da48e1cf59ebfa371a05f205c60ddb7504191c21f"),
    "thm5": (30, 6, "42e4ebcc41a82f397cc19f734172d02853085cd4ccfa89dd82b53a3891529423"),
    "thm6": (30, 7, "89acee84bd46e1e6fd5b312e0397ef8a58e46dc1c4b3fe508171c67f5a75f49f"),
    "thm7": (20, 8, "03fb0010f2d336b7e34cde0faaaf013564fc9cd998dcb2bf304a20258477d0b2"),
    "thm8": (10, 9, "a1bea4bb697836da5c2e0d2927a7df6a9c4c9a4f2df54474b8d465653b2953e3"),
    "thm9": (30, 10, "6c4cfc8e0d87d25483464d67bc77c858d4a50074ad41a4bf94dfa9504522ddaf"),
    "thm12": (25, 11, "bb878b030dafd45d48be629cb7e9dcc3461e9d3f37341d4d26d12b5cc70c9c00"),
    "decider": (40, 12, "20bd0ded133520ef4d0adcbea5cc180569fa4ba809b4d8d1fb3a9fb1ebace5b4"),
}


def test_every_target_but_thm10_is_pinned():
    assert set(CASE_STREAMS) == set(fuzzing.TARGETS) - {"thm10"}


@pytest.mark.parametrize("target", sorted(CASE_STREAMS))
def test_case_stream_is_pinned(target):
    iterations, seed, digest = CASE_STREAMS[target]
    report = fuzzing.run_target(target, iterations, seed)
    assert not report.failures
    assert hashlib.sha256(repr(report.cases).encode()).hexdigest() == digest
