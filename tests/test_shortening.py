"""Path-shortening operations and their certificates."""

import pytest

from vasskit import (
    Configuration,
    PlaneVector,
    PreconditionError,
    Shortening,
    ZERO,
    cut_by_vector,
    cycles_repeated_at_least,
    shorten_away_both,
    shorten_away_other,
    shorten_close_away,
    shorten_far,
    shorten_one_visit,
    shortening_violation,
    slps_of,
)

V = PlaneVector
UP = slps_of([ZERO, ZERO], [V(0, 1)])  # (0,0) [(0,1)]* (0,0)
CLIMB = slps_of([V(0, 1), V(0, 1)], [V(0, 1)])
VEE = slps_of([V(1, 0), V(-1, 1), V(0, 1)], [V(1, -1), V(-1, 1)])
UP_DOWN = slps_of([ZERO, ZERO, ZERO], [V(0, 1), V(0, -1)])


def test_cycles_repeated_at_least():
    assert cycles_repeated_at_least(UP, (3,), 2) == {V(0, 1)}
    assert cycles_repeated_at_least(UP, (3,), 4) == set()
    two = slps_of([ZERO, ZERO, ZERO], [V(0, 1), V(1, 0)])
    assert cycles_repeated_at_least(two, (5, 2), 3) == {V(0, 1)}


def test_cut_by_vector():
    family = cut_by_vector(UP, (3,), Configuration(6, 6), 1, V(0, 1))
    assert family.gamma == 1
    member = family.members[1]
    assert shortening_violation(member) is None
    assert member.reduced == (2,)
    assert member.delta == V(0, 1)


def test_cut_by_vector_zero_not_in_cone():
    with pytest.raises(PreconditionError):
        cut_by_vector(UP, (3,), Configuration(6, 6), 1, ZERO)


def test_cut_by_vector_margin_violation():
    with pytest.raises(PreconditionError):
        cut_by_vector(UP, (3,), Configuration(5, 6), 1, V(0, 1))


def test_cut_by_vector_mixed_cycles():
    scheme = slps_of([ZERO, ZERO, ZERO], [V(0, 2), V(0, -1)])
    family = cut_by_vector(scheme, (16, 16), Configuration(48, 48), 1, V(0, 1))
    assert 1 <= family.gamma <= 2 * scheme.norm**2
    assert shortening_violation(family.members[1]) is None


def test_shorten_close_away():
    family = shorten_close_away(UP, (5,), Configuration(0, 2), 2, 1)
    assert family.gamma == 1
    assert set(family.members) == {1, 2}
    for n, member in family.members.items():
        assert shortening_violation(member) is None
        assert member.delta == V(0, n)


def test_shorten_close_away_boundary():
    with pytest.raises(PreconditionError):
        shorten_close_away(UP, (3,), Configuration(0, 2), 2, 1)  # climb not strict


def test_shorten_close_away_corridor_violation():
    with pytest.raises(PreconditionError):
        shorten_close_away(UP, (5,), Configuration(2, 2), 2, 1)  # x reaches the wall


def test_shorten_away_both():
    family = shorten_away_both(UP, (8,), Configuration(6, 6), 1, 1)
    assert family.gamma == 1
    assert shortening_violation(family.members[1]) is None


def test_shorten_away_both_boundary():
    with pytest.raises(PreconditionError):
        shorten_away_both(UP, (6,), Configuration(6, 6), 1, 1)
    with pytest.raises(PreconditionError):
        shorten_away_both(UP, (8,), Configuration(5, 6), 1, 1)


def test_shorten_away_other_case1():
    scheme = slps_of([V(0, 1), V(0, 1)], [V(0, 1)])
    result = shorten_away_other(scheme, (450,), Configuration(3, 7), 8, 1, 1)
    assert result.case == 1
    assert shortening_violation(result.family.members[1]) is None


def test_shorten_away_other_case2():
    scheme = slps_of([V(0, 1), V(0, 1)], [V(-1, 1)])
    result = shorten_away_other(scheme, (170,), Configuration(175, 5), 6, 1, 1)
    assert result.case == 2
    assert result.vector == V(-1, 1)


def test_shorten_away_other_threshold():
    scheme = slps_of([V(0, 1), V(0, 1)], [V(0, 1)])
    with pytest.raises(PreconditionError):
        shorten_away_other(scheme, (10,), Configuration(3, 7), 8, 1, 1)


def test_shorten_one_visit():
    scheme = slps_of(
        [V(1, 0), V(-1, 1), V(0, 1)], [V(1, -1), V(-1, 1)]
    )
    reps = 700
    family = shorten_one_visit(
        scheme, (reps, reps), Configuration(7, reps + 7), 1 + reps, 8, 1, 2
    )
    assert 0 <= family.gamma <= 2 * scheme.norm**3
    member = family.members[1]
    assert shortening_violation(member) is None
    assert member.delta == V(0, family.gamma)


def test_shorten_one_visit_threshold():
    scheme = slps_of([V(1, 0), V(-1, 1), V(0, 1)], [V(1, -1), V(-1, 1)])
    with pytest.raises(PreconditionError):
        shorten_one_visit(scheme, (10, 10), Configuration(7, 17), 11, 8, 1, 2)


def test_shorten_far():
    scheme = slps_of([ZERO, ZERO, ZERO], [V(0, 1), V(0, -1)])
    member = shorten_far(scheme, (40, 40), Configuration(6, 6), 2)
    assert shortening_violation(member) is None
    assert member.delta == ZERO
    assert member.reduced == (39, 39)


def test_shorten_far_peak_below_threshold():
    scheme = slps_of([ZERO, ZERO, ZERO], [V(0, 1), V(0, -1)])
    with pytest.raises(PreconditionError):
        shorten_far(scheme, (10, 10), Configuration(6, 6), 2)


def test_shorten_far_margin_violation():
    scheme = slps_of([ZERO, ZERO, ZERO], [V(0, 1), V(0, -1)])
    with pytest.raises(PreconditionError):
        shorten_far(scheme, (40, 40), Configuration(3, 6), 2)


@pytest.mark.parametrize("count", [0, -1])
def test_counts_below_one_are_rejected(count):
    calls = [
        lambda: cut_by_vector(UP, (3,), Configuration(6, 6), count, V(0, 1)),
        lambda: shorten_away_both(UP, (8,), Configuration(6, 6), count, 1),
        lambda: shorten_away_other(CLIMB, (450,), Configuration(3, 7), 8, count, 1),
        lambda: shorten_one_visit(VEE, (700, 700), Configuration(7, 707), 701, 8, count, 2),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match=f"count must be at least 1, got {count}"):
            call()


# each operation that takes a cycle cap, on a valid input, with its cycle count K
CAPPED_OPS = {
    "close-away": (lambda cap: shorten_close_away(UP, (5,), Configuration(0, 2), 2, cap), 1),
    "away-both": (lambda cap: shorten_away_both(UP, (8,), Configuration(6, 6), 1, cap), 1),
    "away-other": (
        lambda cap: shorten_away_other(CLIMB, (450,), Configuration(3, 7), 8, 1, cap), 1
    ),
    "one-visit": (
        lambda cap: shorten_one_visit(VEE, (700, 700), Configuration(7, 707), 701, 8, 1, cap), 2
    ),
    "far": (lambda cap: shorten_far(UP_DOWN, (40, 40), Configuration(6, 6), cap), 2),
}


@pytest.mark.parametrize("op", sorted(CAPPED_OPS))
def test_cycle_cap_below_the_cycle_count_is_rejected(op):
    call, k = CAPPED_OPS[op]
    call(k)  # the stated bound K itself is accepted
    for cap in range(-1, k):
        with pytest.raises(PreconditionError) as info:
            call(cap)
        assert str(info.value) == f"scheme has {k} cycles, more than the stated bound {cap}"


def test_norm_zero_is_rejected_by_every_operation():
    flat = slps_of([ZERO, ZERO], [ZERO])
    flat2 = slps_of([ZERO, ZERO, ZERO], [ZERO, ZERO])
    calls = [
        lambda: cut_by_vector(flat, (3,), Configuration(6, 6), 1, ZERO),
        lambda: shorten_close_away(flat, (5,), Configuration(0, 2), 2, 1),
        lambda: shorten_away_both(flat, (8,), Configuration(6, 6), 1, 1),
        lambda: shorten_away_other(flat, (450,), Configuration(3, 7), 8, 1, 1),
        lambda: shorten_one_visit(flat2, (700, 700), Configuration(7, 707), 701, 8, 1, 2),
        lambda: shorten_far(flat2, (40, 40), Configuration(6, 6), 2),
    ]
    for call in calls:
        with pytest.raises(PreconditionError) as info:
            call()
        assert str(info.value) == "scheme norm must be positive"


def test_shortening_violation_catches_tampering():
    family = cut_by_vector(UP, (3,), Configuration(6, 6), 1, V(0, 1))
    good = family.members[1]
    bad = Shortening(good.scheme, good.original, good.reduced, V(0, 2), good.source)
    assert shortening_violation(bad) is not None
    not_proper = Shortening(good.scheme, good.original, good.original, ZERO, good.source)
    assert shortening_violation(not_proper) is not None
