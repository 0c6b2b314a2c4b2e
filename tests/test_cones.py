"""Exact plane-cone geometry: rotations, zero membership, spanning pairs,
separating and excluding vectors."""

from itertools import combinations

import pytest

from vasskit import (
    PlaneVector,
    PreconditionError,
    cone_contains,
    cone_contains_zero,
    excluding_vector,
    outermost_pair,
    rotate_ccw,
    rotate_cw,
    separating_vector,
    zero_combination,
)
from vasskit import fuzzing
from vasskit.cones import set_norm

V = PlaneVector


def test_rotations():
    assert rotate_cw(V(0, 1)) == V(1, 0)
    assert rotate_ccw(V(1, 0)) == V(0, 1)
    assert rotate_cw(rotate_ccw(V(3, -2))) == V(3, -2)


def test_cone_contains_zero():
    assert cone_contains_zero({V(1, 2), V(-1, -2)})
    assert not cone_contains_zero({V(1, 0), V(0, 1)})
    assert cone_contains_zero({V(2, 1), V(-1, 1), V(-1, -2)})
    assert cone_contains_zero({V(0, 0)})
    with pytest.raises(PreconditionError):
        cone_contains_zero(set())


def test_zero_membership_on_every_small_set():
    """Every set of one to three vectors of norm at most 2 (2,625 sets)
    against both oracles, with each witness checked term by term."""
    pool = fuzzing._all_vectors(2)
    sets = [frozenset(c) for size in (1, 2, 3) for c in combinations(pool, size)]
    assert len(sets) == 2625
    for cone_set in sets:
        contains = cone_contains_zero(cone_set)
        assert contains == fuzzing.oracle_cone_contains_zero(cone_set), cone_set
        assert contains == fuzzing.oracle_zero_combination_exists(cone_set), cone_set
        combo = zero_combination(cone_set)
        assert (combo is not None) == contains, cone_set
        if combo is None:
            continue
        assert combo.total() == V(0, 0) and 1 <= len(combo.terms) <= 3, cone_set
        bound = max(2 * set_norm(cone_set) ** 2, 1)
        assert all(v in cone_set and 1 <= k <= bound for v, k in combo.terms), cone_set


def test_cone_contains():
    assert cone_contains({V(1, 0), V(0, 1)}, V(3, 5))
    assert not cone_contains({V(1, 0)}, V(0, 1))
    assert cone_contains({V(2, 1), V(-1, 1)}, V(0, 1))
    # zero membership defers to the zero-combination characterization
    assert not cone_contains({V(1, 0)}, V(0, 0))
    assert cone_contains({V(1, 2), V(-1, -2)}, V(0, 0))


def test_zero_combination():
    combo = zero_combination({V(1, 2), V(-1, -2)})
    assert combo is not None
    assert sorted(combo.terms) == [(V(-1, -2), 1), (V(1, 2), 1)]
    combo = zero_combination({V(2, 1), V(-1, 1), V(-1, -2)})
    assert combo is not None
    assert combo.total() == V(0, 0)
    assert sorted(k for _, k in combo.terms) == [3, 3, 3]
    assert zero_combination({V(1, 0), V(0, 1)}) is None


def test_zero_combination_with_zero_element():
    combo = zero_combination({V(0, 0), V(1, 0)})
    assert combo is not None and combo.terms == ((V(0, 0), 1),)


def test_outermost_pair():
    assert outermost_pair({V(1, 0), V(1, 1), V(0, 1)}) == (V(1, 0), V(0, 1))
    assert outermost_pair({V(2, 1)}) == (V(2, 1), V(2, 1))
    a, b = outermost_pair({V(1, 1), V(2, 2)})
    assert a == b and a in {V(1, 1), V(2, 2)}
    with pytest.raises(PreconditionError):
        outermost_pair({V(1, 2), V(-1, -2)})


def test_separating_vector():
    assert separating_vector({V(1, 0), V(0, 1)}) == V(1, 1)
    assert separating_vector({V(2, 1)}) == V(2, 1)
    assert separating_vector({V(1, -1), V(1, 1)}) == V(2, 0)
    with pytest.raises(PreconditionError):
        separating_vector({V(1, 0), V(-1, 0)})


def test_excluding_vector():
    assert excluding_vector({V(1, 0)}) == V(0, -1)
    assert excluding_vector({V(0, -1)}) == V(0, -1)
    assert excluding_vector({V(-1, 2), V(1, -2)}) == V(-2, -1)
    with pytest.raises(PreconditionError):
        excluding_vector({V(0, 1)})  # vertical direction inside the cone
    with pytest.raises(PreconditionError):
        excluding_vector({V(0, 0), V(1, -1)})  # zero vector present
