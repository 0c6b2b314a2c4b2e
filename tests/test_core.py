"""Core domain types: vectors, runs, schemes, instantiation."""

from random import Random

import pytest

from vasskit import (
    BudgetExceededError,
    Configuration,
    Lps,
    PlaneVector,
    Slps,
    ZERO,
    effect,
    instantiate,
    path_length,
    run,
    slps_of,
)
from vasskit import core, schemes


def test_vector_algebra():
    a = PlaneVector(1, -2)
    b = PlaneVector(0, 1)
    assert a + b == PlaneVector(1, -1)
    assert a - b == PlaneVector(1, -3)
    assert -a == PlaneVector(-1, 2)
    assert a.scale(3) == PlaneVector(3, -6)
    assert a.dot(b) == -2
    assert a.cross(b) == 1
    assert a.norm == 2
    assert ZERO.is_zero() and not a.is_zero()
    assert str(a) == "(1,-2)"


def test_effect_examples():
    assert effect((PlaneVector(1, -2), PlaneVector(0, 1))) == PlaneVector(1, -1)
    assert effect(()) == ZERO
    assert effect((PlaneVector(2, 1), PlaneVector(-1, 1), PlaneVector(-1, -2))) == ZERO


def test_run_inadmissible_first_violation():
    trace = run((PlaneVector(0, -1),), Configuration(0, 0))
    assert not trace.admissible


def test_instantiate_refuses_a_path_over_the_limit(monkeypatch):
    up = slps_of([ZERO, ZERO], [PlaneVector(0, 1)])
    with pytest.raises(BudgetExceededError, match=f"path of {10**19 + 2} letters exceeds"):
        instantiate(up, (10**19,))
    assert schemes.DEFAULT_SEARCH_BUDGET <= core.MAX_PATH_LENGTH
    monkeypatch.setattr(core, "MAX_PATH_LENGTH", 5)
    assert len(instantiate(up, (3,))) == 5
    with pytest.raises(BudgetExceededError, match="path of 6 letters exceeds the limit of 5"):
        instantiate(up, (4,))


def test_run_round_trip():
    trace = run((PlaneVector(1, 0), PlaneVector(-1, 0)), Configuration(0, 0))
    assert trace.admissible
    assert trace.target == ZERO


def test_run_visited_sequence():
    word = (PlaneVector(1, -2), PlaneVector(0, 1)) * 2
    trace = run(word, Configuration(0, 5))
    assert trace.admissible
    assert [(p.x, p.y) for p in trace.visited] == [(0, 5), (1, 3), (1, 4), (2, 2), (2, 3)]


def test_configuration_rejects_negative():
    with pytest.raises(ValueError):
        Configuration(-1, 0)
    with pytest.raises(ValueError):
        Configuration(0, -2)


def test_instantiate_examples():
    scheme = slps_of([ZERO, ZERO], [PlaneVector(0, 1)])
    assert instantiate(scheme, (3,)) == (
        ZERO, PlaneVector(0, 1), PlaneVector(0, 1), PlaneVector(0, 1), ZERO,
    )
    assert instantiate(scheme, (0,)) == (ZERO, ZERO)
    two = slps_of(
        [PlaneVector(1, 0), PlaneVector(1, 0), ZERO],
        [PlaneVector(0, 1), PlaneVector(-1, 0)],
    )
    word = instantiate(two, (2, 1))
    assert word == (
        PlaneVector(1, 0), PlaneVector(0, 1), PlaneVector(0, 1),
        PlaneVector(1, 0), PlaneVector(-1, 0), ZERO,
    )
    assert len(word) == path_length(two, (2, 1))


def test_instantiate_exponent_mismatch():
    scheme = slps_of([ZERO, ZERO], [PlaneVector(0, 1)])
    with pytest.raises(Exception):
        instantiate(scheme, (1, 2))


def test_scheme_invariants():
    with pytest.raises(ValueError):
        Lps(((), ()), ())  # segment/cycle count mismatch
    with pytest.raises(ValueError):
        Lps(((), ()), ((),))  # empty cycle
    scheme = slps_of([PlaneVector(1, 0), ZERO], [PlaneVector(0, 2)])
    assert scheme.K == 1
    assert scheme.norm == 2
    assert scheme.length == 3


def test_slps_requires_single_letters():
    with pytest.raises(ValueError):
        Slps(((PlaneVector(0, 1), PlaneVector(1, 0)), ()), ((PlaneVector(0, 1),),))


def test_lps_norm_matches_per_word_formula():
    # the largest letter norm over segments and cycles; empty segments count 0
    rng = Random(25)
    for _ in range(500):
        def word(least):
            return tuple(
                PlaneVector(rng.randint(-9, 9), rng.randint(-9, 9))
                for _ in range(rng.randint(least, 3))
            )
        k = rng.randint(0, 4)
        scheme = Lps(tuple(word(0) for _ in range(k + 1)), tuple(word(1) for _ in range(k)))
        expected = max((v.norm for w in scheme.alphas + scheme.betas for v in w), default=0)
        assert scheme.norm == expected, scheme
    assert Lps(((),), ()).norm == 0
    assert Lps(((), ()), ((PlaneVector(0, -4),),)).norm == 4
