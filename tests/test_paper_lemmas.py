"""Seeded property checks of two lemmas that no decision relies on:
Lemma 5 (a lower bound on the drift of a scheme path) and Lemma 11 (the
loop lemma).  Acceptance suites 2 and 5 run these checks, and suites 2
and 4 draw their cases from the generators here.  Every generated case
meets its lemma's hypotheses by construction, so the lemma functions
check no preconditions."""

from random import Random

from vasskit import (
    Configuration,
    PlaneVector,
    ZERO,
    effect,
    instantiate,
    path_length,
    run,
    slps_of,
)
from vasskit import fuzzing

V = PlaneVector
UP = slps_of([ZERO, ZERO], [V(0, 1)])  # (0,0) [(0,1)]* (0,0)


def gen_slps(rng: Random, max_cycles: int = 3, max_norm: int = 2, max_exp: int = 20):
    """A simple scheme of 1..max_cycles cycles over letters of norm at
    most max_norm, with exponents in 0..max_exp."""
    k = rng.randint(1, max_cycles)
    pool = fuzzing._all_vectors(max_norm)
    alphas = [rng.choice(pool) for _ in range(k + 1)]
    betas = [rng.choice(pool) for _ in range(k)]
    exponents = tuple(rng.randint(0, max_exp) for _ in range(k))
    return slps_of(alphas, betas), exponents


def drift_lower_bound(scheme, exponents, p: PlaneVector, bound: int, strict: bool) -> int:
    """Lemma 5: a lower bound on p . effect(path) when every cycle repeated
    at least ``bound`` times has a positive (strict) or non-negative dot
    product with p."""
    kb1 = scheme.K * bound + 1
    if strict:
        return path_length(scheme, exponents) - kb1 * (2 * scheme.norm * p.norm + 1)
    return -kb1 * (2 * scheme.norm * p.norm)


def gen_drift_case(rng: Random):
    """(scheme, exponents, p, bound, strict) meeting Lemma 5's hypothesis."""
    for _ in range(500):
        scheme, exponents = gen_slps(rng)
        p = V(rng.randint(-2, 2), rng.randint(-2, 2))
        if p.is_zero():
            continue
        bound = rng.randint(1, 4)
        strict = rng.random() < 0.5
        heavy = {scheme.beta_vec(i) for i, n in enumerate(exponents) if n >= bound}
        ok = all(p.dot(a) > 0 for a in heavy) if strict else all(p.dot(a) >= 0 for a in heavy)
        if ok:
            return (scheme, exponents, p, bound, strict)
    return (UP, (3,), V(0, 1), 2, True)


def drift_violation(case):
    scheme, exponents, p, bound, strict = case
    value = drift_lower_bound(scheme, exponents, p, bound, strict)
    actual = p.dot(effect(instantiate(scheme, exponents)))
    if actual < value:
        return f"drift {actual} below the stated lower bound {value}"
    return None


def check_loop_lemma(word, start, m: int) -> tuple[bool, bool]:
    """Lemma 11: the admissibility from ``start`` of word^(m+2) and of
    word (eff word)^m word, which are equal."""
    letters = [V(*v) for v in word]
    source = Configuration(*start)
    repeated = run(letters * (m + 2), source).admissible
    flanked = run(letters + [effect(letters)] * m + letters, source).admissible
    return repeated, flanked


def test_check_loop_lemma_examples():
    assert check_loop_lemma([(1, -2), (0, 1)], (0, 5), 2) == (True, True)
    assert check_loop_lemma([(0, -1), (0, 1)], (0, 1), 3) == (True, True)
    assert check_loop_lemma([(0, -2), (0, 1)], (0, 2), 1) == (False, False)


def test_drift_lower_bound():
    assert drift_lower_bound(UP, (8,), V(0, 1), 2, strict=True) == 1
    assert drift_lower_bound(UP, (8,), V(0, 1), 2, strict=False) == -6
