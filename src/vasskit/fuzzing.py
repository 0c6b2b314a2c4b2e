"""Seeded property fuzzing with independent oracles, per target.

Each target pairs a generator that builds precondition-satisfying
instances by construction with a checker that validates the operation's
postconditions against oracles sharing no code path with the
implementation (angle-gap geometry, bounded coefficient enumeration,
word-level searches).  Checkers return None on success or a description
of the violated property.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Optional

from . import certificates, cones, decide, schemes, shortening
from .core import (
    REACHABLE,
    Configuration,
    Lps,
    PlaneVector,
    Slps,
    Vass,
    ZERO,
    path_length,
    slps_of,
)
from .errors import BudgetExceededError, PreconditionError, VasskitError

ORIGIN = Configuration(0, 0)


@dataclass(frozen=True)
class FuzzTarget:
    generate: Callable[[Random], object]
    check: Callable[[object], Optional[str]]
    shrink: Optional[Callable[[object], Iterable[object]]] = None


@dataclass(frozen=True)
class FuzzFailure:
    iteration: int
    violation: str
    minimized: object


@dataclass(frozen=True)
class FuzzReport:
    """``cases`` holds every generated case in iteration order, so
    ``cases[failure.iteration]`` is a failure's case."""

    target: str
    iterations: int
    seed: int
    failures: tuple[FuzzFailure, ...]
    cases: tuple[object, ...]


# ---------------------------------------------------------------------------
# independent geometric oracles


def _sorted_by_angle(vectors):
    def compare(a: PlaneVector, b: PlaneVector) -> int:
        half_a = 0 if (a.y > 0 or (a.y == 0 and a.x > 0)) else 1
        half_b = 0 if (b.y > 0 or (b.y == 0 and b.x > 0)) else 1
        if half_a != half_b:
            return half_a - half_b
        c = a.cross(b)
        return -1 if c > 0 else (1 if c < 0 else 0)

    return sorted(vectors, key=functools.cmp_to_key(compare))


def oracle_cone_contains_zero(cone_set) -> bool:
    """Angle-gap oracle: the cone misses zero exactly when some cyclic
    gap between consecutive direction vectors exceeds half a turn."""
    if any(v.is_zero() for v in cone_set):
        return True
    ordered = _sorted_by_angle(set(cone_set))
    unique: list[PlaneVector] = []
    for v in ordered:
        if not unique or not (unique[-1].cross(v) == 0 and unique[-1].dot(v) > 0):
            unique.append(v)
    if len(unique) == 1:
        return False
    # a ccw gap exceeds half a turn exactly when the pair's cross product
    # is negative; a gap of exactly half a turn (antiparallel) is fine
    return all(
        unique[i].cross(unique[(i + 1) % len(unique)]) >= 0 for i in range(len(unique))
    )


def oracle_cone_member(a: PlaneVector, b: PlaneVector, c: PlaneVector) -> bool:
    """Membership of c in cone{a, b} by orientation signs only."""
    if c.is_zero():
        return oracle_cone_contains_zero({a, b})
    for v in (a, b):
        if not v.is_zero() and v.cross(c) == 0 and v.dot(c) > 0:
            return True
    d = a.cross(b)
    if d == 0:
        return False
    if d > 0:
        return a.cross(c) >= 0 and c.cross(b) >= 0
    return a.cross(c) <= 0 and c.cross(b) <= 0


def oracle_zero_combination_exists(cone_set) -> bool:
    """Bounded coefficient enumeration over supports of size <= 3: some
    x1*a + x2*b (x2 = 0 for a pair) equals -k*c with every coefficient in
    [1, 2*norm^2].  It walks the sorted vectors as int pairs and solves
    for the last coefficient k by one division."""
    vectors = sorted((v.x, v.y) for v in cone_set)
    if (0, 0) in vectors:
        return True
    bound = 2 * cones.set_norm(cone_set) ** 2
    coefficients = range(1, bound + 1)
    for i, (ax, ay) in enumerate(vectors):
        for cx, cy in vectors[i + 1:]:
            for x1 in coefficients:
                tx, ty = -x1 * ax, -x1 * ay
                k = tx // cx if cx else ty // cy
                if 1 <= k <= bound and k * cx == tx and k * cy == ty:
                    return True
    for i, (ax, ay) in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            bx, by = vectors[j]
            for cx, cy in vectors[j + 1:]:
                for x1 in coefficients:
                    px, py = -x1 * ax, -x1 * ay
                    for x2 in coefficients:
                        tx, ty = px - x2 * bx, py - x2 * by
                        k = tx // cx if cx else ty // cy
                        if 1 <= k <= bound and k * cx == tx and k * cy == ty:
                            return True
    return False


@functools.cache
def _all_vectors(max_norm: int) -> tuple[PlaneVector, ...]:
    return tuple(
        PlaneVector(x, y)
        for x in range(-max_norm, max_norm + 1)
        for y in range(-max_norm, max_norm + 1)
    )


# ---------------------------------------------------------------------------
# cone lemmas


def _gen_vector_set(rng: Random, max_norm: int = 4, max_size: int = 6):
    pool = _all_vectors(max_norm)
    return frozenset(rng.choice(pool) for _ in range(rng.randint(1, max_size)))


def _check_lemma1(cone_set) -> Optional[str]:
    combo = cones.zero_combination(cone_set)
    contains = combo is not None
    if contains != oracle_cone_contains_zero(cone_set):
        return "membership test disagrees with the angle-gap oracle"
    if contains != oracle_zero_combination_exists(cone_set):
        return "membership test disagrees with the enumeration oracle"
    if combo is not None:
        if not combo.total().is_zero():
            return "combination does not sum to zero"
        if len(combo.terms) > 3:
            return "combination uses more than three vectors"
        bound = max(2 * cones.set_norm(cone_set) ** 2, 1)
        for v, k in combo.terms:
            if v not in cone_set:
                return f"combination uses {v} outside the set"
            if not 1 <= k <= bound:
                return f"coefficient {k} outside [1, {bound}]"
    return None


def _check_lemma2(cone_set) -> Optional[str]:
    zero_free = not oracle_cone_contains_zero(cone_set)
    try:
        a, b = cones.outermost_pair(cone_set)
    except PreconditionError:
        return "outermost pair refused although the cone is zero-free (oracle)" if zero_free else None
    if not zero_free:
        return "outermost pair produced although the cone contains zero (oracle)"
    if a not in cone_set or b not in cone_set:
        return "pair elements not drawn from the set"
    la, rb = cones.rotate_ccw(a), cones.rotate_cw(b)
    for c in sorted(cone_set):
        if la.dot(c) < 0:
            return f"left rotation of {a} fails on {c}"
        if rb.dot(c) < 0:
            return f"right rotation of {b} fails on {c}"
        if not oracle_cone_member(a, b, c):
            return f"{c} outside the cone spanned by the pair (oracle)"
    return None


def _gen_zero_free_set(rng: Random):
    for _ in range(200):
        cone_set = _gen_vector_set(rng)
        if not oracle_cone_contains_zero(cone_set):
            return cone_set
    return frozenset({PlaneVector(1, 0)})


def _check_lemma3(cone_set) -> Optional[str]:
    p = cones.separating_vector(cone_set)
    bound = 2 * cones.set_norm(cone_set)
    if p.norm > bound:
        return f"separating vector {p} exceeds norm bound {bound}"
    for c in sorted(cone_set):
        if p.dot(c) <= 0:
            return f"separating vector {p} fails strict positivity on {c}"
    if not any(all(q.dot(c) > 0 for c in cone_set) for q in _all_vectors(bound)):
        return "enumeration oracle found no valid separating vector"
    return None


def _gen_excluding_set(rng: Random):
    for _ in range(500):
        cone_set = _gen_vector_set(rng)
        if ZERO not in cone_set and not cones.cone_contains(cone_set, PlaneVector(0, 1)):
            return cone_set
    return frozenset({PlaneVector(1, -1)})


def _excluding_conditions(p, cone_set, bound) -> Optional[str]:
    if p.norm > bound:
        return f"{p} exceeds the norm bound {bound}"
    if p.y >= 0:
        return f"{p} does not point below the horizontal"
    for c in sorted(cone_set):
        if p.dot(c) < 0:
            return f"{p} is negative on {c}"
    if p.x < 0 and cones.rotate_cw(p) not in cone_set:
        return f"{p} points left but its right rotation is not in the set"
    return None


def _check_lemma4(cone_set) -> Optional[str]:
    p = cones.excluding_vector(cone_set)
    bound = cones.set_norm(cone_set)
    reason = _excluding_conditions(p, cone_set, bound)
    if reason is not None:
        return reason
    valid = [q for q in _all_vectors(bound) if _excluding_conditions(q, cone_set, bound) is None]
    if p not in valid:
        return "returned vector not among the oracle's valid candidates"
    return None


# ---------------------------------------------------------------------------
# the shortening operations


def _shortening_fault(sh) -> Optional[str]:
    """The shortening invariants on path profiles (``_compose``): one
    exponent per cycle, reduced <= original with something deleted, delta
    the effect difference, and the reduced path admissible from the source."""
    if not len(sh.original) == len(sh.reduced) == sh.scheme.K:
        return f"{len(sh.original)} and {len(sh.reduced)} exponents for {sh.scheme.K} cycles"
    if sh.reduced == sh.original or any(not 0 <= r <= o for r, o in zip(sh.reduced, sh.original)):
        return f"reduced {sh.reduced} deletes nothing or more than {sh.original}"
    blocks = _block_summaries(sh.scheme)
    _length, ex, ey, _dx, _dy = _compose(blocks, sh.original)
    _length, rx, ry, dx, dy = _compose(blocks, sh.reduced)
    if (ex - rx, ey - ry) != (sh.delta.x, sh.delta.y):
        return f"delta {sh.delta} is not the effect difference ({ex - rx},{ey - ry})"
    if sh.source.x + dx < 0 or sh.source.y + dy < 0:
        return f"reduced path dips below an axis from {sh.source}"
    return None


def _validate_family(
    family: shortening.ShorteningFamily, direction: PlaneVector, gamma_bound: int
) -> Optional[str]:
    if not family.members:
        return "empty shortening family"
    if not 0 <= family.gamma <= gamma_bound:
        return f"gamma {family.gamma} outside [0, {gamma_bound}]"
    for n, member in sorted(family.members.items()):
        reason = _shortening_fault(member)
        if reason is not None:
            return f"member {n}: {reason}"
        if member.delta != direction.scale(n * family.gamma):
            return f"member {n}: delta {member.delta} is not n*gamma*direction"
    return None


def _offset_source(scheme: Slps, exponents, margin: int) -> Configuration:
    """A source placing the whole run at least ``margin`` from both axes."""
    _length, _effect, drop = path_profile(scheme, exponents)
    return Configuration(margin - drop.x, margin - drop.y)


def _gen_lemma6(rng: Random):
    n_members = rng.randint(1, 2)
    c = rng.choice(_all_vectors(2))
    pool = [v for v in _all_vectors(2) if not v.is_zero()]
    if c.is_zero():
        base = rng.choice(pool)
        cycles = [base, -base]
    else:
        cycles = [c]
    target_k = rng.randint(len(cycles), 3)
    while len(cycles) < target_k:
        cycles.append(rng.choice(pool))
    rng.shuffle(cycles)
    alphas = [rng.choice(_all_vectors(1)) for _ in range(len(cycles) + 1)]
    scheme = slps_of(alphas, cycles)
    floor = 2 * scheme.norm**2 * n_members
    exponents = tuple(rng.randint(floor, floor + 6) for _ in cycles)
    source = _offset_source(
        scheme, exponents, 6 * scheme.norm**3 * n_members + rng.randint(0, 3)
    )
    return (scheme, exponents, source, n_members, c)


def _check_lemma6(case) -> Optional[str]:
    scheme, exponents, source, n_members, c = case
    family = shortening.cut_by_vector(scheme, exponents, source, n_members, c)
    return _validate_family(family, c, 2 * scheme.norm**2)


def _gen_thm5(rng: Random):
    corridor = rng.randint(2, 8)
    k = rng.randint(1, 3)
    cycles = [PlaneVector(0, rng.randint(1, 2)) for _ in range(k)]
    alphas = [PlaneVector(0, rng.choice([0, 1])) for _ in range(k + 1)]
    scheme = slps_of(alphas, cycles)
    threshold = (k * corridor + 1) * scheme.norm
    exponents = [rng.randint(corridor, corridor + 4) for _ in range(k)]
    while (
        sum(e * scheme.beta_vec(i).y for i, e in enumerate(exponents))
        + sum(a.y for a in alphas)
        <= threshold
    ):
        exponents[rng.randrange(k)] += corridor
    source = Configuration(rng.randrange(corridor), corridor + rng.randint(0, 4))
    return (scheme, tuple(exponents), source, corridor, k)


def _check_thm5(case) -> Optional[str]:
    scheme, exponents, source, corridor, k = case
    family = shortening.shorten_close_away(scheme, exponents, source, corridor, k)
    reason = _validate_family(family, PlaneVector(0, 1), scheme.norm)
    if reason is not None:
        return reason
    if family.gamma < 1:
        return "close-corridor gamma must be at least 1"
    for n, member in family.members.items():
        for i in range(scheme.K):
            if member.reduced[i] != member.original[i] and scheme.beta_vec(i).x != 0:
                return "a deleted cycle is not vertical"
    if set(family.members) != set(range(1, corridor // family.gamma + 1)):
        return "family does not cover n = 1..floor(M/gamma)"
    return None


def _gen_thm6(rng: Random):
    n_members = rng.randint(1, 2)
    k = rng.randint(1, 3)
    cycles = [PlaneVector(0, rng.randint(1, 2)) for _ in range(k)]
    if k >= 2 and rng.random() < 0.4:
        cycles[rng.randrange(1, k)] = PlaneVector(rng.choice([-1, 1]), 2)
    alphas = [rng.choice(_all_vectors(1)) for _ in range(k + 1)]
    scheme = slps_of(alphas, cycles)
    norm = scheme.norm
    threshold = (4 * k * n_members + 2) * norm**4
    exponents = [2 * norm**2 * n_members + rng.randint(0, 4) for _ in range(k)]
    # bump a strictly vertical cycle so both slope endpoints make progress
    vertical = max(
        (i for i in range(k) if scheme.beta_vec(i).x == 0),
        key=lambda i: scheme.beta_vec(i).y,
    )
    while True:
        _length, delta, _drop = path_profile(scheme, exponents)
        if all(s * delta.x + delta.y > threshold for s in (-norm, norm)):
            break
        exponents[vertical] += 2 * norm**2
    exponents = tuple(exponents)
    source = _offset_source(scheme, exponents, 6 * norm**3 * n_members + rng.randint(0, 3))
    return (scheme, exponents, source, n_members, k)


def _check_thm6(case) -> Optional[str]:
    scheme, exponents, source, n_members, k = case
    family = shortening.shorten_away_both(scheme, exponents, source, n_members, k)
    return _validate_family(family, PlaneVector(0, 1), 2 * scheme.norm**2)


def _gen_thm7(rng: Random):
    shape = rng.choice(["corridor-climb", "drift-left"])
    n_members = 1
    k = 1
    if shape == "corridor-climb":
        corridor = rng.randint(6, 8)
        scheme = slps_of([PlaneVector(0, 1), PlaneVector(0, 1)], [PlaneVector(0, 1)])
        need = 12 * (k + 1) * (corridor + 1)  # norm is 1
        exponents = (need + rng.randint(0, 20),)
        source = Configuration(rng.randrange(corridor), corridor - 1)
        return (scheme, exponents, source, corridor, n_members, k, 1)
    corridor = 6
    reps = 12 * (k + 1) * (corridor + 1) + rng.randint(0, 30)
    scheme = slps_of([PlaneVector(0, 1), PlaneVector(0, 1)], [PlaneVector(-1, 1)])
    source = Configuration(reps + corridor - 1, corridor - 1)
    return (scheme, (reps,), source, corridor, n_members, k, 2)


def _check_thm7(case) -> Optional[str]:
    scheme, exponents, source, corridor, n_members, k, expect_case = case
    result = shortening.shorten_away_other(scheme, exponents, source, corridor, n_members, k)
    if result.case != expect_case:
        return f"expected case {expect_case}, got case {result.case}"
    if result.case == 1:
        return _validate_family(result.family, PlaneVector(0, 1), 2 * scheme.norm**2)
    v = result.vector
    if not (v.x < 0 < v.y):
        return f"case-2 vector {v} not up-and-left"
    uses = sum(n for i, n in enumerate(exponents) if scheme.beta_vec(i) == v)
    uses += sum(a == (v,) for a in scheme.alphas)
    if uses < 2 * scheme.norm**2 * n_members:
        return f"case-2 vector {v} not repeated often enough"
    target_y = source.y + path_profile(scheme, exponents)[1].y
    bound = 7 * (k + 2) * (corridor + 1) * scheme.norm**5
    value = cones.rotate_ccw(v).dot(PlaneVector(source.x, -target_y))
    if value >= bound:
        return f"case-2 inequality fails: {value} >= {bound}"
    return None


def _gen_thm8(rng: Random):
    shape = rng.choice(["vee-descend", "vee-rightward"])
    corridor = 8
    k = 2
    n_members = 1
    height = 19 * (k + 2) * (corridor + 1)  # norm is 1
    reps = height - 9 + rng.randint(1, 40)
    if shape == "vee-descend":
        scheme = slps_of(
            [PlaneVector(1, 0), PlaneVector(-1, 1), PlaneVector(0, 1)],
            [PlaneVector(1, -1), PlaneVector(-1, 1)],
        )
        source = Configuration(corridor - 1, reps + corridor - 1)
    else:
        scheme = slps_of(
            [PlaneVector(1, 0), PlaneVector(-1, 1), PlaneVector(0, 1)],
            [PlaneVector(1, 0), PlaneVector(-1, 1)],
        )
        source = Configuration(corridor - 1, corridor - 1)
    split = 1 + reps
    return (scheme, (reps, reps), source, split, corridor, n_members, k)


def _check_thm8(case) -> Optional[str]:
    scheme, exponents, source, split, corridor, n_members, k = case
    family = shortening.shorten_one_visit(
        scheme, exponents, source, split, corridor, n_members, k
    )
    return _validate_family(family, PlaneVector(0, 1), 2 * scheme.norm**3)


def _gen_thm9(rng: Random):
    height = rng.randint(1, 2)
    scheme = slps_of([ZERO, ZERO, ZERO], [PlaneVector(0, height), PlaneVector(0, -height)])
    norm = scheme.norm
    margin = 6 * norm**3
    sx = margin + rng.randint(0, 3)
    sy = margin + rng.randint(0, 3)
    k = scheme.K
    threshold = 3 * norm**2 * max(sx, sy) + (15 * norm**5 * k + 1) // 2 + 1
    reps = threshold // height + rng.randint(2, 10)
    return (scheme, (reps, reps), Configuration(sx, sy), k)


def _check_thm9(case) -> Optional[str]:
    scheme, exponents, source, k = case
    member = shortening.shorten_far(scheme, exponents, source, k)
    if member.delta != ZERO:
        return f"far shortening has delta {member.delta}, not zero"
    return _shortening_fault(member)


# ---------------------------------------------------------------------------
# scheme toolkit


def _gen_thm10(rng: Random):
    pool = _all_vectors(2)
    for _ in range(300):
        k = rng.randint(1, 3)
        scheme = slps_of(
            [rng.choice(pool) for _ in range(k + 1)], [rng.choice(pool) for _ in range(k)]
        )
        try:
            if schemes.slps_reach(scheme, ORIGIN, ORIGIN, budget=200_000).reachable:
                return scheme
        except BudgetExceededError:
            continue
    return slps_of([ZERO, ZERO], [PlaneVector(0, 1)])


def _check_thm10(scheme) -> Optional[str]:
    # slps_reach re-checks its witness on corners and raises InternalDefectError on a bad one
    result = schemes.slps_reach(scheme, ORIGIN, ORIGIN, budget=500_000)
    if not result.reachable:
        return "witness vanished on re-search"
    bound = schemes.norm_bound(scheme)
    peak = result.max_visited_norm
    if peak > bound:
        return f"visited norm {peak} exceeds the bound {bound}"
    length = path_length(scheme, result.exponents)
    # the verifier's path automaton and oracle share no code with the search
    try:
        oracle = certificates.brute_force_oracle(
            certificates._path_vass(scheme), ORIGIN, ORIGIN, peak + 40, budget=500_000
        )
    except BudgetExceededError:
        return None
    if oracle.kind != REACHABLE:
        return f"brute-force oracle finds no 0 -> 0 path within norm {peak + 40}"
    if oracle.length != length:
        return f"length {length} differs from the brute-force oracle's {oracle.length}"
    return None


def _gen_lps(rng: Random, max_len: int = 8, max_norm: int = 2, max_cycles: int = 3):
    pool = _all_vectors(max_norm)
    total = rng.randint(1, max_len)
    k = rng.randint(0, min(max_cycles, total))
    cycle_lens = []
    remaining = total
    for left in range(k, 0, -1):
        top = max(1, min(2, remaining - (left - 1)))
        cycle_lens.append(rng.randint(1, top))
        remaining -= cycle_lens[-1]
    alpha_lens = [0] * (k + 1)
    for _ in range(remaining):
        alpha_lens[rng.randrange(k + 1)] += 1
    alphas = tuple(tuple(rng.choice(pool) for _ in range(n)) for n in alpha_lens)
    betas = tuple(tuple(rng.choice(pool) for _ in range(n)) for n in cycle_lens)
    return Lps(alphas, betas)


def bounded_relation(blocks, max_len: int):
    """All (length, effect, min-prefix-drop) profiles of complete paths
    through ``blocks`` (the summaries of ``_block_summaries``) with at most
    max_len letters, each with one representative cycle-exponent tuple.

    The drop is the component-wise minimum displacement over all
    prefixes, so a path is admissible from s exactly when s + drop >= 0,
    making the result source-independent.  Zero-effect cycles are taken
    at most once, and identity cycles (zero effect, no prefix below zero)
    never: extra turns only add length.  Each run of segments and
    identity cycles is one step (``_fixed_runs``), which extends every
    exponent tuple by the run's zeros.
    """
    states: dict[tuple, tuple] = {(0, 0, 0, 0, 0): ()}
    for is_cycle, length, wx, wy, drop_x, drop_y, zeros in _fixed_runs(blocks):
        nxt: dict[tuple, tuple] = {}
        if not is_cycle:
            for (ln, ex, ey, dx, dy), exps in states.items():
                if ln + length > max_len:
                    continue
                low_x, low_y = ex + drop_x, ey + drop_y
                key = (
                    ln + length, ex + wx, ey + wy,
                    low_x if low_x < dx else dx, low_y if low_y < dy else dy,
                )
                if key not in nxt:
                    nxt[key] = exps + zeros
        else:
            max_turns = 1 if wx == 0 and wy == 0 else max_len
            for (ln, ex, ey, dx, dy), exps in states.items():
                if (ln, ex, ey, dx, dy) not in nxt:
                    nxt[(ln, ex, ey, dx, dy)] = exps + (0,)
                cx, cy, cdx, cdy, cln = ex, ey, dx, dy, ln
                for n in range(1, max_turns + 1):
                    cln += length
                    if cln > max_len:
                        break
                    if cx + drop_x < cdx:
                        cdx = cx + drop_x
                    if cy + drop_y < cdy:
                        cdy = cy + drop_y
                    cx += wx
                    cy += wy
                    key = (cln, cx, cy, cdx, cdy)
                    if key not in nxt:
                        nxt[key] = exps + (n,)
        states = nxt
    return states


_EMPTY = (0, 0, 0, 0, 0)  # the empty word: (length, wx, wy, bx, by)


def _fixed_runs(blocks):
    """``blocks`` as (is_cycle, length, wx, wy, bx, by, zeros) steps: each
    maximal run of segments and identity cycles folds into one segment
    step (``_then``) whose zeros hold one 0 exponent per identity cycle in
    it, and every other cycle is a step of its own with no zeros."""
    steps = []
    fixed, zeros = _EMPTY, ()
    for block in blocks:
        is_cycle, _length, wx, wy, bx, by = block
        if not is_cycle:
            fixed = _then(fixed, block)
        elif (wx, wy, bx, by) == (0, 0, 0, 0):
            zeros += (0,)
        else:
            steps += [(False, *fixed, zeros), (*block, ())]
            fixed, zeros = _EMPTY, ()
    steps.append((False, *fixed, zeros))
    return steps


def _then(summary, block):
    """The (length, wx, wy, bx, by) summary of a word with that
    ``summary`` followed by one turn of ``block``."""
    length, wx, wy, bx, by = summary
    _is_cycle, b_length, b_wx, b_wy, b_bx, b_by = block
    return (
        length + b_length, wx + b_wx, wy + b_wy,
        min(bx, wx + b_bx), min(by, wy + b_by),
    )


def _block_summaries(scheme: Lps) -> tuple[tuple[bool, int, int, int, int, int], ...]:
    """One (is_cycle, length, wx, wy, bx, by) summary per block of
    a0 b1 a1 ... bK aK, in order: the block's effect w and its least
    prefix b, per axis (b <= min(0, w), the empty prefix included).

    ``bounded_relation``, ``_compose`` and ``_origin_map`` read a scheme
    only through these summaries, so the split checker (``_check_thm12``)
    makes one pass over each scheme's letters, composes every path
    profile it needs in plain ints, and never builds or runs a word.
    """
    words = [scheme.alphas[0]]
    for beta, alpha in zip(scheme.betas, scheme.alphas[1:]):
        words += [beta, alpha]
    summaries = []
    for i, word in enumerate(words):
        wx = wy = bx = by = 0
        for v in word:
            wx += v.x
            wy += v.y
            if wx < bx:
                bx = wx
            if wy < by:
                by = wy
        summaries.append((i % 2 == 1, len(word), wx, wy, bx, by))
    return tuple(summaries)


def _compose(blocks, reps) -> tuple[int, int, int, int, int]:
    """(length, ex, ey, dx, dy) of the path taking cycle i reps[i] times:
    its length, effect e and drop d, from its scheme's block summaries.

    n >= 1 turns of a block with effect w and least prefix b, from running
    effect E, reach their lowest prefix at E + b + min(0, (n-1)*w), so each
    block composes in closed form, whatever its exponent.
    """
    ln = ex = ey = dx = dy = 0
    cycles = iter(reps)
    for is_cycle, length, wx, wy, bx, by in blocks:
        n = next(cycles) if is_cycle else 1
        if n == 0:
            continue
        low_x = ex + bx + ((n - 1) * wx if wx < 0 else 0)
        low_y = ey + by + ((n - 1) * wy if wy < 0 else 0)
        if low_x < dx:
            dx = low_x
        if low_y < dy:
            dy = low_y
        ex += n * wx
        ey += n * wy
        ln += n * length
    return ln, ex, ey, dx, dy


def path_profile(scheme: Lps, reps) -> tuple[int, PlaneVector, PlaneVector]:
    """(length, effect, drop) of one scheme path, by ``_compose``."""
    ln, ex, ey, dx, dy = _compose(_block_summaries(scheme), reps)
    return ln, PlaneVector(ex, ey), PlaneVector(dx, dy)


def _origin_map(origin_blocks, member: schemes.SlpsMember):
    """A member's map from its path exponents to its origin path, built
    once per member from ``schemes.origin_turns``: (head, steps).  Origin
    cycles taken a fixed number of times (an omitted one never, an
    unrolled one once) fold with the segments into fixed runs (``_then``).
    ``head`` is the run before the first cycle that takes a member
    exponent, and each step (position, turns, block, tail) is such a
    cycle, taken turns (>= 1) times plus the exponent at position,
    followed by the run up to the next one."""
    turns = iter(schemes.origin_turns(member))
    fixed_runs = [_EMPTY]
    cycles = []
    for block in origin_blocks:
        fixed, pos = next(turns) if block[0] else (1, None)
        if pos is None:
            for _turn in range(fixed):
                fixed_runs[-1] = _then(fixed_runs[-1], block)
        else:
            cycles.append((pos, fixed, block))
            fixed_runs.append(_EMPTY)
    return fixed_runs[0], [(*cycle, tail) for cycle, tail in zip(cycles, fixed_runs[1:])]


def _check_thm12(scheme: Lps) -> Optional[str]:
    size = max(scheme.length, 1)
    norm = scheme.norm
    max_len = 40
    origin_blocks = _block_summaries(scheme)
    origin_states = bounded_relation(origin_blocks, max_len)
    union: set[tuple[int, int, int, int]] = set()
    for member in schemes.split_lps(scheme):
        if member.scheme.length > 4 * size:
            return f"member length {member.scheme.length} exceeds 4*|L| = {4 * size}"
        if member.scheme.norm > max(2 * norm * size, norm):
            return f"member norm {member.scheme.norm} exceeds 2*norm*|L|"
        member_states = bounded_relation(_block_summaries(member.scheme), max_len)
        head, steps = _origin_map(origin_blocks, member)
        # every member path must map to a genuine origin path: same
        # effect, same admissibility threshold, boundedly longer; the
        # origin path composes as in ``_compose``, one step per cycle
        # that takes a member exponent
        for (ln, ex, ey, dx, dy), exps in member_states.items():
            oln, oex, oey, odx, ody = head
            for pos, fixed, (_c, length, wx, wy, bx, by), (tln, twx, twy, tbx, tby) in steps:
                n = exps[pos] + fixed
                low_x = oex + bx + ((n - 1) * wx if wx < 0 else 0)
                low_y = oey + by + ((n - 1) * wy if wy < 0 else 0)
                if low_x < odx:
                    odx = low_x
                if low_y < ody:
                    ody = low_y
                oex += n * wx
                oey += n * wy
                oln += n * length
                if oex + tbx < odx:
                    odx = oex + tbx
                if oey + tby < ody:
                    ody = oey + tby
                oex += twx
                oey += twy
                oln += tln
            if (oex, oey) != (ex, ey):
                return f"profile {member.profile}: origin effect {PlaneVector(oex, oey)} != ({ex},{ey})"
            if (odx, ody) != (dx, dy):
                return f"profile {member.profile}: origin drop {PlaneVector(odx, ody)} != ({dx},{dy})"
            if oln > max(ln, 1) * size:
                return f"profile {member.profile}: origin length {oln} exceeds |path|*|L|"
        union.update(key[1:] for key in member_states)
    # the relation of a path set is {(s, s+e) : s + d >= 0} over its (effect
    # e, drop d) profiles, so the split keeps it exactly when each origin
    # profile is matched or dominated by a member profile of its effect
    missing = {key[1:] for key in origin_states} - union
    if missing:
        drops: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for ex, ey, dx, dy in union:
            drops.setdefault((ex, ey), []).append((dx, dy))
        for ex, ey, dx, dy in sorted(missing):
            if not any(hx >= dx and hy >= dy for hx, hy in drops.get((ex, ey), ())):
                return f"origin paths of effect ({ex},{ey}) and drop ({dx},{dy}) lost by the split"
    return None


# ---------------------------------------------------------------------------
# decider agreement


def _gen_decider(rng: Random):
    n_states = rng.randint(1, 4)
    names = [f"q{i}" for i in range(n_states)]
    pool = _all_vectors(2)
    edges = tuple(
        (rng.choice(names), rng.choice(pool), rng.choice(names))
        for _ in range(rng.randint(1, 6))
    )
    initial = frozenset(rng.sample(names, rng.randint(1, n_states)))
    accepting = frozenset(rng.sample(names, rng.randint(1, n_states)))
    vass = Vass(tuple(names), edges, initial, accepting)
    s = Configuration(rng.randint(0, 3), rng.randint(0, 3))
    t = Configuration(rng.randint(0, 3), rng.randint(0, 3))
    return (vass, s, t, 50)


def _check_decider(case) -> Optional[str]:
    vass, s, t, cap = case
    fast = decide.decide_capped_bfs(vass, s, t, cap)
    slow = certificates.brute_force_oracle(vass, s, t, cap)
    if fast.kind != slow.kind:
        return f"verdicts diverge: {fast.kind} vs oracle {slow.kind}"
    if fast.explored != slow.explored:
        return f"explored {fast.explored} states, oracle {slow.explored}"
    if fast.kind == REACHABLE:
        if fast.length != slow.length:
            return f"witness length {fast.length} differs from oracle {slow.length}"
        reason = certificates.witness_violation(vass, s, t, fast.witness, fast.states)
        if reason is not None:
            return f"witness fails validation: {reason}"
        wider = decide.decide_capped_bfs(vass, s, t, cap + 10)
        if wider.kind != REACHABLE or wider.length > fast.length:
            return "enlarging the cap degraded the verdict"
    return None


# ---------------------------------------------------------------------------
# registry, execution, minimization


def _shrink_vector_set(cone_set):
    vectors = sorted(cone_set)
    for v in vectors:
        if len(vectors) > 1:
            yield frozenset(u for u in vectors if u != v)


TARGETS: dict[str, FuzzTarget] = {
    "lemma1": FuzzTarget(_gen_vector_set, _check_lemma1, _shrink_vector_set),
    "lemma2": FuzzTarget(_gen_vector_set, _check_lemma2, _shrink_vector_set),
    "lemma3": FuzzTarget(_gen_zero_free_set, _check_lemma3, _shrink_vector_set),
    "lemma4": FuzzTarget(_gen_excluding_set, _check_lemma4, _shrink_vector_set),
    "lemma6": FuzzTarget(_gen_lemma6, _check_lemma6),
    "thm5": FuzzTarget(_gen_thm5, _check_thm5),
    "thm6": FuzzTarget(_gen_thm6, _check_thm6),
    "thm7": FuzzTarget(_gen_thm7, _check_thm7),
    "thm8": FuzzTarget(_gen_thm8, _check_thm8),
    "thm9": FuzzTarget(_gen_thm9, _check_thm9),
    "thm10": FuzzTarget(_gen_thm10, _check_thm10),
    "thm12": FuzzTarget(_gen_lps, _check_thm12),
    "decider": FuzzTarget(_gen_decider, _check_decider),
}


def minimize(target: FuzzTarget, case, violation_of: Callable[[object], Optional[str]]):
    """Greedy shrink: repeatedly move to any smaller case that still
    fails; candidates that stop failing (or break preconditions) are
    skipped."""
    if target.shrink is None:
        return case
    current = case
    progress = True
    while progress:
        progress = False
        for candidate in target.shrink(current):
            try:
                still_failing = violation_of(candidate) is not None
            except VasskitError:
                still_failing = False
            if still_failing:
                current = candidate
                progress = True
                break
    return current


def run_target(name: str, iterations: int, seed: int) -> FuzzReport:
    if iterations < 1:
        raise PreconditionError(f"iteration count must be at least 1, got {iterations}")
    target = TARGETS[name]
    rng = Random(seed)
    failures = []
    cases = []
    for i in range(iterations):
        case = target.generate(rng)
        cases.append(case)
        violation = target.check(case)
        if violation is not None:
            failures.append(
                FuzzFailure(
                    iteration=i,
                    violation=violation,
                    minimized=minimize(target, case, target.check),
                )
            )
            if len(failures) >= 3:
                break
    return FuzzReport(name, iterations, seed, tuple(failures), tuple(cases))
