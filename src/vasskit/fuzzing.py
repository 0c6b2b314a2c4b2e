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
    Configuration,
    Lps,
    PlaneVector,
    Slps,
    Vass,
    ZERO,
    effect,
    instantiate,
    run,
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
    """Bounded coefficient enumeration over supports of size <= 3."""
    vectors = sorted(cone_set)
    if any(v.is_zero() for v in vectors):
        return True
    bound = 2 * cones.set_norm(vectors) ** 2
    for i, a in enumerate(vectors):
        for b in vectors[i + 1:]:
            for x1 in range(1, bound + 1):
                if _divides(b, a.scale(-x1), bound):
                    return True
    for i, a in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            b = vectors[j]
            for c in vectors[j + 1:]:
                for x1 in range(1, bound + 1):
                    ax = a.scale(x1)
                    for x2 in range(1, bound + 1):
                        if _divides(c, -(ax + b.scale(x2)), bound):
                            return True
    return False


def _divides(v: PlaneVector, target: PlaneVector, bound: int) -> bool:
    """Whether target = k*v for some integer k in [1, bound]."""
    if v.is_zero():
        return False
    k = target.x // v.x if v.x != 0 else target.y // v.y
    return 1 <= k <= bound and v.scale(k) == target


def _all_vectors(max_norm: int):
    return [
        PlaneVector(x, y)
        for x in range(-max_norm, max_norm + 1)
        for y in range(-max_norm, max_norm + 1)
    ]


# ---------------------------------------------------------------------------
# cone lemmas


def _gen_vector_set(rng: Random, max_norm: int = 4, max_size: int = 6):
    pool = _all_vectors(max_norm)
    return frozenset(rng.choice(pool) for _ in range(rng.randint(1, max_size)))


def _check_lemma1(cone_set) -> Optional[str]:
    combo = cones.zero_combination(cone_set)
    contains = cones.cone_contains_zero(cone_set)
    if (combo is not None) != contains:
        return "witness presence disagrees with the membership test"
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
    if cones.cone_contains_zero(cone_set):
        try:
            cones.outermost_pair(cone_set)
            return "outermost pair produced although the cone contains zero"
        except PreconditionError:
            return None
    a, b = cones.outermost_pair(cone_set)
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


def _validate_family(
    family: shortening.ShorteningFamily, direction: PlaneVector, gamma_bound: int
) -> Optional[str]:
    if not family.members:
        return "empty shortening family"
    if not 0 <= family.gamma <= gamma_bound:
        return f"gamma {family.gamma} outside [0, {gamma_bound}]"
    for n, member in sorted(family.members.items()):
        reason = shortening.shortening_violation(member)
        if reason is not None:
            return f"member {n}: {reason}"
        if member.delta != direction.scale(n * family.gamma):
            return f"member {n}: delta {member.delta} is not n*gamma*direction"
    return None


def _offset_source(scheme: Slps, exponents, margin: int) -> Configuration:
    """A source placing the whole run at least ``margin`` from both axes."""
    lows = run(instantiate(scheme, exponents), Configuration(0, 0)).visited
    return Configuration(
        margin - min(min(p.x for p in lows), 0), margin - min(min(p.y for p in lows), 0)
    )


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
        delta = effect(instantiate(scheme, tuple(exponents)))
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
    word = instantiate(scheme, exponents)
    if word.count(v) < 2 * scheme.norm**2 * n_members:
        return f"case-2 vector {v} not repeated often enough"
    trace = run(word, source)
    bound = 7 * (k + 2) * (corridor + 1) * scheme.norm**5
    value = cones.rotate_ccw(v).dot(PlaneVector(source.x, -trace.target.y))
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
    reason = shortening.shortening_violation(member)
    if reason is not None:
        return reason
    if member.delta != ZERO:
        return f"far shortening has delta {member.delta}, not zero"
    return None


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
    # slps_reach re-runs its witness and raises InternalDefectError on a bad one
    result = schemes.slps_reach(scheme, ORIGIN, ORIGIN, budget=500_000)
    if not result.reachable:
        return "witness vanished on re-search"
    bound = schemes.norm_bound(scheme)
    peak = result.max_visited_norm
    if peak > bound:
        return f"visited norm {peak} exceeds the bound {bound}"
    length = len(instantiate(scheme, result.exponents))
    # the verifier's path automaton and oracle share no code with the search
    try:
        oracle = decide.brute_force_oracle(
            certificates._path_vass(scheme), ORIGIN, ORIGIN, peak + 40, budget=500_000
        )
    except BudgetExceededError:
        return None
    if oracle.kind != decide.REACHABLE:
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
    through ``blocks`` (('L', word) and ('C', word) entries) with at most
    max_len letters, each with one representative cycle-exponent tuple.

    The drop is the component-wise minimum displacement over all
    prefixes, so a path is admissible from s exactly when s + drop >= 0,
    making the result source-independent.  Zero-effect cycles are taken
    at most once: extra turns only add length.
    """
    states: dict[tuple, tuple] = {(0, 0, 0, 0, 0): ()}
    for kind, word in blocks:
        e = effect(word)
        visited = run(word, Configuration(0, 0)).visited
        drop_x = min(p.x for p in visited)
        drop_y = min(p.y for p in visited)
        nxt: dict[tuple, tuple] = {}
        if kind == "L":
            for (ln, ex, ey, dx, dy), exps in states.items():
                if ln + len(word) > max_len:
                    continue
                key = (
                    ln + len(word), ex + e.x, ey + e.y,
                    min(dx, ex + drop_x), min(dy, ey + drop_y),
                )
                if key not in nxt:
                    nxt[key] = exps
        else:
            max_turns = 1 if e.is_zero() else max_len
            for (ln, ex, ey, dx, dy), exps in states.items():
                if (ln, ex, ey, dx, dy) not in nxt:
                    nxt[(ln, ex, ey, dx, dy)] = exps + (0,)
                if e.is_zero() and drop_x == 0 and drop_y == 0:
                    continue
                cx, cy, cdx, cdy, cln = ex, ey, dx, dy, ln
                for n in range(1, max_turns + 1):
                    cln += len(word)
                    if cln > max_len:
                        break
                    cdx = min(cdx, cx + drop_x)
                    cdy = min(cdy, cy + drop_y)
                    cx += e.x
                    cy += e.y
                    key = (cln, cx, cy, cdx, cdy)
                    if key not in nxt:
                        nxt[key] = exps + (n,)
        states = nxt
    return states


def _lps_blocks(scheme: Lps):
    blocks = [("L", scheme.alphas[0])]
    for i in range(scheme.K):
        blocks.append(("C", scheme.betas[i]))
        blocks.append(("L", scheme.alphas[i + 1]))
    return blocks


def path_profile(scheme: Lps, reps) -> tuple[int, PlaneVector, PlaneVector]:
    """(length, effect, drop) of one scheme path, by block composition.

    One pass over a block's letters gives its effect w and prefix drop d
    (both per axis, d <= min(0, w)).  n >= 1 turns of the block from
    running effect E reach their lowest prefix at E + d + min(0, (n-1)*w),
    so each block composes in closed form, whatever its exponent.
    """
    ln, ex, ey, dx, dy = 0, 0, 0, 0, 0
    cycles = iter(reps)
    for kind, word in _lps_blocks(scheme):
        n = 1 if kind == "L" else next(cycles)
        if n == 0:
            continue
        wx = wy = bx = by = 0
        for v in word:
            wx += v.x
            wy += v.y
            if wx < bx:
                bx = wx
            if wy < by:
                by = wy
        low_x = ex + bx + ((n - 1) * wx if wx < 0 else 0)
        low_y = ey + by + ((n - 1) * wy if wy < 0 else 0)
        if low_x < dx:
            dx = low_x
        if low_y < dy:
            dy = low_y
        ex += n * wx
        ey += n * wy
        ln += n * len(word)
    return ln, PlaneVector(ex, ey), PlaneVector(dx, dy)


def _compress(states, by_eff: Optional[dict[tuple, list]] = None) -> dict[tuple, list]:
    """Per effect, the Pareto-maximal drop pairs among ``states``; enough
    to answer every admissibility query.  Given ``by_eff``, the fronts of
    earlier states, it adds ``states`` to them in place."""
    by_eff = {} if by_eff is None else by_eff
    for (_ln, ex, ey, dx, dy) in states:
        drops = by_eff.setdefault((ex, ey), [])
        if any(qx >= dx and qy >= dy for qx, qy in drops):
            continue
        drops[:] = [(qx, qy) for qx, qy in drops if not (dx >= qx and dy >= qy)]
        drops.append((dx, dy))
    return by_eff


_SOURCES = range(0, 9)  # both source coordinates range over 0..8
_BOX = 48  # targets are kept only inside [0, 48]^2


def _thresholds(drops) -> list[int]:
    """For each source x in _SOURCES, the least source y >= 0 that some
    drop in ``drops`` admits (len(_SOURCES) when none does)."""
    out = []
    for sx in _SOURCES:
        least = len(_SOURCES)
        for dx, dy in drops:
            if sx + dx >= 0 and -dy < least:
                least = max(0, -dy)
        out.append(least)
    return out


def _lost_target(origin, union) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """The first source (x, then y order, both in 0..8) from which the
    origin reaches a target in [0,48]^2 that the union does not, with the
    least such target; None when no target is lost.

    Both arguments map an effect to its Pareto-maximal drops.  A source s
    admits a drop d when s + d >= 0, so for a fixed source x the sources
    y a set of drops admits form an up-set {y : y >= threshold(x)}.
    Distinct effects give distinct targets from one source, so effect e
    loses its target at (x, y) exactly when the origin's threshold <= y <
    the union's threshold and (x, y) + e lies in the box.
    """
    best = None
    for (ex, ey), drops in origin.items():
        here = _thresholds(drops)
        there = _thresholds(union.get((ex, ey), ()))
        for sx in _SOURCES:
            if not 0 <= sx + ex <= _BOX:
                continue
            sy = max(here[sx], -ey)
            if sy < min(there[sx], _BOX + 1 - ey):
                found = ((sx, sy), (sx + ex, sy + ey))
                if best is None or found < best:
                    best = found
                break
    return best


def _check_thm12(scheme: Lps) -> Optional[str]:
    members = schemes.split_lps(scheme)
    size = max(scheme.length, 1)
    norm = scheme.norm
    for member in members:
        if member.scheme.length > 4 * size:
            return f"member length {member.scheme.length} exceeds 4*|L| = {4 * size}"
        if member.scheme.norm > max(2 * norm * size, norm):
            return f"member norm {member.scheme.norm} exceeds 2*norm*|L|"
    max_len = 40
    origin_compressed = _compress(bounded_relation(_lps_blocks(scheme), max_len))
    union_compressed: dict[tuple, list] = {}
    for member in members:
        member_states = bounded_relation(_lps_blocks(member.scheme), max_len)
        # every member path must map to a genuine origin path: same
        # effect, same admissibility threshold, boundedly longer
        for (ln, ex, ey, dx, dy), exps in member_states.items():
            reps = schemes.origin_exponents(member, exps, scheme.K)
            oln, oeff, odrop = path_profile(scheme, reps)
            if oeff != PlaneVector(ex, ey):
                return f"profile {member.profile}: origin effect {oeff} != ({ex},{ey})"
            if odrop != PlaneVector(dx, dy):
                return f"profile {member.profile}: origin drop {odrop} != ({dx},{dy})"
            if oln > max(ln, 1) * size:
                return f"profile {member.profile}: origin length {oln} exceeds |path|*|L|"
        _compress(member_states, union_compressed)
    lost = _lost_target(origin_compressed, union_compressed)
    if lost is not None:
        (sx, sy), target = lost
        return f"target {target} from ({sx},{sy}) lost by the split"
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
    slow = decide.brute_force_oracle(vass, s, t, cap)
    if fast.kind != slow.kind:
        return f"verdicts diverge: {fast.kind} vs oracle {slow.kind}"
    if fast.kind == decide.REACHABLE:
        if fast.length != slow.length:
            return f"witness length {fast.length} differs from oracle {slow.length}"
        reason = decide.witness_violation(vass, s, t, fast.witness, fast.states)
        if reason is not None:
            return f"witness fails validation: {reason}"
        wider = decide.decide_capped_bfs(vass, s, t, cap + 10)
        if wider.kind != decide.REACHABLE or wider.length > fast.length:
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
