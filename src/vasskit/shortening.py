"""Admissible path shortening for simple linear path schemes.

A shortening deletes whole cycle repetitions from a scheme path, reducing
its effect by a prescribed vector while keeping the run admissible.  The
operations here return certificates (original and reduced exponents plus
the delta) that are re-validated independently by re-running the reduced
word; they never rely on the construction being correct.

Shortenings are represented as exponent decrements only: unstarred
segments are never touched, which suffices because every construction
deletes whole cycle repetitions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .cones import cone_contains, rotate_ccw, zero_combination
from .core import (
    Configuration,
    PlaneVector,
    Run,
    SchemePath,
    Slps,
    ZERO,
    effect,
    instantiate,
    run,
)
from .errors import InternalDefectError, PreconditionError

_UP = PlaneVector(0, 1)


@dataclass(frozen=True)
class Shortening:
    """A certificate: dropping some cycle repetitions of ``original``
    yields ``reduced``, whose effect is smaller by ``delta`` and whose run
    from ``source`` is admissible."""

    scheme: Slps
    original: SchemePath
    reduced: SchemePath
    delta: PlaneVector
    source: Configuration


def shortening_violation(sh: Shortening) -> Optional[str]:
    """Check all certificate invariants; None when valid, else the first
    violated invariant, named."""
    k = sh.scheme.K
    if len(sh.original) != k or len(sh.reduced) != k:
        return "exponent-count mismatch with scheme"
    if any(n < 0 for n in sh.reduced):
        return "negative exponent in reduced path"
    if any(r > o for r, o in zip(sh.reduced, sh.original)):
        return "reduced path is not a subword (exponent exceeds original)"
    if sum(sh.reduced) >= sum(sh.original):
        return "reduced path is not a proper subword (nothing deleted)"
    original_word = instantiate(sh.scheme, sh.original)
    reduced_word = instantiate(sh.scheme, sh.reduced)
    if effect(original_word) - effect(reduced_word) != sh.delta:
        return "effect difference does not equal delta"
    if not run(reduced_word, sh.source).admissible:
        return "reduced path is not admissible from the source"
    return None


@dataclass(frozen=True)
class ShorteningFamily:
    """Shortenings by n*gamma times the operation's direction, n = 1..N."""

    gamma: int
    members: dict[int, Shortening]


@dataclass(frozen=True)
class AwayOtherResult:
    """Outcome of the corridor-exit analysis: either a vertical shortening
    family (case 1) or a climbing-left cycle vector (case 2)."""

    case: int
    family: Optional[ShorteningFamily] = None
    vector: Optional[PlaneVector] = None


def cycles_repeated_at_least(scheme: Slps, exponents: SchemePath, bound: int) -> set[PlaneVector]:
    """The set of cycle vectors repeated at least ``bound`` times."""
    if len(exponents) != scheme.K:
        raise PreconditionError(
            f"scheme has {scheme.K} cycles but {len(exponents)} exponents were given"
        )
    return {scheme.beta_vec(i) for i, n in enumerate(exponents) if n >= bound}


# ---------------------------------------------------------------------------
# internal path views: letters with cycle tags


def _tagged_letters(scheme: Slps, exponents: SchemePath):
    """Instantiated letters paired with the index of the cycle each
    repetition came from (None for unstarred letters)."""
    letters = instantiate(scheme, exponents)
    tags: list[Optional[int]] = [None]
    for i, n in enumerate(exponents):
        tags += [i] * n + [None]
    return letters, tags


def _heavy_in(letters, tags, lo: int, hi: int, bound: int):
    """Cycles with at least ``bound`` repetitions among letters [lo, hi).

    Returns (tag, vector, count) triples sorted by vector then tag.
    """
    counts = Counter(tag for tag in tags[lo:hi] if tag is not None)
    heavy = [(tag, letters[tags.index(tag)], n) for tag, n in counts.items() if n >= bound]
    heavy.sort(key=lambda item: (item[1], item[0]))
    return heavy


def _find_cut(heavy, c: PlaneVector, coeff_bound: int):
    """Decompose gamma*c as a positive integer combination of heavy cycle
    vectors with coefficients at most ``coeff_bound``; gamma is minimal.

    Returns (gamma, deletions) with deletions a list of (cycle tag,
    per-unit count).  Raises InternalDefectError when no decomposition
    exists within the bound (an empty ``heavy`` has none), which each
    operation's preconditions rule out.
    """
    by_vector: dict[PlaneVector, int] = {}
    for tag, vec, _count in heavy:
        if vec not in by_vector:
            by_vector[vec] = tag
    vectors = sorted(by_vector)
    if c.is_zero():
        combo = zero_combination(set(vectors)) if vectors else None
        if combo is None:
            raise InternalDefectError("zero cut requested but cone of heavy cycles excludes zero")
        return 1, [(by_vector[v], k) for v, k in combo.terms]
    for gamma in range(1, coeff_bound + 1):
        target = c.scale(gamma)
        for v in vectors:
            if v.is_zero() or v.cross(target) != 0 or v.dot(target) <= 0:
                continue
            lam = target.x // v.x if v.x != 0 else target.y // v.y
            if 1 <= lam <= coeff_bound and v.scale(lam) == target:
                return gamma, [(by_vector[v], lam)]
        for i, v1 in enumerate(vectors):
            for v2 in vectors[i + 1:]:
                d = v1.cross(v2)
                if d == 0:
                    continue
                sign = 1 if d > 0 else -1
                num1 = target.cross(v2) * sign
                num2 = v1.cross(target) * sign
                denom = abs(d)
                if num1 <= 0 or num2 <= 0 or num1 % denom or num2 % denom:
                    continue
                l1, l2 = num1 // denom, num2 // denom
                if l1 <= coeff_bound and l2 <= coeff_bound:
                    return gamma, [(by_vector[v1], l1), (by_vector[v2], l2)]
    raise InternalDefectError(f"no bounded decomposition of a multiple of {c} over heavy cycles")


def _apply_deletions(original: SchemePath, deletions, n: int) -> SchemePath:
    reduced = list(original)
    for tag, lam in deletions:
        reduced[tag] -= n * lam
        if reduced[tag] < 0:
            raise InternalDefectError(f"deletion of cycle {tag} exceeds its repetitions")
    return tuple(reduced)


def _family(scheme, original, source, gamma, direction, deletions, count) -> ShorteningFamily:
    members = {}
    for n in range(1, count + 1):
        reduced = _apply_deletions(original, deletions, n)
        sh = Shortening(scheme, tuple(original), reduced, direction.scale(n * gamma), source)
        reason = shortening_violation(sh)
        if reason is not None:
            raise InternalDefectError(f"constructed shortening is invalid: {reason}")
        members[n] = sh
    return ShorteningFamily(gamma=gamma, members=members)


def _checked_norm(scheme: Slps, count: int = 1, cycle_cap: Optional[int] = None) -> int:
    """The scheme norm, once the checks every operation shares hold, in
    this order: a count of at least 1, at most ``cycle_cap`` cycles (when
    stated) and a positive norm."""
    if count < 1:
        raise PreconditionError(f"count must be at least 1, got {count}")
    if cycle_cap is not None and scheme.K > cycle_cap:
        raise PreconditionError(f"scheme has {scheme.K} cycles, more than the stated bound {cycle_cap}")
    if scheme.norm == 0:
        raise PreconditionError("scheme norm must be positive")
    return scheme.norm


def _require_all(points, inside, what: str) -> None:
    """Raise PreconditionError naming the first point not ``inside``."""
    for point in points:
        if not inside(point):
            raise PreconditionError(f"{what} (offending point {point})")


def _run_with_margin(
    scheme: Slps, exponents: SchemePath, source: Configuration, margin: int
) -> Run:
    """The path's run from ``source``, every visited point of which must
    keep ``margin`` from both axes."""
    trace = run(instantiate(scheme, exponents), source)
    _require_all(trace.visited, lambda p: min(p.x, p.y) >= margin, f"margin {margin} violated")
    return trace


def _cut(
    scheme: Slps, exponents: SchemePath, source: Configuration, count: int, c: PlaneVector
) -> ShorteningFamily:
    """The cut of ``cut_by_vector`` once its preconditions hold.  Over the
    whole path the cycles repeated at least 2*norm^2*count times are
    exactly those with that exponent, taken in (vector, index) order."""
    norm = scheme.norm
    heavy = sorted(
        ((i, scheme.beta_vec(i), n) for i, n in enumerate(exponents) if n >= 2 * norm**2 * count),
        key=lambda item: (item[1], item[0]),
    )
    gamma, deletions = _find_cut(heavy, c, 2 * norm**2)
    return _family(scheme, exponents, source, gamma, c, deletions, count)


# ---------------------------------------------------------------------------
# the directional cut and the five shortening operations


def cut_by_vector(
    scheme: Slps, exponents: SchemePath, source: Configuration, count: int, c: PlaneVector
) -> ShorteningFamily:
    """Shorten by n*gamma*c for all n = 1..count, given that c lies in the
    cone of cycles repeated at least 2*norm^2*count times and the whole
    run keeps a margin of 6*norm^3*count from both axes."""
    norm = _checked_norm(scheme, count)
    if c.norm > norm:
        raise PreconditionError(f"cut vector {c} has norm above the scheme norm {norm}")
    _run_with_margin(scheme, exponents, source, 6 * norm**3 * count)
    heavy_bound = 2 * norm**2 * count
    heavy_vectors = cycles_repeated_at_least(scheme, exponents, heavy_bound)
    if not heavy_vectors:
        raise PreconditionError(f"no cycle is repeated at least {heavy_bound} times")
    if not cone_contains(heavy_vectors, c):
        missing = "zero" if c.is_zero() else c
        raise PreconditionError(f"cone of repeated cycles does not contain {missing}")
    return _cut(scheme, exponents, source, count, c)


def shorten_close_away(
    scheme: Slps, exponents: SchemePath, source: Configuration, corridor: int, cycle_cap: int
) -> ShorteningFamily:
    """Vertical shortening for a path confined to the corridor
    [0, corridor) x [corridor, inf) whose climb exceeds
    (cycle_cap*corridor + 1) * norm."""
    norm = _checked_norm(scheme, cycle_cap=cycle_cap)
    trace = run(instantiate(scheme, exponents), source)
    where = f"corridor [0,{corridor}) x [{corridor},inf) violated"
    _require_all(trace.visited, lambda p: 0 <= p.x < corridor and p.y >= corridor, where)
    climb = (trace.target - source.to_vector()).y
    threshold = (cycle_cap * corridor + 1) * norm
    if climb <= threshold:
        raise PreconditionError(f"climb {climb} does not exceed {threshold}")
    heavy = [(i, scheme.beta_vec(i), n) for i, n in enumerate(exponents) if n >= corridor]
    gamma, tag = _vertical(heavy, "no vertical cycle repeated corridor-many times")
    return _family(
        scheme, exponents, source, gamma, _UP, [(tag, 1)], corridor // gamma
    )


def shorten_away_both(
    scheme: Slps, exponents: SchemePath, source: Configuration, count: int, cycle_cap: int
) -> ShorteningFamily:
    """Vertical shortening for a path far from both axes whose effect is
    steeply upward for every slope in [-norm, norm]."""
    norm = _checked_norm(scheme, count, cycle_cap)
    trace = _run_with_margin(scheme, exponents, source, 6 * norm**3 * count)
    delta = trace.target - source.to_vector()
    threshold = (4 * cycle_cap * count + 2) * norm**4
    # linear in the slope, so checking the two endpoints is exact
    for slope in (-norm, norm):
        value = slope * delta.x + delta.y
        if value <= threshold:
            raise PreconditionError(
                f"<({slope},1)> . (t-s) = {value} does not exceed {threshold}"
            )
    return _cut(scheme, exponents, source, count, _UP)


@dataclass(frozen=True)
class _AwayOtherOutcome:
    case: int
    gamma: Optional[int] = None
    deletions: Optional[list] = None  # per-member-unit (tag, count) pairs
    max_n: int = 0
    vector: Optional[PlaneVector] = None
    tag: Optional[int] = None


def _away_other(letters, tags, points, corridor, count, cycle_cap, norm) -> _AwayOtherOutcome:
    """Core of the corridor-exit analysis, shared by the public operation
    and the one-visit operation (which also applies it with axes swapped).

    ``points`` is the visited sequence in the working frame; thresholds
    use the originating scheme's ``norm``.
    """
    if cycle_cap <= 0:
        raise PreconditionError("cycle bound must be positive")
    if corridor < 6 * norm**3 * count:
        raise PreconditionError(f"corridor width {corridor} below 6*norm^3*N = {6 * norm**3 * count}")
    s, t = points[0], points[-1]
    if s.x < 0 or s.y >= corridor:
        raise PreconditionError(f"source {s} not in N x [0,{corridor})")
    entry_threshold = 12 * (cycle_cap + 1) * (corridor + 1) * norm**4
    if t.x >= corridor or t.y < entry_threshold:
        raise PreconditionError(
            f"target {t} not in [0,{corridor}) x [{entry_threshold},inf)"
        )
    where = f"band N x [{corridor},inf) violated after the source"
    _require_all(points[1:], lambda p: p.x >= 0 and p.y >= corridor, where)

    first_return = next(i for i in range(1, len(points)) if points[i].x < corridor)
    t_prime = points[first_return]
    case1_threshold = 6 * (cycle_cap + 1) * (corridor + 1) * norm**4

    if (t - t_prime).y > case1_threshold:
        return _segment_surgery(letters, tags, points, first_return, corridor, count, norm)

    heavy = _heavy_in(letters, tags, 1, first_return - 1, 2 * norm**2 * count)
    cut = _up_cut(heavy, count, norm)
    if cut is not None:
        return cut

    case2_threshold = 7 * (cycle_cap + 2) * (corridor + 1) * norm**5
    anchor = PlaneVector(s.x, -t.y)
    candidates = [
        (vec, tag)
        for tag, vec, _cnt in heavy
        if vec.x < 0 < vec.y and rotate_ccw(vec).dot(anchor) < case2_threshold
    ]
    if not candidates:
        raise InternalDefectError("corridor-exit analysis found neither case")
    vec, tag = min(candidates)
    return _AwayOtherOutcome(case=2, vector=vec, tag=tag)


def _segment_surgery(letters, tags, points, first_return, corridor, count, norm):
    """Locate a steeply climbing segment past the first corridor re-entry
    and shorten inside it: a confined segment yields a repeated vertical
    cycle, an excursion yields a cut toward (0,1)."""
    total = len(points) - 1
    close = [points[i].x < corridor for i in range(len(points))]
    segments = []  # (lo, hi, is_far) over point indices
    i = first_return
    while i < total:
        j = i
        while j < total and close[j + 1]:
            j += 1
        if j > i:
            segments.append((i, j, False))
            i = j
            continue
        j = i + 1
        while j <= total and not close[j]:
            j += 1
        segments.append((i, j, True))
        i = j
    for lo, hi, is_far in segments:
        seg_cycles = {tags[k] for k in range(lo, hi) if tags[k] is not None}
        gain = (points[hi] - points[lo]).y
        if gain <= (len(seg_cycles) * corridor + corridor + 1) * norm + 2 * norm**4:
            continue
        if not is_far:
            gamma, tag = _vertical(
                _heavy_in(letters, tags, lo, hi, corridor),
                "confined climbing segment lacks a vertical repeated cycle",
            )
            return _AwayOtherOutcome(
                case=1, gamma=gamma, deletions=[(tag, 1)], max_n=corridor // gamma
            )
        cut = _up_cut(_heavy_in(letters, tags, lo + 1, hi - 1, 2 * norm**2 * count), count, norm)
        if cut is None:
            raise InternalDefectError("excursion segment cone misses (0,1)")
        return cut
    raise InternalDefectError("no climbing segment found despite the total climb")


def _up_cut(heavy, count: int, norm: int) -> Optional[_AwayOtherOutcome]:
    """Case 1 by a cut toward (0,1) over the ``heavy`` (tag, vector,
    count) triples, for up to ``count`` members; None when their cone
    misses (0,1)."""
    vectors = {vec for _tag, vec, _n in heavy}
    if not vectors or not cone_contains(vectors, _UP):
        return None
    gamma, deletions = _find_cut(heavy, _UP, 2 * norm**2)
    return _AwayOtherOutcome(case=1, gamma=gamma, deletions=deletions, max_n=count)


def _vertical(heavy, where: str) -> tuple[int, int]:
    """(gamma, tag) of the shortest climbing vertical cycle (0,gamma) among
    the ``heavy`` (tag, vector, count) triples, the lowest tag on a tie;
    InternalDefectError ``where`` when there is none."""
    climbing = [(vec.y, tag) for tag, vec, _n in heavy if vec.x == 0 and vec.y >= 1]
    if not climbing:
        raise InternalDefectError(where)
    return min(climbing)


def _up_family(scheme, exponents, source, outcome: _AwayOtherOutcome, count: int) -> ShorteningFamily:
    """The vertical family of a case-1 outcome, with at most ``count`` members."""
    n = min(count, outcome.max_n)
    return _family(scheme, exponents, source, outcome.gamma, _UP, outcome.deletions, n)


def shorten_away_other(
    scheme: Slps,
    exponents: SchemePath,
    source: Configuration,
    corridor: int,
    count: int,
    cycle_cap: int,
) -> AwayOtherResult:
    """Analyze a path that starts near the bottom of a vertical corridor
    and ends high inside it: either produce vertical shortenings (case 1)
    or exhibit an up-left cycle responsible for the climb (case 2)."""
    norm = _checked_norm(scheme, count, cycle_cap)
    letters, tags = _tagged_letters(scheme, exponents)
    points = list(run(letters, source).visited)
    outcome = _away_other(letters, tags, points, corridor, count, cycle_cap, norm)
    if outcome.case == 2:
        return AwayOtherResult(case=2, vector=outcome.vector)
    return AwayOtherResult(case=1, family=_up_family(scheme, exponents, source, outcome, count))


def _swap(v: PlaneVector) -> PlaneVector:
    return PlaneVector(v.y, v.x)


def shorten_one_visit(
    scheme: Slps,
    exponents: SchemePath,
    source: Configuration,
    split_index: int,
    corridor: int,
    count: int,
    cycle_cap: int,
) -> ShorteningFamily:
    """Shorten a path that dives from the left wall toward the bottom and
    climbs back up the left side, deleting matched cycle repetitions in
    both halves so the net horizontal effect cancels."""
    norm = _checked_norm(scheme, count, cycle_cap)
    if corridor < 8 * norm**4 * count:
        raise PreconditionError(
            f"corridor width {corridor} below 8*norm^4*N = {8 * norm**4 * count}"
        )
    letters, tags = _tagged_letters(scheme, exponents)
    if not 0 <= split_index <= len(letters):
        raise PreconditionError(f"split index {split_index} outside the word")
    points = list(run(letters, source).visited)
    r, s, t = points[0], points[split_index], points[-1]
    if r.x >= corridor:
        raise PreconditionError(f"start {r} not left of the corridor wall {corridor}")
    if s.x < 0 or s.y >= corridor:
        raise PreconditionError(f"split point {s} not in N x [0,{corridor})")
    height = 19 * (cycle_cap + 2) * (corridor + 1) * norm**6
    if t.x >= corridor or t.y < height or t.y < r.y:
        raise PreconditionError(f"target {t} fails the height conditions (needs y >= {height} and >= {r.y})")
    descent, ascent = points[1 : split_index + 1], points[split_index + 1 :]
    _require_all(descent, lambda p: p.x >= corridor and p.y >= 0, "descent half leaves the right band")
    _require_all(ascent, lambda p: p.x >= 0 and p.y >= corridor, "ascent half leaves the upper band")

    climb = _away_other(
        letters[split_index:], tags[split_index:], points[split_index:],
        corridor, count, cycle_cap, norm,
    )
    if climb.case == 1:
        return _up_family(scheme, exponents, source, climb, count)

    v, v_tag = climb.vector, climb.tag
    swapped_letters = [_swap(w) for w in letters[:split_index]]
    swapped_points = [_swap(p) for p in points[: split_index + 1]]
    dive = _away_other(
        swapped_letters, tags[:split_index], swapped_points,
        corridor, count * norm, cycle_cap, norm,
    )
    if dive.case == 1:
        w = PlaneVector(dive.gamma, 0)
        rho_deletions = [(tag, lam * (-v.x)) for tag, lam in dive.deletions]
    else:
        w = _swap(dive.vector)
        rho_deletions = [(dive.tag, -v.x)]
    gamma = w.x * v.y - w.y * v.x
    if not 0 <= gamma <= 2 * norm**3:
        raise InternalDefectError(f"matched-deletion gamma {gamma} outside [0, 2*norm^3]")
    deletions = rho_deletions + [(v_tag, w.x)]
    return _family(scheme, exponents, source, gamma, _UP, deletions, count)


def shorten_far(
    scheme: Slps, exponents: SchemePath, source: Configuration, cycle_count: int
) -> Shortening:
    """Delete a zero-effect bundle of cycle repetitions from a path that
    wanders much further from the axes than its endpoints."""
    norm = _checked_norm(scheme, cycle_cap=cycle_count)
    trace = _run_with_margin(scheme, exponents, source, 6 * norm**3)
    endpoint_norm = max(source.norm, trace.target.norm)
    # strict bound norm(f) > 3*norm^2*endpoints + 7.5*norm^5*K, doubled to
    # stay in integers
    peak = max(p.norm for p in trace.visited)
    if 2 * peak <= 6 * norm**2 * endpoint_norm + 15 * norm**5 * cycle_count:
        raise PreconditionError(
            f"peak {peak} does not exceed the far threshold for endpoints {endpoint_norm}"
        )
    return _cut(scheme, exponents, source, 1, ZERO).members[1]
