"""Admissible path shortening for simple linear path schemes.

A shortening deletes whole cycle repetitions from a scheme path, reducing
its effect by a prescribed vector while keeping the run admissible.  The
operations here return ``certificates.Shortening`` certificates (original
and reduced exponents plus the delta), each checked on the way out by
``certificates.shortening_violation``, the checker ``verify`` runs, in
O(K) steps and without a word; this module shares no other code with it.

The operations build no word or run either.  They read a path
a0 b1^n1 a1 ... bK^nK aK as its 2K+1 straight stretches from a start
point (``_Path``): a stretch of n letters v visits p + j*v, j = 1..n, so
each coordinate is linear in j.  Hence every question an operation asks
has an exact integer answer per stretch: where a margin, corridor or band
first fails (a half-plane condition first fails at an index found by one
floor division), where the path first re-enters a corridor and which
runs of points stay in it, how many repetitions of each cycle a range of
letters holds, and the point at an index.  Each coordinate takes its
extremes over a stretch at its ends, and so does the infinity norm its
largest value (it is convex along a straight line), so the peak norm is
read exactly off the stretch ends.

Shortenings are represented as exponent decrements only: unstarred
segments are never touched, which suffices because every construction
deletes whole cycle repetitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .certificates import Shortening, shortening_violation
from .cones import cone_contains, rotate_ccw, zero_combination
from .core import (
    Configuration,
    PlaneVector,
    SchemePath,
    Slps,
    ZERO,
    require_bounded_path,
)
from .errors import InternalDefectError, PreconditionError

_UP = PlaneVector(0, 1)


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


# ---------------------------------------------------------------------------
# internal path view: straight stretches


def _first_below(f0: int, d: int, bound: int, k: int) -> Optional[int]:
    """The least j >= k with f0 + j*d < bound; None when there is none."""
    if f0 + k * d < bound:
        return k
    if d >= 0:
        return None
    return (f0 - bound) // -d + 1


class _Path:
    """A path read as straight stretches (tag, dx, dy, n) from a start
    point: n letters (dx, dy), tag the index of the cycle they repeat or
    None for a segment.  Point i is the point after the first i letters,
    point 0 the start."""

    def __init__(self, x: int, y: int, stretches: list):
        self.start = PlaneVector(x, y)
        self.stretches = stretches
        self.bases = []  # (index, x, y) of the point before each stretch
        i = 0
        for _tag, dx, dy, n in stretches:
            self.bases.append((i, x, y))
            i, x, y = i + n, x + n * dx, y + n * dy
        self.length, self.end = i, PlaneVector(x, y)

    def _spans(self):
        return zip(self.bases, self.stretches)

    def _locate(self, i: int) -> tuple[int, int]:
        """(j, k): point i lies k letters into stretch j."""
        spans = enumerate(self._spans())
        return next((j, i - i0) for j, ((i0, _x, _y), stretch) in spans if i <= i0 + stretch[3])

    def point(self, i: int) -> PlaneVector:
        j, k = self._locate(i)
        (_i, x, y), (_tag, dx, dy, _n) = self.bases[j], self.stretches[j]
        return PlaneVector(x + k * dx, y + k * dy)

    def first_outside(self, lo: int, hi: Optional[int] = None, x_min=None, x_end=None, y_min=None):
        """The first index in lo..hi (default: to the end) whose point
        leaves x_min <= x < x_end, y_min <= y (a bound of None is absent);
        None when every point stays inside."""
        hi = self.length if hi is None else hi
        for (i0, x, y), (_tag, dx, dy, n) in self._spans():
            k_lo, k_hi = max(0, lo - i0), min(n, hi - i0)
            if k_lo > k_hi:
                continue
            # each bound as f >= b on a coordinate f: x < x_end is -x >= 1 - x_end
            rows = ((x, dx, x_min), (-x, -dx, None if x_end is None else 1 - x_end), (y, dy, y_min))
            found = [_first_below(f0, d, b, k_lo) for f0, d, b in rows if b is not None]
            k = min((k for k in found if k is not None), default=None)
            if k is not None and k <= k_hi:
                return i0 + k
        return None

    def require(self, what: str, lo: int = 0, hi: Optional[int] = None, **box) -> None:
        """Raise PreconditionError naming the first point in lo..hi
        outside ``box`` (the bounds of ``first_outside``)."""
        i = self.first_outside(lo, hi, **box)
        if i is not None:
            raise PreconditionError(f"{what} (offending point {self.point(i)})")

    def runs_left_of(self, x_end: int, lo: int) -> list[tuple[int, int]]:
        """The maximal runs a..b of indices from ``lo`` on whose points
        all have x < x_end, in order."""
        runs: list[tuple[int, int]] = []
        for (i0, x, _y), (_tag, dx, _dy, n) in self._spans():
            k_lo = max(0, lo - i0)
            a = _first_below(x, dx, x_end, k_lo) if k_lo <= n else None
            if a is None or a > n:
                continue
            b = _first_below(-x, -dx, 1 - x_end, a)
            b = n if b is None or b > n else b - 1
            if runs and runs[-1][1] == i0 + a:  # on through the shared corner
                runs[-1] = (runs[-1][0], i0 + b)
            else:
                runs.append((i0 + a, i0 + b))
        return runs

    def counts(self, lo: int, hi: int) -> list[tuple[int, PlaneVector, int]]:
        """(tag, letter, count) of each cycle with count > 0 letters among
        letters lo..hi-1 (letter i leads from point i to point i+1)."""
        out = []
        for (i0, _x, _y), (tag, dx, dy, n) in self._spans():
            count = min(hi, i0 + n) - max(lo, i0)
            if tag is not None and count > 0:
                out.append((tag, PlaneVector(dx, dy), count))
        return out

    def cut(self, i: int) -> tuple["_Path", "_Path"]:
        """The views of points 0..i and of points i.. (re-indexed from 0)."""
        j, k = self._locate(i)
        (_i, x, y), (tag, dx, dy, n) = self.bases[j], self.stretches[j]
        head = self.stretches[:j] + [(tag, dx, dy, k)]
        tail = [(tag, dx, dy, n - k)] + self.stretches[j + 1:]
        return _Path(self.start.x, self.start.y, head), _Path(x + k * dx, y + k * dy, tail)

    def swapped(self) -> "_Path":
        """The same path with its axes exchanged."""
        swapped = [(tag, dy, dx, n) for tag, dx, dy, n in self.stretches]
        return _Path(self.start.y, self.start.x, swapped)


def _path(scheme: Slps, exponents: SchemePath, source: Configuration) -> _Path:
    """The view of a scheme path from ``source``, once
    ``core.require_bounded_path`` accepts it: the letter limit bounds the
    families an operation builds."""
    require_bounded_path(scheme, exponents)
    a = scheme.alpha_vec(0)
    stretches = [(None, a.x, a.y, 1)]
    for i, n in enumerate(exponents):
        b, a = scheme.beta_vec(i), scheme.alpha_vec(i + 1)
        stretches += [(i, b.x, b.y, n), (None, a.x, a.y, 1)]
    return _Path(source.x, source.y, stretches)


def _heavy_in(path: _Path, lo: int, hi: int, bound: int):
    """Cycles with at least ``bound`` repetitions among letters [lo, hi).

    Returns (tag, vector, count) triples sorted by vector then tag.
    """
    heavy = [item for item in path.counts(lo, hi) if item[2] >= bound]
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


def _cut(
    scheme: Slps, exponents: SchemePath, source: Configuration, path: _Path, count: int, c: PlaneVector
) -> ShorteningFamily:
    """The cut of ``cut_by_vector`` over ``path``, the view of the
    scheme path, once its preconditions hold."""
    norm = scheme.norm
    heavy = _heavy_in(path, 0, path.length, 2 * norm**2 * count)
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
    margin = 6 * norm**3 * count
    path = _path(scheme, exponents, source)
    path.require(f"margin {margin} violated", x_min=margin, y_min=margin)
    heavy_bound = 2 * norm**2 * count
    heavy_vectors = {vec for _tag, vec, _n in _heavy_in(path, 0, path.length, heavy_bound)}
    if not heavy_vectors:
        raise PreconditionError(f"no cycle is repeated at least {heavy_bound} times")
    if not cone_contains(heavy_vectors, c):
        missing = "zero" if c.is_zero() else c
        raise PreconditionError(f"cone of repeated cycles does not contain {missing}")
    return _cut(scheme, exponents, source, path, count, c)


def shorten_close_away(
    scheme: Slps, exponents: SchemePath, source: Configuration, corridor: int, cycle_cap: int
) -> ShorteningFamily:
    """Vertical shortening for a path confined to the corridor
    [0, corridor) x [corridor, inf) whose climb exceeds
    (cycle_cap*corridor + 1) * norm."""
    norm = _checked_norm(scheme, cycle_cap=cycle_cap)
    path = _path(scheme, exponents, source)
    where = f"corridor [0,{corridor}) x [{corridor},inf) violated"
    path.require(where, x_min=0, x_end=corridor, y_min=corridor)
    climb = path.end.y - source.y
    threshold = (cycle_cap * corridor + 1) * norm
    if climb <= threshold:
        raise PreconditionError(f"climb {climb} does not exceed {threshold}")
    heavy = _heavy_in(path, 0, path.length, corridor)
    gamma, tag = _vertical(heavy, "no vertical cycle repeated corridor-many times")
    if corridor < gamma:
        raise PreconditionError(
            f"corridor {corridor} is narrower than the vertical cycle's height gamma = {gamma}"
        )
    return _family(
        scheme, exponents, source, gamma, _UP, [(tag, 1)], corridor // gamma
    )


def shorten_away_both(
    scheme: Slps, exponents: SchemePath, source: Configuration, count: int, cycle_cap: int
) -> ShorteningFamily:
    """Vertical shortening for a path far from both axes whose effect is
    steeply upward for every slope in [-norm, norm]."""
    norm = _checked_norm(scheme, count, cycle_cap)
    margin = 6 * norm**3 * count
    path = _path(scheme, exponents, source)
    path.require(f"margin {margin} violated", x_min=margin, y_min=margin)
    delta = path.end - source.to_vector()
    threshold = (4 * cycle_cap * count + 2) * norm**4
    # linear in the slope, so checking the two endpoints is exact
    for slope in (-norm, norm):
        value = slope * delta.x + delta.y
        if value <= threshold:
            raise PreconditionError(
                f"<({slope},1)> . (t-s) = {value} does not exceed {threshold}"
            )
    return _cut(scheme, exponents, source, path, count, _UP)


@dataclass(frozen=True)
class _AwayOtherOutcome:
    case: int
    gamma: Optional[int] = None
    deletions: Optional[list] = None  # per-member-unit (tag, count) pairs
    max_n: int = 0
    vector: Optional[PlaneVector] = None
    tag: Optional[int] = None


def _away_other(path: _Path, corridor, count, cycle_cap, norm) -> _AwayOtherOutcome:
    """Core of the corridor-exit analysis, shared by the public operation
    and the one-visit operation (which also applies it to a cut of its
    path, with axes swapped).

    ``path`` is in the working frame; thresholds use the originating
    scheme's ``norm``.
    """
    if cycle_cap <= 0:
        raise PreconditionError("cycle bound must be positive")
    if corridor < 6 * norm**3 * count:
        raise PreconditionError(f"corridor width {corridor} below 6*norm^3*N = {6 * norm**3 * count}")
    s, t = path.start, path.end
    if s.x < 0 or s.y >= corridor:
        raise PreconditionError(f"source {s} not in N x [0,{corridor})")
    entry_threshold = 12 * (cycle_cap + 1) * (corridor + 1) * norm**4
    if t.x >= corridor or t.y < entry_threshold:
        raise PreconditionError(
            f"target {t} not in [0,{corridor}) x [{entry_threshold},inf)"
        )
    path.require(f"band N x [{corridor},inf) violated after the source", 1, x_min=0, y_min=corridor)

    first_return = path.first_outside(1, x_min=corridor)
    t_prime = path.point(first_return)
    case1_threshold = 6 * (cycle_cap + 1) * (corridor + 1) * norm**4

    if (t - t_prime).y > case1_threshold:
        return _segment_surgery(path, first_return, corridor, count, norm)

    heavy = _heavy_in(path, 1, first_return - 1, 2 * norm**2 * count)
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


def _segment_surgery(path: _Path, first_return, corridor, count, norm):
    """Locate a steeply climbing segment past the first corridor re-entry
    and shorten inside it: a confined segment yields a repeated vertical
    cycle, an excursion yields a cut toward (0,1).

    The segments alternate over the maximal runs of points left of the
    corridor (the last is the target's): a run of two or more points is
    a confined segment, and each gap between two runs is an excursion
    from the end of one to the start of the next."""
    runs = path.runs_left_of(corridor, first_return)
    segments = []  # (lo, hi, is_far) over point indices
    for (lo, hi), following in zip(runs, runs[1:] + [None]):
        if hi > lo:
            segments.append((lo, hi, False))
        if following is not None:
            segments.append((hi, following[0], True))
    for lo, hi, is_far in segments:
        seg_cycles = len(path.counts(lo, hi))
        gain = (path.point(hi) - path.point(lo)).y
        if gain <= (seg_cycles * corridor + corridor + 1) * norm + 2 * norm**4:
            continue
        if not is_far:
            gamma, tag = _vertical(
                _heavy_in(path, lo, hi, corridor),
                "confined climbing segment lacks a vertical repeated cycle",
            )
            return _AwayOtherOutcome(
                case=1, gamma=gamma, deletions=[(tag, 1)], max_n=corridor // gamma
            )
        cut = _up_cut(_heavy_in(path, lo + 1, hi - 1, 2 * norm**2 * count), count, norm)
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
    outcome = _away_other(_path(scheme, exponents, source), corridor, count, cycle_cap, norm)
    if outcome.case == 2:
        return AwayOtherResult(case=2, vector=outcome.vector)
    return AwayOtherResult(case=1, family=_up_family(scheme, exponents, source, outcome, count))


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
    path = _path(scheme, exponents, source)
    if not 0 <= split_index <= path.length:
        raise PreconditionError(f"split index {split_index} outside the word")
    r, s, t = path.start, path.point(split_index), path.end
    if r.x >= corridor:
        raise PreconditionError(f"start {r} not left of the corridor wall {corridor}")
    if s.x < 0 or s.y >= corridor:
        raise PreconditionError(f"split point {s} not in N x [0,{corridor})")
    height = 19 * (cycle_cap + 2) * (corridor + 1) * norm**6
    if t.x >= corridor or t.y < height or t.y < r.y:
        raise PreconditionError(f"target {t} fails the height conditions (needs y >= {height} and >= {r.y})")
    path.require("descent half leaves the right band", 1, split_index, x_min=corridor, y_min=0)
    path.require("ascent half leaves the upper band", split_index + 1, x_min=0, y_min=corridor)

    descent, ascent = path.cut(split_index)
    climb = _away_other(ascent, corridor, count, cycle_cap, norm)
    if climb.case == 1:
        return _up_family(scheme, exponents, source, climb, count)

    v, v_tag = climb.vector, climb.tag
    dive = _away_other(descent.swapped(), corridor, count * norm, cycle_cap, norm)
    if dive.case == 1:
        w = PlaneVector(dive.gamma, 0)
        rho_deletions = [(tag, lam * (-v.x)) for tag, lam in dive.deletions]
    else:
        w = PlaneVector(dive.vector.y, dive.vector.x)
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
    margin = 6 * norm**3
    path = _path(scheme, exponents, source)
    path.require(f"margin {margin} violated", x_min=margin, y_min=margin)
    endpoint_norm = max(source.norm, path.end.norm)
    # strict bound norm(f) > 3*norm^2*endpoints + 7.5*norm^5*K, doubled to
    # stay in integers; the norm is convex along a stretch, so its peak is
    # at a stretch's base or at the end
    peak = max([path.end.norm] + [max(abs(x), abs(y)) for _i, x, y in path.bases])
    if 2 * peak <= 6 * norm**2 * endpoint_norm + 15 * norm**5 * cycle_count:
        raise PreconditionError(
            f"peak {peak} does not exceed the far threshold for endpoints {endpoint_norm}"
        )
    return _cut(scheme, exponents, source, path, 1, ZERO).members[1]
