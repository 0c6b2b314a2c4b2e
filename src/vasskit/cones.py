"""Exact rational-cone computations in the plane.

The cone of a finite vector set C is its closure under addition and
positive rational scaling.  Everything here is decided with exact integer
arithmetic (cross products and cleared denominators); the strict
inequalities below are decision boundaries, so no floating point is used
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import PlaneVector, ZERO
from .errors import InternalDefectError, PreconditionError


def rotate_cw(v: PlaneVector) -> PlaneVector:
    """Rotate 90 degrees clockwise: (x,y) -> (y,-x)."""
    return PlaneVector(v.y, -v.x)


def rotate_ccw(v: PlaneVector) -> PlaneVector:
    """Rotate 90 degrees anticlockwise: (x,y) -> (-y,x)."""
    return PlaneVector(-v.y, v.x)


def set_norm(vectors) -> int:
    return max((v.norm for v in vectors), default=0)


@dataclass(frozen=True)
class ZeroCombination:
    """A nonempty positive integer combination of at most three vectors
    summing to (0,0), with coefficients bounded by 2*norm(C)^2."""

    terms: tuple[tuple[PlaneVector, int], ...]

    def total(self) -> PlaneVector:
        acc = ZERO
        for v, k in self.terms:
            acc = acc + v.scale(k)
        return acc


def _require_nonempty(cone_set):
    if not cone_set:
        raise PreconditionError("vector set must be nonempty")


def cone_contains_zero(cone_set: frozenset[PlaneVector] | set[PlaneVector]) -> bool:
    """Exact test whether (0,0) is a nonempty positive combination of C:
    whether the complete witness search ``zero_combination`` finds one."""
    return zero_combination(cone_set) is not None


def cone_contains(cone_set, v: PlaneVector) -> bool:
    """Exact membership of ``v`` in the cone of C.

    For nonzero v, conic Caratheodory in the plane reduces membership to a
    positive combination of at most two elements, solved exactly by
    Cramer's rule with cleared denominators.
    """
    _require_nonempty(cone_set)
    if v.is_zero():
        return cone_contains_zero(cone_set)
    vectors = sorted(c for c in cone_set if not c.is_zero())
    for a in vectors:
        if a.cross(v) == 0 and a.dot(v) > 0:
            return True
    for i, a in enumerate(vectors):
        for b in vectors[i + 1:]:
            d = a.cross(b)
            if d == 0:
                continue  # dependent pairs are covered by the single-ray test
            # v = l1*a + l2*b with l1 = cross(v,b)/d, l2 = cross(a,v)/d
            l1 = v.cross(b) * (1 if d > 0 else -1)
            l2 = a.cross(v) * (1 if d > 0 else -1)
            if l1 >= 0 and l2 >= 0:
                return True
    return False


def zero_combination(cone_set) -> Optional[ZeroCombination]:
    """A witness that the cone contains zero, or None.

    Uses at most three vectors: a zero element alone, an antiparallel
    pair, or a triple whose cross products x1 = cross(b,c), x2 =
    cross(c,a), x3 = cross(a,b) share a sign, with coefficients |x1|,
    |x2|, |x3| as x1*a + x2*b + x3*c = 0.  The search is complete: with
    no zero element and no antiparallel pair, zero is a positive
    combination only strictly inside a triangle abc of elements
    (Caratheodory; on an edge two terms would be antiparallel), which
    is when the three cross products are nonzero with one sign.
    """
    _require_nonempty(cone_set)
    vectors = sorted(cone_set)
    if ZERO in cone_set:
        return ZeroCombination(((ZERO, 1),))
    for i, a in enumerate(vectors):
        for b in vectors[i + 1:]:
            if a.cross(b) == 0 and a.dot(b) < 0:
                neg, pos = (a, b) if (a.x < 0 or a.y < 0) else (b, a)
                idx = 0 if neg.x < 0 else 1
                k_neg = pos.x if idx == 0 else pos.y
                k_pos = -(neg.x if idx == 0 else neg.y)
                combo = ZeroCombination(tuple(sorted(((neg, k_neg), (pos, k_pos)))))
                if not combo.total().is_zero():  # pragma: no cover - guarded arithmetic
                    raise InternalDefectError("antiparallel combination failed to cancel")
                return combo
    for i, a in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            b = vectors[j]
            for c in vectors[j + 1:]:
                x1, x2, x3 = b.cross(c), c.cross(a), a.cross(b)
                if (x1 > 0 and x2 > 0 and x3 > 0) or (x1 < 0 and x2 < 0 and x3 < 0):
                    return ZeroCombination(tuple(sorted(((a, abs(x1)), (b, abs(x2)), (c, abs(x3))))))
    return None


def outermost_pair(cone_set) -> tuple[PlaneVector, PlaneVector]:
    """Two elements spanning the same cone as C, bounding it between the
    anticlockwise rotation of the first and the clockwise rotation of the
    second.  Requires the cone not to contain zero.  Returns the
    lexicographically smallest valid ordered pair (a may equal b)."""
    _require_nonempty(cone_set)
    if cone_contains_zero(cone_set):
        raise PreconditionError("cone contains zero; no outermost pair exists")
    vectors = sorted(cone_set)
    for a in vectors:
        la = rotate_ccw(a)
        if any(la.dot(c) < 0 for c in vectors):
            continue
        for b in vectors:
            rb = rotate_cw(b)
            if any(rb.dot(c) < 0 for c in vectors):
                continue
            pair = {a, b}
            if all(cone_contains(pair, c) for c in vectors):
                return a, b
    raise InternalDefectError("no outermost pair found for a zero-free cone")


def separating_vector(cone_set) -> PlaneVector:
    """A vector p with norm(p) <= 2*norm(C) and p.c > 0 for every c in C.

    Built from the outermost pair: the pair vector itself on a single
    ray, otherwise the sum of the two bounding rotations.
    """
    _require_nonempty(cone_set)
    a, b = outermost_pair(cone_set)
    p = a if a.cross(b) == 0 else rotate_ccw(a) + rotate_cw(b)
    bound = 2 * set_norm(cone_set)
    if p.norm > bound or any(p.dot(c) <= 0 for c in cone_set):  # pragma: no cover
        raise InternalDefectError(f"separating vector {p} violates its postcondition")
    return p


def excluding_vector(cone_set) -> PlaneVector:
    """For a zero-free set whose cone misses (0,1): a vector p with
    norm(p) <= norm(C), p.(0,1) < 0, p.c >= 0 for all c, and
    p.x < 0 implying that p rotated clockwise lies in C."""
    _require_nonempty(cone_set)
    if ZERO in cone_set:
        raise PreconditionError("set must not contain the zero vector")
    if cone_contains(cone_set, PlaneVector(0, 1)):
        raise PreconditionError("cone contains (0,1)")
    vectors = sorted(cone_set)
    try:
        a, b = outermost_pair(cone_set)
        candidates = [rotate_ccw(a), PlaneVector(0, -1), rotate_cw(b)]
    except PreconditionError:
        # the cone contains zero, from an antiparallel pair here (a spanning
        # triple would put (0,1) in the cone); take the left rotation of a
        # member pointing weakly left
        candidates = [rotate_ccw(a) for a in vectors for b in vectors
                      if b is not a and a.cross(b) == 0 and a.dot(b) < 0 and a.x <= 0]
    bound = set_norm(cone_set)
    valid = [
        p
        for p in candidates
        if p.norm <= bound
        and p.y < 0
        and all(p.dot(c) >= 0 for c in vectors)
        and (p.x >= 0 or rotate_cw(p) in cone_set)
    ]
    if not valid:  # pragma: no cover - excluded by the construction
        raise InternalDefectError("no excluding vector among proof candidates")
    return min(valid)
