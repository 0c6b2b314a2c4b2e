"""Domain types for planar vector addition systems and linear path schemes.

Vectors live in Z^2, configurations in N^2.  A word is a tuple of vectors;
running a word from a configuration yields the sequence of visited points,
and the word is admissible iff every visited point stays in N^2.  Linear
path schemes are flat regular expressions a0 b1* a1 ... bK* aK over the
vector alphabet; the simple variant restricts every segment and cycle to a
single letter.  The answer records of the deciders, ``Verdict`` and
``WitnessResult``, live here too, so that the deciders and the certificate
checker share them without importing each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BudgetExceededError, PreconditionError


@dataclass(frozen=True, order=True)
class PlaneVector:
    """A point or displacement in Z^2."""

    x: int
    y: int

    def __add__(self, other: "PlaneVector") -> "PlaneVector":
        return PlaneVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PlaneVector") -> "PlaneVector":
        return PlaneVector(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "PlaneVector":
        return PlaneVector(-self.x, -self.y)

    def scale(self, k: int) -> "PlaneVector":
        return PlaneVector(k * self.x, k * self.y)

    def dot(self, other: "PlaneVector") -> int:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "PlaneVector") -> int:
        return self.x * other.y - self.y * other.x

    @property
    def norm(self) -> int:
        """Infinity norm."""
        return max(abs(self.x), abs(self.y))

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


ZERO = PlaneVector(0, 0)

# A word is a finite sequence of letters; the empty word is allowed.
Word = tuple[PlaneVector, ...]


@dataclass(frozen=True, order=True)
class Configuration:
    """A counter valuation: a point of N^2."""

    x: int
    y: int

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ValueError(f"configuration coordinates must be non-negative, got ({self.x},{self.y})")

    def to_vector(self) -> PlaneVector:
        return PlaneVector(self.x, self.y)

    @property
    def norm(self) -> int:
        return max(self.x, self.y)

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


def effect(word: Iterable[PlaneVector]) -> PlaneVector:
    """Component-wise sum of a word's letters; the empty word maps to (0,0)."""
    ex = ey = 0
    for v in word:
        ex += v.x
        ey += v.y
    return PlaneVector(ex, ey)


def word_norm(word: Iterable[PlaneVector]) -> int:
    return max((v.norm for v in word), default=0)


@dataclass(frozen=True)
class Run:
    """The visited-point sequence of a word executed from a source.

    ``visited`` has one point per prefix, starting with the source itself;
    points may leave N^2, in which case ``admissible`` is False.
    """

    visited: tuple[PlaneVector, ...]
    admissible: bool

    @property
    def target(self) -> PlaneVector:
        return self.visited[-1]


def run(word: Word, source: Configuration) -> Run:
    """Execute ``word`` from ``source``, recording every visited point."""
    x, y = source.x, source.y
    visited = [PlaneVector(x, y)]
    admissible = True
    for v in word:
        x += v.x
        y += v.y
        visited.append(PlaneVector(x, y))
        if x < 0 or y < 0:
            admissible = False
    return Run(tuple(visited), admissible)


@dataclass(frozen=True)
class Vass:
    """A 2-VASS: an NFA over a finite alphabet of plane vectors.

    ``states`` keeps declaration order for canonical serialization;
    the alphabet is the set of letters occurring on edges.
    """

    states: tuple[str, ...]
    edges: tuple[tuple[str, PlaneVector, str], ...]
    initial: frozenset[str]
    accepting: frozenset[str]

    def __post_init__(self):
        declared = set(self.states)
        for p, _, q in self.edges:
            if p not in declared or q not in declared:
                raise ValueError(f"edge endpoint {p if p not in declared else q} not a declared state")
        for q in self.initial | self.accepting:
            if q not in declared:
                raise ValueError(f"state {q} not declared")

    @property
    def norm(self) -> int:
        return max((v.norm for _, v, _ in self.edges), default=0)

    def edges_from(self, state: str) -> list[tuple[PlaneVector, str]]:
        return [(v, q) for p, v, q in self.edges if p == state]

    def __repr__(self) -> str:
        """The dataclass repr with both state sets sorted, so it does not
        depend on string hashing (PYTHONHASHSEED)."""

        def names(group: frozenset[str]) -> str:
            return f"frozenset({{{', '.join(map(repr, sorted(group)))}}})" if group else "frozenset()"

        return (
            f"Vass(states={self.states!r}, edges={self.edges!r}, "
            f"initial={names(self.initial)}, accepting={names(self.accepting)})"
        )


@dataclass(frozen=True)
class Lps:
    """A linear path scheme a0 b1* a1 ... bK* aK.

    ``alphas`` holds the K+1 unstarred segments (words, possibly empty) and
    ``betas`` the K starred cycles (nonempty words).
    """

    alphas: tuple[Word, ...]
    betas: tuple[Word, ...]

    def __post_init__(self):
        if len(self.alphas) != len(self.betas) + 1:
            raise ValueError("an LPS needs exactly one more segment than cycles")
        for b in self.betas:
            if len(b) == 0:
                raise ValueError("cycles must be nonempty")

    @property
    def K(self) -> int:
        return len(self.betas)

    @property
    def length(self) -> int:
        return sum(len(a) for a in self.alphas) + sum(len(b) for b in self.betas)

    @property
    def norm(self) -> int:
        return max(
            max((word_norm(a) for a in self.alphas), default=0),
            max((word_norm(b) for b in self.betas), default=0),
        )


@dataclass(frozen=True)
class Slps(Lps):
    """A simple LPS: every segment and cycle is a single letter."""

    def __post_init__(self):
        super().__post_init__()
        for a in self.alphas:
            if len(a) != 1:
                raise ValueError("simple scheme segments must have length exactly 1")
        for b in self.betas:
            if len(b) != 1:
                raise ValueError("simple scheme cycles must have length exactly 1")

    def alpha_vec(self, i: int) -> PlaneVector:
        return self.alphas[i][0]

    def beta_vec(self, i: int) -> PlaneVector:
        return self.betas[i][0]


def slps_of(alphas: Iterable[PlaneVector], betas: Iterable[PlaneVector]) -> Slps:
    """Build a simple scheme from bare letters."""
    return Slps(tuple((a,) for a in alphas), tuple((b,) for b in betas))


# A scheme path is the sequence of cycle exponents selecting a word.
SchemePath = tuple[int, ...]


# the longest path ``instantiate`` or a shortening operation takes (exponents come
# from input files); at least schemes.DEFAULT_SEARCH_BUDGET, which bounds every slps_reach witness
MAX_PATH_LENGTH = 5_000_000


def instantiate(scheme: Lps, exponents: SchemePath) -> Word:
    """Expand a scheme path into the concrete word a0 b1^n1 a1 ... bK^nK aK.

    Raises BudgetExceededError, before building anything, for a word
    longer than MAX_PATH_LENGTH letters.
    """
    require_bounded_path(scheme, exponents)
    letters: list[PlaneVector] = list(scheme.alphas[0])
    for i, n in enumerate(exponents):
        letters.extend(scheme.betas[i] * n)
        letters.extend(scheme.alphas[i + 1])
    return tuple(letters)


def path_length(scheme: Lps, exponents: SchemePath) -> int:
    """Length of the instantiated word without materializing it."""
    return sum(len(a) for a in scheme.alphas) + sum(
        n * len(b) for n, b in zip(exponents, scheme.betas)
    )


def require_path(scheme: Lps, exponents: SchemePath) -> None:
    """PreconditionError unless a path has one exponent per cycle, none negative."""
    if len(exponents) != scheme.K:
        raise PreconditionError(
            f"scheme has {scheme.K} cycles but {len(exponents)} exponents were given"
        )
    for n in exponents:
        if n < 0:
            raise PreconditionError(f"exponents must be non-negative, got {n}")


def require_bounded_path(scheme: Lps, exponents: SchemePath) -> None:
    """``require_path``, then BudgetExceededError past MAX_PATH_LENGTH letters."""
    require_path(scheme, exponents)
    length = path_length(scheme, exponents)
    if length > MAX_PATH_LENGTH:
        raise BudgetExceededError(f"path of {length} letters exceeds the limit of {MAX_PATH_LENGTH}")


# the answer records of the deciders
REACHABLE = "Reachable"
UNREACHABLE_WITHIN_CAP = "UnreachableWithinCap"


@dataclass(frozen=True)
class Verdict:
    """A decision with provenance: the cap and any length bound used, the
    witness (word and state trace) when reachable, and ``explored``, the
    number of nodes in the BFS levels expanded before the answer."""

    kind: str
    cap: int
    witness: Optional[Word] = None
    states: Optional[tuple[str, ...]] = None
    explored: int = 0
    length: Optional[int] = None  # witness length; oracles report it without a word
    bound: Optional[int] = None  # the length bound of a length-bounded search

    def __post_init__(self):
        if self.witness is not None and self.length is None:
            object.__setattr__(self, "length", len(self.witness))


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of a complete simple-scheme decision."""

    reachable: bool
    member: Optional[int] = None
    exponents: Optional[SchemePath] = None
    max_visited_norm: Optional[int] = None
