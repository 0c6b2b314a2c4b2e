"""The Hermite normal form of lattices of Z^2, and membership in them."""

from functools import reduce
from math import gcd
from random import Random

from vasskit import lattice


def test_hnf_spans_the_generated_lattice():
    # the HNF holds every generator, a generates their x coordinates, and
    # a*c is the lattice's determinant (the gcd of the 2x2 minors), so it
    # is exactly the lattice the generators span
    rng = Random(3)
    for _ in range(1000):
        vectors = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.3:
            vectors = [(k * 2, k * -6) for k in range(-2, 3)] + vectors[:1]
        basis = reduce(lambda acc, v: lattice.add(acc, *v), vectors, lattice.ZERO_LATTICE)
        a, b, c = basis
        assert a >= 0 and c >= 0 and (0 <= b < c if c else a or b == 0)
        assert all(lattice.contains(basis, x, y) for x, y in vectors)
        assert a == reduce(gcd, (x for x, _ in vectors), 0)
        minors = reduce(gcd, (x1 * y2 - y1 * x2 for x1, y1 in vectors for x2, y2 in vectors), 0)
        if a and c:
            assert a * c == minors
            side = a * c
            if side <= 40:  # a fundamental box of side a*c holds a*c lattice points
                assert sum(
                    lattice.contains(basis, x, y) for x in range(side) for y in range(side)
                ) == side
        else:
            # rank at most 1: every generator is an integer multiple of one vector
            assert minors == 0
            g = (a, b) if a else (0, c)
            multiples = {(k * g[0], k * g[1]) for k in range(-9, 10)}
            assert all(
                lattice.contains(basis, x, y) == ((x, y) in multiples)
                for x in range(-9, 10) for y in range(-9, 10)
            )


def test_contains_the_zero_lattice():
    assert lattice.contains(lattice.ZERO_LATTICE, 0, 0)
    assert not lattice.contains(lattice.ZERO_LATTICE, 0, 1)
    assert not lattice.contains(lattice.ZERO_LATTICE, 1, 0)
    assert lattice.add(lattice.ZERO_LATTICE, 0, 0) == lattice.ZERO_LATTICE
