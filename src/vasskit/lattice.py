"""Lattices of Z^2 in Hermite normal form.

A lattice L of Z^2 is held as the triple (a, b, c) of its basis
(a, b), (0, c) in Hermite normal form: a >= 0 and c >= 0, 0 <= b < c
when c > 0, and b = 0 when a = 0.  Then L = {i*(a, b) + j*(0, c)}: the
x coordinates of its vectors are the multiples of a, and its vectors on
the y axis are the multiples of (0, c).  (0, 0, 0) is the zero lattice.
"""

from __future__ import annotations

from math import gcd

ZERO_LATTICE = (0, 0, 0)


def add(basis: tuple[int, int, int], x: int, y: int) -> tuple[int, int, int]:
    """The Hermite normal form of the lattice spanned by ``basis`` and (x, y)."""
    a, b, c = basis
    if x:
        # u*a + w*x = g: the rows (u, w) and (x/g, -a/g) form a unimodular
        # matrix, so (a, b), (x, y) span what (g, .) and (0, .) span
        g, u, w = _xgcd(a, x)
        c = gcd(c, x // g * b - a // g * y)
        a, b = g, u * b + w * y
    else:
        c = gcd(c, y)
    return a, b % c if c else b, c


def contains(basis: tuple[int, int, int], x: int, y: int) -> bool:
    """Is (x, y) in the lattice of a basis in Hermite normal form?"""
    a, b, c = basis
    if a:
        i, r = divmod(x, a)
        if r:
            return False
        y -= i * b
    elif x:
        return False
    return y % c == 0 if c else y == 0


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, w) with u*a + w*b = g = gcd(a, b) >= 0."""
    u0, w0, u1, w1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        w0, w1 = w1, w0 - q * w1
    return (a, u0, w0) if a >= 0 else (-a, -u0, -w0)
