"""Exact scalars for the unramified quadratic extension of the p-adic integers.

A scalar is a residue modulo p^N written on the basis {1, w}, where w^2 = r
and r is the smallest positive quadratic nonresidue modulo p.  The twist
sigma : a + b*w  ->  a - b*w  fixes the prime subring, squares to the
identity, and induces the p-power map on residues.

The package has one arithmetic for these scalars: the "pair" helpers on
(a, b) integer tuples.  Pairs are the coefficients of every series term
(which `lengths` reads as they are) and the only scalars of the lattice
layer, the residue field included (the helpers at modulus p): operator
matrices, vectors and lattice rows are all pairs, where attribute dispatch
and a wrapper per operation would dominate.

`WittScalar` only carries a case's parameters into
`windows.integrality_predicate`.  Its coefficients must be integers:
anything else is a TypeError.

Only odd primes p are supported: `nonresidue` raises on any other p, and every
check of p in the package goes through it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

from .errors import NotAUnit

__all__ = ["WittScalar", "nonresidue", "is_odd_prime"]


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def nonresidue(p: int) -> int:
    """Smallest positive quadratic nonresidue modulo p (p an odd prime)."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    squares = {(x * x) % p for x in range(1, p)}
    for r in range(2, p):
        if r not in squares:
            return r
    raise AssertionError("unreachable: every odd prime has a nonresidue")


# ---------------------------------------------------------------------------
# raw pair arithmetic: x = (a, b) means a + b*w, reduced mod `mod` = p^N


def pair_add(x, y, mod):
    return ((x[0] + y[0]) % mod, (x[1] + y[1]) % mod)


def pair_sub(x, y, mod):
    return ((x[0] - y[0]) % mod, (x[1] - y[1]) % mod)


def pair_mul(x, y, r, mod):
    a, b = x
    c, d = y
    return ((a * c + b * d * r) % mod, (a * d + b * c) % mod)


def pair_sigma(x, mod):
    return (x[0], (-x[1]) % mod)


def pair_val(x, p, cap):
    """min of the coordinate valuations, capped at `cap` (the precision)."""
    a, b = x
    if a % p != 0 or b % p != 0:
        return 0
    v = 0
    while v < cap:
        if a % p or b % p:
            return v
        a //= p
        b //= p
        v += 1
    return cap


def pair_inv(x, p, r, mod):
    """Inverse of a unit pair via sigma(x) / norm(x); NotAUnit otherwise."""
    a, b = x
    if a % p == 0 and b % p == 0:
        raise NotAUnit(f"{x} is zero mod {p}")
    n = (a * a - b * b * r) % mod
    # the norm of a unit is a unit in the prime subring: w^2 = r is a
    # nonresidue, so a^2 = r b^2 mod p forces a = b = 0 mod p
    ninv = pow(n, -1, mod)
    return ((a * ninv) % mod, (-b * ninv) % mod)


class WittScalar:
    """A case parameter a + b*w modulo p^prec, with w^2 the least nonresidue
    mod p: what `windows.integrality_predicate` reads, a difference and a
    valuation, and a product."""

    __slots__ = ("p", "prec", "a", "b")

    def __init__(self, p: int, prec: int, a: int = 0, b: int = 0):
        nonresidue(index(p))  # raises unless p is an odd prime
        if index(prec) < 0:
            raise ValueError(f"precision must be nonnegative, got {prec}")
        if a.__class__ is not int or b.__class__ is not int:
            a, b = index(a), index(b)  # TypeError for a float or any non-integer
        mod = p**prec
        self.p = p
        self.prec = prec
        self.a = a % mod
        self.b = b % mod

    def _check(self, other: "WittScalar"):
        if self.p != other.p or self.prec != other.prec:
            raise ValueError(
                f"mixed contexts: {self.p}^{self.prec} vs {other.p}^{other.prec}"
            )

    def __sub__(self, other):
        if not isinstance(other, WittScalar):
            return NotImplemented
        self._check(other)
        return WittScalar(self.p, self.prec, self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        if not isinstance(other, WittScalar):
            return NotImplemented
        self._check(other)
        a, b = pair_mul((self.a, self.b), (other.a, other.b), nonresidue(self.p), self.p**self.prec)
        return WittScalar(self.p, self.prec, a, b)

    def valuation(self) -> int:
        """min over coordinates of the p-valuation, capped at the precision."""
        return pair_val((self.a, self.b), self.p, self.prec)
