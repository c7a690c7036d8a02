"""Exact scalars for the unramified quadratic extension of the p-adic integers.

A scalar is a residue modulo p^N written on the basis {1, w}, where w^2 = r
and r is the smallest positive quadratic nonresidue modulo p.  The twist
sigma : a + b*w  ->  a - b*w  fixes the prime subring, squares to the
identity, and induces the p-power map on residues.

Two layers live here:

* raw "pair" helpers operating on (a, b) integer tuples — the coefficients
  of every series term (which `lengths` reads as they are), and the lattice
  layer's own storage: its
  operator application, membership test, Hermite elimination and lattice
  rows all run on pairs, where attribute dispatch and a wrapper per
  operation would dominate;
* the `WittScalar` wrapper, the type of the vectors and matrices the
  lattice layer takes and returns, and of the structural parameters of a
  case.  Its coefficients must be integers: anything else is a TypeError.

Only odd primes p are supported: `nonresidue` raises on any other p, and every
check of p in the package goes through it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

from .errors import InexactDivision, NotAUnit, PrecisionExhausted

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


# p^prec for every (p, prec) that passed the checks, so a construction pays
# one dict lookup instead of a primality test and a power
_MODULI = {}


def _checked_modulus(p: int, prec: int) -> int:
    nonresidue(p)  # raises unless p is an odd prime
    if prec < 0:
        raise ValueError(f"precision must be nonnegative, got {prec}")
    mod = _MODULI[p, prec] = p**prec
    return mod


_setattr = object.__setattr__


class WittScalar:
    """A residue a + b*w modulo p^prec, with w^2 the least nonresidue mod p."""

    __slots__ = ("p", "prec", "a", "b")

    def __init__(self, p: int, prec: int, a: int = 0, b: int = 0):
        try:
            mod = _MODULI[p, prec]
        except KeyError:
            mod = _checked_modulus(p, prec)
        if a.__class__ is not int or b.__class__ is not int:
            a, b = index(a), index(b)  # TypeError for a float or any non-integer
        _setattr(self, "p", p)
        _setattr(self, "prec", prec)
        _setattr(self, "a", a % mod)
        _setattr(self, "b", b % mod)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p: int, prec: int) -> "WittScalar":
        return cls(p, prec, 0, 0)

    @classmethod
    def one(cls, p: int, prec: int) -> "WittScalar":
        return cls(p, prec, 1, 0)

    @classmethod
    def omega(cls, p: int, prec: int) -> "WittScalar":
        """The chosen square root of the least nonresidue."""
        return cls(p, prec, 0, 1)

    @classmethod
    def from_int(cls, p: int, prec: int, n: int) -> "WittScalar":
        return cls(p, prec, n, 0)

    # -- views --------------------------------------------------------------

    def pair(self):
        return (self.a, self.b)

    @property
    def modulus(self) -> int:
        return _MODULI[self.p, self.prec]

    def __setattr__(self, name, value):
        raise AttributeError("WittScalar is immutable")

    def __repr__(self):
        if self.b == 0:
            body = str(self.a)
        elif self.a == 0:
            body = f"{self.b}*w"
        else:
            body = f"{self.a} + {self.b}*w"
        return f"WittScalar({self.p}^{self.prec}: {body})"

    def __eq__(self, other):
        if not isinstance(other, WittScalar):
            return NotImplemented
        return (self.p, self.prec, self.a, self.b) == (
            other.p,
            other.prec,
            other.a,
            other.b,
        )

    def __hash__(self):
        return hash((self.p, self.prec, self.a, self.b))

    def _check(self, other: "WittScalar"):
        if self.p != other.p or self.prec != other.prec:
            raise ValueError(
                f"mixed contexts: {self.p}^{self.prec} vs {other.p}^{other.prec}"
            )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = WittScalar.from_int(self.p, self.prec, other)
        if not isinstance(other, WittScalar):
            return NotImplemented
        self._check(other)
        return WittScalar(self.p, self.prec, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return WittScalar(self.p, self.prec, -self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, int):
            other = WittScalar.from_int(self.p, self.prec, other)
        if not isinstance(other, WittScalar):
            return NotImplemented
        self._check(other)
        return WittScalar(self.p, self.prec, self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        if isinstance(other, int):
            return WittScalar(self.p, self.prec, self.a * other, self.b * other)
        if not isinstance(other, WittScalar):
            return NotImplemented
        self._check(other)
        r = nonresidue(self.p)
        a, b = pair_mul(self.pair(), other.pair(), r, self.modulus)
        return WittScalar(self.p, self.prec, a, b)

    __rmul__ = __mul__

    # -- structure maps -----------------------------------------------------

    def sigma(self) -> "WittScalar":
        """The nontrivial twist over the prime subring: w -> -w."""
        return WittScalar(self.p, self.prec, self.a, -self.b)

    # -- valuation and units ------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def valuation(self) -> int:
        """min over coordinates of the p-valuation, capped at the precision."""
        return pair_val((self.a, self.b), self.p, self.prec)

    def inverse(self) -> "WittScalar":
        if self.prec == 0:
            raise PrecisionExhausted("no digits left to invert")
        r = nonresidue(self.p)
        a, b = pair_inv(self.pair(), self.p, r, self.modulus)
        return WittScalar(self.p, self.prec, a, b)

    def divide_exact(self, q: int) -> "WittScalar":
        """Exact division of the stored representative by the integer q.

        The result is reported at the same declared precision; callers doing
        genuine p-division own the bookkeeping of which digits they trust.
        """
        a, b = self.a, self.b
        if a % q or b % q:
            raise InexactDivision(f"{(a, b)} is not divisible by {q}")
        return WittScalar(self.p, self.prec, a // q, b // q)
