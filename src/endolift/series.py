"""Window-truncated series in two variables over the quadratic Witt scalars.

Terms are monomials x1^m1 * x2^m2 with m1 confined to a closed Laurent window
[lo1, hi1] (negative exponents allowed) and m2 to [0, cap2).  Coefficients
live modulo p^prec.  Products simply drop terms that leave the window, which
is the working model everywhere downstream: degrees of interest stay well
inside the box and the box is part of the declared context.

The Frobenius lift acts by the coefficient twist together with m -> p*m on
exponents on both variables.

Coefficients are raw (a, b) pairs meaning a + b*w, and nothing else enters:
a constant is a pair or an int, a sum, difference or product takes another
series, and an int scales through `scale_int` (`s * 3` is a TypeError).
The termwise arithmetic (add, sub, neg, integer scale, exact integer
division) lives in the `TruncSeries` methods, on its {(m1, m2) -> (a, b)}
dict.  The chain ring of `lengths` divides the corner series by w and works
on integer coefficients, so it shares neither that arithmetic nor the
products: replaying the 9,376 series products of one sweep-small benchmark
pass, the two-variable loop here took 78 ms and one chain-ring kernel call
per pair of x2-slices 117 ms; folding m2 into an integer key m1 + B*m2
makes the packed span about B*cap2 slots wide (MemoryError on the largest
products).
"""

from __future__ import annotations

from operator import index
from typing import Dict, Optional, Tuple

from .errors import Frozen, InexactDivision, NotAUnit, WindowExhausted
from .witt import nonresidue, pair_add, pair_inv, pair_mul, pair_sigma

__all__ = [
    "SeriesContext",
    "TruncSeries",
    "f_series",
    "g_series",
    "series_invert",
]

Pair = Tuple[int, int]
Key = Tuple[int, int]


class SeriesContext(Frozen):
    """Shared truncation data: p-precision, x1 window, x2 cap (exclusive).
    `nonresidue` refuses a p that is not an odd prime, and a bound that is
    not an integer is a TypeError.  The last two fields, `mod` (p^prec) and
    `r` (w^2), which every series operation reads, are derived from the
    first five, so comparing all seven is comparing the bounds."""

    __slots__ = ("p", "prec", "lo1", "hi1", "cap2", "mod", "r")

    def __init__(self, p: int, prec: int, lo1: int, hi1: int, cap2: int):
        r = nonresidue(p)
        for bound in (prec, lo1, hi1, cap2):
            index(bound)
        if prec < 0:
            raise ValueError("negative precision")
        if lo1 > 0 or hi1 < 0:
            raise ValueError("x1 window must contain 0")
        if cap2 < 1:
            raise ValueError("x2 cap must be at least 1")
        Frozen.__init__(self, p, prec, lo1, hi1, cap2, p**prec, r)

    def in_window(self, m1: int, m2: int) -> bool:
        return self.lo1 <= m1 <= self.hi1 and 0 <= m2 < self.cap2

    def weakened(self, *, prec=None, cap2=None) -> "SeriesContext":
        """The same x1 window with the precision or the x2 cap replaced."""
        return SeriesContext(
            self.p,
            self.prec if prec is None else prec,
            self.lo1,
            self.hi1,
            self.cap2 if cap2 is None else cap2,
        )


class TruncSeries:
    """A finitely supported map {(m1, m2): coefficient} inside a context box."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: SeriesContext, coeffs: Optional[Dict[Key, Pair]] = None, *, _clean: bool = False):
        self.ctx = ctx
        if coeffs is None:
            self.coeffs = {}
        elif _clean:
            self.coeffs = coeffs
        else:
            mod = ctx.mod
            clean: Dict[Key, Pair] = {}
            for (m1, m2), (a, b) in coeffs.items():
                if (a.__class__ is not int or b.__class__ is not int
                        or m1.__class__ is not int or m2.__class__ is not int):
                    # TypeError for a float or any non-integer
                    m1, m2, a, b = index(m1), index(m2), index(a), index(b)
                if not ctx.in_window(m1, m2):
                    continue
                a %= mod
                b %= mod
                if a or b:
                    clean[(m1, m2)] = (a, b)
            self.coeffs = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: SeriesContext) -> "TruncSeries":
        return cls(ctx, {}, _clean=True)

    @classmethod
    def one(cls, ctx: SeriesContext) -> "TruncSeries":
        return cls(ctx, {(0, 0): (1, 0)})

    @classmethod
    def constant(cls, ctx: SeriesContext, value) -> "TruncSeries":
        """Constant series from an (a, b) pair or an int; TypeError for any
        other coefficient."""
        return cls(ctx, {(0, 0): value if isinstance(value, tuple) else (value, 0)})

    @classmethod
    def monomial(cls, ctx: SeriesContext, m1: int, m2: int, pair: Pair = (1, 0)) -> "TruncSeries":
        return cls(ctx, {(m1, m2): pair})

    # -- basic views --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_x2_degree(self) -> Optional[int]:
        if not self.coeffs:
            return None
        return min(m2 for (_, m2) in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        terms = []
        for (m1, m2), (a, b) in sorted(self.coeffs.items())[:6]:
            if b == 0:
                c = str(a)
            elif a == 0:
                c = f"{b}w"
            else:
                c = f"({a}+{b}w)"
            mono = ""
            if m1:
                mono += f"*x1^{m1}"
            if m2:
                mono += f"*x2^{m2}"
            terms.append(c + mono)
        if len(self.coeffs) > 6:
            terms.append(f"... ({len(self.coeffs)} terms)")
        return "TruncSeries(" + (" + ".join(terms) if terms else "0") + ")"

    def _check(self, other: "TruncSeries"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError(f"mixed contexts: {self.ctx} vs {other.ctx}")

    # -- ring operations ----------------------------------------------------

    def _add(self, other, sign: int):
        """self + sign*other termwise for a series `other`; entries that
        cancel to 0 are dropped."""
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        mod = self.ctx.mod
        out = dict(self.coeffs)
        for key, (c, d) in other.coeffs.items():
            a, b = out.get(key, (0, 0))
            a = (a + sign * c) % mod
            b = (b + sign * d) % mod
            if a or b:
                out[key] = (a, b)
            else:
                out.pop(key, None)
        return TruncSeries(self.ctx, out, _clean=True)

    def __add__(self, other):
        return self._add(other, 1)

    def __neg__(self):
        mod = self.ctx.mod
        out = {key: (-a % mod, -b % mod) for key, (a, b) in self.coeffs.items()}
        return TruncSeries(self.ctx, out, _clean=True)

    def __sub__(self, other):
        return self._add(other, -1)

    def scale_int(self, n: int) -> "TruncSeries":
        """Multiply every coefficient by the integer n."""
        mod = self.ctx.mod
        out = {}
        for key, (a, b) in self.coeffs.items():
            a, b = a * n % mod, b * n % mod
            if a or b:
                out[key] = (a, b)
        return TruncSeries(self.ctx, out, _clean=True)

    def __mul__(self, other):
        """The windowed product of two series (ints go through `scale_int`)."""
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        ctx = self.ctx
        mod, r = ctx.mod, ctx.r
        lo1, hi1, cap2 = ctx.lo1, ctx.hi1, ctx.cap2
        acc: Dict[Key, Pair] = {}
        # iterate over the smaller support on the outside
        left, right = self.coeffs, other.coeffs
        if len(left) > len(right):
            left, right = right, left
        for (a1, a2), u in left.items():
            for (b1, b2), v in right.items():
                m2 = a2 + b2
                if m2 >= cap2:
                    continue
                m1 = a1 + b1
                if m1 < lo1 or m1 > hi1:
                    continue
                key = (m1, m2)
                w = pair_mul(u, v, r, mod)
                if key in acc:
                    acc[key] = pair_add(acc[key], w, mod)
                else:
                    acc[key] = w
        return TruncSeries(ctx, {k: v for k, v in acc.items() if v != (0, 0)}, _clean=True)

    def mul_monomial(self, d1: int, d2: int) -> "TruncSeries":
        """Multiply by x1^d1 * x2^d2 (window-filtered)."""
        ctx = self.ctx
        lo1, hi1, cap2 = ctx.lo1, ctx.hi1, ctx.cap2
        out = {}
        for (m1, m2), v in self.coeffs.items():
            n1, n2 = m1 + d1, m2 + d2
            if lo1 <= n1 <= hi1 and 0 <= n2 < cap2:
                out[(n1, n2)] = v
        return TruncSeries(ctx, out, _clean=True)

    # -- twists, substitutions, reductions ----------------------------------

    def frobenius(self) -> "TruncSeries":
        """Coefficient twist together with exponent dilation m -> p*m."""
        ctx = self.ctx
        p, mod = ctx.p, ctx.mod
        lo1, hi1, cap2 = ctx.lo1, ctx.hi1, ctx.cap2
        out = {}
        for (m1, m2), v in self.coeffs.items():
            n1, n2 = m1 * p, m2 * p
            if lo1 <= n1 <= hi1 and 0 <= n2 < cap2:
                out[(n1, n2)] = pair_sigma(v, mod)
        return TruncSeries(ctx, out, _clean=True)

    def substitute_x1_zero(self) -> "TruncSeries":
        return TruncSeries(
            self.ctx,
            {k: v for k, v in self.coeffs.items() if k[0] == 0},
            _clean=True,
        )

    def x2_slice(self, j: int) -> "TruncSeries":
        """The coefficient of x2^j, returned as an x2-free series."""
        return TruncSeries(
            self.ctx,
            {(m1, 0): v for (m1, m2), v in self.coeffs.items() if m2 == j},
            _clean=True,
        )

    def with_context(self, new_ctx: SeriesContext) -> "TruncSeries":
        """Reduce into a weaker context: no more precision and a box inside
        this one (ValueError otherwise: products in a wider box would meet
        terms this box has dropped).  In the same box only the coefficients
        are reduced, since the stored terms are integral and inside it."""
        ctx = self.ctx
        if new_ctx.p != ctx.p:
            raise ValueError("cannot change p")
        if new_ctx.prec > ctx.prec or new_ctx.lo1 < ctx.lo1 or new_ctx.hi1 > ctx.hi1 or new_ctx.cap2 > ctx.cap2:
            raise ValueError("cannot raise precision or widen the box by reduction")
        if (new_ctx.lo1, new_ctx.hi1, new_ctx.cap2) != (ctx.lo1, ctx.hi1, ctx.cap2):
            return TruncSeries(new_ctx, self.coeffs)
        mod = new_ctx.mod
        out = {}
        for key, (a, b) in self.coeffs.items():
            a, b = a % mod, b % mod
            if a or b:
                out[key] = (a, b)
        return TruncSeries(new_ctx, out, _clean=True)

    # -- divisibility -------------------------------------------------------

    def divide_exact(self, q: int) -> "TruncSeries":
        """Exact termwise division of representatives by the integer q;
        InexactDivision unless q divides every coordinate."""
        out = {}
        for key, (a, b) in self.coeffs.items():
            if a % q or b % q:
                raise InexactDivision(f"coefficient {(a, b)} at {key} is not divisible by {q}")
            out[key] = (a // q, b // q)
        return TruncSeries(self.ctx, out, _clean=True)

    def divisible_by(self, q: int) -> bool:
        return all(v[0] % q == 0 and v[1] % q == 0 for v in self.coeffs.values())

    def reduce_mod_p(self) -> "TruncSeries":
        return self.with_context(self.ctx.weakened(prec=1))


def f_series(ctx: SeriesContext, power: int = 1) -> TruncSeries:
    """Sum of x1^(power * p^(2i)) over i >= 0, truncated to the window.

    `power` composes with a monomial substitution x1 -> x1^power, which is
    how the twisted argument x1^p enters the closed forms.  A power that is
    not an integer is a TypeError, one below 1 a ValueError: the exponents
    would never leave the window.
    """
    if index(power) < 1:
        raise ValueError(f"the power must be at least 1, got {power}")
    coeffs: Dict[Key, Pair] = {}
    e = power  # power * p^(2i)
    step = ctx.p * ctx.p
    while e <= ctx.hi1:
        coeffs[(e, 0)] = (1, 0)
        e *= step
    return TruncSeries(ctx, coeffs)


def g_series(ctx: SeriesContext, power: int = 1) -> TruncSeries:
    """The square companion of f: sum over i of x1^(power*p^(2i)) times
    (2 * sum_{j<i} x1^(power*p^(2j)) + x1^(power*p^(2i))), window-truncated.

    This is exactly the in-window part of f^2, computed as the windowed
    product: exponents only grow, so the product loses no in-window term,
    and the cross exponents p^(2i) + p^(2j) are pairwise distinct, so each
    cross coefficient is 2.
    """
    f = f_series(ctx, power)
    return f * f


def series_invert(u: TruncSeries) -> TruncSeries:
    """Inverse of a unit series by leading-term normalization plus Newton.

    The leading unit must sit in the x2-free slice: we pick the least x1
    degree d there whose coefficient is a unit scalar c, seed with
    c^-1 * x1^-d, and iterate t <- t*(2 - u*t) until u*t is exactly 1.
    """
    ctx = u.ctx
    p = ctx.p
    lead = None
    for (m1, m2) in sorted(u.coeffs):
        if m2 != 0:
            continue
        pair = u.coeffs[(m1, m2)]
        if pair[0] % p or pair[1] % p:
            lead = (m1, pair)
            break
    if lead is None:
        if any(v[0] % p or v[1] % p for v in u.coeffs.values()):
            raise NotAUnit("unit part is divisible by x2; no inverse in this ring")
        raise NotAUnit("series is zero mod p")
    d, c = lead
    cinv = pair_inv(c, p, ctx.r, ctx.mod)
    t = TruncSeries.monomial(ctx, -d, 0, cinv)
    if not ctx.in_window(-d, 0):
        raise WindowExhausted(f"x1^{-d} needed for the seed lies outside the window")
    one = TruncSeries.one(ctx)
    span = ctx.hi1 - ctx.lo1
    max_iter = max(4, (span * (ctx.prec + 1) + ctx.prec + ctx.cap2).bit_length() + 2)
    for _ in range(max_iter):
        err = one - u * t
        if err.is_zero():
            return t
        t = t + t * err
    raise WindowExhausted(
        "inversion failed to stabilize; widen the x1 window and retry"
    )
