"""A reference for the ring of a + b*w modulo p^N, w^2 = r, against which
the tests check the pair helpers of `endolift.witt` and the kernels built
on them.

It is written from w^2 = r alone and shares no code with the package: a
product expands as a polynomial in w and folds w^2 back to r, a valuation
is read digit by digit, and an inverse is found by search over the residue
field and lifted by Newton's iteration.  The one input it takes from the
package is r itself (`nonresidue`, which `tests/test_witt.py` checks on its
own).  At precision 1 it is the residue field.
"""

from endolift.witt import nonresidue


class QuadraticRing:
    """Z/p^prec [w] / (w^2 - r), elements as pairs (a, b) meaning a + b*w."""

    def __init__(self, p, prec):
        self.p = p
        self.prec = prec
        self.r = nonresidue(p)
        self.mod = p**prec

    def reduce(self, x):
        return (x[0] % self.mod, x[1] % self.mod)

    def elements(self):
        return [(a, b) for a in range(self.mod) for b in range(self.mod)]

    def is_zero(self, x):
        return self.reduce(x) == (0, 0)

    def add(self, x, y):
        return self.reduce((x[0] + y[0], x[1] + y[1]))

    def sub(self, x, y):
        return self.reduce((x[0] - y[0], x[1] - y[1]))

    def mul(self, x, y):
        # (a + b w)(c + d w) = ac + (ad + bc) w + bd w^2
        w0, w1, w2 = x[0] * y[0], x[0] * y[1] + x[1] * y[0], x[1] * y[1]
        return self.reduce((w0 + self.r * w2, w1))

    def total(self, terms):
        acc = (0, 0)
        for x in terms:
            acc = self.add(acc, x)
        return acc

    def sigma(self, x):
        """w -> -w."""
        return self.reduce((x[0], -x[1]))

    def val(self, x):
        """The number of low p-adic digits in which both coordinates vanish,
        up to the precision."""
        a, b = self.reduce(x)
        v = 0
        while v < self.prec and a % self.p ** (v + 1) == 0 and b % self.p ** (v + 1) == 0:
            v += 1
        return v

    def divide(self, x, n):
        """The representatives of x divided by the integer n; ValueError
        unless n divides both."""
        a, b = self.reduce(x)
        if a % n or b % n:
            raise ValueError(f"{(a, b)} is not divisible by {n}")
        return (a // n, b // n)

    def inv(self, x):
        """The inverse of a unit; ValueError for a non-unit."""
        field = QuadraticRing(self.p, 1)
        residue = field.reduce(x)
        y = next((y for y in field.elements() if field.mul(residue, y) == (1, 0)), None)
        if y is None:
            raise ValueError(f"{x} is not a unit mod {self.p}")
        for _ in range(self.prec.bit_length()):
            # Newton: each step doubles the digits to which x y = 1
            y = self.mul(y, self.sub((2, 0), self.mul(x, y)))
        return y
