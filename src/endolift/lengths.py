"""Length computations in the chain ring attached to the deformation corner.

The chain ring C is a window-truncated Laurent model in the deformation
variable x1 over Z/p^M, one integer coefficient per x1 exponent; the modules
of interest are presented over the x2-power generator basis of C[[x2]]/x2^cap
by the shifted columns of the two corner series.  The series live over the
quadratic Witt scalars, but the Z_{p^2}-action reaches the corner only
through the unit w (w^2 = r): every coefficient of a corner series is w-free
in the ramified case and a w-multiple in the unramified one.  Dividing a
generator by a unit leaves the corner ideal as it is, and the query
monomials p^j*x2^i are w-free, so `ChainScalar.from_series` divides each
slice by its w-power; a slice or a series that mixes the two kinds is a
StructureViolation, raised before any window is measured.

Elimination fills the short corner slices in to dense Laurent polynomials,
so chain-ring products go through one kernel with two branches: a
reduce-once loop for short operands and one Kronecker-packed big-integer
product for dense ones.  The termwise arithmetic (add, sub, integer scale,
exact division, valuation) works on the integers directly.  The kernel
serves x1-only operands alone: per pair of x2-slices it made a small sweep
1.5x slower (see `series`).  A `ChainScalar` keeps its terms relative to an
x1 offset: products add the offsets, and a shift that keeps every term in
[lo, hi] moves the offset and shares the terms, so recentering costs
nothing per entry; only a shift that pushes a term out filters.

Two independent length oracles live here:

* `chain_snf` — an elementary-divisor style elimination with a global
  minimal-valuation pivot rule, returning one exponent per generator; query
  columns passed along ride through the same elimination as passive
  columns, which decides their membership in the column span without a
  second elimination (the echelon-form membership test, as in Cohen, GTM
  138, §2.4);
* `length_by_elimination` — a peeling loop that mirrors the way the quotient
  decomposes into annulus chunks: at step j the carrying side has exact
  corner valuation k - j, the opposite side is cleared below x2^(2*p^j), one
  chunk of length is collected, and the roles swap.  Chunk j is the closed
  form's term 2p^j*(k - j) (`inventory.vertical_multiplicity_terms`).  A
  chunk is a one-generator ideal, measured by a standard-basis walk along
  the x2-order (`_chunk_length`), so this oracle shares no elimination
  kernel with `chain_snf`: only the tower solve and the `ChainScalar`
  arithmetic.

`annihilator_report` reads its membership table off one such elimination
per presentation model.

Every window-dependent number here (the lengths from both oracles and the
annihilator membership table) is one path: solve the corner once, then
`_stabilize` one per-radius measure (`_corner_model`, `_peel_at_radius`,
`_table_at_radius`).  The driver measures at the default x1-window radius and
at successive doublings, and a value counts only once two consecutive radii
agree.  A radius whose measurement runs out of window or reads as a
structure violation gives no answer.  Past the ceiling max(p^(2k+2), 8*base)
the driver raises WindowExhausted; no unconfirmed value is ever returned.

`quotient_length` drives the window engine at defaults and runs the first
oracle; `vertical_multiplicity` additionally insists the result matches the
closed form and is the value the inventory quotes.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from math import gcd
from operator import index
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar, Union

from .errors import ConsistencyFailure, Frozen, InexactDivision, StructureViolation, WindowExhausted
from .inventory import _label, vertical_multiplicity_closed_form
from .series import SeriesContext, TruncSeries
from .windows import CaseDescriptor, ThickenedSolution, recursion_context, solve_thickened_recursion
from .witt import nonresidue

__all__ = [
    "ChainContext",
    "ChainScalar",
    "ChainPresentation",
    "chain_snf",
    "quotient_length",
    "quotient_length_details",
    "length_by_elimination",
    "annihilator_check",
    "annihilator_report",
    "vertical_multiplicity",
    "chain_default_radius",
]

Terms = Dict[int, int]
T = TypeVar("T")


class ChainContext(Frozen):
    """Truncation data for the chain ring: p, digit count, x1 window, each
    an integer (TypeError otherwise); `nonresidue` refuses a p that is not
    an odd prime.  The last field, `mod` (p^modulus), which every
    chain-ring operation reads, is derived from the first four, so
    comparing all five is comparing these four."""

    __slots__ = ("p", "modulus", "lo", "hi", "mod")

    def __init__(self, p: int, modulus: int, lo: int, hi: int):
        for bound in (p, modulus, lo, hi):
            index(bound)
        nonresidue(p)
        if modulus < 1:
            raise ValueError("chain modulus must be positive")
        if lo > 0 or hi < 0:
            raise ValueError("chain window must contain 0")
        Frozen.__init__(self, p, modulus, lo, hi, p**modulus)


# ---------------------------------------------------------------------------
# the product kernel: {x1 exponent -> coefficient} dicts over Z/p^M, with
# product exponents outside [lo, hi] dropped

# operand-size product (term pairs) from which Kronecker packing beats the loop
PACK_MIN_TERM_PRODUCTS = 512

# packing and unpacking both in native order keeps slot k at bytes
# [k*width, (k+1)*width) of to_bytes on either byte order
_NATIVE = sys.byteorder
# array typecode for each slot width the packed product can use, in bytes,
# narrowest first
_SLOT_CODES = {array(code).itemsize: code for code in "BHIQ"}


def _mul_short(left: Terms, right: Terms, mod: int, lo: int, hi: int) -> Terms:
    """Term-by-term product; sums accumulate unreduced, reduced once."""
    if len(left) > len(right):
        left, right = right, left
    acc: Terms = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = e1 + e2
            if e < lo or e > hi:
                continue
            if e in acc:
                acc[e] += c1 * c2
            else:
                acc[e] = c1 * c2
    out = {}
    for e, c in acc.items():
        c %= mod
        if c:
            out[e] = c
    return out


def _mul_packed(left: Terms, right: Terms, mod: int, lo: int, hi: int) -> Terms:
    """Kronecker substitution: the same product from one big-integer product.

    Both supports are divided by the common stride g of their exponent
    offsets and each coefficient list is packed into one integer with a
    whole-byte slot per exponent, so the product of the two integers carries
    every coefficient sum in its own slot and CPython's Karatsuba does the
    work.  A slot holds at most min(n1, n2) terms of at most (mod-1)^2;
    slots wider than 8 bytes take the loop instead.
    """
    l0, r0 = min(left), min(right)
    g = gcd(*(e - l0 for e in left), *(e - r0 for e in right)) or 1
    n1 = (max(left) - l0) // g + 1
    n2 = (max(right) - r0) // g + 1
    need = ((min(n1, n2) * (mod - 1) ** 2).bit_length() + 7) // 8
    width = next((w for w in _SLOT_CODES if w >= need), None)
    if width is None:
        return _mul_short(left, right, mod, lo, hi)
    code = _SLOT_CODES[width]

    def pack(coeffs: Terms, e0: int, n: int) -> int:
        slots = [0] * n
        for e, c in coeffs.items():
            slots[(e - e0) // g] = c
        return int.from_bytes(array(code, slots).tobytes(), _NATIVE)

    product = pack(left, l0, n1) * pack(right, r0, n2)
    # keep only the slots whose exponent e0 + g*k lies in [lo, hi]
    e0 = l0 + r0
    first = max(0, -((e0 - lo) // g))
    last = min(n1 + n2 - 2, (hi - e0) // g)
    if first > last:
        return {}
    slots = array(code)
    slots.frombytes(product.to_bytes((n1 + n2 - 1) * width, _NATIVE)[first * width:(last + 1) * width])
    out = {}
    e = e0 + first * g
    for c in slots:
        c %= mod
        if c:
            out[e] = c
        e += g
    return out


def _w_power(pairs: Iterable[Tuple[int, int]]) -> int:
    """0 if every coefficient a + b*w is w-free (b = 0), 1 if every one is a
    w-multiple (a = 0); StructureViolation if the two kinds mix."""
    kinds = {(a != 0, b != 0) for a, b in pairs if a or b}
    if len(kinds) > 1 or (True, True) in kinds:
        raise StructureViolation("corner coefficients mix w-free and w-multiple parts")
    return int((False, True) in kinds)


class ChainScalar:
    """An element of the chain ring: x1^off times {x1 exponent -> coefficient
    mod p^M}.  A stored key e stands for the exponent e + off; `coeffs` is
    the absolute view, built on demand.  The pivot key (valuation and
    leading exponent, see `pivot_key`) and the least exponent are cached
    relative to the offset, so a loss-free `shift` keeps them."""

    __slots__ = ("ctx", "_terms", "_off", "_pivot_key", "_min")

    def __init__(self, ctx: ChainContext, coeffs: Optional[Terms] = None, *,
                 _clean: bool = False, _off: int = 0):
        self.ctx = ctx
        self._off = _off
        self._pivot_key: Optional[Tuple[int, Optional[int]]] = None
        self._min: Optional[int] = None
        if coeffs is None:
            self._terms = {}
        elif _clean:
            self._terms = coeffs
        else:
            mod, lo, hi = ctx.mod, ctx.lo, ctx.hi
            terms = self._terms = {}
            for e, c in coeffs.items():
                if e.__class__ is not int or c.__class__ is not int:
                    e, c = index(e), index(c)  # TypeError for a float or any non-integer
                c %= mod
                if c and lo <= e <= hi:
                    terms[e] = c

    @classmethod
    def zero(cls, ctx: ChainContext) -> "ChainScalar":
        return cls(ctx, {}, _clean=True)

    @classmethod
    def monomial(cls, ctx: ChainContext, e: int, c: int = 1) -> "ChainScalar":
        return cls(ctx, {e: c})

    @classmethod
    def from_series(cls, ctx: ChainContext, series: TruncSeries) -> "ChainScalar":
        """Reduce an x2-free series slice into the chain ring, divided by its
        w-power (StructureViolation if it has none, see `_w_power`)."""
        if any(m2 for _, m2 in series.coeffs):
            raise ValueError("slice is not x2-free")
        part = _w_power(series.coeffs.values())
        return cls(ctx, {m1: pair[part] for (m1, _), pair in series.coeffs.items()})

    # -- views ---------------------------------------------------------------

    @property
    def coeffs(self) -> Terms:
        """{absolute x1 exponent -> coefficient}."""
        off = self._off
        return {e + off: c for e, c in self._terms.items()} if off else self._terms

    def pivot_key(self) -> Tuple[int, Optional[int]]:
        """(v, e): the least p-valuation v of the coefficients and the least
        exponent e whose coefficient p^(v+1) does not divide; (M, None) for
        zero.  Found once per term dict: v is the valuation of the
        coefficients' gcd, which is below p^M as every stored coefficient is,
        and p^v divides every coefficient, so e needs only the p^(v+1) test."""
        key = self._pivot_key
        if key is None:
            terms, p = self._terms, self.ctx.p
            if not terms:
                key = (self.ctx.modulus, None)
            else:
                g, v = gcd(*terms.values()), 0
                while g % p == 0:
                    g //= p
                    v += 1
                high = p ** (v + 1)
                key = (v, min(e for e, c in terms.items() if c % high))
            self._pivot_key = key
        v, e = key
        return (v, None if e is None else e + self._off)

    def p_valuation(self) -> int:
        """Least p-valuation of the coefficients (the modulus for zero)."""
        return self.pivot_key()[0]

    def min_exponent(self) -> Optional[int]:
        if self._min is None and self._terms:
            self._min = min(self._terms)
        return None if self._min is None else self._min + self._off

    def __eq__(self, other):
        if not isinstance(other, ChainScalar):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __repr__(self):
        n = len(self._terms)
        if n == 0:
            return "ChainScalar(0)"
        return f"ChainScalar({n} terms, lead x1^{self.min_exponent()}, val {self.p_valuation()})"

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "ChainScalar"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("mixed chain contexts")

    def __sub__(self, other: "ChainScalar") -> "ChainScalar":
        """Cancelled coefficients drop; other's terms are re-keyed only at another offset."""
        self._check(other)
        mine, theirs, off = self._terms, other._terms, self._off
        if not theirs:
            return self
        if not mine:
            off = other._off
        elif other._off != off:
            d = other._off - off
            theirs = {e + d: c for e, c in theirs.items()}
        mod = self.ctx.mod
        out = dict(mine)
        for e, c in theirs.items():
            c = (out.get(e, 0) - c) % mod
            if c:
                out[e] = c
            else:
                out.pop(e, None)
        return ChainScalar(self.ctx, out, _clean=True, _off=off)

    def __mul__(self, other: "ChainScalar") -> "ChainScalar":
        """The offsets add; the kernel sees the window moved by their sum."""
        self._check(other)
        ctx = self.ctx
        left, right = self._terms, other._terms
        # a zero operand is its own product
        if not left:
            return self
        if not right:
            return other
        off = self._off + other._off
        mul = _mul_packed if len(left) * len(right) >= PACK_MIN_TERM_PRODUCTS else _mul_short
        return ChainScalar(ctx, mul(left, right, ctx.mod, ctx.lo - off, ctx.hi - off),
                           _clean=True, _off=off)

    def scale_int(self, n: int) -> "ChainScalar":
        mod = self.ctx.mod
        out = {e: r for e, c in self._terms.items() if (r := c * n % mod)}
        return ChainScalar(self.ctx, out, _clean=True, _off=self._off)

    def shift(self, d: int) -> "ChainScalar":
        """Multiply by x1^d by moving the offset.  The term dict is shared
        unless a term leaves [lo, hi] (a shift down checks only the least
        exponent, a shift up only the greatest); then it is filtered."""
        terms = self._terms
        if d == 0 or not terms:
            return self
        ctx, off = self.ctx, self._off + d
        if self.min_exponent() + d >= ctx.lo if d < 0 else max(terms) + off <= ctx.hi:
            out = ChainScalar(ctx, terms, _clean=True, _off=off)
            out._pivot_key, out._min = self._pivot_key, self._min
            return out
        lo, hi = ctx.lo - off, ctx.hi - off
        return ChainScalar(ctx, {e: c for e, c in terms.items() if lo <= e <= hi}, _clean=True, _off=off)

    def divide_p_power(self, k: int) -> "ChainScalar":
        """Exact division of every stored coefficient by p^k."""
        if k == 0:
            return self
        q = self.ctx.p**k
        if any(c % q for c in self._terms.values()):
            raise InexactDivision(f"a coefficient is not divisible by {q}")
        return ChainScalar(self.ctx, {e: c // q for e, c in self._terms.items()},
                           _clean=True, _off=self._off)


# ---------------------------------------------------------------------------
# presentations


def _shift_column(slices: Sequence[ChainScalar], t: int, m: int) -> List[ChainScalar]:
    """Column of x2^t * (series with the given x2-slices) over m generators."""
    ctx = slices[0].ctx
    zero = ChainScalar.zero(ctx)
    col = []
    for i in range(m):
        j = i - t
        col.append(slices[j] if 0 <= j < len(slices) else zero)
    return col


class ChainPresentation:
    """Rows = generators x2^0 .. x2^(m-1); columns = relation vectors."""

    __slots__ = ("ctx", "m", "columns")

    def __init__(self, ctx: ChainContext, m: int, columns: List[List[ChainScalar]]):
        self.ctx = ctx
        self.m = m
        self.columns = columns

    @classmethod
    def from_corner_series(
        cls,
        ctx: ChainContext,
        m: int,
        alpha_slices: Sequence[ChainScalar],
        beta_slices: Sequence[ChainScalar],
        *,
        maximal_multiple: bool = False,
    ) -> "ChainPresentation":
        cols: List[List[ChainScalar]] = []
        if not maximal_multiple:
            for t in range(m):
                cols.append(_shift_column(alpha_slices, t, m))
            for t in range(m):
                cols.append(_shift_column(beta_slices, t, m))
        else:
            # generators of the maximal-ideal multiple: p*v and x2*v for v in
            # {alpha, beta}, each with all x2-shifts.  p*x2^t*v for t >= 1 is
            # p times the column x2^t*v below, and scale_int commutes with the
            # window filter, so only t = 0 of p*v adds to the span
            cols.append(_shift_column([s.scale_int(ctx.p) for s in alpha_slices], 0, m))
            cols.append(_shift_column([s.scale_int(ctx.p) for s in beta_slices], 0, m))
            for t in range(1, m):
                cols.append(_shift_column(alpha_slices, t, m))
                cols.append(_shift_column(beta_slices, t, m))
        return cls(ctx, m, cols)

    def rows(self) -> List[List[ChainScalar]]:
        return [[col[i] for col in self.columns] for i in range(self.m)]


# ---------------------------------------------------------------------------
# the elimination oracle


def _recenter(work: List[List[ChainScalar]], n: int) -> None:
    """Shift rows and the first n columns so each active support starts at x1^0.

    Multiplying a row or a column by x1^-s is a unit operation on the
    presented module; pulling every strictly positive common support back to
    zero stops the supports from drifting upward under repeated unit scaling
    and out of the finite window.  A row whose active support starts below
    zero (only an input row can) is lifted to zero instead: left there, a
    pivot unit of negative leading degree scales every column it clears
    further down, until entries fall below the window and a unit reads as
    zero.  After the first pass every active support starts at or above
    zero and products and differences keep it there, so later passes only
    shift down, which is loss-free and moves only the offset of each
    nonzero entry (read off its cached minimum; zero entries are skipped).
    Only the first n (active) columns set the shifts; passive columns past
    them move with their rows and are never shifted on their own.
    """
    for i, row in enumerate(work):
        s = min([e.min_exponent() for e in row[:n] if e._terms], default=0)
        if s:
            work[i] = [e.shift(-s) if e._terms else e for e in row]
    for j in range(n):
        s = min([row[j].min_exponent() for row in work if row[j]._terms], default=0)
        if s > 0:
            for row in work:
                if row[j]._terms:
                    row[j] = row[j].shift(-s)


def chain_snf(
    rows: List[List[ChainScalar]],
    ctx: ChainContext,
    queries: Optional[Sequence[Sequence[ChainScalar]]] = None,
) -> Union[List[int], Tuple[List[int], List[bool]]]:
    """Elementary-divisor exponents of a matrix over the chain ring.

    Pivot rule: globally minimal coefficient valuation; ties broken by the
    least x1-leading-degree of the valuation-carrying part, then by position.
    One exponent per row comes back (rows that die into nothing count the
    full modulus), sorted ascending.

    queries, if given, are columns (one entry per row) whose membership in
    the column span is decided in the same elimination; the call then
    returns (exponents, inside) with one bool per query.  They ride along as
    passive columns: the row operations and row shifts act on them, and each
    pivot clears them like the active columns, but they are never pivots
    and never shifted on their own.  A query leaves the span when its entry
    in the pivot row has valuation below the pivot's e (every span element
    has valuation at least e there, e being the global minimum), or when it
    is nonzero in a row that no pivot is left for.

    A pivot step builds only the entries it keeps.  With pivot = p^e*u, a
    row with t in the pivot column becomes u*row - (t/p^e)*pivot_row, whose
    pivot-column entry u*t - (t/p^e)*pivot is exactly zero: divide_p_power
    divides exactly (or raises InexactDivision), so both products are p^e
    times the same integer sums in the same window.  That entry, and the
    pivot row that the column pass would clear before it is dropped, are
    never built; below the pivot row the column pass is the unit scaling
    of every column it clears.
    """
    M = ctx.modulus
    n = len(rows[0]) if rows else 0  # active columns; passive ones follow
    qs = list(queries or ())
    work = [list(r) + [q[i] for q in qs] for i, r in enumerate(rows)]
    inside = [True] * len(qs)
    zero = ChainScalar.zero(ctx)
    exps: List[int] = []
    while work:
        _recenter(work, n)
        best = None
        for i, row in enumerate(work):
            for j, entry in enumerate(row[:n]):
                if not entry._terms:
                    continue
                key = (*entry.pivot_key(), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best is None:
            exps.extend([M] * len(work))
            for row in work:
                for q, entry in enumerate(row[n:]):
                    if entry._terms:
                        inside[q] = False
            break
        (e, _, _, _), pi, pj = best
        work[0], work[pi] = work[pi], work[0]
        for row in work:
            row[0], row[pj] = row[pj], row[0]
        row0 = work[0]
        unit = row0[0].divide_p_power(e)
        # fraction-free clearing: row_i <- u*row_i - (t/p^e)*row_0, and scaling
        # by the unit u never moves valuations.  The pivot-column entry
        # u*t - (t/p^e)*pivot is not built: divide_p_power divides exactly
        # (or raises InexactDivision), so t = p^e*tq and pivot = p^e*u as
        # integer coefficients, both products are p^e times the same integer
        # sums over the same window, and their difference is exactly zero
        for i in range(1, len(work)):
            t = work[i][0]
            if not t._terms:
                continue
            tq = t.divide_p_power(e)
            # a zero entry on either side contributes nothing to its product
            work[i] = [zero] + [(unit * a if a._terms else a) - (tq * b if b._terms else b)
                                for a, b in zip(work[i][1:], row0[1:])]
        # the column pass clears the pivot row, which is dropped below, so its
        # entries are never built; below it column 0 is now zero, so the
        # column operation u*col_j - (t/p^e)*col_0 is the unit scaling alone
        for j in range(1, len(row0)):
            t = row0[j]
            if not t._terms:
                # keep the column untouched: scaling by u is only needed
                # when something is actually cleared against the pivot
                continue
            if j >= n and t.p_valuation() < e:
                # a decided query: outside the span, and its column drops out
                inside[j - n] = False
                for row in work:
                    row[j] = zero
                continue
            # active entries have valuation >= e (e is the global minimum),
            # and so has a query that passed the test above: t/p^e exists,
            # and the pivot-row entry u*t - (t/p^e)*pivot it clears is zero
            for i in range(1, len(work)):
                if work[i][j]._terms:
                    work[i][j] = unit * work[i][j]
        exps.append(min(e, M))
        n -= 1
        work = [row[1:] for row in work[1:]]
    exps.sort()
    return exps if queries is None else (exps, inside)


# ---------------------------------------------------------------------------
# drivers


def chain_default_radius(p: int, k: int) -> int:
    """Default x1-window radius for the chain-ring model at level k.

    The valuation-minimal coefficients of the deepest corner slices sit at
    x1-degree 2*(p^k + p^(k-2) + ...); a window inside that horizon cuts
    units off and measures the wrong module.  The horizon is not enough,
    though: at (unr, 3, 3) the radii 83-94 and 135-143, all above it, give
    wrong lengths.  The default, one factor of p past p^k, is only
    where `_stabilize` starts; what guards a value is its confirmation at
    two consecutive radii.
    """
    return 2 * p ** (k + 1)


def _stabilize(measure: Callable[[int], T], base: int, p: int, k: int) -> Tuple[int, T]:
    """Measure at x1-window radii base, 2*base, ... until two in a row agree.

    The window truncation is a model artifact, so a measured value counts
    only once the next doubled radius confirms it; the confirming radius is
    returned with the value.  WindowExhausted and StructureViolation mean no
    answer at that radius, which never agrees with anything.  Once a radius
    beyond max(p^(2k+2), 8*base) has been tried without agreement, raises
    WindowExhausted chained from the last failure caught.
    """
    ceiling = max(p ** (2 * k + 2), 8 * base)
    prev: Optional[T] = None
    last_error: Optional[Exception] = None
    radius = base
    while True:
        try:
            cur: Optional[T] = measure(radius)
        except (WindowExhausted, StructureViolation) as exc:
            cur, last_error = None, exc
        if cur is not None and cur == prev:
            return radius, cur
        if radius > ceiling:
            raise WindowExhausted(
                f"chain-ring measurement failed to stabilize below radius {radius}"
            ) from last_error
        prev = cur
        radius *= 2


class LengthReport(Frozen):
    __slots__ = ("case", "k", "length", "exponents", "chain_radius", "retried")


def _solve_corner(case: CaseDescriptor, k: int, ctx: SeriesContext) -> ThickenedSolution:
    """The depth-k tower, once each corner series is found w-free or a
    w-multiple throughout (see `_w_power`).  The check runs here, before the
    window driver, which would read its StructureViolation as a failed
    window and retry it at every radius."""
    sol = solve_thickened_recursion(case, k, ctx)
    for series in (sol.alpha, sol.beta):
        _w_power(series.coeffs.values())
    return sol


def _chain_corner(
    sol: ThickenedSolution, radius: int, enlarged: bool = False
) -> Tuple[ChainContext, List[ChainScalar], List[ChainScalar]]:
    """The chain ring at one x1-window radius and the x2-slices of each corner
    series (alpha, then beta) reduced into it: the official model (cap p^k,
    modulus 2k+1), or enlarged by one more slice and one more digit."""
    extra = int(enlarged)
    cap = sol.case.p**sol.k + extra
    ctx = ChainContext(sol.case.p, 2 * sol.k + 1 + extra, -radius, radius)
    alpha, beta = (
        [ChainScalar.from_series(ctx, series.x2_slice(j)) for j in range(cap)]
        for series in (sol.alpha, sol.beta)
    )
    return ctx, alpha, beta


def _corner_model(
    sol: ThickenedSolution, radius: int, enlarged: bool = False,
    queries: Optional[Sequence[Tuple[int, int]]] = None,
) -> Union[List[int], Tuple[List[int], List[bool]]]:
    """Exponents of the official model in one x1-window or, enlarged, of the
    maximal-ideal multiple one slice and one digit further (see
    `_chain_corner`); with queries, also the memberships of the monomials
    x2^i * p^j, one (i, j) per query (see `chain_snf`)."""
    ctx, alpha, beta = _chain_corner(sol, radius, enlarged)
    cap = len(alpha)
    pres = ChainPresentation.from_corner_series(ctx, cap, alpha, beta, maximal_multiple=enlarged)
    cols = None if queries is None else [
        _shift_column([ChainScalar.monomial(ctx, 0, ctx.p**j)], i, cap) for i, j in queries]
    return chain_snf(pres.rows(), ctx, cols)


def quotient_length_details(case: CaseDescriptor, k: int, *, precision_scale: int = 1) -> LengthReport:
    """Resolve the depth-k corner pair and measure the quotient module.

    The window truncation is a model artifact, so the measurement goes
    through `_stabilize`: it is repeated at doubled radii until two
    consecutive answers agree, and the confirmed answer is reported together
    with the radius that confirmed it (WindowExhausted past the ceiling).
    """
    sol = _solve_corner(case, k, recursion_context(case.p, k, precision_scale=precision_scale))
    base = chain_default_radius(case.p, k)
    radius, exps = _stabilize(lambda r: tuple(_corner_model(sol, r)), base, case.p, k)
    return LengthReport(case, k, sum(exps), exps, radius, radius > 2 * base)


def quotient_length(case: CaseDescriptor, k: int) -> int:
    return quotient_length_details(case, k).length


def vertical_multiplicity(case: str, p: int, c0: int) -> int:
    """Length of the special-fiber quotient on the vertical piece of case "unr" or "ram".

    Zero when c0 = 0 (no vertical piece); otherwise the measured quotient
    length, cross-checked against the closed form — disagreement raises.
    """
    label = _label(case, p, c0)
    if c0 == 0:
        return 0
    measured = quotient_length(CaseDescriptor.from_label(label, p), c0)
    expected = vertical_multiplicity_closed_form(p, c0)
    if measured != expected:
        raise ConsistencyFailure(
            f"vertical multiplicity mismatch at (case={label}, p={p}, c0={c0}): "
            f"measured {measured}, closed form {expected}"
        )
    return measured


# ---------------------------------------------------------------------------
# the structure-guided second oracle


def length_by_elimination(case: CaseDescriptor, k: int) -> int:
    """Measure the quotient by peeling annulus chunks off the corner pair.

    At step j (starting from 0) the carrying side must have x2-degree-0
    coefficient of exact valuation k - j; the other side is cleared below
    x2^(2*p^j) by exact eliminations against it, one chunk presented by the
    carrying side alone over 2*p^j generators is measured by the x2-order
    walk (`_chunk_length`, not `chain_snf`), and the cleared side is shifted
    down and becomes the carrier.  After k steps the remaining corner must
    be an outright unit.

    The measurement goes through the same confirm-or-raise driver as
    quotient_length_details, which confirms the whole tuple of chunk
    lengths, not only their sum; small windows can distort valuations enough
    to read as structure violations, so those also trigger a wider retry,
    and WindowExhausted is raised if no two radii agree below the ceiling.
    """
    sol = _solve_corner(case, k, recursion_context(case.p, k))
    return sum(_stabilize(lambda r: _peel_at_radius(sol, r), chain_default_radius(case.p, k), case.p, k)[1])


def _peel_at_radius(sol: ThickenedSolution, radius: int) -> Tuple[int, ...]:
    """The chunk lengths in one x1-window, step j first (see
    length_by_elimination)."""
    p, k = sol.case.p, sol.k
    chain_ctx, alpha, beta = _chain_corner(sol, radius)
    # the plain side (alpha) carries at even steps, the twisted side (beta) at odd ones
    sides = [alpha, beta]
    chunks = []
    for j in range(k):
        P, O = sides[j % 2], sides[1 - j % 2]
        # a nonzero carrier of valuation v leaves a unit once divided by p^v
        # (its coefficients' gcd is then prime to p); a zero one reads 2k+1
        v = P[0].p_valuation()
        if v != k - j:
            raise StructureViolation(
                f"peel step {j}: carrier corner valuation {v}, expected {k - j}"
            )
        unit = P[0].divide_p_power(v)
        width = 2 * p**j
        for d in range(min(width, len(O))):
            t = O[d]
            if not t._terms:
                continue
            # fraction-free elimination: O <- u*O - (t/p^v) * x2^d * P keeps
            # every product a single multiplication, hence an exact zero at
            # slice d; the extra unit factor on O never moves valuations
            tq = t.divide_p_power(v)
            O = [unit * o - tq * P[i - d] if 0 <= i - d < len(P) else unit * o for i, o in enumerate(O)]
            # every slice just picked up the same unit factor; pull the common
            # x1-power back out so supports cannot drift through the window
            # (a single monomial unit on the whole series, not per slice)
            O = _drop_common_x1(O)
        if any(s._terms for s in O[:width]):
            raise StructureViolation(f"peel step {j}: low slices survived elimination")
        # one annulus chunk: the carrying side alone over 2*p^j generators
        chunks.append(_chunk_length(P, width, chain_ctx))
        sides[1 - j % 2] = O[width:] + [ChainScalar.zero(chain_ctx)] * width
    if sides[k % 2][0].p_valuation() != 0:
        raise StructureViolation("after peeling, the remaining corner is not a unit")
    return tuple(chunks)


def _drop_common_x1(slices: List[ChainScalar]) -> List[ChainScalar]:
    """The x2-slices of one series divided by their common x1-power when
    that is positive (a unit, and a loss-free shift down); as they are
    otherwise."""
    common = min([s.min_exponent() for s in slices if s._terms], default=0)
    return [s.shift(-common) for s in slices] if common > 0 else slices


def _chunk_length(P: Sequence[ChainScalar], w: int, ctx: ChainContext) -> int:
    """Length of C[x2]/(P, x2^w): the chunk that the x2-shifts of the one
    carrier P present over the generators x2^0 .. x2^(w-1).

    A standard-basis walk along the x2-order (Norton and Salagean, "Strong
    Groebner bases for polynomials over a principal ideal ring", 2001).  The
    length is the sum over j < w of e_j, where p^(e_j) generates the slice-j
    coefficients of the ideal's elements of x2-order j; a pool of such
    elements (each cut to w slices) starts as P alone.  At order j the pivot
    is the order-j member whose slice j has the least `pivot_key`, of
    valuation a, so e_j = a (the modulus M when no member has order j).
    Every other order-j member q becomes u*q - (q_j/p^a)*pivot with u =
    pivot_j/p^a, whose slice j is exactly zero and is not built (see
    `chain_snf`).  The pivot leaves the pool, and p^(M-a)*pivot (when a > 0)
    and x2*pivot join it: these, with the cleared members, generate the
    ideal's elements of order above j.  Members that are zero drop out.
    """
    M, p = ctx.modulus, ctx.p
    zero = ChainScalar.zero(ctx)
    start = list(P[:w]) + [zero] * (w - len(P))
    pool = [_drop_common_x1(start)] if any(s._terms for s in start) else []
    length = 0
    for j in range(w):
        at_j = [q for q in pool if q[j]._terms]
        if not at_j:
            length += M
            continue
        pivot = min(at_j, key=lambda q: q[j].pivot_key())
        a = pivot[j].p_valuation()
        length += a
        unit = pivot[j].divide_p_power(a)
        joining = []
        for q in at_j:
            if q is pivot:
                continue
            tq = q[j].divide_p_power(a)
            # a zero entry on either side contributes nothing to its product
            joining.append([zero] * (j + 1) + [(unit * x if x._terms else x) - (tq * y if y._terms else y)
                                               for x, y in zip(q[j + 1:], pivot[j + 1:])])
        if a:
            joining.append([s.scale_int(p ** (M - a)) for s in pivot])
        joining.append([zero] + pivot[:w - 1])
        pool = [q for q in pool if not q[j]._terms]
        pool += [_drop_common_x1(q) for q in joining if any(s._terms for s in q)]
    return length


# ---------------------------------------------------------------------------
# annihilator memberships


def _official_queries(p: int, k: int) -> List[Tuple[int, int]]:
    """The official model's monomials x2^i * p^j as (i, j), in the order
    `_table_at_radius` reads their memberships: the balanced x2-power,
    p^(2k) and, at k = 1, the bare x2."""
    balanced = sum(2 * p**i for i in range(k))
    return [(balanced, 0), (0, 2 * k)] + ([(1, 0)] if k == 1 else [])


def _table_at_radius(sol: ThickenedSolution, radius: int, inside: Sequence[bool]) -> Dict[str, bool]:
    """The membership table in one x1-window, given the memberships there of
    the official model's `_official_queries`.  Below the anchor // 2 of
    annihilator_report this is a table of the truncated model, not of the
    module: there the passive decision and a comparison of lengths can
    differ."""
    p, k = sol.case.p, sol.k
    out = {"balanced_x2_power_in_ideal": inside[0], "p_to_2k_in_ideal": inside[1]}
    if k == 1:
        out["bare_x2_outside_ideal"] = not inside[2]
    enlarged = _corner_model(sol, radius, enlarged=True, queries=[(0, 2 * k + 1), (p**k, 0)])[1]
    out["p_to_2k_plus_1_in_max_multiple"] = enlarged[0]
    out["x2_to_p_k_in_max_multiple"] = enlarged[1]
    return out


def annihilator_report(case: CaseDescriptor, k: int) -> Dict[str, bool]:
    """Membership table around the annihilator of the quotient module.

    In the official model (cap p^k, modulus 2k+1): the balanced x2-power and
    p^(2k) both lie in the corner ideal.  In a one-step-enlarged model (cap
    p^k + 1, modulus 2k+2), where they are visible, p^(2k+1) and x2^(p^k)
    lie in the maximal-ideal multiple of the ideal.  For k = 1 the bare x2
    must stay outside the ideal.

    Each model is eliminated once, with its monomials as passive query
    columns of `chain_snf`.  The whole table goes through the same
    confirm-or-raise window driver as the lengths: it is recomputed at
    doubled radii until it repeats, and raises WindowExhausted if no two
    radii agree below the ceiling.  The anchor is the radius at which the
    plain length of the official model stabilizes; smaller windows can agree
    with each other while both are still distorted.  The table loop starts
    at anchor // 2: the anchor is a confirming radius, so anchor // 2 is
    never below the default radius and its official exponents are the
    stable ones.  The table is thus confirmed at the anchor by two
    consecutive radii that both carry the stable official exponents.
    """
    p = case.p
    # one tower solve serves both models: the official one (cap p^k) reads
    # only the x2-slices below p^k, which the one extra slice never changes
    sol = _solve_corner(case, k, recursion_context(p, k).weakened(cap2=p**k + 1))
    # passive queries never move the active pivots, and the cache hands the
    # official eliminations at anchor // 2 and anchor on to the table loop
    official = lru_cache(maxsize=None)(lambda r: _corner_model(sol, r, queries=_official_queries(p, k)))
    anchor, _ = _stabilize(lambda r: official(r)[0], chain_default_radius(p, k), p, k)
    return _stabilize(lambda r: _table_at_radius(sol, r, official(r)[1]), anchor // 2, p, k)[1]


def annihilator_check(case: CaseDescriptor, k: int) -> bool:
    """All annihilator memberships hold (see annihilator_report)."""
    return all(annihilator_report(case, k).values())
