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
exact division, valuation) works on the integers directly; the pair
arithmetic of `TruncSeries` is its own.  The kernel serves x1-only
operands alone: run per pair of x2-slices it made the series products of a
small sweep 1.5x slower (117 ms against 78 ms), and packing both exponents
into one key outgrows memory (see `series`).

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
  chunk of length is collected, and the roles swap.

`annihilator_report` reads its membership table off one such elimination
per presentation model.

Every window-dependent number here (the lengths from both oracles and the
annihilator membership table) goes through one driver, `_stabilize`: it
measures at the default x1-window radius and at successive doublings, and a
value counts only once two consecutive radii agree.  A radius whose
measurement runs out of window or reads as a structure violation gives no
answer.  Past the ceiling max(p^(2k+2), 8*base) the driver raises
WindowExhausted; no unconfirmed value is ever returned.  A pinned
chain_radius skips the driver and measures that one window.

`quotient_length` drives the window engine at defaults and runs the first
oracle; `vertical_multiplicity` additionally insists the result matches the
closed form and is the value the inventory quotes.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar, Union

from .errors import ConsistencyFailure, InexactDivision, StructureViolation, WindowExhausted
from .inventory import _label, vertical_multiplicity_closed_form
from .series import SeriesContext, TruncSeries
from .windows import CaseDescriptor, ThickenedSolution, recursion_context, solve_thickened_recursion

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


@dataclass(frozen=True)
class ChainContext:
    """Truncation data for the chain ring: p, digit count, x1 window."""

    p: int
    modulus: int
    lo: int
    hi: int
    # derived once here: every chain-ring operation reads it
    mod: int = field(init=False, repr=False, compare=False)  # p^modulus

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("chain modulus must be positive")
        if self.lo > 0 or self.hi < 0:
            raise ValueError("chain window must contain 0")
        object.__setattr__(self, "mod", self.p**self.modulus)


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
    """An element of the chain ring: {x1 exponent -> coefficient mod p^M}."""

    __slots__ = ("ctx", "coeffs", "_pivot_key")

    def __init__(self, ctx: ChainContext, coeffs: Optional[Terms] = None, *, _clean: bool = False):
        self.ctx = ctx
        self._pivot_key: Optional[Tuple[int, Optional[int]]] = None
        if coeffs is None:
            self.coeffs = {}
        elif _clean:
            self.coeffs = coeffs
        else:
            mod = ctx.mod
            self.coeffs = {e: c % mod for e, c in coeffs.items()
                           if ctx.lo <= e <= ctx.hi and c % mod}

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

    def is_zero(self) -> bool:
        return not self.coeffs

    def p_valuation(self) -> int:
        """Least p-valuation of the coefficients (the modulus for zero)."""
        ctx = self.ctx
        if not self.coeffs:
            return ctx.modulus
        # the least coefficient valuation is that of the coefficients' gcd,
        # which is below p^modulus as every stored coefficient is
        g, v = gcd(*self.coeffs.values()), 0
        while g % ctx.p == 0:
            g //= ctx.p
            v += 1
        return v

    def leading_degree(self, at_val: int) -> Optional[int]:
        """Least exponent whose coefficient has exactly the given valuation."""
        ctx = self.ctx
        if not 0 <= at_val < ctx.modulus:  # stored coefficients are nonzero
            return None
        low, high = ctx.p**at_val, ctx.p ** (at_val + 1)
        return min((e for e, c in self.coeffs.items() if not c % low and c % high), default=None)

    def pivot_key(self) -> Tuple[int, Optional[int]]:
        """(p_valuation, leading_degree at it), computed once per scalar."""
        key = self._pivot_key
        if key is None:
            v = self.p_valuation()
            key = self._pivot_key = (v, self.leading_degree(v))
        return key

    def __eq__(self, other):
        if not isinstance(other, ChainScalar):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        n = len(self.coeffs)
        if n == 0:
            return "ChainScalar(0)"
        lead = min(self.coeffs)
        return f"ChainScalar({n} terms, lead x1^{lead}, val {self.p_valuation()})"

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "ChainScalar"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("mixed chain contexts")

    def __add__(self, other: "ChainScalar") -> "ChainScalar":
        return self - other.scale_int(-1)

    def __sub__(self, other: "ChainScalar") -> "ChainScalar":
        """Coefficients that cancel are dropped."""
        self._check(other)
        if not other.coeffs:
            return self
        mod = self.ctx.mod
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            c = (out.get(e, 0) - c) % mod
            if c:
                out[e] = c
            else:
                out.pop(e, None)
        return ChainScalar(self.ctx, out, _clean=True)

    def __mul__(self, other: "ChainScalar") -> "ChainScalar":
        self._check(other)
        ctx = self.ctx
        left, right = self.coeffs, other.coeffs
        # a zero operand is its own product
        if not left:
            return self
        if not right:
            return other
        mul = _mul_packed if len(left) * len(right) >= PACK_MIN_TERM_PRODUCTS else _mul_short
        return ChainScalar(ctx, mul(left, right, ctx.mod, ctx.lo, ctx.hi), _clean=True)

    def scale_int(self, n: int) -> "ChainScalar":
        return ChainScalar(self.ctx, {e: c * n for e, c in self.coeffs.items()})

    def shift(self, d: int) -> "ChainScalar":
        """Multiply by x1^d (window-filtered)."""
        if d == 0:
            return self
        ctx = self.ctx
        out = {e + d: c for e, c in self.coeffs.items() if ctx.lo <= e + d <= ctx.hi}
        return ChainScalar(ctx, out, _clean=True)

    def min_exponent(self):
        return min(self.coeffs) if self.coeffs else None

    def divide_p_power(self, k: int) -> "ChainScalar":
        """Exact division of every stored coefficient by p^k."""
        if k == 0:
            return self
        q = self.ctx.p**k
        if any(c % q for c in self.coeffs.values()):
            raise InexactDivision(f"a coefficient is not divisible by {q}")
        return ChainScalar(self.ctx, {e: c // q for e, c in self.coeffs.items()}, _clean=True)


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


@dataclass
class ChainPresentation:
    """Rows = generators x2^0 .. x2^(m-1); columns = relation vectors."""

    ctx: ChainContext
    m: int
    columns: List[List[ChainScalar]]

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
        zero = ChainScalar.zero(self.ctx)
        if not self.columns:
            return [[zero] for _ in range(self.m)]
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
    shift down, which is loss-free.  Only the first n (active) columns set
    the shifts.  Passive columns past them move with their rows and are
    never shifted on their own.
    """
    for i, row in enumerate(work):
        s = min([e.min_exponent() for e in row[:n] if e.coeffs], default=0)
        if s:
            work[i] = [e.shift(-s) for e in row]
    for j in range(n):
        s = min([row[j].min_exponent() for row in work if row[j].coeffs], default=0)
        if s > 0:
            for row in work:
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
                if not entry.coeffs:
                    continue
                key = (*entry.pivot_key(), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best is None:
            exps.extend([M] * len(work))
            for row in work:
                for q, entry in enumerate(row[n:]):
                    if not entry.is_zero():
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
            if t.is_zero():
                continue
            tq = t.divide_p_power(e)
            # a zero entry on either side contributes nothing to its product
            work[i] = [zero] + [(unit * a if a.coeffs else a) - (tq * b if b.coeffs else b)
                                for a, b in zip(work[i][1:], row0[1:])]
        # the column pass clears the pivot row, which is dropped below, so its
        # entries are never built; below it column 0 is now zero, so the
        # column operation u*col_j - (t/p^e)*col_0 is the unit scaling alone
        for j in range(1, len(row0)):
            t = row0[j]
            if t.is_zero():
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
                if work[i][j].coeffs:
                    work[i][j] = unit * work[i][j]
        exps.append(min(e, M))
        n -= 1
        work = [row[1:] for row in work[1:]]
    exps.sort()
    return exps if queries is None else (exps, inside)


def presentation_length(pres: ChainPresentation) -> Tuple[int, List[int]]:
    exps = chain_snf(pres.rows(), pres.ctx)
    return sum(exps), exps


# ---------------------------------------------------------------------------
# drivers


def chain_default_radius(p: int, k: int) -> int:
    """Default x1-window radius for the chain-ring model at level k.

    The valuation-minimal coefficients of the deepest corner slices sit at
    x1-degree 2*(p^k + p^(k-2) + ...); a window inside that horizon cuts
    units off and measures the wrong module.  The horizon is not enough,
    though: at (unr, 3, 3) pinned radii 83-94 and 135-143, all above it,
    give wrong lengths.  The default, one factor of p past p^k, is only
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


@dataclass(frozen=True)
class LengthReport:
    case: CaseDescriptor
    k: int
    length: int
    exponents: Tuple[int, ...]
    chain_radius: int
    retried: bool


def _solve_corner(case: CaseDescriptor, k: int, ctx: SeriesContext) -> ThickenedSolution:
    """The depth-k tower, once each corner series is found w-free or a
    w-multiple throughout (see `_w_power`).  The check runs here, before the
    window driver, which would read its StructureViolation as a failed
    window and retry it at every radius."""
    sol = solve_thickened_recursion(case, k, ctx)
    for series in (sol.alpha, sol.beta):
        _w_power(series.coeffs.values())
    return sol


def _corner_slices(series: TruncSeries, cap: int, chain_ctx: ChainContext) -> List[ChainScalar]:
    return [ChainScalar.from_series(chain_ctx, series.x2_slice(j)) for j in range(cap)]


def _measure_at_radius(
    alpha: TruncSeries, beta: TruncSeries, p: int, k: int, radius: int
) -> Tuple[int, Tuple[int, ...]]:
    chain_ctx = ChainContext(p, 2 * k + 1, -radius, radius)
    a_slices = _corner_slices(alpha, p**k, chain_ctx)
    b_slices = _corner_slices(beta, p**k, chain_ctx)
    pres = ChainPresentation.from_corner_series(chain_ctx, p**k, a_slices, b_slices)
    total, exps = presentation_length(pres)
    return total, tuple(exps)


def quotient_length_details(
    case: CaseDescriptor,
    k: int,
    *,
    chain_radius: Optional[int] = None,
    precision_scale: int = 1,
) -> LengthReport:
    """Resolve the depth-k corner pair and measure the quotient module.

    The window truncation is a model artifact, so the measurement goes
    through `_stabilize`: it is repeated at doubled radii until two
    consecutive answers agree, and the confirmed answer is reported together
    with the radius that confirmed it (WindowExhausted past the ceiling).
    Passing chain_radius pins a single window instead (no stabilization
    loop) for probing.
    """
    p = case.p
    ctx = recursion_context(p, k, precision_scale=precision_scale)
    sol = _solve_corner(case, k, ctx)
    if chain_radius is not None:
        total, exps = _measure_at_radius(sol.alpha, sol.beta, p, k, chain_radius)
        return LengthReport(case, k, total, exps, chain_radius, False)
    base = chain_default_radius(p, k)
    radius, (total, exps) = _stabilize(
        lambda r: _measure_at_radius(sol.alpha, sol.beta, p, k, r), base, p, k
    )
    return LengthReport(case, k, total, exps, radius, radius > 2 * base)


def quotient_length(case: CaseDescriptor, k: int, **kwargs) -> int:
    return quotient_length_details(case, k, **kwargs).length


def vertical_multiplicity(case: str, p: int, c0: int, **kwargs) -> int:
    """Length of the special-fiber quotient on the vertical piece of case "unr" or "ram".

    Zero when c0 = 0 (no vertical piece); otherwise the measured quotient
    length, cross-checked against the closed form — disagreement raises.
    """
    label = _label(case, p, c0)
    if c0 == 0:
        return 0
    measured = quotient_length(CaseDescriptor.from_label(label, p), c0, **kwargs)
    expected = vertical_multiplicity_closed_form(p, c0)
    if measured != expected:
        raise ConsistencyFailure(
            f"vertical multiplicity mismatch at (case={label}, p={p}, c0={c0}): "
            f"measured {measured}, closed form {expected}"
        )
    return measured


# ---------------------------------------------------------------------------
# the structure-guided second oracle


def length_by_elimination(
    case: CaseDescriptor,
    k: int,
    *,
    chain_radius: Optional[int] = None,
) -> int:
    """Measure the quotient by peeling annulus chunks off the corner pair.

    At step j (starting from 0) the carrying side must have x2-degree-0
    coefficient of exact valuation k - j with invertible unit part; the other
    side is cleared below x2^(2*p^j) by exact eliminations against it, one
    chunk presented by the carrying side alone over 2*p^j generators is
    measured, and the cleared side is shifted down and becomes the carrier.
    After k steps the remaining corner must be an outright unit.

    Without an explicit chain_radius the measurement goes through the same
    confirm-or-raise driver as quotient_length_details; small windows can
    distort valuations enough to read as structure violations, so those also
    trigger a wider retry, and WindowExhausted is raised if no two radii
    agree below the ceiling.
    """
    p = case.p
    ctx = recursion_context(p, k)
    sol = _solve_corner(case, k, ctx)
    if chain_radius is not None:
        return _peel_at_radius(case, sol, k, chain_radius)
    _, total = _stabilize(
        lambda r: _peel_at_radius(case, sol, k, r), chain_default_radius(p, k), p, k
    )
    return total


def _peel_at_radius(
    case: CaseDescriptor, sol: ThickenedSolution, k: int, radius: int
) -> int:
    p = case.p
    chain_ctx = ChainContext(p, 2 * k + 1, -radius, radius)
    cap = p**k
    # the plain side (alpha) carries at even steps, the twisted side (beta) at odd ones
    sides = [_corner_slices(sol.alpha, cap, chain_ctx), _corner_slices(sol.beta, cap, chain_ctx)]
    total = 0
    for j in range(k):
        P, O = sides[j % 2], sides[1 - j % 2]
        v = P[0].p_valuation()
        if v != k - j:
            raise StructureViolation(
                f"peel step {j}: carrier corner valuation {v}, expected {k - j}"
            )
        unit = P[0].divide_p_power(v)
        if unit.p_valuation() != 0:
            raise StructureViolation(f"peel step {j}: carrier unit part not invertible")
        width = 2 * p**j
        for d in range(min(width, len(O))):
            t = O[d]
            if t.is_zero():
                continue
            # fraction-free elimination: O <- u*O - (t/p^v) * x2^d * P keeps
            # every product a single multiplication, hence an exact zero at
            # slice d; the extra unit factor on O never moves valuations
            tq = t.divide_p_power(v)
            O = [unit * o - tq * P[i - d] if 0 <= i - d < len(P) else unit * o for i, o in enumerate(O)]
            # every slice just picked up the same unit factor; pull the common
            # x1-power back out so supports cannot drift through the window
            # (a single monomial unit on the whole series, not per slice)
            common = min([s.min_exponent() for s in O if s.coeffs], default=0)
            if common > 0:
                O = [s.shift(-common) for s in O]
        if any(not s.is_zero() for s in O[:width]):
            raise StructureViolation(f"peel step {j}: low slices survived elimination")
        # one annulus chunk: the carrying side alone over 2*p^j generators
        cols = [_shift_column(P, t, width) for t in range(width)]
        chunk_rows = [[col[i] for col in cols] for i in range(width)]
        total += sum(chain_snf(chunk_rows, chain_ctx))
        sides[1 - j % 2] = O[width:] + [ChainScalar.zero(chain_ctx)] * width
    if sides[k % 2][0].p_valuation() != 0:
        raise StructureViolation("after peeling, the remaining corner is not a unit")
    return total


# ---------------------------------------------------------------------------
# annihilator memberships


def _monomial_column(ctx: ChainContext, m: int, x2_exp: int, p_exp: int) -> List[ChainScalar]:
    col = [ChainScalar.zero(ctx) for _ in range(m)]
    if 0 <= x2_exp < m:
        col[x2_exp] = ChainScalar.monomial(ctx, 0, ctx.p**p_exp)
    return col


def annihilator_report(
    case: CaseDescriptor,
    k: int,
    *,
    chain_radius: Optional[int] = None,
) -> Dict[str, bool]:
    """Membership table around the annihilator of the quotient module.

    In the official model (cap p^k, modulus 2k+1): the balanced x2-power and
    p^(2k) both lie in the corner ideal.  In a one-step-enlarged model (cap
    p^k + 1, modulus 2k+2), where they are visible, p^(2k+1) and x2^(p^k)
    lie in the maximal-ideal multiple of the ideal.  For k = 1 the bare x2
    must stay outside the ideal.

    Each model is eliminated once, with its monomials as passive query
    columns of `chain_snf`.  Without an explicit chain_radius the whole
    table goes through the same confirm-or-raise window driver as the
    lengths: it is recomputed at doubled radii until it repeats, and raises
    WindowExhausted if no two radii agree below the ceiling.  The anchor is
    the radius at which the plain length of the official model stabilizes;
    smaller windows can agree with each other while both are still
    distorted.  The table loop starts at anchor // 2: the anchor is a
    confirming radius, so anchor // 2 is never below the default radius and
    its official exponents are the stable ones.  The table is thus confirmed
    at the anchor by two consecutive radii that both carry the stable
    official exponents.  A pinned chain_radius below anchor // 2 is a probe
    of the truncated model, not a table of the module: there the passive
    decision and a comparison of lengths can differ.
    """
    p = case.p
    # one tower solve serves both models: the official one (cap p^k) reads
    # only the x2-slices below p^k, which the one extra slice never changes
    ctx = recursion_context(p, k).weakened(cap2=p**k + 1)
    sol = _solve_corner(case, k, ctx)
    alpha, beta = sol.alpha, sol.beta

    def model(radius: int, cap: int, modulus: int, maximal_multiple: bool, queries: List[Tuple[int, int]]):
        """Exponents and memberships of the monomials x2^i * p^j, one (i, j) per query."""
        chain = ChainContext(p, modulus, -radius, radius)
        pres = ChainPresentation.from_corner_series(
            chain, cap, _corner_slices(alpha, cap, chain),
            _corner_slices(beta, cap, chain), maximal_multiple=maximal_multiple,
        )
        cols = [_monomial_column(chain, cap, x2_exp, p_exp) for x2_exp, p_exp in queries]
        return chain_snf(pres.rows(), chain, queries=cols)

    balanced = sum(2 * p**i for i in range(k))
    official_queries = [(balanced, 0), (0, 2 * k)] + ([(1, 0)] if k == 1 else [])

    @lru_cache(maxsize=None)
    def official(radius: int):
        return model(radius, p**k, 2 * k + 1, False, official_queries)

    def table_at(radius: int) -> Dict[str, bool]:
        inside = official(radius)[1]
        out = {
            "balanced_x2_power_in_ideal": inside[0],
            "p_to_2k_in_ideal": inside[1],
        }
        if k == 1:
            out["bare_x2_outside_ideal"] = not inside[2]
        # enlarged model: one more x2 slice, one more digit
        enlarged = model(radius, p**k + 1, 2 * k + 2, True, [(0, 2 * k + 1), (p**k, 0)])[1]
        out["p_to_2k_plus_1_in_max_multiple"] = enlarged[0]
        out["x2_to_p_k_in_max_multiple"] = enlarged[1]
        return out

    if chain_radius is not None:
        return table_at(chain_radius)
    # passive queries never move the active pivots, and the cache hands the
    # official eliminations at anchor // 2 and anchor on to the table loop
    anchor, _ = _stabilize(lambda r: official(r)[0], chain_default_radius(p, k), p, k)
    return _stabilize(table_at, anchor // 2, p, k)[1]


def annihilator_check(case: CaseDescriptor, k: int, **kwargs) -> bool:
    """All annihilator memberships hold (see annihilator_report)."""
    return all(annihilator_report(case, k, **kwargs).values())
