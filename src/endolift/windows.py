"""Window-lifting recursions for quasi-endomorphism pairs.

The moving parts:

* helpers on 2x2 displays over `TruncSeries`, stored as pairs of rows;
* `CaseDescriptor` — which quadratic setting we are in (inert or ramified
  generator), together with the four structural parameters (a, b, c, d) kept
  as exact integer pairs so they materialize at any precision;
* the products of a display with M(x) = [[x, p], [1, 0]] and with its
  adjugate, written once as monomial shifts, integer scalings and additions,
  and shared by the lifting step and the commutation check;
* one lifting step, M(x) * sigma(X) * adj M(x), shared by the one-variable
  fixed-point solve and the two-variable tower;
* the closed form of the one-variable solve, and the tower, which stores its
  scaled pairs only and derives increments from them for the structure report.

Matrix convention everywhere: columns are inputs (the j-th column is the
image of the j-th basis vector), and the twist acts entrywise before the
matrix is applied.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .errors import Frozen, PrecisionExhausted, StructureViolation, WindowExhausted
from .inventory import _label
from .series import SeriesContext, TruncSeries, f_series, g_series
from .witt import WittScalar, nonresidue

__all__ = [
    "CaseDescriptor",
    "QuasiEndoPair",
    "ThickenedSolution",
    "VerticalSolution",
    "gamma_matrix",
    "integrality_predicate",
    "closed_form_vertical_pair",
    "check_phi_commutation",
    "solve_vertical_recursion",
    "solve_thickened_recursion",
    "structure_check",
    "structure_epsilon_degree",
    "one_variable_context",
    "recursion_context",
]

Mat = Tuple[Tuple[TruncSeries, ...], ...]
Pair = Tuple[int, int]


# ---------------------------------------------------------------------------
# matrix helpers


def mat_sub(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(A: Mat, n: int) -> Mat:
    return mat_map(A, lambda a: a.scale_int(n))


def mat_frobenius(A: Mat) -> Mat:
    return tuple(tuple(a.frobenius() for a in row) for row in A)


def mat_map(A: Mat, fn) -> Mat:
    return tuple(tuple(fn(a) for a in row) for row in A)


def mat_eq(A: Mat, B: Mat) -> bool:
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def mat_divide_exact(A: Mat, q: int) -> Mat:
    return mat_map(A, lambda a: a.divide_exact(q))


# ---------------------------------------------------------------------------
# case descriptors


class CaseDescriptor(Frozen):
    """Which quadratic setting we sit in, plus the structural parameters.

    The four parameters are exact integer pairs (n, m) standing for n + m*w;
    they materialize at any precision on demand.  For the inert case the
    generator acts through (a, 0, 0, d) with a - d a unit; for the ramified
    case through (0, b, sigma(b), 0) with b = sigma(b) = 1.
    """

    __slots__ = ("p", "ramified", "a", "b", "c", "d")

    def __init__(self, p: int, ramified: bool, a: Pair, b: Pair, c: Pair, d: Pair):
        init = object.__setattr__
        init(self, "p", p)
        init(self, "ramified", ramified)
        init(self, "a", a)
        init(self, "b", b)
        init(self, "c", c)
        init(self, "d", d)

    @classmethod
    def from_label(cls, label: str, p: int) -> "CaseDescriptor":
        """The descriptor of case "unr" or "ram" at the odd prime p."""
        if _label(label, p) == "ram":
            return cls(p, True, (0, 0), (1, 0), (1, 0), (0, 0))
        # generator eta = w, acting by w on the first line and -w on the second
        return cls(p, False, (0, 1), (0, 0), (0, 0), (0, -1))

    def with_gamma(self, s: int, t: int) -> "CaseDescriptor":
        """Parameters of s + t * generator in the same setting."""
        return CaseDescriptor(
            self.p,
            self.ramified,
            (s + t * self.a[0], t * self.a[1]),
            (t * self.b[0], t * self.b[1]),
            (t * self.c[0], t * self.c[1]),
            (s + t * self.d[0], t * self.d[1]),
        )

    def param_scalars(self, prec: int):
        p = self.p
        return tuple(WittScalar(p, prec, *q) for q in (self.a, self.b, self.c, self.d))

    def gamma_trace_norm(self, s: int, t: int) -> Tuple[int, int]:
        """Integer trace and norm of s + t * generator (generator^2 = r or p)."""
        sq = nonresidue(self.p) if not self.ramified else self.p
        return (2 * s, s * s - t * t * sq)


# ---------------------------------------------------------------------------
# quasi-endomorphism pairs


class QuasiEndoPair(Frozen):
    """A pair (Y, Z) of 2x2 displays stored scaled by p^denom_exp.

    The stored matrices are p^denom_exp times the true pair, which keeps all
    entries integral; denom_exp 0 means the pair itself is integral.
    """

    __slots__ = ("Y", "Z", "denom_exp")

    def __init__(self, Y: Mat, Z: Mat, denom_exp: int):
        init = object.__setattr__
        init(self, "Y", Y)
        init(self, "Z", Z)
        init(self, "denom_exp", denom_exp)

    # stated here, not inherited, so that the benchmark's probe finds it
    def __eq__(self, other):
        if other.__class__ is not QuasiEndoPair:
            return NotImplemented
        return self is other or (self.Y, self.Z, self.denom_exp) == (other.Y, other.Z, other.denom_exp)

    def __hash__(self):
        return hash((self.Y, self.Z, self.denom_exp))

    @property
    def ctx(self) -> SeriesContext:
        return self.Y[0][0].ctx

    def with_context(self, ctx: SeriesContext) -> "QuasiEndoPair":
        reduce = lambda a: a.with_context(ctx)
        return QuasiEndoPair(mat_map(self.Y, reduce), mat_map(self.Z, reduce), self.denom_exp)

    def normalized(self) -> "QuasiEndoPair":
        """Strip common p factors out of the stored scale."""
        Y, Z, e = self.Y, self.Z, self.denom_exp
        p = self.ctx.p
        while e > 0 and all(a.divisible_by(p) for M in (Y, Z) for row in M for a in row):
            Y = mat_divide_exact(Y, p)
            Z = mat_divide_exact(Z, p)
            e -= 1
        return QuasiEndoPair(Y, Z, e)

    def upper_right(self) -> Tuple[TruncSeries, TruncSeries]:
        return self.Y[0][1], self.Z[0][1]


def _constants(case: CaseDescriptor, ctx: SeriesContext):
    """`k(n, q)`, the constant series n*q, and `s`, the twist on a pair q."""
    if ctx.p != case.p:
        raise ValueError("context prime differs from case prime")
    k = lambda n, q: TruncSeries.constant(ctx, (n * q[0], n * q[1]))
    s = lambda q: (q[0], -q[1])
    return k, s


def gamma_matrix(case: CaseDescriptor, ctx: SeriesContext) -> QuasiEndoPair:
    """The undeformed pair of the generator: constant displays, no denominator,

        Y = [[a, p*b], [c, d]],   Z = [[s(d), p*s(c)], [s(b), s(a)]],

    with s the twist.
    """
    k, s = _constants(case, ctx)
    p, a, b, c, d = case.p, case.a, case.b, case.c, case.d
    Y = ((k(1, a), k(p, b)), (k(1, c), k(1, d)))
    Z = ((k(1, s(d)), k(p, s(c))), (k(1, s(b)), k(1, s(a))))
    return QuasiEndoPair(Y, Z, 0)


def integrality_predicate(a: WittScalar, b: WittScalar, c: WittScalar, d: WittScalar) -> bool:
    """Does the parameter quadruple give an integral (undeformed) pair?

    Concretely: p divides both a - d and c.  Below precision 1 every
    scalar reads 0 and nothing is certified: PrecisionExhausted.
    """
    if min(x.prec for x in (a, b, c, d)) < 1:
        raise PrecisionExhausted("integrality needs scalar precision at least 1")
    return (a - d).valuation() >= 1 and c.valuation() >= 1


# ---------------------------------------------------------------------------
# recursion contexts


def one_variable_context(p: int, *, prec: int = 8) -> SeriesContext:
    return SeriesContext(p, prec, -(p**4), p**4, 1)


def _check_depth(k: int) -> None:
    """The tower's depth rule, checked before any box of that depth is built."""
    if k < 1:
        raise ValueError(f"depth k must be at least 1, got k = {k}")


def recursion_context(p: int, k: int, *, precision_scale: int = 1) -> SeriesContext:
    """Declared working box for the depth-k tower: p-precision 2k+2,
    x1 window +-p^(2k+2), x2 cap p^k.  `precision_scale` multiplies the
    p-adic precision only — the box shape is part of the model and stays put.
    Below 1 it is a ValueError: at precision 0 every coefficient is 0.  A
    depth k below 1 is refused first, before p**k makes a box of it.
    """
    _check_depth(k)
    if precision_scale < 1:
        raise ValueError(f"precision scale must be >= 1, got {precision_scale}")
    prec = (2 * k + 2) * precision_scale
    radius = p ** (2 * k + 2)
    return SeriesContext(p, prec, -radius, radius, p**k)


def _m_product(A: Mat, var: Optional[str], side: str) -> Mat:
    """A display A = [[a, b], [c, d]] times M(x) = [[x, p], [1, 0]] or times
    adj M(x) = [[0, p], [1, -x]], with x the variable `var` (None for x = 0)
    and M(x) * adj M(x) = p * identity:

        side "left":  M(x) * A     = [[x*a + p*c, x*b + p*d], [a, b]]
        side "right": A * M(x)     = [[x*a + b, p*a], [x*c + d, p*c]]
        side "adj":   A * adj M(x) = [[b, p*a - x*b], [d, p*c - x*d]]

    Every factor is a monomial shift or an integer scaling.  A shift only
    raises exponents, so a term it pushes out of the window never returns,
    and the generic matrix product drops exactly the same terms.
    """
    (a, b), (c, d) = A
    p = a.ctx.p
    if var is None:  # x = 0, where "right" and "adj" agree
        if side == "left":
            return ((c.scale_int(p), d.scale_int(p)), (a, b))
        return ((b, a.scale_int(p)), (d, c.scale_int(p)))
    d1, d2 = {"x1": (1, 0), "x2": (0, 1)}[var]
    x = lambda s: s.mul_monomial(d1, d2)
    if side == "left":
        return ((x(a) + c.scale_int(p), x(b) + d.scale_int(p)), (a, b))
    if side == "right":
        return ((x(a) + b, a.scale_int(p)), (x(c) + d, c.scale_int(p)))
    return ((b, a.scale_int(p) - x(b)), (d, c.scale_int(p) - x(d)))


def _lift(X: Mat, var: Optional[str]) -> Mat:
    """One lifting step: M(x) * sigma(X) * adj M(x), with x the variable `var`
    (None for x = 0)."""
    return _m_product(_m_product(mat_frobenius(X), var, "left"), var, "adj")


def check_phi_commutation(pair: QuasiEndoPair, *, two_variable: bool) -> bool:
    """Both intertwining identities for the stored (scaled) pair:
    Y * M(x1) = M(x1) * sigma(Z) and Z * M(x2) = M(x2) * sigma(Y), with x2
    set to 0 when `two_variable` is false.

    Scaling by p^e is invisible here: the twist fixes p, so both sides pick
    up the same factor.
    """
    if pair.ctx.prec == 0:
        raise PrecisionExhausted("no digits left to certify commutation")
    x2 = "x2" if two_variable else None
    return mat_eq(
        _m_product(pair.Y, "x1", "right"), _m_product(mat_frobenius(pair.Z), "x1", "left")
    ) and mat_eq(_m_product(pair.Z, x2, "right"), _m_product(mat_frobenius(pair.Y), x2, "left"))


# ---------------------------------------------------------------------------
# the one-variable solve and its closed form


class VerticalSolution(Frozen):
    __slots__ = ("pair", "depth", "stabilized")

    def __init__(self, pair: QuasiEndoPair, depth: int, stabilized: bool):
        init = object.__setattr__
        init(self, "pair", pair)
        init(self, "depth", depth)
        init(self, "stabilized", stabilized)


def closed_form_vertical_pair(case: CaseDescriptor, ctx: SeriesContext) -> QuasiEndoPair:
    """The one-variable solution in closed form, stored at denominator 1.

    Stored matrices are p times the true pair; every entry below is integral
    even when the true lower-left of the twisted side is not.  With s the
    twist, f = f(x1), g = g(x1), f' = f(x1^p) and g' = g(x1^p):

        Y = [[p*a + p*c*f,  p^2*b + p*(d-a)*f - p*c*g],
             [p*c,          p*d - p*c*f]]
        Z = [[p*s(d) - p*s(c)*f',                    p^2*s(c)],
             [p*s(b) + s(d-a)*f' - s(c)*g',          p*s(a) + p*s(c)*f']]
    """
    k, s = _constants(case, ctx)
    p, a, b, c, d = case.p, case.a, case.b, case.c, case.d
    d_minus_a = (d[0] - a[0], d[1] - a[1])
    f, g = f_series(ctx, 1), g_series(ctx, 1)
    fp, gp = f_series(ctx, p), g_series(ctx, p)
    pcf = k(p, c) * f
    pscfp = k(p, s(c)) * fp
    Y = (
        (k(p, a) + pcf, k(p * p, b) + k(p, d_minus_a) * f - k(p, c) * g),
        (k(p, c), k(p, d) - pcf),
    )
    Z = (
        (k(p, s(d)) - pscfp, k(p * p, s(c))),
        (k(p, s(b)) + k(1, s(d_minus_a)) * fp - k(1, s(c)) * gp, k(p, s(a)) + pscfp),
    )
    return QuasiEndoPair(Y, Z, 1)


# steps the one-variable iteration may take before it must have stabilized
_MAX_DEPTH = 24


def solve_vertical_recursion(case: CaseDescriptor, ctx: SeriesContext) -> VerticalSolution:
    """Iterate the one-variable update from the undeformed pair to a fixed point.

    The iteration runs on the scaled pair (p*Y, p*Z); each step performs one
    checked exact division by p, which costs one trustworthy digit, so the
    whole loop is carried at `_MAX_DEPTH` guard digits and compared at the
    declared precision.  Exact stabilization there is required — hitting
    `_MAX_DEPTH` first raises WindowExhausted.  At precision 0 every pair is
    the zero pair, so nothing is certified: PrecisionExhausted.
    """
    if ctx.prec == 0:
        raise PrecisionExhausted("no digits left to certify a fixed point")
    p = case.p
    work = ctx.weakened(prec=ctx.prec + _MAX_DEPTH)
    base = gamma_matrix(case, work)
    Ys, Zs = mat_scale(base.Y, p), mat_scale(base.Z, p)
    seen = QuasiEndoPair(Ys, Zs, 1).with_context(ctx)
    for depth in range(1, _MAX_DEPTH + 1):
        nY = mat_divide_exact(_lift(Zs, "x1"), p)
        nZ = mat_divide_exact(_lift(Ys, None), p)
        candidate = QuasiEndoPair(nY, nZ, 1).with_context(ctx)
        if candidate == seen:
            return VerticalSolution(candidate.normalized(), depth - 1, True)
        Ys, Zs = nY, nZ
        seen = candidate
    raise WindowExhausted(
        f"one-variable iteration did not stabilize within {_MAX_DEPTH} steps"
    )


# ---------------------------------------------------------------------------
# the two-variable tower


class ThickenedSolution(Frozen):
    """The depth-k scaled tower and its corner series.

    pairs[j] stores p^max(j,1) times the j-th solution, and (alpha, beta)
    are the upper-right corners of the stored level-k pair.
    """

    __slots__ = ("case", "k", "ctx", "pairs", "alpha", "beta")

    def __init__(self, case: CaseDescriptor, k: int, ctx: SeriesContext,
                 pairs: Tuple[QuasiEndoPair, ...], alpha: TruncSeries, beta: TruncSeries):
        init = object.__setattr__
        init(self, "case", case)
        init(self, "k", k)
        init(self, "ctx", ctx)
        init(self, "pairs", pairs)
        init(self, "alpha", alpha)
        init(self, "beta", beta)

    def increment(self, side: str, level: int) -> Mat:
        """The exact level-`level` difference on side "y" or "z", 1 <= level <= k:
        pairs[1] - pairs[0] at level 1 and pairs[l] - p * pairs[l-1] above.

        Reduction mod p^prec is a ring map, so taking the difference of the
        reduced pairs gives the reduced difference of the guarded ones.
        """
        pick = {"y": lambda q: q.Y, "z": lambda q: q.Z}.get(side)
        if pick is None or not 1 <= level <= self.k:
            raise ValueError(f"no level-{level} increment on side {side!r}")
        lo = pick(self.pairs[level - 1])
        return mat_sub(pick(self.pairs[level]), lo if level == 1 else mat_scale(lo, self.ctx.p))


def solve_thickened_recursion(
    case: CaseDescriptor,
    k: int,
    ctx: Optional[SeriesContext] = None,
) -> ThickenedSolution:
    """Run the two-variable tower to depth k on scaled pairs.

    Level 0 is the one-variable closed form (denominator 1); the single
    checked division by p happens on the 0 -> 1 step, after which the scaled
    update is division-free.  All results are reduced to the declared context
    at the end; internally one guard digit is carried so that the division
    leaves every declared digit trustworthy.
    """
    _check_depth(k)
    if ctx is None:
        ctx = recursion_context(case.p, k)
    p = case.p
    work = ctx.weakened(prec=ctx.prec + 1)

    scaled: List[QuasiEndoPair] = [closed_form_vertical_pair(case, work)]
    for j in range(k):
        A, B = _lift(scaled[j].Z, "x1"), _lift(scaled[j].Y, "x2")
        if j == 0:
            # stored level 0 already carries one p; shed the extra factor
            A, B = mat_divide_exact(A, p), mat_divide_exact(B, p)
        scaled.append(QuasiEndoPair(A, B, j + 1))

    # reduce back to the declared precision
    pairs = tuple(q.with_context(ctx) for q in scaled)
    alpha, beta = pairs[k].upper_right()
    return ThickenedSolution(case, k, ctx, pairs, alpha, beta)


# ---------------------------------------------------------------------------
# structure report


def structure_epsilon_degree(p: int, level: int) -> int:
    """x2-degree of the product of squared twist-orbits feeding level `level`:
    sum of 2*p^i over i < level with i even (level odd) or odd (level even)."""
    want = 0 if level % 2 == 1 else 1
    return sum(2 * p**i for i in range(level) if i % 2 == want)


class StructureClause(Frozen):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        init = object.__setattr__
        init(self, "name", name)
        init(self, "ok", ok)
        init(self, "detail", detail)


class StructureReport(Frozen):
    __slots__ = ("case", "k", "clauses")

    def __init__(self, case: CaseDescriptor, k: int, clauses: Tuple[StructureClause, ...]):
        init = object.__setattr__
        init(self, "case", case)
        init(self, "k", k)
        init(self, "clauses", clauses)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)


def structure_check(solution: ThickenedSolution, *, raise_on_failure: bool = True) -> StructureReport:
    """Verify the increment structure of the tower, clause by clause.

    Level 0: the plain corner is x2-free and a unit-bearer mod p, and the
    twisted corner is divisible by p.  Level l >= 1: the off-parity increment
    vanishes, the carrying increment is divisible by x2^(p^(l-1)), and its
    upper-right corner mod p is a single x2-monomial of the predicted degree
    with a nonzero series coefficient; the full-precision remainder off that
    slice is p-divisible and keeps the same x2-divisibility.
    """
    case, k, ctx = solution.case, solution.k, solution.ctx
    p = ctx.p
    clauses: List[StructureClause] = []

    def add(name, ok, detail=""):
        clauses.append(StructureClause(name, ok, detail))

    # the level-0 pair is stored with one spare factor of p on both corners
    y0s, z0s = solution.pairs[0].upper_right()
    y0 = y0s.divide_exact(p)
    z0 = z0s.divide_exact(p)
    y0_bar = y0.reduce_mod_p()
    add(
        "base[y0]",
        (not y0_bar.is_zero()) and all(m2 == 0 for (_, m2) in y0.coeffs),
        "plain corner at level 0: x2-free, nonzero mod p",
    )
    add("base[z0]", z0.divisible_by(p), "twisted corner at level 0 is p-divisible")

    for l in range(1, k + 1):
        if l % 2 == 1:
            off = solution.increment("y", l)
            carrier = solution.increment("z", l)
            side = "Z"
        else:
            off = solution.increment("z", l)
            carrier = solution.increment("y", l)
            side = "Y"
        vanishes = all(e.is_zero() for row in off for e in row)
        add(f"vanishing[l={l}]", vanishes, f"off-parity increment at level {l}")

        need = p ** (l - 1)
        div_ok = all(
            e.is_zero() or (e.min_x2_degree() or 0) >= need
            for row in carrier
            for e in row
        )
        add(f"divisibility[{side},l={l}]", div_ok, f"x2^{need} divides every entry")

        w = carrier[0][1]
        e_deg = structure_epsilon_degree(p, l)
        wbar = w.reduce_mod_p()
        mono_ok = (not wbar.is_zero()) and all(m2 == e_deg for (_, m2) in wbar.coeffs)
        add(
            f"leading[{side},l={l}]",
            mono_ok,
            f"mod p the corner is a nonzero multiple of x2^{e_deg}",
        )
        u_full = w.x2_slice(e_deg)
        rem = w - u_full.mul_monomial(0, e_deg)
        rem_ok = rem.divisible_by(p) and (
            rem.is_zero() or (rem.min_x2_degree() or 0) >= need
        )
        add(
            f"remainder[{side},l={l}]",
            rem_ok,
            f"off-slice part is p-divisible with x2-order >= {need}",
        )

    report = StructureReport(case, k, tuple(clauses))
    if raise_on_failure and not report.ok:
        failed = ", ".join(c.name for c in report.clauses if not c.ok)
        raise StructureViolation(f"clauses failed: {failed}")
    return report
