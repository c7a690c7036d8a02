"""Displays and window-lifting recursions for quasi-endomorphism pairs.

The moving parts:

* small matrix helpers over `TruncSeries` (tuples of tuples, any square size);
* `CaseDescriptor` — which quadratic setting we are in (inert or ramified
  generator), together with the four structural parameters (a, b, c, d) kept
  as exact integer pairs so they materialize at any precision;
* universal displays in one and two variables, their specializations, and the
  leading minor ideal read off from them;
* the one-variable fixed-point solve, its closed form, and the two-variable
  tower with its scaled denominators, increments, and structure report.

Matrix convention everywhere: columns are inputs (the j-th column is the
image of the j-th basis vector), and the twist acts entrywise before the
matrix is applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import (
    InexactDivision,
    PrecisionExhausted,
    StructureViolation,
)
from .inventory import _case_label
from .series import SeriesContext, TruncSeries, f_series, g_series
from .witt import WittScalar

__all__ = [
    "CaseDescriptor",
    "DisplayingMatrix",
    "QuasiEndoPair",
    "HasseWittIdeal",
    "ThickenedSolution",
    "VerticalSolution",
    "universal_display",
    "tensor_square_embedding",
    "hasse_witt_ideal",
    "gamma_matrix",
    "integrality_predicate",
    "closed_form_vertical_pair",
    "check_phi_commutation",
    "solve_vertical_recursion",
    "solve_thickened_recursion",
    "alpha_beta",
    "structure_check",
    "structure_epsilon_degree",
    "one_variable_context",
    "recursion_context",
]

Mat = Tuple[Tuple[TruncSeries, ...], ...]
Pair = Tuple[int, int]


# ---------------------------------------------------------------------------
# matrix helpers


def mat_from_rows(rows) -> Mat:
    return tuple(tuple(row) for row in rows)


def mat_add(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_mul(A: Mat, B: Mat) -> Mat:
    n = len(A)
    m = len(B[0])
    inner = len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = A[i][0] * B[0][j]
            for t in range(1, inner):
                s = s + A[i][t] * B[t][j]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_scale(A: Mat, c) -> Mat:
    """Scale by an int or a WittScalar."""
    return tuple(tuple(a * c for a in row) for row in A)


def mat_series_scale(A: Mat, s: TruncSeries) -> Mat:
    return tuple(tuple(a * s for a in row) for row in A)


def mat_frobenius(A: Mat) -> Mat:
    return tuple(tuple(a.frobenius() for a in row) for row in A)


def mat_map(A: Mat, fn) -> Mat:
    return tuple(tuple(fn(a) for a in row) for row in A)


def mat_eq(A: Mat, B: Mat) -> bool:
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def mat_is_zero(A: Mat) -> bool:
    return all(a.is_zero() for row in A for a in row)


def mat_divisible_by(A: Mat, q: int) -> bool:
    return all(a.divisible_by(q) for row in A for a in row)


def mat_divide_exact(A: Mat, q: int) -> Mat:
    return mat_map(A, lambda a: a.divide_exact(q))


def mat_with_context(A: Mat, ctx: SeriesContext) -> Mat:
    return mat_map(A, lambda a: a.with_context(ctx))


def _const(ctx: SeriesContext, pair: Pair) -> TruncSeries:
    return TruncSeries.constant(ctx, pair)


# ---------------------------------------------------------------------------
# case descriptors


@dataclass(frozen=True)
class CaseDescriptor:
    """Which quadratic setting we sit in, plus the structural parameters.

    The four parameters are exact integer pairs (n, m) standing for n + m*w;
    they materialize at any precision on demand.  For the inert case the
    generator acts through (a, 0, 0, d) with a - d a unit; for the ramified
    case through (0, b, sigma(b), 0) with b a unit.
    """

    p: int
    ramified: bool
    a: Pair
    b: Pair
    c: Pair
    d: Pair

    @classmethod
    def unramified(cls, p: int) -> "CaseDescriptor":
        # generator eta = w, acting by w on the first line and -w on the second
        return cls(p, False, (0, 1), (0, 0), (0, 0), (0, -1))

    @classmethod
    def ramified_case(cls, p: int, b: Pair = (1, 0)) -> "CaseDescriptor":
        return cls(p, True, (0, 0), b, (b[0], -b[1]), (0, 0))

    @classmethod
    def from_label(cls, label: str, p: int) -> "CaseDescriptor":
        return cls.ramified_case(p) if _case_label(label) == "ram" else cls.unramified(p)

    @property
    def label(self) -> str:
        return "ram" if self.ramified else "unr"

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
        from .witt import nonresidue

        sq = nonresidue(self.p) if not self.ramified else self.p
        return (2 * s, s * s - t * t * sq)


# ---------------------------------------------------------------------------
# universal displays and the leading minor ideal


@dataclass(frozen=True)
class DisplayingMatrix:
    """A square display over a series context (columns are inputs)."""

    ctx: SeriesContext
    entries: Mat

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def specialize_zero(self) -> "DisplayingMatrix":
        """Set every deformation variable to zero."""
        out = mat_map(self.entries, lambda e: TruncSeries(
            self.ctx, {k: v for k, v in e.coeffs.items() if k == (0, 0)}
        ))
        return DisplayingMatrix(self.ctx, out)


def universal_display(p: int, nvars: int, ctx: Optional[SeriesContext] = None) -> DisplayingMatrix:
    """The universal display: 2x2 for one variable, 4x4 for two."""
    if ctx is None:
        ctx = SeriesContext(p, 2, -4, 4, 4 if nvars == 2 else 1)
    zero = TruncSeries.zero(ctx)
    one = TruncSeries.one(ctx)
    x1 = TruncSeries.variable(ctx, "x1")
    if nvars == 1:
        rows = [[x1, one], [one, zero]]
    elif nvars == 2:
        x2 = TruncSeries.variable(ctx, "x2")
        rows = [
            [zero, x1, zero, one],
            [x2, zero, one, zero],
            [zero, one, zero, zero],
            [one, zero, zero, zero],
        ]
    else:
        raise ValueError("nvars must be 1 or 2")
    return DisplayingMatrix(ctx, mat_from_rows(rows))


def tensor_square_embedding(d: DisplayingMatrix) -> DisplayingMatrix:
    """Blockwise substitution a_ij -> a_ij * S with S the 2x2 flip.

    Doubling a one-variable display this way lands exactly on the diagonal
    specialization of the two-variable display.
    """
    if d.dimension != 2:
        raise ValueError("tensor embedding starts from a 2x2 display")
    ctx = d.ctx
    z = TruncSeries.zero(ctx)
    S = ((z, TruncSeries.one(ctx)), (TruncSeries.one(ctx), z))
    n = 4
    entries = [[z for _ in range(n)] for _ in range(n)]
    for i in range(2):
        for j in range(2):
            for u in range(2):
                for v in range(2):
                    entries[2 * i + u][2 * j + v] = d.entries[i][j] * S[u][v]
    return DisplayingMatrix(ctx, mat_from_rows(entries))


@dataclass(frozen=True)
class HasseWittIdeal:
    """The ideal (p, generator) cut out by the leading minor of a display."""

    p: int
    generator: TruncSeries

    def __repr__(self):
        gen = "0" if self.generator.is_zero() else self.generator.dump().replace("\n", ", ")
        return f"HasseWittIdeal(p={self.p}, gen=[{gen}])"


def _det2(A: Mat) -> TruncSeries:
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def hasse_witt_ideal(display: DisplayingMatrix) -> HasseWittIdeal:
    """Determinant of the upper-left half-size block, leading-unit normalized."""
    n = display.dimension
    if n % 2:
        raise ValueError("display dimension must be even")
    h = n // 2
    block = tuple(tuple(display.entries[i][j] for j in range(h)) for i in range(h))
    if h == 1:
        det = block[0][0]
    elif h == 2:
        det = _det2(block)
    else:
        raise ValueError("only 2x2 and 4x4 displays are supported")
    ctx = display.ctx
    if det.is_zero():
        return HasseWittIdeal(ctx.p, det)
    # normalize: scale by the inverse of the first unit coefficient in
    # (total degree, m1) order, so x1*x2-shaped generators come out monic
    best = None
    for (m1, m2), pair in det.coeffs.items():
        if pair[0] % ctx.p or pair[1] % ctx.p:
            key = (m1 + m2, m1, m2)
            if best is None or key < best[0]:
                best = (key, pair)
    if best is not None:
        from .witt import pair_inv

        inv = pair_inv(best[1], ctx.p, ctx.r, ctx.mod)
        det = det.scale(inv)
    return HasseWittIdeal(ctx.p, det)


# ---------------------------------------------------------------------------
# quasi-endomorphism pairs


@dataclass(frozen=True)
class QuasiEndoPair:
    """A pair (Y, Z) of 2x2 displays stored scaled by p^denom_exp.

    The stored matrices are p^denom_exp times the true pair, which keeps all
    entries integral; denom_exp 0 means the pair itself is integral.
    """

    Y: Mat
    Z: Mat
    denom_exp: int

    @property
    def ctx(self) -> SeriesContext:
        return self.Y[0][0].ctx

    def with_context(self, ctx: SeriesContext) -> "QuasiEndoPair":
        return QuasiEndoPair(
            mat_with_context(self.Y, ctx), mat_with_context(self.Z, ctx), self.denom_exp
        )

    def normalized(self) -> "QuasiEndoPair":
        """Strip common p factors out of the stored scale."""
        Y, Z, e = self.Y, self.Z, self.denom_exp
        p = self.ctx.p
        while e > 0 and mat_divisible_by(Y, p) and mat_divisible_by(Z, p):
            Y = mat_divide_exact(Y, p)
            Z = mat_divide_exact(Z, p)
            e -= 1
        return QuasiEndoPair(Y, Z, e)

    def upper_right(self) -> Tuple[TruncSeries, TruncSeries]:
        return self.Y[0][1], self.Z[0][1]

    def __eq__(self, other):
        if not isinstance(other, QuasiEndoPair):
            return NotImplemented
        return (
            self.denom_exp == other.denom_exp
            and mat_eq(self.Y, other.Y)
            and mat_eq(self.Z, other.Z)
        )


def gamma_matrix(case: CaseDescriptor, ctx: SeriesContext) -> QuasiEndoPair:
    """The undeformed pair of the generator: constant displays, no denominator."""
    if ctx.p != case.p:
        raise ValueError("context prime differs from case prime")
    p = case.p
    a, b, c, d = case.a, case.b, case.c, case.d
    sig = lambda q: (q[0], -q[1])
    Y = mat_from_rows(
        [
            [_const(ctx, a), _const(ctx, (p * b[0], p * b[1]))],
            [_const(ctx, c), _const(ctx, d)],
        ]
    )
    Z = mat_from_rows(
        [
            [_const(ctx, sig(d)), _const(ctx, (p * c[0], -p * c[1]))],
            [_const(ctx, sig(b)), _const(ctx, sig(a))],
        ]
    )
    return QuasiEndoPair(Y, Z, 0)


def integrality_predicate(a: WittScalar, b: WittScalar, c: WittScalar, d: WittScalar) -> bool:
    """Does the parameter quadruple give an integral (undeformed) pair?

    Concretely: p divides both a - d and c.
    """
    return (a - d).valuation() >= 1 and c.valuation() >= 1


# ---------------------------------------------------------------------------
# recursion contexts


def one_variable_context(p: int, *, prec: int = 8, radius: Optional[int] = None) -> SeriesContext:
    if radius is None:
        radius = p**4
    return SeriesContext(p, prec, -radius, radius, 1)


def recursion_context(p: int, k: int, *, precision_scale: int = 1) -> SeriesContext:
    """Declared working box for the depth-k tower: p-precision 2k+2,
    x1 window +-p^(2k+2), x2 cap p^k.  `precision_scale` multiplies the
    p-adic precision only — the box shape is part of the model and stays put.
    """
    prec = (2 * k + 2) * precision_scale
    radius = p ** (2 * k + 2)
    return SeriesContext(p, prec, -radius, radius, p**k)


def _m_matrix(ctx: SeriesContext, var: Optional[str]) -> Mat:
    x = TruncSeries.variable(ctx, var) if var else TruncSeries.zero(ctx)
    p = TruncSeries.constant(ctx, ctx.p)
    return mat_from_rows([[x, p], [TruncSeries.one(ctx), TruncSeries.zero(ctx)]])


def _m_adjoint(ctx: SeriesContext, var: Optional[str]) -> Mat:
    # the complementary factor: M(x) * M_adj(x) = p * identity
    x = TruncSeries.variable(ctx, var) if var else TruncSeries.zero(ctx)
    p = TruncSeries.constant(ctx, ctx.p)
    return mat_from_rows([[TruncSeries.zero(ctx), p], [TruncSeries.one(ctx), -x]])


def check_phi_commutation(pair: QuasiEndoPair, *, two_variable: bool) -> bool:
    """Both intertwining identities for the stored (scaled) pair.

    Scaling by p^e is invisible here: the twist fixes p, so both sides pick
    up the same factor.
    """
    ctx = pair.ctx
    if ctx.prec == 0:
        raise PrecisionExhausted("no digits left to certify commutation")
    M1 = _m_matrix(ctx, "x1")
    M2 = _m_matrix(ctx, "x2" if two_variable else None)
    lhs1 = mat_mul(pair.Y, M1)
    rhs1 = mat_mul(M1, mat_frobenius(pair.Z))
    if not mat_eq(lhs1, rhs1):
        return False
    lhs2 = mat_mul(pair.Z, M2)
    rhs2 = mat_mul(M2, mat_frobenius(pair.Y))
    return mat_eq(lhs2, rhs2)


# ---------------------------------------------------------------------------
# the one-variable solve and its closed form


@dataclass(frozen=True)
class VerticalSolution:
    pair: QuasiEndoPair
    depth: int
    stabilized: bool


def closed_form_vertical_pair(case: CaseDescriptor, ctx: SeriesContext) -> QuasiEndoPair:
    """The one-variable solution in closed form, stored at denominator 1.

    Stored matrices are p times the true pair; every entry below is integral
    even when the true lower-left of the twisted side is not.
    """
    p = case.p
    a, b, c, d = case.a, case.b, case.c, case.d
    sig = lambda q: (q[0], -q[1])
    d_minus_a = (d[0] - a[0], d[1] - a[1])
    f1 = f_series(ctx, "x1", 1)
    g1 = g_series(ctx, "x1", 1)
    fp = f_series(ctx, "x1", p)
    gp = g_series(ctx, "x1", p)

    base = gamma_matrix(case, ctx)
    pY = mat_scale(base.Y, p)
    pZ = mat_scale(base.Z, p)

    zero = TruncSeries.zero(ctx)
    # p * (f-correction of the plain side)
    corr_y_f = mat_from_rows(
        [
            [_const(ctx, (p * c[0], p * c[1])), _const(ctx, (p * d_minus_a[0], p * d_minus_a[1]))],
            [zero, _const(ctx, (-p * c[0], -p * c[1]))],
        ]
    )
    corr_y_g = mat_from_rows(
        [
            [zero, _const(ctx, (p * c[0], p * c[1]))],
            [zero, zero],
        ]
    )
    sc = sig(c)
    sdma = sig(d_minus_a)
    corr_z_f = mat_from_rows(
        [
            [_const(ctx, (-p * sc[0], -p * sc[1])), zero],
            [_const(ctx, sdma), _const(ctx, (p * sc[0], p * sc[1]))],
        ]
    )
    corr_z_g = mat_from_rows(
        [
            [zero, zero],
            [_const(ctx, sc), zero],
        ]
    )
    Y = mat_add(pY, mat_sub(mat_series_scale(corr_y_f, f1), mat_series_scale(corr_y_g, g1)))
    Z = mat_add(pZ, mat_sub(mat_series_scale(corr_z_f, fp), mat_series_scale(corr_z_g, gp)))
    return QuasiEndoPair(Y, Z, 1)


def solve_vertical_recursion(
    case: CaseDescriptor,
    ctx: Optional[SeriesContext] = None,
    *,
    max_depth: int = 24,
) -> VerticalSolution:
    """Iterate the one-variable update from the undeformed pair to a fixed point.

    The iteration runs on the scaled pair (p*Y, p*Z); each step performs one
    checked exact division by p, which costs one trustworthy digit, so the
    whole loop is carried at `max_depth` guard digits and compared at the
    declared precision.  Exact stabilization there is required — hitting
    max_depth first raises.
    """
    if ctx is None:
        ctx = one_variable_context(case.p)
    p = case.p
    work = ctx.weakened(prec=ctx.prec + max_depth)
    base = gamma_matrix(case, work)
    Ys, Zs = mat_scale(base.Y, p), mat_scale(base.Z, p)
    M1, A1 = _m_matrix(work, "x1"), _m_adjoint(work, "x1")
    M0, A0 = _m_matrix(work, None), _m_adjoint(work, None)
    seen = QuasiEndoPair(Ys, Zs, 1).with_context(ctx)
    for depth in range(1, max_depth + 1):
        nY = mat_divide_exact(mat_mul(mat_mul(M1, mat_frobenius(Zs)), A1), p)
        nZ = mat_divide_exact(mat_mul(mat_mul(M0, mat_frobenius(Ys)), A0), p)
        candidate = QuasiEndoPair(nY, nZ, 1).with_context(ctx)
        if candidate == seen:
            return VerticalSolution(candidate.normalized(), depth - 1, True)
        Ys, Zs = nY, nZ
        seen = candidate
    raise InexactDivision(
        f"one-variable iteration did not stabilize within {max_depth} steps"
    )


# ---------------------------------------------------------------------------
# the two-variable tower


@dataclass(frozen=True)
class ThickenedSolution:
    """The depth-k scaled tower with its increments and corner series.

    pairs[j] stores p^max(j,1) times the j-th solution; increments are the
    exact differences (integral from level 1 on), and (alpha, beta) are the
    upper-right corners of the stored level-k pair.
    """

    case: CaseDescriptor
    k: int
    ctx: SeriesContext
    pairs: Tuple[QuasiEndoPair, ...]
    increments_y: Tuple[Optional[Mat], ...]
    increments_z: Tuple[Optional[Mat], ...]
    alpha: TruncSeries
    beta: TruncSeries

    def increment(self, side: str, level: int) -> Mat:
        inc = (self.increments_y if side == "y" else self.increments_z)[level]
        if inc is None:
            raise ValueError(f"no level-{level} increment on side {side}")
        return inc


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
    if k < 1:
        raise ValueError("depth k must be at least 1")
    if ctx is None:
        ctx = recursion_context(case.p, k)
    p = case.p
    work = ctx.weakened(prec=ctx.prec + 1)
    M1, A1 = _m_matrix(work, "x1"), _m_adjoint(work, "x1")
    M2, A2 = _m_matrix(work, "x2"), _m_adjoint(work, "x2")

    scaled: List[QuasiEndoPair] = [closed_form_vertical_pair(case, work)]
    for j in range(k):
        prev = scaled[j]
        A = mat_mul(mat_mul(M1, mat_frobenius(prev.Z)), A1)
        B = mat_mul(mat_mul(M2, mat_frobenius(prev.Y)), A2)
        if j == 0:
            # stored level 0 already carries one p; shed the extra factor
            A = mat_divide_exact(A, p)
            B = mat_divide_exact(B, p)
        scaled.append(QuasiEndoPair(A, B, max(j + 1, 1)))

    inc_y: List[Optional[Mat]] = [None]
    inc_z: List[Optional[Mat]] = [None]
    for l in range(1, k + 1):
        if l == 1:
            dy = mat_sub(scaled[1].Y, scaled[0].Y)
            dz = mat_sub(scaled[1].Z, scaled[0].Z)
        else:
            dy = mat_sub(scaled[l].Y, mat_scale(scaled[l - 1].Y, p))
            dz = mat_sub(scaled[l].Z, mat_scale(scaled[l - 1].Z, p))
        inc_y.append(dy)
        inc_z.append(dz)

    # reduce everything back to the declared precision
    pairs = tuple(q.with_context(ctx) for q in scaled)
    inc_y_r = tuple(None if m is None else mat_with_context(m, ctx) for m in inc_y)
    inc_z_r = tuple(None if m is None else mat_with_context(m, ctx) for m in inc_z)
    alpha, beta = pairs[k].upper_right()
    return ThickenedSolution(case, k, ctx, pairs, inc_y_r, inc_z_r, alpha, beta)


def alpha_beta(case: CaseDescriptor, k: int, ctx: Optional[SeriesContext] = None):
    """The two corner series of the stored level-k pair (plus the solution)."""
    sol = solve_thickened_recursion(case, k, ctx)
    return sol.alpha, sol.beta, sol


# ---------------------------------------------------------------------------
# structure report


def structure_epsilon_degree(p: int, level: int) -> int:
    """x2-degree of the product of squared twist-orbits feeding level `level`:
    sum of 2*p^i over i < level with i even (level odd) or odd (level even)."""
    want = 0 if level % 2 == 1 else 1
    return sum(2 * p**i for i in range(level) if i % 2 == want)


@dataclass(frozen=True)
class StructureClause:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class StructureReport:
    case: CaseDescriptor
    k: int
    clauses: Tuple[StructureClause, ...]

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
        add(f"vanishing[l={l}]", mat_is_zero(off), f"off-parity increment at level {l}")

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
