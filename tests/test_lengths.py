"""Tests for chain-ring arithmetic, SNF measurement, and quotient lengths."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from endolift import lengths
from endolift.errors import (
    ConsistencyFailure,
    InexactDivision,
    StructureViolation,
    WindowExhausted,
)
from endolift.lengths import (
    ChainContext,
    ChainPresentation,
    ChainScalar,
    annihilator_check,
    annihilator_report,
    chain_default_radius,
    chain_snf,
    length_by_elimination,
    _stabilize,
    quotient_length,
    quotient_length_details,
    vertical_multiplicity,
)
from endolift.inventory import (
    conductor,
    intersection_number,
    keating_threshold,
    level_degree,
    special_fiber_length,
    total_proper_closed_form,
    unit_index,
    vertical_multiplicity_closed_form,
    vertical_multiplicity_terms,
)
from endolift.windows import (
    CaseDescriptor,
    ThickenedSolution,
    one_variable_context,
    recursion_context,
    solve_thickened_recursion,
    solve_vertical_recursion,
)
from endolift.series import TruncSeries, f_series
from endolift.witt import nonresidue, pair_add, pair_mul, pair_val

CTX = ChainContext(3, 4, -12, 12)

PINNED_WINDOWS = {
    ("unr", 3, 1): (2, (0, 1, 1), 36, False),
    ("ram", 3, 1): (2, (0, 1, 1), 36, False),
    ("unr", 5, 1): (2, (0, 0, 0, 1, 1), 100, False),
    ("ram", 5, 1): (2, (0, 0, 0, 1, 1), 100, False),
    ("unr", 3, 2): (10, (0,) * 3 + (1,) * 4 + (3,) * 2, 108, False),
    ("ram", 3, 2): (10, (0,) * 3 + (1,) * 4 + (3,) * 2, 432, True),
    ("unr", 5, 2): (14, (0,) * 15 + (1,) * 8 + (3,) * 2, 500, False),
    ("ram", 5, 2): (14, (0,) * 15 + (1,) * 8 + (3,) * 2, 1000, True),
    ("unr", 3, 3): (36, (0,) * 7 + (1,) * 14 + (3,) * 4 + (5,) * 2, 324, False),
}

# the radius at which the peel route (length_by_elimination) confirms its
# chunk tuple: 2 * chain_default_radius, the least radius the window driver
# can confirm at, on every cell but (ram, 3, 3), where radius 162 gives no
# value (the cleared side leaves no unit) and 324 confirms nothing before it
PINNED_PEEL_RADII = {
    ("unr", 3, 1): 36,
    ("ram", 3, 1): 36,
    ("unr", 5, 1): 100,
    ("ram", 5, 1): 100,
    ("unr", 3, 2): 108,
    ("ram", 3, 2): 108,
    ("unr", 5, 2): 500,
    ("ram", 5, 2): 500,
    ("unr", 3, 3): 324,
    ("ram", 3, 3): 648,
}


def _mono(e, c=1, ctx=CTX):
    return ChainScalar.monomial(ctx, e, c)


def _series_slice(coeffs, p=3):
    """An x2-free series slice {m1: (a, b)} in the depth-1 tower box."""
    return TruncSeries(recursion_context(p, 1), {(m1, 0): pair for m1, pair in coeffs.items()})


class TestChainScalar:
    def test_context_validation(self):
        with pytest.raises(ValueError):
            ChainContext(3, 0, -4, 4)
        with pytest.raises(ValueError):
            ChainContext(3, 2, 1, 4)

    @pytest.mark.parametrize("p", [4, 2, 9, 1, -3])
    def test_context_refuses_a_p_that_is_not_an_odd_prime(self, p):
        # at p = 4 valuations would be read to base 4
        with pytest.raises(ValueError, match="must be an odd prime"):
            ChainContext(p, 2, -4, 4)

    def test_constructor_takes_integers_only(self):
        # a float coefficient would square to a float, a large one would be
        # kept rounded, and a term at x1^0.5 would reach chain_snf
        ctx = ChainContext(3, 2, -4, 4)
        assert ChainScalar.monomial(ctx, 1, 10).coeffs == {1: 1}
        for call in (lambda: ChainScalar.monomial(ctx, 0, 1.5),
                     lambda: ChainScalar.monomial(ctx, 0, 2**70 * 1.0),
                     lambda: ChainScalar.monomial(ctx, 9, 1.5),  # outside the window too
                     lambda: ChainScalar(ctx, {0.5: 1}),
                     lambda: chain_snf([[ChainScalar(ctx, {0.5: 1})]], ctx)):
            with pytest.raises(TypeError):
                call()

    def test_add_sub_roundtrip(self):
        x = ChainScalar(CTX, {0: 2, 3: 5})
        y = ChainScalar(CTX, {-1: 1, 3: 76})
        assert (x - y.scale_int(-1)) - y == x
        assert (x - x).coeffs == {}

    def test_mul_commutes(self):
        x = ChainScalar(CTX, {0: 2, 2: 5})
        y = ChainScalar(CTX, {-1: 1, 1: 7})
        assert x * y == y * x

    def test_product_with_zero_returns_the_zero_operand(self):
        x = ChainScalar(CTX, {0: 2, 2: 5})
        zero = ChainScalar.zero(CTX)
        assert x * zero is zero
        assert zero * x is zero
        with pytest.raises(ValueError):
            x * ChainScalar.zero(ChainContext(3, 4, -6, 6))

    def test_shift_is_monomial_multiplication(self):
        x = ChainScalar(CTX, {0: 2, 2: 5})
        assert x.shift(3) == x * _mono(3)

    def test_loss_free_shift_shares_the_terms_and_a_lossy_one_filters(self):
        x = ChainScalar(CTX, {0: 3, 2: 5, 10: 1})
        assert x.pivot_key() == (0, 2)
        down = x.shift(-4)
        assert down._terms is x._terms and down._pivot_key is x._pivot_key
        assert down.pivot_key() == (0, -2) and down.min_exponent() == -4
        up = x.shift(2)
        assert up._terms is x._terms and up.coeffs == {2: 3, 4: 5, 12: 1}
        # past hi and past lo, exactly the terms outside [-12, 12] go
        assert x.shift(3).coeffs == {3: 3, 5: 5}
        assert x.shift(-13).coeffs == {-11: 5, -3: 1}
        assert x.shift(-25).coeffs == {}

    @settings(max_examples=200)
    @given(st.data())
    def test_shifted_scalars_match_their_materialized_copies(self, data):
        ctx = ChainContext(3, 3, -10, 10)
        terms = st.dictionaries(st.integers(-10, 10), st.integers(0, 26), max_size=6)

        def drawn():
            # random shifts, some crossing lo or hi; caches filled on the way
            x = ChainScalar(ctx, data.draw(terms))
            want = x.coeffs
            for d in data.draw(st.lists(st.integers(-14, 14), max_size=4)):
                if data.draw(st.booleans()):
                    x.pivot_key(), x.min_exponent()
                x = x.shift(d)
                want = {e + d: c for e, c in want.items() if -10 <= e + d <= 10}
                assert x.coeffs == want
            return x, ChainScalar(ctx, want)

        (x, mx), (y, my) = drawn(), drawn()
        for a, b, ma, mb in ((x, y, mx, my), (x, x.shift(1), mx, mx.shift(1))):
            assert (a * b).coeffs == (ma * mb).coeffs
            assert (a - b).coeffs == (ma - mb).coeffs
            assert (a == b) == (ma == mb)
        v = x.p_valuation()
        assert v == mx.p_valuation() and x.pivot_key() == mx.pivot_key()
        assert x.min_exponent() == mx.min_exponent() and x == mx
        if v < ctx.modulus:
            assert x.divide_p_power(v).coeffs == mx.divide_p_power(v).coeffs

    def test_divide_p_power(self):
        x = ChainScalar(CTX, {1: 9, 2: 18})
        assert x.divide_p_power(2) == ChainScalar(CTX, {1: 1, 2: 2})
        with pytest.raises(InexactDivision):
            ChainScalar(CTX, {0: 3, 1: 1}).divide_p_power(1)

    def test_p_valuation_and_pivot_key(self):
        x = ChainScalar(CTX, {-2: 9, 1: 3, 4: 6})
        assert x.p_valuation() == 1
        assert x.pivot_key() == (1, 1)
        assert ChainScalar(CTX, {-2: 9, 4: 18}).pivot_key() == (2, -2)
        assert ChainScalar.zero(CTX).pivot_key() == (CTX.modulus, None)
        assert ChainScalar.zero(CTX).p_valuation() == CTX.modulus

    @given(st.dictionaries(
        st.integers(-12, 12), st.tuples(st.integers(0, 4), st.integers(0, 80)), max_size=8,
    ))
    def test_pivot_key_matches_the_pairwise_reference(self, terms):
        x = ChainScalar(CTX, {e: 3**i * a for e, (i, a) in terms.items()})
        vals = {e: pair_val((c, 0), 3, CTX.modulus) for e, c in x.coeffs.items()}
        v = min(vals.values(), default=CTX.modulus)
        want = min((e for e, w in vals.items() if w == v), default=None)
        assert x.pivot_key() == (v, want)
        assert x.p_valuation() == v

    def test_from_series_divides_a_slice_by_its_w_power(self):
        ctx = ChainContext(3, 3, -6, 6)
        w_free = _series_slice({0: (4, 0), 2: (3, 0)})
        w_multiple = _series_slice({0: (0, 4), 2: (0, 3)})
        want = ChainScalar(ctx, {0: 4, 2: 3})
        assert ChainScalar.from_series(ctx, w_free) == want
        assert ChainScalar.from_series(ctx, w_multiple) == want
        with pytest.raises(ValueError, match="not x2-free"):
            ChainScalar.from_series(ctx, TruncSeries.monomial(recursion_context(3, 1), 0, 1))

    @pytest.mark.parametrize("coeffs", [{0: (1, 1)}, {0: (4, 0), 2: (0, 3)}],
                             ids=["mixed-coefficient", "mixed-slice"])
    def test_from_series_refuses_a_slice_without_a_w_power(self, coeffs):
        with pytest.raises(StructureViolation):
            ChainScalar.from_series(ChainContext(3, 3, -6, 6), _series_slice(coeffs))


def _naive_chain_mul(left, right, mod, lo, hi):
    """Reference product: one reduced product and one reduced sum per term pair."""
    acc = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = e1 + e2
            if lo <= e <= hi:
                acc[e] = (acc.get(e, 0) + c1 * c2 % mod) % mod
    return {e: c for e, c in acc.items() if c}


def _pair_chain_mul(left, right, r, mod, lo, hi):
    """Reference product over Z[w]/p^M: one pair_mul and one pair_add per term pair."""
    acc = {}
    for e1, v1 in left.items():
        for e2, v2 in right.items():
            e = e1 + e2
            if e < lo or e > hi:
                continue
            w = pair_mul(v1, v2, r, mod)
            acc[e] = pair_add(acc[e], w, mod) if e in acc else w
    return {e: v for e, v in acc.items() if v != (0, 0)}


@st.composite
def _chain_operand(draw, ctx, stride):
    """Coefficients of a chain scalar: empty, one term, or a support on a
    stride-progression (full or thinned, sometimes with both window edges);
    coefficients are often mod - 1, the worst case for the packed slots."""
    coeff = st.one_of(st.integers(0, ctx.mod - 1), st.just(ctx.mod - 1))
    shape = draw(st.sampled_from(["empty", "single", "strided"]))
    if shape == "empty":
        exps = []
    elif shape == "single":
        exps = [draw(st.integers(ctx.lo, ctx.hi))]
    else:
        start = draw(st.integers(ctx.lo, ctx.hi))
        full = draw(st.booleans())
        exps = [start + stride * i for i in range(draw(st.integers(2, 60)))
                if full or draw(st.booleans())]
        if draw(st.booleans()):
            exps += [ctx.lo, ctx.hi]
    return ChainScalar(ctx, {e: draw(coeff) for e in exps}).coeffs


@st.composite
def _kernel_case(draw):
    """(ctx, left, right) on a random window, modulus and support stride."""
    p = draw(st.sampled_from([3, 5, 7]))
    stride = draw(st.sampled_from([1, 2, 3, 24]))
    lo = -draw(st.integers(0, 30 * stride))
    hi = draw(st.integers(0, 30 * stride))
    ctx = ChainContext(p, draw(st.integers(1, 7)), lo, hi)
    return ctx, draw(_chain_operand(ctx, stride)), draw(_chain_operand(ctx, stride))


class TestProductKernel:
    @settings(max_examples=300)
    @given(_kernel_case())
    def test_both_branches_match_the_naive_product(self, case):
        ctx, left, right = case
        args = (ctx.mod, ctx.lo, ctx.hi)
        want = _naive_chain_mul(left, right, *args)
        assert lengths._mul_short(left, right, *args) == want
        if left and right:
            assert lengths._mul_packed(left, right, *args) == want
        assert (ChainScalar(ctx, left) * ChainScalar(ctx, right)).coeffs == want

    @settings(max_examples=100)
    @given(_kernel_case())
    def test_products_match_the_pair_arithmetic_on_w_free_operands(self, case):
        # Z/p^M is the w-free part of Z[w]/p^M: embedded as (c, 0) pairs, the
        # operands multiply in the quadratic Witt scalars to the same product
        ctx, left, right = case
        got = (ChainScalar(ctx, left) * ChainScalar(ctx, right)).coeffs
        pairs = [{e: (c, 0) for e, c in x.items()} for x in (left, right)]
        assert {e: (c, 0) for e, c in got.items()} == _pair_chain_mul(
            *pairs, nonresidue(ctx.p), ctx.mod, ctx.lo, ctx.hi)

    def test_slots_wider_than_eight_bytes_still_match(self):
        ctx = ChainContext(3, 30, -40, 40)
        x = {e: ctx.mod - 1 for e in range(-40, 41, 2)}
        y = {e: ctx.mod - 1 for e in range(-20, 21)}
        args = (ctx.mod, ctx.lo, ctx.hi)
        assert lengths._mul_packed(x, y, *args) == _naive_chain_mul(x, y, *args)

    def test_branch_follows_the_operand_sizes(self, monkeypatch):
        used = []
        for name in ("_mul_short", "_mul_packed"):
            def spy(*args, _name=name):
                used.append(_name)
                return _naive_chain_mul(*args)
            monkeypatch.setattr(lengths, name, spy)
        short = ChainScalar(CTX, {0: 1, 3: 2})
        dense = ChainScalar(CTX, {e: e % 7 + 1 for e in range(-12, 13)})
        assert (short * ChainScalar.zero(CTX)).coeffs == {} and used == []
        short * dense
        dense * dense
        assert used == ["_mul_short", "_mul_packed"]


@st.composite
def _small_presentations(draw):
    """A presentation of at most 3x3 with 1-3 query columns, each a
    combination of the columns, sometimes perturbed so that both answers
    occur.  Supports of at most 2 terms in [-2, 2] on a +-48 window: the
    fill-in of a 3x3 elimination stays far inside it, so no product
    truncates."""
    ctx = ChainContext(3, 3, -48, 48)
    small = st.one_of(st.none(), st.tuples(
        st.integers(0, 2),
        st.dictionaries(st.integers(-2, 2), st.integers(0, 8), min_size=1, max_size=2),
    ))

    def scalar(drawn):
        if drawn is None:
            return ChainScalar.zero(ctx)
        v, terms = drawn
        return ChainScalar(ctx, {e: 3**v * c for e, c in terms.items()})

    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    columns = [[scalar(draw(small)) for _ in range(m)] for _ in range(n)]
    queries = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = [scalar(draw(small)) for _ in range(n)]
        # x + y is x - (-1)*y: the chain ring keeps no addition of its own
        q = [reduce(lambda x, y: x - y.scale_int(-1), (c * col[i] for c, col in zip(coeffs, columns)),
                    ChainScalar.zero(ctx)) for i in range(m)]
        if draw(st.booleans()):
            i = draw(st.integers(0, m - 1))
            q[i] = q[i] - scalar(draw(small)).scale_int(-1)
        queries.append(q)
    return ChainPresentation(ctx, m, columns), queries


@st.composite
def _one_generator_chunks(draw):
    """(P, w, ctx) for a chunk C[x2]/(P, x2^w): p in {3, 5}, at most 4
    digits, w <= 6 and an x1 window of radius 80-160.  Each slice of P is
    zero, a constant, a monomial of exponent in [-3, 3] or a polynomial
    supported in [0, 3], times a power of p; P_0 is often zero, so some
    x2-order can have no member.  Only such short entries are drawn: on a
    window that they fill, both routes measure the truncation instead of
    the module, and they may then differ."""
    p = draw(st.sampled_from([3, 5]))
    radius = draw(st.integers(80, 160))
    ctx = ChainContext(p, draw(st.integers(1, 4)), -radius, radius)
    coeff = st.integers(1, ctx.mod - 1)
    shape = st.sampled_from(["zero", "constant", "monomial", "polynomial"])

    def entry():
        kind = draw(shape)
        if kind == "zero":
            return {}
        if kind == "constant":
            terms = {0: draw(coeff)}
        elif kind == "monomial":
            terms = {draw(st.integers(-3, 3)): draw(coeff)}
        else:
            terms = draw(st.dictionaries(st.integers(0, 3), coeff, min_size=1, max_size=4))
        v = draw(st.integers(0, ctx.modulus - 1))
        return {e: c * p**v for e, c in terms.items()}

    P = [ChainScalar(ctx, entry()) for _ in range(draw(st.integers(1, 7)))]
    if draw(st.booleans()):
        P[0] = ChainScalar.zero(ctx)
    return P, draw(st.integers(1, 6)), ctx


def _corner_presentation(lab, p, k, radius):
    """The depth-k corner presentation at one x1 window, with the official
    annihilator monomials and the bare x2 as query columns."""
    sol = solve_thickened_recursion(CaseDescriptor.from_label(lab, p), k, recursion_context(p, k))
    cap = p**k
    ctx, alpha, beta = lengths._chain_corner(sol, radius)
    pres = ChainPresentation.from_corner_series(ctx, cap, alpha, beta)
    balanced = sum(2 * p**i for i in range(k))
    queries = [lengths._shift_column([ChainScalar.monomial(ctx, 0, p**j)], i, cap)
               for i, j in ((balanced, 0), (0, 2 * k), (1, 0))]
    return pres, queries


def _recenter_reference(work, n, ctx):
    """chain_snf's recentering on absolute exponents: a row (set by its
    first n entries), then each active column whose support starts above
    x1^0, is multiplied by x1^-s through a rebuilt, window-filtered dict."""
    def shifted(x, s):
        return ChainScalar(ctx, {e - s: c for e, c in x.coeffs.items()})

    for i, row in enumerate(work):
        s = min((min(x.coeffs) for x in row[:n] if x.coeffs), default=0)
        if s:
            work[i] = [shifted(x, s) for x in row]
    for j in range(n):
        s = min((min(row[j].coeffs) for row in work if row[j].coeffs), default=0)
        if s > 0:
            for row in work:
                row[j] = shifted(row[j], s)


def _chain_snf_reference(rows, ctx, queries=None):
    """chain_snf with every entry of a pivot step built: the pivot-column
    entry of each cleared row and the pivot-row entry of each cleared
    column are computed as u*t - (t/p^e)*pivot and checked to be zero.  The
    slow reference for the elimination; it recenters on its own, without
    `ChainScalar.shift`."""
    M = ctx.modulus
    n = len(rows[0]) if rows else 0
    qs = list(queries or ())
    work = [list(r) + [q[i] for q in qs] for i, r in enumerate(rows)]
    inside = [True] * len(qs)
    zero = ChainScalar.zero(ctx)
    exps = []
    while work:
        _recenter_reference(work, n, ctx)
        best = None
        for i, row in enumerate(work):
            for j, entry in enumerate(row[:n]):
                if entry.coeffs:
                    key = (*entry.pivot_key(), i, j)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            exps.extend([M] * len(work))
            for row in work:
                for q, entry in enumerate(row[n:]):
                    if entry.coeffs:
                        inside[q] = False
            break
        (e, _, _, _), pi, pj = best
        work[0], work[pi] = work[pi], work[0]
        for row in work:
            row[0], row[pj] = row[pj], row[0]
        unit = work[0][0].divide_p_power(e)
        for i in range(1, len(work)):
            t = work[i][0]
            if t.coeffs:
                tq = t.divide_p_power(e)
                work[i] = [unit * a - tq * b for a, b in zip(work[i], work[0])]
                if work[i][0].coeffs:
                    raise ConsistencyFailure(f"row {i} survived clearing against the pivot")
        row0 = work[0]
        for j in range(1, len(row0)):
            t = row0[j]
            if not t.coeffs:
                continue
            if j >= n and t.p_valuation() < e:
                inside[j - n] = False
                for row in work:
                    row[j] = zero
                continue
            tq = t.divide_p_power(e)
            for i in range(len(work)):
                work[i][j] = unit * work[i][j] - tq * work[i][0]
            if row0[j].coeffs:
                raise ConsistencyFailure(f"column {j} survived clearing against the pivot")
        exps.append(min(e, M))
        n -= 1
        work = [row[1:] for row in work[1:]]
    exps.sort()
    return exps if queries is None else (exps, inside)


class TestChainSNF:
    def test_unit_entry(self):
        assert chain_snf([[_mono(0)]], CTX) == [0]

    def test_p_power_entry(self):
        assert chain_snf([[_mono(0, 9)]], CTX) == [2]

    def test_x_shift_is_invisible(self):
        # x1 is invertible in the chain ring, so x1-powers scale away
        assert chain_snf([[_mono(5, 9)]], CTX) == [2]
        assert chain_snf([[_mono(-3, 3)]], CTX) == [1]

    def test_zero_row_counts_full_modulus(self):
        zero = ChainScalar.zero(CTX)
        assert chain_snf([[zero]], CTX) == [CTX.modulus]

    def test_diagonal(self):
        zero = ChainScalar.zero(CTX)
        rows = [
            [_mono(0, 1), zero, zero],
            [zero, _mono(0, 3), zero],
            [zero, zero, _mono(0, 27)],
        ]
        assert chain_snf(rows, CTX) == [0, 1, 3]

    def test_triangular(self):
        zero = ChainScalar.zero(CTX)
        rows = [
            [_mono(0, 1), _mono(0, 3)],
            [zero, _mono(0, 9)],
        ]
        assert chain_snf(rows, CTX) == [0, 2]

    def test_coupled_rows(self):
        # [[p, p], [p, p]] ~ diag(p, 0): one divisor p, one dead row
        rows = [
            [_mono(0, 3), _mono(0, 3)],
            [_mono(0, 3), _mono(0, 3)],
        ]
        assert chain_snf(rows, CTX) == [1, CTX.modulus]

    @given(st.data())
    def test_permutation_invariance(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        m = data.draw(st.integers(min_value=1, max_value=3))
        entry = st.one_of(
            st.just(None),
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=-2, max_value=2),
            ),
        )
        grid = data.draw(
            st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)
        )
        zero = ChainScalar.zero(CTX)
        rows = [
            [zero if e is None else _mono(e[1], 3 ** e[0]) for e in row]
            for row in grid
        ]
        base = chain_snf([list(r) for r in rows], CTX)
        rperm = data.draw(st.permutations(list(range(n))))
        cperm = data.draw(st.permutations(list(range(m))))
        shuffled = [[rows[i][j] for j in cperm] for i in rperm]
        assert chain_snf(shuffled, CTX) == base

    def test_negative_supports_stay_in_the_window(self):
        # determinant x1^-3, a unit: a pivot unit of negative leading degree
        # used to push an entry below x1^-12, where it read as zero
        zero = ChainScalar.zero(CTX)
        rows = [
            [zero, _mono(-1), zero],
            [zero, _mono(-2), _mono(-2)],
            [_mono(0), _mono(-2), zero],
        ]
        assert chain_snf([list(r) for r in rows], CTX) == [0, 0, 0]
        assert chain_snf([r[::-1] for r in rows], CTX) == [0, 0, 0]

    def test_unit_row_scaling_invariance(self):
        rows = [
            [_mono(0, 3), _mono(1, 9)],
            [_mono(-1, 4), _mono(0, 6)],
        ]
        base = chain_snf([list(r) for r in rows], CTX)
        # 2 + 3*x1 = 2*(1 + p*(x1/2)) is a unit; 2 + 5*x1, 2*(1 + x1) mod p, is not
        unit = ChainScalar(CTX, {0: 2, 1: 3})
        scaled = [[unit * e for e in rows[0]], list(rows[1])]
        assert chain_snf(scaled, CTX) == base

    def test_query_below_the_pivot_valuation_is_outside(self):
        # every span element has valuation >= 1 in the pivot row; equal
        # valuation is inside, at any x1-shift
        queries = [[_mono(0, 1)], [_mono(0, 3)], [_mono(2, 12)]]
        assert chain_snf([[_mono(0, 3)]], CTX, queries=queries) == ([1], [False, True, True])

    def test_query_in_a_row_without_pivot_is_outside(self):
        zero = ChainScalar.zero(CTX)
        rows = [[_mono(0, 3)], [zero]]
        queries = [[zero, _mono(0, 9)], [_mono(1, 3), zero], [zero, zero]]
        assert chain_snf(rows, CTX, queries=queries) == ([1, CTX.modulus], [False, True, True])
        # no active column at all, and an all-zero one
        assert chain_snf([[]], CTX, queries=[[_mono(0, 27)], [zero]]) == ([CTX.modulus], [False, True])
        assert chain_snf([[zero]], CTX, queries=[[_mono(0, 27)]]) == ([CTX.modulus], [False])

    @settings(max_examples=200)
    @given(_small_presentations())
    def test_passive_queries_match_the_length_comparison(self, drawn):
        pres, queries = drawn
        exps = chain_snf(pres.rows(), pres.ctx)
        base_len = sum(exps)
        got_exps, inside = chain_snf(pres.rows(), pres.ctx, queries=queries)
        assert got_exps == exps
        assert inside == [_membership(pres, base_len, q) for q in queries]

    @settings(max_examples=200)
    @given(_small_presentations())
    def test_elimination_matches_the_reference(self, drawn):
        pres, queries = drawn
        assert chain_snf(pres.rows(), pres.ctx) == _chain_snf_reference(pres.rows(), pres.ctx)
        assert chain_snf(pres.rows(), pres.ctx, queries) == _chain_snf_reference(pres.rows(), pres.ctx, queries)

    @pytest.mark.parametrize("lab, p, k, radius", [
        ("unr", 3, 1, 36), ("ram", 3, 1, 36), ("unr", 3, 2, 108), ("ram", 3, 2, 432),
    ])
    def test_corner_eliminations_match_the_reference(self, lab, p, k, radius):
        pres, queries = _corner_presentation(lab, p, k, radius)
        got = chain_snf(pres.rows(), pres.ctx, queries)
        assert got == _chain_snf_reference(pres.rows(), pres.ctx, queries)
        assert sum(got[0]) == (2 if k == 1 else 10)

    def test_pivot_step_builds_no_identity_products(self, monkeypatch):
        # the products u*t and (t/p^e)*pivot of the pivot column and of the
        # pivot row cancel exactly and are never built: 164 products of two
        # nonzero operands here, where building them (the reference) takes 282
        pres, _ = _corner_presentation("unr", 3, 2, 108)
        rows = pres.rows()
        product = ChainScalar.__mul__
        dense = []

        def counting(self, other):
            if self.coeffs and other.coeffs:
                dense.append(1)
            return product(self, other)

        monkeypatch.setattr(ChainScalar, "__mul__", counting)
        assert chain_snf(rows, pres.ctx) == [0, 0, 0, 1, 1, 1, 1, 3, 3]
        assert len(dense) == 164


class TestPresentation:
    def test_column_counts(self):
        ctx = ChainContext(3, 3, -6, 6)
        m = 3
        a = [_mono(0, 1, ctx) for _ in range(m)]
        b = [_mono(1, 2, ctx) for _ in range(m)]
        plain = ChainPresentation.from_corner_series(ctx, m, a, b)
        assert len(plain.columns) == 2 * m
        maximal = ChainPresentation.from_corner_series(ctx, m, a, b, maximal_multiple=True)
        assert len(maximal.columns) == 2 * m
        rows = plain.rows()
        assert len(rows) == m and len(rows[0]) == 2 * m

    def test_one_exponent_per_generator(self):
        ctx = ChainContext(3, 3, -6, 6)
        m = 2
        a = [_mono(0, 3, ctx), _mono(0, 0, ctx)]
        b = [_mono(0, 9, ctx), _mono(0, 3, ctx)]
        pres = ChainPresentation.from_corner_series(ctx, m, a, b)
        # 3 and 9 + 3*x2 over the generators 1 and x2: the quotient is (Z/3)^2
        assert chain_snf(pres.rows(), ctx) == [1, 1]


class TestChunkWalk:
    def test_small_chunks_by_hand(self):
        ctx = ChainContext(3, 3, -6, 6)
        # x2 = -3 and x2^2 = 9 in C[x2]/(3 + x2, x2^2): the quotient is C/9
        assert lengths._chunk_length([_mono(0, 3, ctx), _mono(0, 1, ctx)], 2, ctx) == 2
        # a zero carrier relates nothing: every generator counts the modulus
        assert lengths._chunk_length([ChainScalar.zero(ctx)], 4, ctx) == 12

    # chain_snf is the slow reference: the same chunk as the w shifted
    # columns of P, eliminated as a matrix
    @settings(max_examples=300)
    @given(_one_generator_chunks())
    def test_walk_matches_the_elimination(self, chunk):
        P, w, ctx = chunk
        rows = ChainPresentation(ctx, w, [lengths._shift_column(P, t, w) for t in range(w)]).rows()
        assert lengths._chunk_length(P, w, ctx) == sum(chain_snf(rows, ctx))


class TestQuotientLength:
    def test_default_radius_formula(self):
        assert chain_default_radius(3, 1) == 18
        assert chain_default_radius(3, 2) == 54
        assert chain_default_radius(5, 1) == 50

    @pytest.mark.parametrize("lab", ["unr", "ram"])
    @pytest.mark.parametrize("p", [3, 5])
    def test_depth_one_length(self, lab, p):
        report = quotient_length_details(CaseDescriptor.from_label(lab, p), 1)
        assert report.length == 2
        assert sum(report.exponents) == 2
        assert len(report.exponents) == p
        assert report.chain_radius >= chain_default_radius(p, 1)

    @pytest.mark.parametrize("lab", ["unr", "ram"])
    def test_depth_two_length(self, lab):
        assert quotient_length(CaseDescriptor.from_label(lab, 3), 2) == 10

    @pytest.mark.parametrize("lab", ["unr", "ram"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_elimination_oracle_agrees(self, lab, k):
        case = CaseDescriptor.from_label(lab, 3)
        assert length_by_elimination(case, k) == quotient_length(case, k)

    # chunk j of the peel route is the closed form's term 2p^j*(k - j) on
    # every cell of PINNED_PEEL_RADII, confirmed at the pinned radius: a
    # change that moves a confirming radius fails here, and not only in the
    # benchmark's timings
    @pytest.mark.parametrize("lab, p, k", list(PINNED_PEEL_RADII))
    def test_peel_chunks_are_the_closed_form_terms(self, monkeypatch, lab, p, k):
        confirmed = []
        stabilize = lengths._stabilize

        def recording(measure, base, p, k):
            radius, value = stabilize(measure, base, p, k)
            confirmed.append((radius, value))
            return radius, value

        monkeypatch.setattr(lengths, "_stabilize", recording)
        total = length_by_elimination(CaseDescriptor.from_label(lab, p), k)
        assert confirmed == [(PINNED_PEEL_RADII[lab, p, k], vertical_multiplicity_terms(p, k))]
        assert total == vertical_multiplicity_closed_form(p, k)

    # the two length routes share no elimination kernel: each still gives
    # its answer when the other's kernel is broken
    @pytest.mark.parametrize("lab", ["unr", "ram"])
    def test_peel_route_runs_without_chain_snf(self, monkeypatch, lab):
        def broken(*args, **kwargs):
            raise RuntimeError("chain_snf called")

        monkeypatch.setattr(lengths, "chain_snf", broken)
        assert length_by_elimination(CaseDescriptor.from_label(lab, 3), 2) == vertical_multiplicity_closed_form(3, 2)

    @pytest.mark.parametrize("lab", ["unr", "ram"])
    def test_elimination_route_runs_without_the_chunk_walk(self, monkeypatch, lab):
        def broken(*args, **kwargs):
            raise RuntimeError("_chunk_length called")

        monkeypatch.setattr(lengths, "_chunk_length", broken)
        report = quotient_length_details(CaseDescriptor.from_label(lab, 3), 2)
        got = (report.length, report.exponents, report.chain_radius, report.retried)
        assert got == PINNED_WINDOWS[lab, 3, 2]

    # (length, exponents, chain_radius, retried) as the window driver
    # confirms them: a change of pivot path that moves a confirming radius
    # fails here, and not only in the benchmark's report digest
    @pytest.mark.parametrize("lab, p, k", list(PINNED_WINDOWS))
    def test_stabilized_windows_are_pinned(self, lab, p, k):
        report = quotient_length_details(CaseDescriptor.from_label(lab, p), k)
        got = (report.length, report.exponents, report.chain_radius, report.retried)
        assert got == PINNED_WINDOWS[lab, p, k]

    def test_precision_scale_is_invisible(self):
        case = CaseDescriptor.from_label("unr", 3)
        base = quotient_length_details(case, 1)
        doubled = quotient_length_details(case, 1, precision_scale=2)
        assert doubled.length == base.length
        assert doubled.exponents == base.exponents

    # at precision 0 every coefficient is 0, and two doubled radii would
    # agree on a wrong length (9, exponents (3, 3, 3), against 2)
    @pytest.mark.parametrize("scale", [0, -1])
    def test_precision_scale_below_one_is_refused(self, scale):
        with pytest.raises(ValueError, match="precision scale must be >= 1"):
            quotient_length_details(CaseDescriptor.from_label("unr", 3), 1, precision_scale=scale)
        with pytest.raises(ValueError, match="precision scale must be >= 1"):
            recursion_context(3, 1, precision_scale=scale)

    @pytest.mark.parametrize("measure", [quotient_length_details, length_by_elimination, annihilator_report])
    def test_series_mixing_w_free_and_w_multiple_slices_is_refused(self, monkeypatch, measure):
        # each slice alone has a w-power, so only the check on the whole
        # solved series sees the mix; inside the window driver its
        # StructureViolation would read as a failed window at every radius
        def mixed(case, k, ctx):
            sol = solve_thickened_recursion(case, k, ctx)
            # the ramified beta is w-free, with slices at x2^0, x2^1 and x2^2
            coeffs = {key: (0, a) if key[1] == 1 else (a, b) for key, (a, b) in sol.beta.coeffs.items()}
            assert {m2 for _, m2 in coeffs} == {0, 1, 2} and all(b == 0 for _, b in sol.beta.coeffs.values())
            return ThickenedSolution(sol.case, sol.k, sol.ctx, sol.pairs, sol.alpha, TruncSeries(sol.beta.ctx, coeffs))

        monkeypatch.setattr(lengths, "solve_thickened_recursion", mixed)
        with pytest.raises(StructureViolation, match="mix"):
            measure(CaseDescriptor.from_label("ram", 3), 1)


class TestStabilize:
    # at p = 3, k = 1 from base 18 the ceiling is max(3^4, 8*18) = 144, so
    # the radii tried are 18, 36, 72, 144 and finally 288

    def test_returns_first_radius_confirming_its_predecessor(self):
        answers = {18: 1, 36: 2, 72: 3, 144: 3, 288: 3}
        tried = []

        def measure(radius):
            tried.append(radius)
            return answers[radius]

        assert _stabilize(measure, 18, 3, 1) == (144, 3)
        assert tried == [18, 36, 72, 144]

    @pytest.mark.parametrize("exc", [WindowExhausted, StructureViolation])
    def test_failure_at_a_radius_never_counts_as_agreement(self, exc):
        def measure(radius):
            if radius == 36:
                raise exc("distorted window")
            return 4

        # 4 at 18, nothing at 36, 4 at 72: only 144 confirms 72
        assert _stabilize(measure, 18, 3, 1) == (144, 4)

    def test_raises_past_the_ceiling_chained_from_last_failure(self):
        tried = []

        def measure(radius):
            tried.append(radius)
            raise StructureViolation(f"radius {radius}")

        with pytest.raises(WindowExhausted) as info:
            _stabilize(measure, 18, 3, 1)
        assert tried == [18, 36, 72, 144, 288]
        assert str(info.value.__cause__) == "radius 288"

    def test_elimination_raises_when_radii_keep_disagreeing(self, monkeypatch):
        monkeypatch.setattr(
            lengths, "_peel_at_radius", lambda sol, radius: (radius.bit_length() % 2,)
        )
        with pytest.raises(WindowExhausted):
            length_by_elimination(CaseDescriptor.from_label("unr", 3), 1)

    def test_annihilator_raises_when_radii_keep_disagreeing(self, monkeypatch):
        def flipping(rows, ctx, queries=None):
            exps = chain_snf(rows, ctx)
            if queries is None:
                return exps
            return exps, [ctx.hi.bit_length() % 2 == 0] * len(queries)

        monkeypatch.setattr(lengths, "chain_snf", flipping)
        with pytest.raises(WindowExhausted):
            annihilator_report(CaseDescriptor.from_label("unr", 3), 1)


class TestVerticalMultiplicity:
    def test_no_vertical_piece_at_conductor_zero(self):
        assert vertical_multiplicity("unr", 3, 0) == 0
        assert vertical_multiplicity("ram", 5, 0) == 0

    @pytest.mark.parametrize("lab", ["unr", "ram"])
    @pytest.mark.parametrize("p", [3, 5])
    def test_conductor_one(self, lab, p):
        assert vertical_multiplicity(lab, p, 1) == 2

    def test_conductor_two(self):
        assert vertical_multiplicity("unr", 3, 2) == 10

    # the label and p are checked before the no-vertical-piece shortcut
    @pytest.mark.parametrize("case, p", [("xyz", 3), ("xyz", 4), ("unr", 4)])
    def test_out_of_domain_input_at_conductor_zero_is_refused(self, case, p):
        with pytest.raises(ValueError):
            vertical_multiplicity(case, p, 0)

    def test_descriptor_is_refused(self):
        # a descriptor carries its own p, which need not be the p passed
        # beside it; only the label route is taken
        with pytest.raises(ValueError, match="unknown case"):
            vertical_multiplicity(CaseDescriptor.from_label("unr", 5), 3, 1)


class TestAnnihilator:
    def test_membership_table_shape(self):
        table = annihilator_report(CaseDescriptor.from_label("unr", 3), 1)
        assert table == {
            "balanced_x2_power_in_ideal": True,
            "p_to_2k_in_ideal": True,
            "bare_x2_outside_ideal": True,
            "p_to_2k_plus_1_in_max_multiple": True,
            "x2_to_p_k_in_max_multiple": True,
        }

    @pytest.mark.parametrize("lab", ["unr", "ram"])
    def test_check_at_depth_one(self, lab):
        assert annihilator_check(CaseDescriptor.from_label(lab, 3), 1)

    @pytest.mark.parametrize("lab", ["unr", "ram"])
    @pytest.mark.parametrize("p, k", [(3, 1), (3, 2), (5, 1), (5, 2)])
    def test_enlarged_solve_restricts_to_the_official_one(self, lab, p, k):
        # annihilator_report solves only the tower with one more x2 slice and
        # reads the official model (cap p^k) off its lower slices
        case = CaseDescriptor.from_label(lab, p)
        official = recursion_context(p, k)
        enlarged = solve_thickened_recursion(case, k, official.weakened(cap2=p**k + 1))
        sol = solve_thickened_recursion(case, k, official)
        assert enlarged.alpha.with_context(official) == sol.alpha
        assert enlarged.beta.with_context(official) == sol.beta

    def test_report_solves_the_tower_once(self, monkeypatch):
        calls = []

        def counting(case, k, ctx=None):
            calls.append(ctx)
            return solve_thickened_recursion(case, k, ctx)

        monkeypatch.setattr(lengths, "solve_thickened_recursion", counting)
        assert all(annihilator_report(CaseDescriptor.from_label("unr", 3), 1).values())
        assert [ctx.cap2 for ctx in calls] == [4]

    def test_depth_two_table_has_no_strictness_row(self):
        table = annihilator_report(CaseDescriptor.from_label("unr", 3), 2)
        assert "bare_x2_outside_ideal" not in table
        assert all(table.values())

    def test_report_runs_one_elimination_per_model(self, monkeypatch):
        calls = []

        def counting(rows, ctx, queries=None):
            calls.append(queries is not None)
            return chain_snf(rows, ctx, queries)

        monkeypatch.setattr(lengths, "chain_snf", counting)
        assert all(annihilator_report(CaseDescriptor.from_label("unr", 3), 1).values())
        # the official model's exponents at radii 18 and 36 anchor the table
        # at 36; the table loop starts at 18 and confirms at 36, reusing both
        # official eliminations, so only the enlarged model runs at 18 and 36
        assert calls == [True] * 4

    # (ram, 5, 2) and (unr, 3, 3) are left out: the length comparison takes
    # 10-13 s there, and criterion 2 still checks their tables
    @pytest.mark.parametrize("lab, p, k", [
        ("unr", 3, 1), ("ram", 3, 1), ("unr", 5, 1), ("ram", 5, 1),
        ("unr", 3, 2), ("ram", 3, 2), ("unr", 5, 2),
    ])
    def test_passive_tables_match_the_length_comparison(self, monkeypatch, lab, p, k):
        case = CaseDescriptor.from_label(lab, p)
        anchor = quotient_length_details(case, k).chain_radius
        sol = _annihilator_corner(case, k)
        radii = (anchor // 2, anchor)
        passive = [_table_at_radius(sol, r) for r in radii]
        monkeypatch.setattr(lengths, "chain_snf", _snf_by_length_comparison)
        assert [_table_at_radius(sol, r) for r in radii] == passive

    @pytest.mark.parametrize("lab, p, k", [
        ("unr", 3, 1), ("ram", 3, 1), ("unr", 5, 1), ("ram", 5, 1), ("unr", 3, 2),
    ])
    def test_report_equals_the_table_at_twice_the_anchor(self, lab, p, k):
        # the report confirms its table at the anchor; one doubling further
        # out the table is the same
        case = CaseDescriptor.from_label(lab, p)
        anchor = quotient_length_details(case, k).chain_radius
        assert annihilator_report(case, k) == _table_at_radius(_annihilator_corner(case, k), 2 * anchor)


def _annihilator_corner(case, k):
    """The corner pair annihilator_report solves: one x2 slice past p^k."""
    return solve_thickened_recursion(case, k, recursion_context(case.p, k).weakened(cap2=case.p**k + 1))


def _table_at_radius(sol, radius):
    """The annihilator table in one x1-window, with no window driver."""
    queries = lengths._official_queries(sol.case.p, sol.k)
    return lengths._table_at_radius(sol, radius, lengths._corner_model(sol, radius, queries=queries)[1])


def _membership(pres, base_len, zeta_col):
    """zeta lies in the column span iff adjoining it keeps the length at
    base_len, the length of pres itself: the slow reference for the passive
    query columns of chain_snf, one more full elimination per query."""
    aug = ChainPresentation(pres.ctx, pres.m, pres.columns + [zeta_col])
    return sum(chain_snf(aug.rows(), aug.ctx)) == base_len


def _snf_by_length_comparison(rows, ctx, queries=None):
    """chain_snf with every query decided by _membership instead."""
    exps = chain_snf(rows, ctx)
    if queries is None:
        return exps
    pres = ChainPresentation(ctx, len(rows), [list(col) for col in zip(*rows)])
    return exps, [_membership(pres, sum(exps), list(q)) for q in queries]


# exact inputs are integers: a float would otherwise flow through the exact
# formulas and come out as a plausible float answer
@pytest.mark.parametrize("call", [
    lambda: keating_threshold("unr", 2.0, 3),
    lambda: level_degree("ram", 2.0, 3),
    lambda: special_fiber_length("unr", 3, 2.0),
    lambda: total_proper_closed_form("ram", 3, 2.0),
    lambda: unit_index("unr", 0, 2.0, 3),
    lambda: solve_vertical_recursion(CaseDescriptor.from_label("unr", 3), one_variable_context(3, prec=8.0)),
    lambda: recursion_context(3, 1, precision_scale=1.5),
    lambda: quotient_length_details(CaseDescriptor.from_label("unr", 3), 1, precision_scale=1.5),
    lambda: f_series(one_variable_context(3), 1.5),
    lambda: ChainContext(3, 3.0, -10, 10),
    lambda: conductor(0, Fraction(-27, 4), "ram", 3),
    lambda: conductor(0.0, -6.75, "ram", 3),
    lambda: intersection_number("unr", "horizontal-standard", 1.5, 0, 3),
], ids=[
    "keating_threshold", "level_degree", "special_fiber_length", "total_proper_closed_form",
    "unit_index", "solve_vertical_recursion", "recursion_context", "quotient_length_details",
    "f_series", "ChainContext", "conductor-fraction", "conductor-float", "intersection_number",
])
def test_a_float_where_an_integer_belongs_is_a_type_error(call, monkeypatch):
    solved = []
    monkeypatch.setattr(lengths, "solve_thickened_recursion", lambda *a, **kw: solved.append(a))
    with pytest.raises(TypeError):
        call()
    assert solved == []  # refused before any tower work
