"""Tests for windowed two-variable series arithmetic."""

import pytest
from hypothesis import given, strategies as st

from endolift.errors import InexactDivision
from endolift.series import (
    SeriesContext,
    TruncSeries,
    f_series,
    g_series,
    series_invert,
)
from endolift.witt import pair_add, pair_sigma, pair_sub, pair_val

# A context with lo1 = 0 is an honest quotient ring (by x1^(hi1+1) and
# x2^cap2 plus p^prec), so the full set of ring laws must hold there.
# Negative lo1 opens a Laurent window, which is only a truncation of a
# module; the laws that survive arbitrary truncation are tested on it.
QUOTIENT_CTX = [
    SeriesContext(3, 4, 0, 12, 4),
    SeriesContext(5, 3, 0, 9, 3),
    SeriesContext(7, 2, 0, 6, 2),
]
LAURENT_CTX = [
    SeriesContext(3, 4, -8, 8, 3),
    SeriesContext(5, 3, -6, 6, 2),
]


def _series_strategy(ctx):
    key = st.tuples(
        st.integers(min_value=max(ctx.lo1, -6), max_value=min(ctx.hi1, 8)),
        st.integers(min_value=0, max_value=ctx.cap2 - 1),
    )
    pair = st.tuples(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
    )
    return st.dictionaries(key, pair, max_size=6).map(lambda d: TruncSeries(ctx, d))


@st.composite
def quotient_triples(draw):
    ctx = draw(st.sampled_from(QUOTIENT_CTX))
    strat = _series_strategy(ctx)
    return draw(strat), draw(strat), draw(strat)


@st.composite
def any_pairs(draw):
    ctx = draw(st.sampled_from(QUOTIENT_CTX + LAURENT_CTX))
    strat = _series_strategy(ctx)
    return draw(strat), draw(strat)


def test_constructor_filters_window_and_reduces():
    ctx = SeriesContext(3, 2, 0, 4, 2)
    s = TruncSeries(ctx, {(5, 0): (1, 0), (0, 3): (1, 0), (1, 1): (10, 9), (2, 0): (9, 18)})
    # out-of-window keys dropped, coefficients reduced mod 9, zeros dropped
    assert s.coeffs == {(1, 1): (1, 0)}


def test_constant_takes_integers_only():
    ctx = SeriesContext(3, 2, 0, 4, 2)
    assert TruncSeries.constant(ctx, 10).coeffs == {(0, 0): (1, 0)}
    assert TruncSeries.constant(ctx, (3, -1)).coeffs == {(0, 0): (3, 8)}
    for value in (2.5, (1, 0.5), "2"):
        with pytest.raises(TypeError):
            TruncSeries.constant(ctx, value)
    # a sum takes another series: an int is a constant series first
    with pytest.raises(TypeError):
        TruncSeries.one(ctx) + 1


@pytest.mark.parametrize("pair", [(1.5, 0), (0, 0.5), (2.0, 1), ("1", 0)])
def test_constructor_takes_integers_only(pair):
    ctx = SeriesContext(3, 2, 0, 4, 2)
    with pytest.raises(TypeError):
        TruncSeries(ctx, {(0, 0): pair})
    # also outside the window, where the term would be dropped
    with pytest.raises(TypeError):
        TruncSeries(ctx, {(9, 0): pair})


@pytest.mark.parametrize("key", [(0.5, 0), (0, 1.0), (9.5, 0)])
def test_constructor_takes_integer_exponents_only(key):
    # an exponent is an integer as a coefficient is, in or out of the window
    ctx = SeriesContext(3, 2, -4, 4, 2)
    with pytest.raises(TypeError):
        TruncSeries(ctx, {key: (1, 0)})


def test_monomial_takes_integers_only():
    ctx = SeriesContext(3, 2, 0, 4, 2)
    assert TruncSeries.monomial(ctx, 1, 0, (10, 1)).coeffs == {(1, 0): (1, 1)}
    with pytest.raises(TypeError):
        TruncSeries.monomial(ctx, 1, 0, (2.5, 1))


def test_monomials_multiply_by_adding_exponents():
    ctx = QUOTIENT_CTX[0]
    x1 = TruncSeries.monomial(ctx, 1, 0)
    x2 = TruncSeries.monomial(ctx, 0, 1)
    assert (x1 * x2).coeffs == {(1, 1): (1, 0)}
    assert TruncSeries.monomial(ctx, 2, 1, (3, 4)).coeffs[(2, 1)] == (3, 4)


@given(any_pairs())
def test_mul_commutes(sts):
    s, t = sts
    assert (s * t).coeffs == (t * s).coeffs


@given(quotient_triples())
def test_mul_associates_in_quotient_ring(stu):
    s, t, u = stu
    assert ((s * t) * u).coeffs == (s * (t * u)).coeffs


@given(quotient_triples())
def test_distributivity(stu):
    s, t, u = stu
    assert (s * (t + u)).coeffs == (s * t + s * u).coeffs


@given(any_pairs())
def test_additive_group(sts):
    s, t = sts
    assert (s + t - t).coeffs == s.coeffs
    assert (s - s).is_zero()


@given(any_pairs())
def test_one_is_neutral(sts):
    s, _ = sts
    assert (s * TruncSeries.one(s.ctx)).coeffs == s.coeffs


@given(quotient_triples())
def test_frobenius_is_multiplicative(stu):
    s, t, _ = stu
    assert (s * t).frobenius().coeffs == (s.frobenius() * t.frobenius()).coeffs


@given(quotient_triples())
def test_frobenius_dilates_exponents(stu):
    s, _, _ = stu
    p = s.ctx.p
    for (m1, m2) in s.frobenius().coeffs:
        assert m1 % p == 0 and m2 % p == 0


@given(any_pairs())
def test_sigma_coefficients_is_an_involution(sts):
    s, _ = sts
    mod = s.ctx.mod
    assert {k: pair_sigma(pair_sigma(v, mod), mod) for k, v in s.coeffs.items()} == s.coeffs


@given(quotient_triples())
def test_substitutions_are_ring_maps(stu):
    s, t, _ = stu
    prod = s * t
    assert prod.substitute_x1_zero().coeffs == (s.substitute_x1_zero() * t.substitute_x1_zero()).coeffs


@given(any_pairs())
def test_x2_slices_reassemble(sts):
    s, _ = sts
    ctx = s.ctx
    acc = TruncSeries.zero(ctx)
    for j in range(ctx.cap2):
        acc = acc + s.x2_slice(j).mul_monomial(0, j)
    assert acc.coeffs == s.coeffs


@given(any_pairs(), st.integers(min_value=0, max_value=3))
def test_divisibility_roundtrip(sts, e):
    s, _ = sts
    q = s.ctx.p**e
    scaled = s * TruncSeries.constant(s.ctx, q)
    if e >= s.ctx.prec:
        assert scaled.is_zero()
        return
    assert scaled.divisible_by(q)
    back = scaled.divide_exact(q)
    assert (back * TruncSeries.constant(s.ctx, q)).coeffs == scaled.coeffs


@given(any_pairs())
def test_reduce_mod_p_is_reduction(sts):
    s, _ = sts
    r = s.reduce_mod_p()
    assert r.ctx.prec == 1
    for k, (a, b) in r.coeffs.items():
        orig = s.coeffs[k]
        assert (a - orig[0]) % s.ctx.p == 0 and (b - orig[1]) % s.ctx.p == 0


def test_with_context_refuses_precision_raise():
    ctx = QUOTIENT_CTX[0]
    s = TruncSeries.one(ctx)
    with pytest.raises(ValueError):
        s.with_context(ctx.weakened(prec=ctx.prec).__class__(ctx.p, ctx.prec + 1, ctx.lo1, ctx.hi1, ctx.cap2))


def test_with_context_refuses_a_wider_box():
    # the product below is 0 in the old box; a wider one would invent x1^8 * x2^2
    ctx = SeriesContext(3, 2, -4, 4, 2)
    s = TruncSeries.monomial(ctx, 4, 1)
    assert (s * s).is_zero()
    for wider in (
        SeriesContext(3, 2, -40, 40, 5),
        SeriesContext(3, 2, -5, 4, 2),
        SeriesContext(3, 2, -4, 5, 2),
        SeriesContext(3, 1, -4, 4, 3),
    ):
        with pytest.raises(ValueError):
            s.with_context(wider)


@given(any_pairs(), st.data())
def test_same_box_reduction_matches_the_constructor(sts, data):
    s, _ = sts
    ctx = s.ctx
    for prec in range(ctx.prec + 1):
        new_ctx = ctx.weakened(prec=prec)
        assert s.with_context(new_ctx) == TruncSeries(new_ctx, s.coeffs)
    # a narrower box still filters through the constructor
    narrow = SeriesContext(ctx.p, data.draw(st.integers(0, ctx.prec)), ctx.lo1 // 2, ctx.hi1 // 2, 1)
    assert s.with_context(narrow) == TruncSeries(narrow, s.coeffs)


def test_min_x2_degree():
    ctx = SeriesContext(3, 4, 0, 10, 3)
    s = TruncSeries(ctx, {(2, 1): (9, 0), (4, 2): (3, 27)})
    assert s.min_x2_degree() == 1
    assert TruncSeries.zero(ctx).min_x2_degree() is None


# -- the termwise layer of TruncSeries ---------------------------------------

# a box that holds every drawn key, so no term is dropped on the way in
_TERM_BOX = dict(lo1=-6, hi1=6, cap2=4)
_TERM_KEYS = st.tuples(st.integers(-6, 6), st.integers(0, 3))


@st.composite
def _term_dicts(draw):
    """(ctx, x, y): reduced nonzero pairs on (m1, m2) keys inside the box; y
    often repeats or negates some of x's entries, so sums and differences
    cancel there."""
    p = draw(st.sampled_from([3, 5]))
    prec = draw(st.integers(1, 4))
    mod = p**prec
    # p-power multiples make valuations above 0 and zero divisions common
    pair = st.builds(
        lambda e, a, b: (p**e * a % mod, p**e * b % mod),
        st.integers(0, prec - 1), st.integers(0, mod - 1), st.integers(0, mod - 1),
    ).filter(lambda v: v != (0, 0))
    x = draw(st.dictionaries(_TERM_KEYS, pair, max_size=8))
    y = draw(st.dictionaries(_TERM_KEYS, pair, max_size=8))
    for key in draw(st.lists(st.sampled_from(sorted(x)), max_size=4)) if x else ():
        y[key] = draw(st.sampled_from([x[key], pair_sub((0, 0), x[key], mod)]))
    return SeriesContext(p, prec, **_TERM_BOX), x, y


def _pairwise(x, y, mod, op):
    """Reference: one pair_add/pair_sub per entry of y, zeros dropped last."""
    out = dict(x)
    for key, v in y.items():
        out[key] = op(out.get(key, (0, 0)), v, mod)
    return {key: v for key, v in out.items() if v != (0, 0)}


@given(_term_dicts(), st.integers(-5, 5))
def test_terms_layer_matches_the_pairwise_reference(data, n):
    ctx, x, y = data
    p, prec, mod = ctx.p, ctx.prec, ctx.mod
    sx, sy = TruncSeries(ctx, x), TruncSeries(ctx, y)
    assert sx.coeffs == x and sy.coeffs == y
    assert (sx + sy).coeffs == _pairwise(x, y, mod, pair_add)
    assert (sx - sy).coeffs == _pairwise(x, y, mod, pair_sub)
    assert (-sx).coeffs == _pairwise({}, x, mod, pair_sub)
    multiple = {}
    for _ in range(abs(n)):
        multiple = _pairwise(multiple, x, mod, pair_add if n > 0 else pair_sub)
    assert sx.scale_int(n).coeffs == multiple
    want = min((pair_val(v, p, prec) for v in x.values()), default=prec)
    for e in range(prec):
        q = p**e
        # the multiples of x by q fit below p^(prec + e) unreduced
        wide = {k: (a * q, b * q) for k, (a, b) in x.items()}
        wide = TruncSeries(ctx.weakened(prec=prec + e), wide)
        assert wide.divide_exact(q).coeffs == x
        if want >= e:
            assert sx.divide_exact(q).coeffs == {k: (a // q, b // q) for k, (a, b) in x.items()}
        else:
            with pytest.raises(InexactDivision):
                sx.divide_exact(q)


@given(_term_dicts(), st.integers(-10**6, 10**6))
def test_scale_int_is_termwise(data, n):
    ctx, x, _ = data
    mod = ctx.mod
    want = {key: (a * n % mod, b * n % mod) for key, (a, b) in x.items()}
    assert TruncSeries(ctx, x).scale_int(n).coeffs == {key: v for key, v in want.items() if v != (0, 0)}


@pytest.mark.parametrize("n", [3, 0, -1, True])
def test_a_product_takes_series_only(n):
    # an integer scales through scale_int, on neither side of *
    s = TruncSeries(SeriesContext(3, 2, **_TERM_BOX), {(0, 0): (1, 2)})
    with pytest.raises(TypeError):
        s * n
    with pytest.raises(TypeError):
        n * s


def test_terms_layer_drops_cancelled_entries_and_refuses_inexact_division():
    ctx = SeriesContext(3, 2, **_TERM_BOX)
    x = TruncSeries(ctx, {(0, 0): (1, 2), (1, 0): (4, 0)})
    assert (x + TruncSeries(ctx, {(0, 0): (8, 7)})).coeffs == {(1, 0): (4, 0)}
    y = TruncSeries(ctx, {(0, 1): (3, 3)})
    assert (y - y).coeffs == {}
    assert TruncSeries(ctx, {(2, 0): (3, 6)}).scale_int(3).coeffs == {}
    with pytest.raises(InexactDivision):
        TruncSeries(ctx, {(0, 1): (3, 1)}).divide_exact(3)


# -- the two closed-form series --------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_f_series_support(p):
    ctx = SeriesContext(p, 6, -(p**4), p**4, 1)
    f = f_series(ctx, 1)
    expected = []
    q = 1
    while q <= p**4:
        expected.append((q, 0))
        q *= p * p
    assert sorted(f.coeffs) == expected
    assert all(c == (1, 0) for c in f.coeffs.values())


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("power", [1, p_ := 3])
def test_f_series_functional_equation(p, power):
    """f(x^a) = x^a + f(x^(a*p^2)) inside the window."""
    ctx = SeriesContext(p, 6, -(p**4), p**4, 1)
    f_a = f_series(ctx, power)
    f_ap2 = f_series(ctx, power * p * p)
    x_a = TruncSeries.monomial(ctx, power, 0)
    assert f_a.coeffs == (x_a + f_ap2).coeffs


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("power", [1, 2, "p"], ids=["1", "2", "p"])
def test_g_series_is_windowed_square_of_f(p, power):
    # compute f^2 in a wide enough box that no cross term is lost, then
    # compare the window part against g
    power = p if power == "p" else power
    wide = SeriesContext(p, 6, -(2 * p**4), 2 * p**4, 2 * p**4 + 1)
    narrow = SeriesContext(p, 6, -(p**4), p**4, p**4 + 1)
    f = f_series(wide, power)
    g = g_series(narrow, power)
    square = (f * f).with_context(narrow)
    assert g.coeffs == square.coeffs


@pytest.mark.parametrize("power", [0, -1])
@pytest.mark.parametrize("series", [f_series, g_series])
def test_a_power_below_one_is_refused(series, power):
    # x1^0 and x1^-1 never leave the window under x1 -> x1^(p^2), so the
    # sum would never end
    with pytest.raises(ValueError, match=f"power must be at least 1, got {power}"):
        series(SeriesContext(3, 4, -81, 81, 1), power)


def test_series_invert_units():
    ctx = SeriesContext(3, 4, 0, 8, 3)
    u = TruncSeries(ctx, {(0, 0): (2, 1), (1, 0): (5, 0), (0, 2): (1, 7)})
    v = series_invert(u)
    assert (u * v).coeffs == TruncSeries.one(ctx).coeffs


def test_series_invert_rejects_nonunit():
    ctx = SeriesContext(3, 4, 0, 8, 3)
    x1 = TruncSeries.monomial(ctx, 1, 0)
    with pytest.raises(Exception):
        series_invert(x1)

