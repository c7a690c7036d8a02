"""Unit and property tests for the quadratic Witt-style scalar arithmetic."""

import pytest
from hypothesis import given, strategies as st

from endolift.errors import InexactDivision, NotAUnit
from endolift.witt import (
    WittScalar,
    is_odd_prime,
    nonresidue,
    pair_add,
    pair_inv,
    pair_mul,
    pair_sub,
    pair_val,
)

PRIMES = [3, 5, 7, 11, 13]

primes = st.sampled_from(PRIMES)
precs = st.integers(min_value=1, max_value=9)
ints = st.integers(min_value=-(10**6), max_value=10**6)


@st.composite
def scalars(draw, p=None, prec=None):
    pp = p if p is not None else draw(primes)
    pr = prec if prec is not None else draw(precs)
    return WittScalar(pp, pr, draw(ints), draw(ints))


@st.composite
def scalar_pairs(draw):
    p = draw(primes)
    prec = draw(precs)
    return draw(scalars(p, prec)), draw(scalars(p, prec))


@st.composite
def scalar_triples(draw):
    p = draw(primes)
    prec = draw(precs)
    return tuple(draw(scalars(p, prec)) for _ in range(3))


def test_is_odd_prime():
    assert [n for n in range(2, 30) if is_odd_prime(n)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)
    assert not is_odd_prime(-3)


def test_nonresidue_is_a_nonresidue():
    for p in PRIMES:
        r = nonresidue(p)
        assert 1 < r < p
        assert pow(r, (p - 1) // 2, p) == p - 1
        # and it is the least one
        for s in range(2, r):
            assert pow(s, (p - 1) // 2, p) == 1


def test_constructor_validates():
    # moduli are cached only for contexts that passed the checks, so a
    # rejected context stays rejected however often it is asked for
    for _ in range(2):
        with pytest.raises(ValueError, match="odd prime, got 4"):
            WittScalar(4, 3)
        with pytest.raises(ValueError):
            WittScalar(2, 3)
        with pytest.raises(ValueError, match="nonnegative, got -1"):
            WittScalar(3, -1)
    assert (WittScalar(5, 3, -1, 126).pair(), WittScalar(5, 3).modulus) == ((124, 1), 125)
    assert WittScalar(3, 0, 5, 7).pair() == (0, 0)


def test_immutability():
    x = WittScalar(3, 4, 1, 2)
    with pytest.raises(AttributeError):
        x.a = 7


def test_repr_smoke():
    assert "w" in repr(WittScalar(3, 2, 0, 1))
    assert "w" not in repr(WittScalar(3, 2, 5, 0))


@given(scalar_pairs())
def test_add_commutes(xy):
    x, y = xy
    assert x + y == y + x


@given(scalar_pairs())
def test_mul_commutes(xy):
    x, y = xy
    assert x * y == y * x


@given(scalar_triples())
def test_mul_associates(xyz):
    x, y, z = xyz
    assert (x * y) * z == x * (y * z)


@given(scalar_triples())
def test_distributivity(xyz):
    x, y, z = xyz
    assert x * (y + z) == x * y + x * z


@given(scalars())
def test_additive_inverse(x):
    assert (x + (-x)).is_zero()
    assert x - x == WittScalar.zero(x.p, x.prec)


@given(primes, precs, ints, ints)
def test_from_int_is_a_homomorphism(p, prec, m, n):
    f = lambda k: WittScalar.from_int(p, prec, k)
    assert f(m) + f(n) == f(m + n)
    assert f(m) * f(n) == f(m * n)


def test_omega_squares_to_nonresidue():
    for p in PRIMES:
        w = WittScalar.omega(p, 6)
        assert w * w == WittScalar.from_int(p, 6, nonresidue(p))


@given(scalars())
def test_sigma_is_an_involution(x):
    assert x.sigma().sigma() == x


@given(scalar_pairs())
def test_sigma_is_multiplicative(xy):
    x, y = xy
    assert (x * y).sigma() == x.sigma() * y.sigma()
    assert (x + y).sigma() == x.sigma() + y.sigma()


@given(scalars())
def test_sigma_fixes_prime_subring(x):
    n = WittScalar.from_int(x.p, x.prec, x.a)
    assert n.sigma() == n


@given(scalars())
def test_norm_and_trace_land_downstairs(x):
    assert x.norm().b == 0
    assert x.trace().b == 0
    assert x.norm() == x * x.sigma()
    assert x.trace() == x + x.sigma()


@given(scalars())
def test_valuation_zero_iff_unit(x):
    if x.is_zero():
        assert x.valuation() == x.prec
    elif x.valuation() == 0:
        # a unit: the residue a + b*w mod p is nonzero
        assert (x.a % x.p, x.b % x.p) != (0, 0)
        assert x * x.inverse() == WittScalar.one(x.p, x.prec)
    else:
        assert (x.a % x.p, x.b % x.p) == (0, 0)
        with pytest.raises(NotAUnit):
            x.inverse()


@given(scalar_pairs())
def test_valuation_is_multiplicative_below_cap(xy):
    x, y = xy
    v = (x * y).valuation()
    expected = x.valuation() + y.valuation()
    assert v == min(expected, x.prec)


@given(scalar_pairs())
def test_valuation_ultrametric(xy):
    x, y = xy
    assert (x + y).valuation() >= min(x.valuation(), y.valuation())


@given(scalars(), st.integers(min_value=0, max_value=4))
def test_divide_exact_inverts_integer_scaling(x, e):
    q = x.p**e
    y = x * q
    if e <= x.prec:
        recovered = y.divide_exact(q)
        # agreement holds on the digits that survive the scaling
        assert (recovered - x).valuation() >= x.prec - e


def test_divide_exact_rejects_inexact():
    x = WittScalar(3, 4, 1, 0)
    with pytest.raises(InexactDivision):
        x.divide_exact(3)


@given(scalars(), st.integers(min_value=0, max_value=8))
def test_reduce_precision_truncates(x, new_prec):
    if new_prec > x.prec:
        return
    y = WittScalar(x.p, new_prec, x.a, x.b)
    assert y.prec == new_prec
    mod = x.p**new_prec
    assert y.a == x.a % mod and y.b == x.b % mod


@given(scalars(), st.integers(min_value=1, max_value=10))
def test_pow_matches_repeated_multiplication(x, n):
    out = WittScalar.one(x.p, x.prec)
    for _ in range(n):
        out = out * x
    assert x**n == out


def test_mixed_context_arithmetic_is_rejected():
    x = WittScalar(3, 4, 1, 1)
    y = WittScalar(5, 4, 1, 1)
    z = WittScalar(3, 5, 1, 1)
    for other in (y, z):
        with pytest.raises(ValueError):
            x + other
        with pytest.raises(ValueError):
            x * other


# -- low-level pair helpers -------------------------------------------------


@given(primes, precs, ints, ints, ints, ints)
def test_pair_mul_matches_scalar_mul(p, prec, a, b, c, d):
    mod = p**prec
    r = nonresidue(p)
    got = pair_mul((a % mod, b % mod), (c % mod, d % mod), r, mod)
    want = WittScalar(p, prec, a, b) * WittScalar(p, prec, c, d)
    assert got == want.pair()


@given(primes, precs, ints, ints)
def test_pair_add_sub_roundtrip(p, prec, a, b):
    mod = p**prec
    x = (a % mod, b % mod)
    y = (b % mod, a % mod)
    assert pair_sub(pair_add(x, y, mod), y, mod) == x


@given(primes, precs, ints, ints)
def test_pair_inv_on_units(p, prec, a, b):
    mod = p**prec
    x = (a % mod, b % mod)
    if pair_val(x, p, prec) != 0:
        return
    r = nonresidue(p)
    inv = pair_inv(x, p, r, mod)
    assert pair_mul(x, inv, r, mod) == (1 % mod, 0)
