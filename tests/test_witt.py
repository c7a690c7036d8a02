"""Unit and property tests for the quadratic Witt-style scalar arithmetic:
the pair helpers, against the laws of the ring and against the tests' own
reference (`witt_reference`), and the case-parameter wrapper."""

import pytest
from hypothesis import given, strategies as st

from endolift.errors import NotAUnit
from endolift.witt import (
    WittScalar,
    is_odd_prime,
    nonresidue,
    pair_add,
    pair_inv,
    pair_mul,
    pair_sigma,
    pair_sub,
    pair_val,
)
from witt_reference import QuadraticRing

PRIMES = [3, 5, 7, 11, 13]

primes = st.sampled_from(PRIMES)
precs = st.integers(min_value=1, max_value=9)
ints = st.integers(min_value=-(10**6), max_value=10**6)


@st.composite
def rings(draw):
    """A reference ring at a drawn prime and precision."""
    return QuadraticRing(draw(primes), draw(precs))


@st.composite
def elements(draw, count):
    """A reference ring and `count` pairs reduced in it."""
    ring = draw(rings())
    return (ring,) + tuple(ring.reduce((draw(ints), draw(ints))) for _ in range(count))


def _mul(ring, x, y):
    return pair_mul(x, y, ring.r, ring.mod)


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


# -- the pair helpers against the reference ---------------------------------


@given(elements(2))
def test_pair_mul_matches_the_reference(ring_xy):
    ring, x, y = ring_xy
    assert _mul(ring, x, y) == ring.mul(x, y)


@given(elements(2))
def test_pair_add_and_sub_match_the_reference(ring_xy):
    ring, x, y = ring_xy
    assert pair_add(x, y, ring.mod) == ring.add(x, y)
    assert pair_sub(x, y, ring.mod) == ring.sub(x, y)


@given(elements(1), st.integers(min_value=0, max_value=9))
def test_pair_sigma_and_val_match_the_reference(ring_x, e):
    ring, x = ring_x
    x = ring.reduce((x[0] * ring.p**e, x[1] * ring.p**e))  # valuations up to the cap
    assert pair_sigma(x, ring.mod) == ring.sigma(x)
    assert pair_val(x, ring.p, ring.prec) == ring.val(x)


@given(elements(1))
def test_pair_inv_matches_the_reference(ring_x):
    ring, x = ring_x
    if ring.val(x) == 0:
        assert pair_inv(x, ring.p, ring.r, ring.mod) == ring.inv(x)
    else:
        with pytest.raises(NotAUnit):
            pair_inv(x, ring.p, ring.r, ring.mod)


@given(elements(1))
def test_pair_inv_on_units(ring_x):
    ring, x = ring_x
    if pair_val(x, ring.p, ring.prec) != 0:
        return
    assert _mul(ring, x, pair_inv(x, ring.p, ring.r, ring.mod)) == (1 % ring.mod, 0)


# -- the ring laws on the pair helpers ----------------------------------------


@given(elements(2))
def test_add_commutes(ring_xy):
    ring, x, y = ring_xy
    assert pair_add(x, y, ring.mod) == pair_add(y, x, ring.mod)


@given(elements(2))
def test_mul_commutes(ring_xy):
    ring, x, y = ring_xy
    assert _mul(ring, x, y) == _mul(ring, y, x)


@given(elements(3))
def test_mul_associates(ring_xyz):
    ring, x, y, z = ring_xyz
    assert _mul(ring, _mul(ring, x, y), z) == _mul(ring, x, _mul(ring, y, z))


@given(elements(3))
def test_distributivity(ring_xyz):
    ring, x, y, z = ring_xyz
    left = _mul(ring, x, pair_add(y, z, ring.mod))
    assert left == pair_add(_mul(ring, x, y), _mul(ring, x, z), ring.mod)


@given(elements(1))
def test_additive_inverse(ring_x):
    ring, x = ring_x
    assert pair_sub(x, x, ring.mod) == (0, 0)
    assert pair_add(x, pair_sub((0, 0), x, ring.mod), ring.mod) == (0, 0)


@given(elements(2))
def test_pair_add_sub_roundtrip(ring_xy):
    ring, x, y = ring_xy
    assert pair_sub(pair_add(x, y, ring.mod), y, ring.mod) == x


@given(rings(), ints, ints)
def test_the_prime_subring_embeds(ring, m, n):
    f = lambda k: (k % ring.mod, 0)
    assert pair_add(f(m), f(n), ring.mod) == f(m + n)
    assert _mul(ring, f(m), f(n)) == f(m * n)


def test_omega_squares_to_nonresidue():
    for p in PRIMES:
        ring = QuadraticRing(p, 6)
        assert _mul(ring, (0, 1), (0, 1)) == (nonresidue(p), 0)


@given(elements(1))
def test_sigma_is_an_involution(ring_x):
    ring, x = ring_x
    assert pair_sigma(pair_sigma(x, ring.mod), ring.mod) == x


@given(elements(2))
def test_sigma_is_multiplicative(ring_xy):
    ring, x, y = ring_xy
    s = lambda z: pair_sigma(z, ring.mod)
    assert s(_mul(ring, x, y)) == _mul(ring, s(x), s(y))
    assert s(pair_add(x, y, ring.mod)) == pair_add(s(x), s(y), ring.mod)


@given(rings(), ints)
def test_sigma_fixes_prime_subring(ring, a):
    n = (a % ring.mod, 0)
    assert pair_sigma(n, ring.mod) == n


@given(elements(1))
def test_valuation_zero_iff_unit(ring_x):
    ring, x = ring_x
    v = pair_val(x, ring.p, ring.prec)
    if x == (0, 0):
        assert v == ring.prec
    elif v == 0:
        # a unit: the residue a + b*w mod p is nonzero
        assert (x[0] % ring.p, x[1] % ring.p) != (0, 0)
        assert _mul(ring, x, pair_inv(x, ring.p, ring.r, ring.mod)) == (1 % ring.mod, 0)
    else:
        assert (x[0] % ring.p, x[1] % ring.p) == (0, 0)
        with pytest.raises(NotAUnit):
            pair_inv(x, ring.p, ring.r, ring.mod)


@given(elements(2))
def test_valuation_is_multiplicative_below_cap(ring_xy):
    ring, x, y = ring_xy
    v = lambda z: pair_val(z, ring.p, ring.prec)
    assert v(_mul(ring, x, y)) == min(v(x) + v(y), ring.prec)


@given(elements(2))
def test_valuation_ultrametric(ring_xy):
    ring, x, y = ring_xy
    v = lambda z: pair_val(z, ring.p, ring.prec)
    assert v(pair_add(x, y, ring.mod)) >= min(v(x), v(y))


# -- the case-parameter wrapper -----------------------------------------------


def test_constructor_validates():
    # a rejected context stays rejected however often it is asked for
    for _ in range(2):
        with pytest.raises(ValueError, match="odd prime, got 4"):
            WittScalar(4, 3)
        with pytest.raises(ValueError):
            WittScalar(2, 3)
        with pytest.raises(ValueError, match="nonnegative, got -1"):
            WittScalar(3, -1)
    x = WittScalar(5, 3, -1, 126)
    assert (x.a, x.b) == (124, 1)
    x = WittScalar(3, 0, 5, 7)
    assert (x.a, x.b) == (0, 0)


def test_coefficients_must_be_integers():
    x = WittScalar(3, 2, True, 10)
    assert (x.a, x.b) == (1, 1)
    for a, b in ((1.5, 0), (1, 2.0), ("1", 0)):
        with pytest.raises(TypeError):
            WittScalar(3, 2, a, b)
    # 3.0 and 2.0 hash as 3 and 2, so the cached nonresidue would not see them
    nonresidue(3)
    for p, prec in ((3.0, 2), (3, 2.0)):
        with pytest.raises(TypeError):
            WittScalar(p, prec, 1, 0)


@given(elements(2))
def test_scalar_operations_match_the_reference(ring_xy):
    ring, x, y = ring_xy
    sx, sy = (WittScalar(ring.p, ring.prec, *z) for z in (x, y))
    assert ((sx * sy).a, (sx * sy).b) == ring.mul(x, y)
    assert ((sx - sy).a, (sx - sy).b) == ring.sub(x, y)
    assert sx.valuation() == ring.val(x)


@given(elements(1), st.integers(min_value=0, max_value=8))
def test_reduce_precision_truncates(ring_x, new_prec):
    ring, (a, b) = ring_x
    if new_prec > ring.prec:
        return
    y = WittScalar(ring.p, new_prec, a, b)
    assert y.prec == new_prec
    mod = ring.p**new_prec
    assert y.a == a % mod and y.b == b % mod


def test_mixed_context_arithmetic_is_rejected():
    x = WittScalar(3, 4, 1, 1)
    y = WittScalar(5, 4, 1, 1)
    z = WittScalar(3, 5, 1, 1)
    for other in (y, z):
        with pytest.raises(ValueError):
            x - other
        with pytest.raises(ValueError):
            x * other


def test_only_scalars_combine():
    x = WittScalar(3, 4, 1, 1)
    for other in (2, (1, 1)):
        with pytest.raises(TypeError):
            x * other
        with pytest.raises(TypeError):
            x - other
