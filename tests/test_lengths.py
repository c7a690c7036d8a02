"""Tests for chain-ring arithmetic, SNF measurement, and quotient lengths."""

import pytest
from hypothesis import given, settings, strategies as st

from endolift import lengths
from endolift.errors import (
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
    presentation_length,
    quotient_length,
    quotient_length_details,
    vertical_multiplicity,
)
from endolift.windows import CaseDescriptor, recursion_context, solve_thickened_recursion
from endolift.witt import pair_add, pair_mul, pair_val

CTX = ChainContext(3, 4, -12, 12)


def _mono(e, a=1, b=0, ctx=CTX):
    return ChainScalar.monomial(ctx, e, (a, b))


class TestChainScalar:
    def test_context_validation(self):
        with pytest.raises(ValueError):
            ChainContext(3, 0, -4, 4)
        with pytest.raises(ValueError):
            ChainContext(3, 2, 1, 4)

    def test_add_sub_roundtrip(self):
        x = ChainScalar(CTX, {0: (2, 1), 3: (5, 0)})
        y = ChainScalar(CTX, {-1: (1, 1), 3: (4, 80)})
        assert (x + y) - y == x
        assert (x - x).is_zero()

    def test_mul_commutes(self):
        x = ChainScalar(CTX, {0: (2, 1), 2: (5, 0)})
        y = ChainScalar(CTX, {-1: (1, 1), 1: (7, 3)})
        assert x * y == y * x

    def test_product_with_zero_returns_the_zero_operand(self):
        x = ChainScalar(CTX, {0: (2, 1), 2: (5, 0)})
        zero = ChainScalar.zero(CTX)
        assert x * zero is zero
        assert zero * x is zero
        with pytest.raises(ValueError):
            x * ChainScalar.zero(ChainContext(3, 4, -6, 6))

    def test_shift_is_monomial_multiplication(self):
        x = ChainScalar(CTX, {0: (2, 1), 2: (5, 0)})
        assert x.shift(3) == x * _mono(3)

    def test_divide_p_power(self):
        x = ChainScalar(CTX, {1: (9, 18)})
        assert x.divide_p_power(2) == ChainScalar(CTX, {1: (1, 2)})
        with pytest.raises(InexactDivision):
            ChainScalar(CTX, {0: (3, 1)}).divide_p_power(1)

    def test_p_valuation_and_leading_degree(self):
        x = ChainScalar(CTX, {-2: (9, 0), 1: (3, 0), 4: (6, 0)})
        assert x.p_valuation() == 1
        assert x.leading_degree(1) == 1
        assert x.leading_degree(2) == -2
        assert x.leading_degree(0) is None

    @given(st.dictionaries(
        st.integers(-12, 12),
        st.tuples(st.integers(0, 4), st.integers(0, 80), st.integers(0, 80)),
        max_size=8,
    ))
    def test_valuation_and_leading_degree_match_the_pairwise_reference(self, terms):
        x = ChainScalar(CTX, {e: (3**i * a, 3**i * b) for e, (i, a, b) in terms.items()})
        vals = {e: pair_val(v, 3, CTX.modulus) for e, v in x.coeffs.items()}
        v = min(vals.values(), default=CTX.modulus)
        assert x.p_valuation() == v
        for at in range(-1, CTX.modulus + 2):
            want = min((e for e, w in vals.items() if w == at), default=None)
            assert x.leading_degree(at) == want
        assert x.pivot_key() == (v, x.leading_degree(v))


def _naive_chain_mul(left, right, r, mod, lo, hi):
    """Reference product: one pair_mul and one pair_add per term pair."""
    if len(left) > len(right):
        left, right = right, left
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
    return ChainScalar(ctx, {e: (draw(coeff), draw(coeff)) for e in exps}).coeffs


class TestProductKernel:
    @settings(max_examples=300)
    @given(st.data())
    def test_both_branches_match_the_naive_product(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        stride = data.draw(st.sampled_from([1, 2, 3, 24]))
        lo = -data.draw(st.integers(0, 30 * stride))
        hi = data.draw(st.integers(0, 30 * stride))
        ctx = ChainContext(p, data.draw(st.integers(1, 7)), lo, hi)
        left = data.draw(_chain_operand(ctx, stride))
        right = data.draw(_chain_operand(ctx, stride))
        args = (ctx.r, ctx.mod, ctx.lo, ctx.hi)
        want = _naive_chain_mul(left, right, *args)
        assert lengths._mul_short(left, right, *args) == want
        if left and right:
            assert lengths._mul_packed(left, right, *args) == want
        assert (ChainScalar(ctx, left) * ChainScalar(ctx, right)).coeffs == want

    def test_slots_wider_than_eight_bytes_still_match(self):
        ctx = ChainContext(3, 30, -40, 40)
        top = (ctx.mod - 1, ctx.mod - 1)
        x = {e: top for e in range(-40, 41, 2)}
        y = {e: top for e in range(-20, 21)}
        args = (ctx.r, ctx.mod, ctx.lo, ctx.hi)
        assert lengths._mul_packed(x, y, *args) == _naive_chain_mul(x, y, *args)

    def test_branch_follows_the_operand_sizes(self, monkeypatch):
        used = []
        for name in ("_mul_short", "_mul_packed"):
            def spy(*args, _name=name):
                used.append(_name)
                return _naive_chain_mul(*args)
            monkeypatch.setattr(lengths, name, spy)
        short = ChainScalar(CTX, {0: (1, 1), 3: (2, 0)})
        dense = ChainScalar(CTX, {e: (e % 7, 1) for e in range(-12, 13)})
        assert (short * ChainScalar.zero(CTX)).is_zero() and used == []
        short * dense
        dense * dense
        assert used == ["_mul_short", "_mul_packed"]


class TestChainSNF:
    def test_unit_entry(self):
        assert chain_snf([[_mono(0)]], CTX) == [0]

    def test_p_power_entry(self):
        assert chain_snf([[_mono(0, 9, 0)]], CTX) == [2]

    def test_x_shift_is_invisible(self):
        # x1 is invertible in the chain ring, so x1-powers scale away
        assert chain_snf([[_mono(5, 9, 0)]], CTX) == [2]
        assert chain_snf([[_mono(-3, 3, 0)]], CTX) == [1]

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

    def test_unit_row_scaling_invariance(self):
        rows = [
            [_mono(0, 3, 0), _mono(1, 9, 0)],
            [_mono(-1, 1, 1), _mono(0, 0, 3)],
        ]
        base = chain_snf([list(r) for r in rows], CTX)
        unit = ChainScalar(CTX, {0: (2, 1), 1: (5, 0)})
        scaled = [[unit * e for e in rows[0]], list(rows[1])]
        assert chain_snf(scaled, CTX) == base


class TestPresentation:
    def test_column_counts(self):
        ctx = ChainContext(3, 3, -6, 6)
        m = 3
        a = [_mono(0, 1, 0, ctx) for _ in range(m)]
        b = [_mono(1, 2, 0, ctx) for _ in range(m)]
        plain = ChainPresentation.from_corner_series(ctx, m, a, b)
        assert len(plain.columns) == 2 * m
        maximal = ChainPresentation.from_corner_series(ctx, m, a, b, maximal_multiple=True)
        assert len(maximal.columns) == 2 * m + 2 * (m - 1)
        rows = plain.rows()
        assert len(rows) == m and len(rows[0]) == 2 * m

    def test_presentation_length_sums_exponents(self):
        ctx = ChainContext(3, 3, -6, 6)
        m = 2
        a = [_mono(0, 3, 0, ctx), _mono(0, 0, 0, ctx)]
        b = [_mono(0, 9, 0, ctx), _mono(0, 3, 0, ctx)]
        pres = ChainPresentation.from_corner_series(ctx, m, a, b)
        total, exps = presentation_length(pres)
        assert total == sum(exps)
        assert len(exps) == m


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

    def test_precision_scale_is_invisible(self):
        case = CaseDescriptor.from_label("unr", 3)
        base = quotient_length_details(case, 1)
        doubled = quotient_length_details(case, 1, precision_scale=2)
        assert doubled.length == base.length
        assert doubled.exponents == base.exponents

    def test_pinned_radius_skips_stabilization(self, monkeypatch):
        def no_driver(*args):
            raise AssertionError("the stabilization driver ran")

        monkeypatch.setattr(lengths, "_stabilize", no_driver)
        case = CaseDescriptor.from_label("unr", 3)
        report = quotient_length_details(case, 1, chain_radius=36)
        assert report.chain_radius == 36
        assert not report.retried
        assert length_by_elimination(case, 1, chain_radius=36) == 2
        assert all(annihilator_report(case, 1, chain_radius=72).values())


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
            lengths, "_peel_at_radius", lambda case, sol, k, radius: radius.bit_length() % 2
        )
        with pytest.raises(WindowExhausted):
            length_by_elimination(CaseDescriptor.from_label("unr", 3), 1)

    def test_annihilator_raises_when_radii_keep_disagreeing(self, monkeypatch):
        monkeypatch.setattr(
            lengths, "_membership", lambda pres, base_len, col: pres.ctx.hi.bit_length() % 2 == 0
        )
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

    def test_accepts_descriptor(self):
        case = CaseDescriptor.from_label("ram", 3)
        assert vertical_multiplicity(case, 3, 1) == 2


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
