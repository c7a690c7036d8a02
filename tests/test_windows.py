"""Tests for case descriptors, displays, and the lifting recursions."""

import pytest
from hypothesis import given, strategies as st

from endolift.series import TruncSeries
from endolift.windows import (
    CaseDescriptor,
    alpha_beta,
    check_phi_commutation,
    closed_form_vertical_pair,
    gamma_matrix,
    hasse_witt_ideal,
    integrality_predicate,
    mat_eq,
    mat_from_rows,
    mat_map,
    mat_scale,
    one_variable_context,
    recursion_context,
    solve_thickened_recursion,
    solve_vertical_recursion,
    structure_check,
    structure_epsilon_degree,
    tensor_square_embedding,
    universal_display,
)
from endolift.witt import WittScalar
from endolift.inventory import conductor, total_proper_intersection

CASES = ["unr", "ram"]


def _vp(n: int, p: int) -> int:
    if n == 0:
        return 10**9
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestCaseDescriptor:
    def test_labels_roundtrip(self):
        for lab in CASES:
            for p in (3, 5, 7):
                assert CaseDescriptor.from_label(lab, p).label == lab

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            CaseDescriptor.from_label("split", 3)

    @pytest.mark.parametrize(
        "label, canonical",
        [("unr", "unr"), ("unramified", "unr"), ("inert", "unr"), ("ram", "ram"), ("ramified", "ram")],
    )
    def test_both_label_routes_accept_the_same_aliases(self, label, canonical):
        assert CaseDescriptor.from_label(label, 3).label == canonical
        assert total_proper_intersection(label, 3, 1) == total_proper_intersection(canonical, 3, 1)

    @pytest.mark.parametrize("label", ["split", "", "UNR", "inertial", None])
    def test_both_label_routes_reject_the_same_labels(self, label):
        with pytest.raises(ValueError):
            CaseDescriptor.from_label(label, 3)
        with pytest.raises(ValueError):
            total_proper_intersection(label, 3, 1)

    def test_trace_is_param_sum(self):
        for lab in CASES:
            c = CaseDescriptor.from_label(lab, 3).with_gamma(2, 3)
            a, b, cc, d = c.param_scalars(6)
            tr, _ = c.gamma_trace_norm(2, 3)
            assert a + d == WittScalar.from_int(3, 6, tr)

    def test_unramified_determinant_is_norm(self):
        c = CaseDescriptor.from_label("unr", 5).with_gamma(1, 2)
        a, b, cc, d = c.param_scalars(6)
        _, nm = c.gamma_trace_norm(1, 2)
        assert a * d - b * cc == WittScalar.from_int(5, 6, nm)

    @given(
        st.sampled_from(CASES),
        st.sampled_from([3, 5]),
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=-40, max_value=40),
    )
    def test_conductor_is_cofactor_valuation(self, lab, p, s, t):
        if t == 0 or _vp(t, p) >= 3:
            return
        c = CaseDescriptor.from_label(lab, p)
        tr, nm = c.gamma_trace_norm(s, t)
        assert conductor(tr, nm, lab, p) == _vp(t, p)


class TestIntegralityPredicate:
    @given(
        st.sampled_from(CASES),
        st.sampled_from([3, 5]),
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=-40, max_value=40),
    )
    def test_predicate_detects_positive_conductor(self, lab, p, s, t):
        if t == 0 or _vp(t, p) >= 3:
            return
        case = CaseDescriptor.from_label(lab, p).with_gamma(s, t)
        got = integrality_predicate(*case.param_scalars(8))
        assert got == (_vp(t, p) > 0)

    def test_known_examples(self):
        c = CaseDescriptor.from_label("unr", 3)
        assert not integrality_predicate(*c.with_gamma(2, 1).param_scalars(8))
        assert integrality_predicate(*c.with_gamma(2, 3).param_scalars(8))


class TestDisplays:
    def test_universal_display_shapes(self):
        assert universal_display(3, 1).dimension == 2
        assert universal_display(3, 2).dimension == 4

    def test_hasse_witt_one_variable(self):
        ideal = hasse_witt_ideal(universal_display(3, 1))
        gen = ideal.generator
        assert gen.support() == [(1, 0)]
        assert gen.coeffs[(1, 0)] == (1, 0)

    def test_hasse_witt_two_variable(self):
        ideal = hasse_witt_ideal(universal_display(3, 2))
        gen = ideal.generator
        assert gen.support() == [(1, 1)]
        assert gen.coeffs[(1, 1)] == (1, 0)

    def test_specialize_zero_drops_variables(self):
        d = universal_display(3, 2).specialize_zero()
        for row in d.entries:
            for entry in row:
                for (m1, m2) in entry.support():
                    assert m1 == 0 and m2 == 0

    def test_tensor_square_embedding_dimension(self):
        assert tensor_square_embedding(universal_display(3, 1)).dimension == 4


class TestVerticalRecursion:
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("lab", CASES)
    def test_fixed_point_matches_closed_form(self, lab, p):
        case = CaseDescriptor.from_label(lab, p)
        vert = solve_vertical_recursion(case)
        assert vert.stabilized
        closed = closed_form_vertical_pair(case, one_variable_context(p))
        assert vert.pair == closed.normalized()

    @pytest.mark.parametrize("lab", CASES)
    def test_closed_form_reduces_to_undeformed_pair(self, lab):
        case = CaseDescriptor.from_label(lab, 3).with_gamma(2, 3)
        ctx = one_variable_context(3)
        closed = closed_form_vertical_pair(case, ctx)
        base = gamma_matrix(case, ctx)
        at_zero = lambda M: mat_map(M, lambda s: s.substitute_x1_zero())
        # stored matrices carry one factor of p
        assert mat_eq(at_zero(closed.Y), mat_scale(base.Y, 3))
        assert mat_eq(at_zero(closed.Z), mat_scale(base.Z, 3))

    def test_one_variable_commutation(self):
        case = CaseDescriptor.from_label("unr", 3)
        vert = solve_vertical_recursion(case)
        assert check_phi_commutation(vert.pair, two_variable=False)

    def test_commutation_rejects_perturbed_pair(self):
        from endolift.windows import QuasiEndoPair

        case = CaseDescriptor.from_label("unr", 3)
        vert = solve_vertical_recursion(case)
        ctx = vert.pair.ctx
        bump = TruncSeries.one(ctx)
        Y = vert.pair.Y
        Y2 = mat_from_rows([[Y[0][0] + bump, Y[0][1]], [Y[1][0], Y[1][1]]])
        assert not check_phi_commutation(
            QuasiEndoPair(Y2, vert.pair.Z, vert.pair.denom_exp), two_variable=False
        )


class TestThickenedTower:
    @pytest.mark.parametrize("lab", CASES)
    def test_level_zero_is_the_closed_form(self, lab):
        case = CaseDescriptor.from_label(lab, 3)
        ctx = recursion_context(3, 1)
        sol = solve_thickened_recursion(case, 1, ctx)
        closed = closed_form_vertical_pair(case, ctx.weakened(prec=ctx.prec + 1)).with_context(ctx)
        assert sol.pairs[0] == closed

    @pytest.mark.parametrize("lab", CASES)
    @pytest.mark.parametrize("p", [3, 5])
    def test_two_variable_commutation(self, lab, p):
        # the intertwining identities are a fixed-point property, so they
        # hold for the top pair of each tower (lower pairs are intermediate)
        case = CaseDescriptor.from_label(lab, p)
        for k in (1, 2):
            sol = solve_thickened_recursion(case, k)
            assert check_phi_commutation(sol.pairs[k], two_variable=True)

    @pytest.mark.parametrize("lab", CASES)
    def test_reduction_compatibility(self, lab):
        case = CaseDescriptor.from_label(lab, 3)
        deep = solve_thickened_recursion(case, 2, recursion_context(3, 2))
        ctx1 = recursion_context(3, 1)
        shallow = solve_thickened_recursion(case, 1, ctx1)
        red = deep.pairs[1].with_context(ctx1)
        assert mat_eq(red.Y, shallow.pairs[1].Y)
        assert mat_eq(red.Z, shallow.pairs[1].Z)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_thickened_recursion(CaseDescriptor.from_label("unr", 3), 0)

    def test_increment_lookup(self):
        sol = solve_thickened_recursion(CaseDescriptor.from_label("unr", 3), 1)
        assert sol.increment("y", 1) is sol.increments_y[1]
        with pytest.raises(ValueError):
            sol.increment("y", 0)

    def test_alpha_beta_are_corner_series(self):
        a, b, sol = alpha_beta(CaseDescriptor.from_label("unr", 3), 1)
        assert a.coeffs == sol.pairs[1].Y[0][1].coeffs
        assert b.coeffs == sol.pairs[1].Z[0][1].coeffs

    def test_known_leading_corner_coefficient(self):
        # at depth 1 the plain corner's x2-linear coefficient is -2p*w
        sol = solve_thickened_recursion(CaseDescriptor.from_label("unr", 3), 1)
        got = sol.beta.coefficient(0, 1)
        assert got == WittScalar(3, sol.ctx.prec, 0, -6)


class TestStructureReport:
    @pytest.mark.parametrize("lab", CASES)
    @pytest.mark.parametrize("p", [3, 5])
    def test_structure_clauses_hold(self, lab, p):
        sol = solve_thickened_recursion(CaseDescriptor.from_label(lab, p), 2)
        report = structure_check(sol, raise_on_failure=False)
        assert report.ok, [c for c in report.clauses if not c.ok]
        assert report.clauses  # nonempty

    def test_epsilon_degrees(self):
        # level 1 collects the even twist-orbits below it, level 2 the odd
        assert structure_epsilon_degree(3, 1) == 2
        assert structure_epsilon_degree(3, 2) == 6
        assert structure_epsilon_degree(3, 3) == 2 + 18
        assert structure_epsilon_degree(5, 2) == 10

    def test_clause_failure_detail(self):
        sol = solve_thickened_recursion(CaseDescriptor.from_label("unr", 3), 1)
        report = structure_check(sol, raise_on_failure=False)
        names = [c.name for c in report.clauses]
        assert len(names) == len(set(names))
