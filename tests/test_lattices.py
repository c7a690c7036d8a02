"""Tests for semilinear modules, stable lattices, and the lift census."""

import pytest
from hypothesis import given, strategies as st

from endolift.errors import (
    ConsistencyFailure,
    PrecisionTooLow,
    ShapeViolation,
)
from endolift.lattices import (
    DescentReport,
    SemilinearModule,
    classify_superlattice,
    count_hodge_lifts,
    descend_superlattice,
    enumerate_stable_sublattices,
    enumerate_stable_superlattices,
    hermite_form,
    hodge_lift_census,
    lie_action_parity,
    operator_sanity,
    ramified_rank2,
    standard_rank2,
    subspace_count,
    superlattice_family,
    tensor_rank4,
    _ResidueField,
    _apply_dual_order,
    _apply_dual_uniformizer,
    _graph_contains,
    _graph_generators,
)
from endolift.witt import WittScalar


def _vec(module, *ints):
    return tuple(module.scalar(n) for n in ints)


class TestSemilinearModules:
    @pytest.mark.parametrize("p", [3, 5])
    def test_operator_sanity(self, p):
        operator_sanity(standard_rank2(p))
        operator_sanity(standard_rank2(p, action="anti-normalized"))
        operator_sanity(ramified_rank2(p))
        operator_sanity(tensor_rank4(p))

    def test_sanity_rejects_corrupted_operators(self):
        module = standard_rank2(3)
        one = module.scalar(1)
        broken = SemilinearModule(
            module.p,
            module.prec,
            module.rank,
            ((one, one), (one, one)),  # FV is no longer p
            module.V,
            module.actions,
            module.label,
        )
        with pytest.raises(ConsistencyFailure):
            operator_sanity(broken)

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
    def test_fv_is_multiplication_by_p(self, x, y, c):
        module = standard_rank2(3)
        v = _vec(module, x, y)
        fv = module.apply_F(module.apply_V(v))
        vf = module.apply_V(module.apply_F(v))
        pv = tuple(e * 3 for e in v)
        assert fv == pv and vf == pv

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_frobenius_is_sigma_semilinear(self, x, y):
        module = standard_rank2(3)
        w = WittScalar.omega(3, module.prec)
        v = _vec(module, x, y)
        wv = tuple(w * e for e in v)
        lhs = module.apply_F(wv)
        rhs = tuple(w.sigma() * e for e in module.apply_F(v))
        assert lhs == rhs

    def test_linear_actions_commute_with_scalars(self):
        module = tensor_rank4(3)
        w = WittScalar.omega(3, module.prec)
        v = _vec(module, 1, 2, 3, 4)
        for name, matrix, twist in module.operator_list():
            if twist:
                continue
            wv = tuple(w * e for e in v)
            assert module.apply(matrix, wv) == tuple(
                w * e for e in module.apply(matrix, v)
            )

    def test_rank4_action_labels(self):
        module = tensor_rank4(3)
        assert set(module.actions) == {"omega-order", "omega-scalar"}


class TestHermiteForm:
    def test_idempotent(self):
        module = standard_rank2(3)
        lat = hermite_form(module, [_vec(module, 3, 5), _vec(module, 0, 9)])
        again = hermite_form(module, lat.rows, lat.scale)
        assert again.rows == lat.rows

    def test_contains_its_rows_and_multiples(self):
        module = standard_rank2(3)
        lat = hermite_form(module, [_vec(module, 9, 1), _vec(module, 0, 27)])
        for row in lat.rows:
            assert lat.contains(row)
            assert lat.contains(tuple(e * 7 for e in row))
        combo = tuple(x + y for x, y in zip(lat.rows[0], lat.rows[1]))
        assert lat.contains(combo)

    def test_contains_rejects_outside_vectors(self):
        module = standard_rank2(3)
        lat = hermite_form(module, [_vec(module, 3, 0), _vec(module, 0, 3)])
        assert not lat.contains(_vec(module, 1, 0))
        assert not lat.contains(_vec(module, 0, 1))

    def test_pivot_and_index_exponents(self):
        module = standard_rank2(3)
        lat = hermite_form(module, [_vec(module, 3, 1), _vec(module, 0, 9)])
        assert lat.pivot_exponents() == (1, 2)
        assert lat.index_exponent() == 3
        assert not lat.is_diagonal()

    def test_scale_shifts_index(self):
        module = standard_rank2(3)
        # the same integral rows viewed at scale 1 (rows are p^-1 times these)
        lat = hermite_form(module, [_vec(module, 3, 0), _vec(module, 0, 3)], scale=1)
        assert lat.index_exponent() == 0


class TestStableSublattices:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_unique_per_index(self, k):
        module = standard_rank2(3)
        found = enumerate_stable_sublattices(module, k)
        assert len(found) == 1
        lat = found[0]
        assert lat.pivot_exponents() == ((k + 1) // 2, k // 2)
        assert lat.is_diagonal()
        assert lat.index_exponent() == k

    def test_parity_alternates(self):
        module = standard_rank2(3)
        parities = [
            lie_action_parity(enumerate_stable_sublattices(module, k)[0])
            for k in range(4)
        ]
        assert parities == ["psi", "psi-bar", "psi", "psi-bar"]

    def test_precision_guard(self):
        module = standard_rank2(3, prec=3)
        with pytest.raises(PrecisionTooLow):
            enumerate_stable_sublattices(module, 4)

    def test_parity_validation(self):
        module = standard_rank2(3)
        bad = hermite_form(module, [_vec(module, 9, 0), _vec(module, 0, 1)])
        with pytest.raises(ShapeViolation):
            lie_action_parity(bad)
        nondiag = hermite_form(module, [_vec(module, 3, 1), _vec(module, 0, 3)])
        with pytest.raises(ValueError):
            lie_action_parity(nondiag)


class TestSuperlattices:
    def test_family_lists(self):
        assert superlattice_family(1, 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert superlattice_family(2, 1) == [(1, 1, 0)]
        assert sorted(superlattice_family(2, 2)) == [
            (0, 1, 1),
            (0, 2, 0),
            (1, 0, 1),
            (1, 1, 0),
            (2, 0, 0),
        ]

    def test_subspace_counts(self):
        assert subspace_count(3, 1) == 820
        assert subspace_count(3, 2) == 7462

    def test_exhaustive_one_step_window(self):
        module = tensor_rank4(3)
        found = enumerate_stable_superlattices(module, 1, 1)
        assert [classify_superlattice(lat) for lat in found] == superlattice_family(1, 1)
        for lat in found:
            assert lat.index_exponent() == -2

    def test_deep_window_diagonal_family(self):
        module = tensor_rank4(3)
        found = enumerate_stable_superlattices(module, 2, 2)
        assert [classify_superlattice(lat) for lat in found] == superlattice_family(2, 2)

    def test_s_zero_is_the_full_lattice(self):
        module = tensor_rank4(3)
        found = enumerate_stable_superlattices(module, 0, 1)
        assert len(found) == 1
        assert found[0].index_exponent() == 0

    def test_classify_rejects_off_family_shapes(self):
        module = tensor_rank4(3)
        rows = [
            _vec(module, 1, 0, 0, 0),
            _vec(module, 0, 3, 0, 0),
            _vec(module, 0, 0, 1, 0),
            _vec(module, 0, 0, 0, 1),
        ]
        lat = hermite_form(module, rows)
        with pytest.raises(ShapeViolation):
            classify_superlattice(lat)

    def test_precision_guard(self):
        module = tensor_rank4(3, prec=4)
        with pytest.raises(PrecisionTooLow):
            enumerate_stable_superlattices(module, 2, 2)


class TestDescent:
    @pytest.mark.parametrize("p", [3, 5])
    def test_family_descends_stably(self, p):
        for delta in (0, 1):
            for a in range(0, 2):
                for b in range(0, 2):
                    if a + b + delta > 2:
                        continue
                    report = descend_superlattice(a, b, delta, p)
                    assert isinstance(report, DescentReport)
                    assert (report.a, report.b, report.delta) == (a, b, delta)
                    assert report.frame_shift() == delta

    def test_validation(self):
        with pytest.raises(ValueError):
            descend_superlattice(0, 0, 2, 3)
        with pytest.raises(ValueError):
            descend_superlattice(-1, 0, 0, 3)


def hodge_lift_census_naive(p):
    """Same census with no factoring at all: every graph, every operator,
    full membership checks.  Quadratically slower; the oracle for
    hodge_lift_census."""
    field = _ResidueField(p)
    elems = field.elements()
    rows = [(x, y) for x in elems for y in elems]
    counts = {"all": 0, "order_stable": 0, "uniformizer_stable": 0, "both_stable": 0}
    for r1 in rows:
        for r2 in rows:
            c = (r1, r2)
            g1, g2 = _graph_generators(field, c)
            counts["all"] += 1
            order_ok = all(
                _graph_contains(field, c, _apply_dual_order(field, g)) for g in (g1, g2)
            )
            unif_ok = all(
                _graph_contains(field, c, _apply_dual_uniformizer(field, g))
                for g in (g1, g2)
            )
            if order_ok:
                counts["order_stable"] += 1
            if unif_ok:
                counts["uniformizer_stable"] += 1
            if order_ok and unif_ok:
                counts["both_stable"] += 1
    return counts


class TestHodgeLiftCensus:
    def test_census_at_three(self):
        census = hodge_lift_census(3)
        assert census == {
            "all": 3**8,
            "order_stable": 1,
            "uniformizer_stable": 3**4,
            "both_stable": 1,
        }

    def test_census_matches_naive_enumeration(self):
        assert hodge_lift_census(3) == hodge_lift_census_naive(3)

    @pytest.mark.parametrize("p", [3, 5])
    def test_unique_joint_lift(self, p):
        assert count_hodge_lifts(p) == 1
