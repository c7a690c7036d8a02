"""Tests for the component inventory and its closed-form bookkeeping."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from endolift import inventory
from endolift.errors import NotAnOrder
from endolift.inventory import (
    component_inventory,
    conductor,
    displayed_corollary_report,
    displayed_corollary_value,
    endo_order_level,
    intersection_number,
    keating_threshold,
    level_degree,
    per_level_proper_sum,
    per_level_proper_sum_closed_form,
    special_fiber_length,
    total_proper_closed_form,
    total_proper_intersection,
    unit_index,
    vertical_multiplicity_closed_form,
)

# thresholds computed by hand from the step-function formulas:
# unramified a(k) = (p+1)(p^k - 1)/(p - 1), ramified b(k) = p^k + a(k)
THRESHOLDS = {
    ("unr", 3): [0, 4, 16, 52, 160],
    ("ram", 3): [1, 7, 25, 79, 241],
    ("unr", 5): [0, 6, 36, 186, 936],
    ("ram", 5): [1, 11, 61, 311, 1561],
}


class TestConductor:
    def test_small_values(self):
        from endolift.witt import nonresidue

        r = nonresidue(3)
        # 2 + 3w has trace 4, norm 4 - 9r: conductor 1
        assert conductor(4, 4 - 9 * r, "unr", 3) == 1
        # 2 + w has trace 4, norm 4 - r: conductor 0
        assert conductor(4, 4 - r, "unr", 3) == 0

    def test_zero_discriminant_is_not_an_order(self):
        with pytest.raises(NotAnOrder):
            conductor(2, 1, "unr", 3)  # gamma = 1: disc 0

    def test_split_algebra_is_not_an_order(self):
        # disc = 1, a unit square: the algebra splits
        with pytest.raises(NotAnOrder):
            conductor(3, 2, "unr", 3)

    def test_wrong_parity_is_rejected(self):
        # unramified needs even disc valuation, ramified odd
        with pytest.raises(ValueError):
            conductor(0, -3, "unr", 3)  # disc 12, valuation 1
        with pytest.raises(ValueError):
            conductor(0, -2, "ram", 3)  # disc 8, valuation 0


class TestUnitIndex:
    def test_formulas(self):
        assert unit_index("unr", 0, 3, 3) == 9 * 2
        assert unit_index("unr", 1, 3, 3) == 9
        assert unit_index("ram", 0, 3, 3) == 27
        assert unit_index("unr", 2, 2, 3) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            unit_index("unr", 2, 1, 3)
        with pytest.raises(ValueError):
            unit_index("unr", -1, 1, 3)

    @given(st.sampled_from(["unr", "ram"]), st.sampled_from([3, 5, 7]), st.integers(1, 5))
    def test_proper_orbit_counts_telescope(self, lab, p, s):
        total = sum(
            unit_index(lab, t, s, p) - unit_index(lab, t + 1, s, p) for t in range(s)
        )
        assert total == unit_index(lab, 0, s, p) - 1


class TestThresholds:
    @pytest.mark.parametrize("lab", ["unr", "ram"])
    @pytest.mark.parametrize("p", [3, 5])
    def test_table(self, lab, p):
        got = [keating_threshold(lab, k, p) for k in range(5)]
        assert got == THRESHOLDS[(lab, p)]

    def test_ramified_offset(self):
        for p in (3, 5):
            for k in range(5):
                assert keating_threshold("ram", k, p) == p**k + keating_threshold(
                    "unr", k, p
                )


class TestEndoOrderLevel:
    @pytest.mark.parametrize("lab", ["unr", "ram"])
    @pytest.mark.parametrize("p", [3, 5])
    def test_steps_at_thresholds(self, lab, p):
        table = THRESHOLDS[(lab, p)]
        s = 4
        for j, bound in enumerate(table):
            assert endo_order_level(lab, s, bound, p) == j
            assert endo_order_level(lab, s, bound + 1, p) == min(j + 1, s)

    def test_capped_at_quasi_canonical_level(self):
        big = THRESHOLDS[("unr", 3)][-1] * 10
        assert endo_order_level("unr", 2, big, 3) == 2

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_monotone_in_artinian_level(self, k1, k2):
        lo, hi = sorted((k1, k2))
        assert endo_order_level("unr", 4, lo, 3) <= endo_order_level("unr", 4, hi, 3)


class TestIntersectionNumber:
    def test_standard_formula(self):
        for t in range(3):
            assert intersection_number("unr", "horizontal-standard", 4, t, 3) == 1 + keating_threshold("unr", t, 3)

    def test_nonstandard_is_transversal(self):
        assert intersection_number("ram", "horizontal-nonstandard", 2, None, 3) == 1
        with pytest.raises(ValueError):
            intersection_number("unr", "horizontal-nonstandard", 2, None, 3)

    def test_inventory_reads_every_intersection_from_here(self, monkeypatch):
        # the transversality rule has one owner: a changed value shows in the inventory
        real = inventory.intersection_number

        def changed(case, kind, s, t, p):
            return 7 if kind == "horizontal-nonstandard" else real(case, kind, s, t, p)

        monkeypatch.setattr(inventory, "intersection_number", changed)
        records = component_inventory("ram", 3, 2).records
        assert {r.intersection for r in records if r.kind == "horizontal-nonstandard"} == {7}

    def test_validation(self):
        with pytest.raises(ValueError):
            intersection_number("unr", "vertical", 1, 0, 3)
        with pytest.raises(ValueError):
            intersection_number("unr", "horizontal-standard", 2, 2, 3)


class TestVerticalClosedForm:
    def test_small_table(self):
        assert vertical_multiplicity_closed_form(3, 0) == 0
        assert vertical_multiplicity_closed_form(3, 1) == 2
        assert vertical_multiplicity_closed_form(3, 2) == 10
        assert vertical_multiplicity_closed_form(3, 3) == 36
        assert vertical_multiplicity_closed_form(5, 2) == 14
        assert vertical_multiplicity_closed_form(7, 1) == 2

    def test_negative_conductor_is_refused(self):
        with pytest.raises(ValueError):
            vertical_multiplicity_closed_form(3, -1)

    # the closed form takes the inventory's p and c0 gate, message and all
    @pytest.mark.parametrize("p", [4, 2, 9])
    def test_p_that_is_not_an_odd_prime_is_refused(self, p):
        with pytest.raises(ValueError, match=f"p must be an odd prime, got {p}"):
            vertical_multiplicity_closed_form(p, 1)

    @given(st.sampled_from([3, 5, 7, 11]), st.integers(0, 6))
    def test_matches_explicit_sum(self, p, c0):
        explicit = 0
        for i in range(1, c0 + 1):
            explicit += 2 * i * p ** (c0 - i)
        assert vertical_multiplicity_closed_form(p, c0) == explicit


class TestInventory:
    def test_known_totals(self):
        assert component_inventory("unr", 3, 1).total_proper() == 5
        assert component_inventory("unr", 3, 2).total_proper() == 34
        assert component_inventory("ram", 3, 1).total_proper() == 12

    # p = 4 is not an odd prime, and a conductor is never negative
    @pytest.mark.parametrize("p, c0", [(4, 1), (3, -1)])
    def test_out_of_domain_input_is_refused(self, p, c0):
        with pytest.raises(ValueError):
            component_inventory("unr", p, c0)

    def test_conductor_zero_has_no_proper_components(self):
        inv = component_inventory("unr", 3, 0)
        assert inv.total_proper() == 0
        assert all(r.kind != "vertical" for r in inv.records)

    def test_vertical_record(self):
        inv = component_inventory("ram", 3, 2)
        vert = [r for r in inv.records if r.kind == "vertical"]
        assert len(vert) == 1
        assert vert[0].count == 2
        assert vert[0].multiplicity == vertical_multiplicity_closed_form(3, 2)
        assert vert[0].intersection == 1
        assert inv.vertical_contribution() == 2 * vert[0].multiplicity

    def test_horizontal_multiplicities_are_one(self):
        inv = component_inventory("ram", 5, 2)
        for r in inv.records:
            if r.kind != "vertical":
                assert r.multiplicity == 1

    def test_total_splits_into_horizontal_and_vertical(self):
        for lab in ("unr", "ram"):
            inv = component_inventory(lab, 3, 2)
            assert inv.total_proper() == inv.horizontal_proper_intersection() + inv.vertical_contribution()

    @pytest.mark.parametrize("lab", ["unr", "ram"])
    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("c0", [0, 1, 2, 3])
    def test_assembled_total_matches_closed_form(self, lab, p, c0):
        total = total_proper_intersection(lab, p, c0)
        assert total == total_proper_closed_form(lab, p, c0)


class TestPerLevelSums:
    @pytest.mark.parametrize("lab", ["unr", "ram"])
    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("s", [0, 1, 2, 3, 4])
    def test_proof_level_forms(self, lab, p, s):
        assert per_level_proper_sum(lab, s, p) == per_level_proper_sum_closed_form(lab, s, p)


class TestDisplayedCorollary:
    @pytest.mark.parametrize("c0", [0, 1, 2, 3])
    def test_unramified_display_agrees(self, c0):
        report = displayed_corollary_report("unr", 3, c0)
        assert report["agree"]
        assert report["displayed"] == report["assembled"]

    def test_ramified_display_disagrees(self):
        report = displayed_corollary_report("ram", 3, 1)
        assert not report["agree"]
        assert report["displayed"] == Fraction(-22)
        assert report["assembled"] == 8

    def test_displayed_value_is_exact_fraction(self):
        assert isinstance(displayed_corollary_value("ram", 3, 1), Fraction)


class TestDegrees:
    @pytest.mark.parametrize("lab", ["unr", "ram"])
    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("c0", [0, 1, 2, 3, 4])
    def test_degree_sum_is_fiber_length(self, lab, p, c0):
        degrees = [level_degree(lab, k, p) for k in range(c0 + 1)]
        assert sum(degrees) == special_fiber_length(lab, p, c0)

    def test_auxiliary_record(self):
        # the layer degrees up to c0 = 2 and the fiber they fill exactly
        degrees = [level_degree("unr", k, 3) for k in range(3)]
        assert degrees == [1, 4, 12]
        assert special_fiber_length("unr", 3, 2) == sum(degrees)
