"""Exact-integer bookkeeping for the component inventory.

Everything in this module is closed-form combinatorics: conductors of
quadratic orders, unit-group indices, endomorphism-order thresholds,
per-component intersection numbers, and the assembled totals, all in exact
arbitrary-precision arithmetic with every division checked.
"""

from operator import index
from typing import Dict, List, Optional, Tuple

from .errors import ConsistencyFailure, Frozen, NotAnOrder
from .witt import nonresidue


def _domain(p: int, c0: int) -> None:
    """Refuse a p that is not an odd prime (the rule `witt.nonresidue` owns),
    a conductor c0 that is not an integer (TypeError) and one below 0."""
    nonresidue(p)
    if index(c0) < 0:
        raise ValueError(f"the conductor must be at least 0, got c0 = {c0}")


# a case is "unr" (inert) or "ram" (ramified), spelled exactly so; every entry
# point, CaseDescriptor.from_label and vertical_multiplicity too, starts here
def _label(case: str, p: int, c0: int = 0) -> str:
    """`case`, once it is a label and (p, c0) is in the domain."""
    _domain(p, c0)
    if case not in ("unr", "ram"):
        raise ValueError(f"unknown case {case!r}")
    return case


def _level(s: int) -> None:
    """Refuse a level that is not an integer (TypeError) and one below 0."""
    if index(s) < 0:
        raise ValueError(f"the level must be at least 0, got {s}")


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ConsistencyFailure(f"inexact division {num}/{den}")
    return q


def _vp(n: int, p: int) -> int:
    if n == 0:
        raise NotAnOrder("zero discriminant: the generator lies in the base ring")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def conductor(tr: int, nm: int, case: str, p: int) -> int:
    """Conductor exponent of the order generated by an element with the
    given trace and norm.

    The discriminant of the generated order is tr^2 - 4*nm; its valuation
    exceeds the valuation of the field discriminant by twice the conductor,
    and that excess must be even.  A trace or norm that is not an integer
    is a TypeError.
    """
    label = _label(case, p)
    tr, nm = index(tr), index(nm)
    disc = tr * tr - 4 * nm
    v = _vp(disc, p)
    unit = disc // p**v
    field_v = 0 if label == "unr" else 1
    if (v - field_v) % 2 != 0:
        raise ValueError(
            f"discriminant valuation {v} has the wrong parity for the {label} case"
        )
    if label == "unr" and pow(unit % p, (p - 1) // 2, p) == 1:
        # a unit square cannot be the discriminant of the nonsplit quadratic
        raise NotAnOrder("square discriminant: the generator splits the algebra")
    return (v - field_v) // 2


def unit_index(case: str, t: int, s: int, p: int) -> int:
    """Index of the level-s unit subgroup inside the level-t one."""
    label = _label(case, p)
    _level(t)
    _level(s)
    if t > s:
        raise ValueError("need 0 <= t <= s")
    if t == s:
        return 1
    if label == "unr" and t == 0:
        return p ** (s - 1) * (p - 1)
    return p ** (s - t)


def keating_threshold(case: str, k: int, p: int) -> int:
    """The threshold a(k) (unramified) or b(k) = p^k + a(k) (ramified)."""
    label = _label(case, p)
    _level(k)
    a = _exact_div((p + 1) * (p**k - 1), p - 1)
    return a if label == "unr" else p**k + a


def endo_order_level(case: str, s: int, k: int, p: int) -> int:
    """Conductor of the largest order still lifting at Artinian level k.

    The step function of the threshold table: the smallest j with
    k <= threshold(j), capped at the quasi-canonical level s.
    """
    label = _label(case, p)
    _level(s)
    j = 0
    while j < s and k > keating_threshold(label, j, p):
        j += 1
    return j


def intersection_number(case: str, kind: str, s: int, t: Optional[int], p: int) -> int:
    """Intersection number of one proper horizontal component.

    Standard components meet the base locus in 1 + threshold(t) where t is
    the orbit level; nonstandard ones (ramified case, p odd) always meet it
    transversally.
    """
    label = _label(case, p)
    _level(s)
    if kind == "horizontal-nonstandard":
        if label != "ram":
            raise ValueError("nonstandard components only exist in the ramified case")
        return 1
    if kind != "horizontal-standard":
        raise ValueError(f"unknown kind {kind!r}")
    if t is None or not 0 <= t < s:
        raise ValueError("standard components need an orbit level 0 <= t < s")
    return 1 + keating_threshold(case, t, p)


def vertical_multiplicity_terms(p: int, c0: int) -> Tuple[int, ...]:
    """The terms 2*p^j*(c0 - j), j = 0 .. c0-1, of the closed form; term j
    is the length of the tower level j chunk (`lengths.length_by_elimination`)."""
    _domain(p, c0)
    return tuple(2 * p**j * (c0 - j) for j in range(c0))


def vertical_multiplicity_closed_form(p: int, c0: int) -> int:
    """2*p^(c0-1) + 4*p^(c0-2) + ... + (2*c0)*p^0; zero when c0 = 0."""
    return sum(vertical_multiplicity_terms(p, c0))


# ---------------------------------------------------------------------------
# assembled inventories


class ComponentRecord(Frozen):
    __slots__ = ("kind", "level", "orbit_level", "count", "multiplicity", "intersection", "proper")

    def __init__(self, kind: str, level: Optional[int], orbit_level: Optional[int], count: int,
                 multiplicity: int, intersection: Optional[int], proper: bool):
        init = object.__setattr__
        init(self, "kind", kind)  # horizontal-standard | horizontal-nonstandard | vertical
        init(self, "level", level)  # s, None for vertical components
        init(self, "orbit_level", orbit_level)  # t, where applicable
        init(self, "count", count)
        init(self, "multiplicity", multiplicity)
        init(self, "intersection", intersection)  # None on improper components
        init(self, "proper", proper)


class ComponentInventory(Frozen):
    __slots__ = ("case", "p", "c0", "records")

    def __init__(self, case: str, p: int, c0: int, records: Tuple[ComponentRecord, ...]):
        init = object.__setattr__
        init(self, "case", case)
        init(self, "p", p)
        init(self, "c0", c0)
        init(self, "records", records)

    def proper_records(self) -> List[ComponentRecord]:
        return [r for r in self.records if r.proper]

    def horizontal_proper_intersection(self) -> int:
        return sum(
            r.count * r.multiplicity * r.intersection
            for r in self.records
            if r.proper and r.kind != "vertical"
        )

    def vertical_contribution(self) -> int:
        return sum(
            r.count * r.multiplicity * r.intersection
            for r in self.records
            if r.kind == "vertical"
        )

    def total_proper(self) -> int:
        return sum(
            r.count * r.multiplicity * r.intersection for r in self.proper_records()
        )


def component_inventory(case: str, p: int, c0: int = 0) -> ComponentInventory:
    """Enumerate every irreducible-component class at conductor c0.

    Per level s: one improper standard component (the identity orbit), the
    proper standard orbits partitioned by orbit level t with counts
    |H_t/H_s| - |H_(t+1)/H_s|, and (ramified only) p^s nonstandard
    components, all of multiplicity one.  For c0 > 0 there are additionally
    two vertical components carrying the whole multiplicity of the fiber.
    """
    label = _label(case, p, c0)
    records: List[ComponentRecord] = []
    for s in range(c0 + 1):
        records.append(
            ComponentRecord("horizontal-standard", s, None, 1, 1, None, False)
        )
        for t in range(s):
            count = unit_index(label, t, s, p) - unit_index(label, t + 1, s, p)
            if count == 0:
                continue
            records.append(
                ComponentRecord(
                    "horizontal-standard",
                    s,
                    t,
                    count,
                    1,
                    intersection_number(label, "horizontal-standard", s, t, p),
                    True,
                )
            )
        if label == "ram":
            meet = intersection_number(label, "horizontal-nonstandard", s, None, p)
            records.append(
                ComponentRecord("horizontal-nonstandard", s, None, p**s, 1, meet, True)
            )
    if c0 > 0:
        records.append(
            ComponentRecord(
                "vertical", None, None, 2, vertical_multiplicity_closed_form(p, c0), 1, True
            )
        )
    return ComponentInventory(label, p, c0, tuple(records))


def total_proper_closed_form(case: str, p: int, c0: int = 0) -> int:
    label = _label(case, p, c0)
    if label == "unr":
        return c0 * (
            _exact_div(p ** (c0 + 1) - 1, p - 1) + _exact_div(p**c0 - 1, p - 1)
        )
    return (2 * c0 + 1) * _exact_div(p ** (c0 + 1) - 1, p - 1)


def total_proper_intersection(case: str, p: int, c0: int = 0) -> int:
    """Total proper intersection, assembled from the inventory and checked
    against the closed form."""
    inv = component_inventory(case, p, c0)
    total = inv.total_proper()
    expected = total_proper_closed_form(case, p, c0)
    if total != expected:
        raise ConsistencyFailure(
            f"assembled total {total} != closed form {expected} "
            f"at ({inv.case}, p={inv.p}, c0={c0})"
        )
    return total


# ---------------------------------------------------------------------------
# proof-level per-level sums and the displayed closed forms


def per_level_proper_sum(case: str, s: int, p: int) -> int:
    """Sum of intersection numbers over the proper standard orbits at one
    level, straight from the inventory rows."""
    return sum(
        r.count * r.intersection
        for r in component_inventory(case, p, s).proper_records()
        if r.kind == "horizontal-standard" and r.level == s
    )


def per_level_proper_sum_closed_form(case: str, s: int, p: int) -> int:
    """The proof-level expression for the same per-level sum."""
    label = _label(case, p)
    _level(s)
    if s == 0:
        return 0
    if label == "unr":
        return (
            p ** (s - 1) * (p - 2)
            + p ** (s - 1) * (p + 1) * (s - 1)
            - _exact_div(2 * (p ** (s - 1) - 1), p - 1)
        )
    return 2 * s * p**s - _exact_div(2 * p**s - 2, p - 1)


def displayed_corollary_value(case: str, p: int, c0: int = 0) -> "Fraction":
    """The printed closed form for the proper-horizontal intersection sum.

    Returned as an exact fraction: the ramified display does not even
    evaluate to the assembled total (see displayed_corollary_report), and
    trusting it silently would poison the grand totals.
    """
    from fractions import Fraction  # here, its one user: importing inventory loads no fractions

    label = _label(case, p, c0)
    if label == "unr":
        num = -4 * p * (p**c0 - 1) + 2 * c0 * (p - 1) + c0 * p**c0 * (p * p - 1)
        return Fraction(num, (p - 1) ** 2)
    return Fraction(-4 * p ** (c0 + 1) + 2 * p + 2, (p - 1) ** 2) - Fraction(
        (2 * c0 + 1) * p ** (c0 + 1) + 2 * c0 + 1, p - 1
    )


def displayed_corollary_report(case: str, p: int, c0: int = 0) -> Dict[str, object]:
    """Compare the printed closed form against the assembled per-level sums.

    The unramified display agrees; the ramified display comes out negative
    (already at p=3, c0=1 it gives -22 against an assembled 8), so the
    assembled value is authoritative and the display is flagged.
    """
    label = _label(case, p, c0)
    inv = component_inventory(label, p, c0)
    assembled = inv.horizontal_proper_intersection()
    displayed = displayed_corollary_value(label, p, c0)
    return {
        "case": label,
        "p": p,
        "c0": c0,
        "assembled": assembled,
        "displayed": displayed,
        "agree": displayed == assembled,
    }


# ---------------------------------------------------------------------------
# degrees and special-fiber lengths


def level_degree(case: str, k: int, p: int) -> int:
    """Degree of the level-k quasi-canonical layer over the base."""
    label = _label(case, p)
    _level(k)
    if label == "unr":
        return 1 if k == 0 else (p + 1) * p ** (k - 1)
    return 2 * p**k


def special_fiber_length(case: str, p: int, c0: int = 0) -> int:
    """Length of the mod-p fiber of the one-variable deformation ring."""
    label = _label(case, p, c0)
    if label == "unr":
        return 2 * _exact_div(p**c0 - 1, p - 1) + p**c0
    return 2 * _exact_div(p ** (c0 + 1) - 1, p - 1)
