"""Acceptance battery: every shipped claim, one pass/fail line per criterion.

Each test prints "[acceptance] <name>: PASS|FAIL" and then asserts, so the
verbose pytest listing and the captured stdout both read as a checklist.
All comparisons are exact (integers, booleans, series equality inside the
declared windows); there are no tolerances anywhere.
"""

import json
import random

from endolift.cli import main as cli_main
from endolift.inventory import (
    component_inventory,
    conductor,
    displayed_corollary_report,
    endo_order_level,
    keating_threshold,
    level_degree,
    per_level_proper_sum,
    per_level_proper_sum_closed_form,
    special_fiber_length,
    total_proper_closed_form,
    total_proper_intersection,
)
from endolift.lattices import (
    classify_superlattice,
    count_hodge_lifts,
    descend_superlattice,
    enumerate_stable_sublattices,
    enumerate_stable_superlattices,
    lie_action_parity,
    standard_rank2,
    superlattice_family,
    tensor_rank4,
)
from endolift.lengths import (
    ChainContext,
    ChainPresentation,
    ChainScalar,
    annihilator_check,
    chain_snf,
    quotient_length_details,
)
from endolift.windows import (
    CaseDescriptor,
    check_phi_commutation,
    closed_form_vertical_pair,
    gamma_matrix,
    integrality_predicate,
    mat_eq,
    mat_map,
    mat_scale,
    one_variable_context,
    recursion_context,
    solve_thickened_recursion,
    solve_vertical_recursion,
    structure_check,
)

CASES = ["unr", "ram"]

# the multiplicity grid and its frozen expected lengths
# (2*p^(c0-1) + 4*p^(c0-2) + ... + 2*c0, written out as integers)
MULT_GRID = {
    ("unr", 3, 1): 2,
    ("ram", 3, 1): 2,
    ("unr", 3, 2): 10,
    ("ram", 3, 2): 10,
    ("unr", 5, 1): 2,
    ("ram", 5, 1): 2,
    ("unr", 5, 2): 14,
    ("ram", 5, 2): 14,
    ("unr", 3, 3): 36,
}

# frozen threshold tables for k = 0..4
THRESHOLDS = {
    ("unr", 3): [0, 4, 16, 52, 160],
    ("ram", 3): [1, 7, 25, 79, 241],
    ("unr", 5): [0, 6, 36, 186, 936],
    ("ram", 5): [1, 11, 61, 311, 1561],
}


def _verdict(name, failures):
    ok = not failures
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, failures


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_criterion_01_vertical_multiplicity_grid():
    failures = []
    for (lab, p, c0), expected in MULT_GRID.items():
        got = quotient_length_details(CaseDescriptor.from_label(lab, p), c0).length
        if got != expected:
            failures.append((lab, p, c0, got, expected))
    _verdict("vertical multiplicity grid", failures)


def test_criterion_02_annihilator_memberships():
    failures = []
    for (lab, p, c0) in MULT_GRID:
        if not annihilator_check(CaseDescriptor.from_label(lab, p), c0):
            failures.append((lab, p, c0))
    _verdict("annihilator membership grid", failures)


def test_criterion_03_closed_form_solves_recursion():
    failures = []
    for lab in CASES:
        for p in (3, 5):
            case = CaseDescriptor.from_label(lab, p)
            ctx = one_variable_context(p)  # x1 window p^4, eight digits
            vert = solve_vertical_recursion(case, ctx)
            closed = closed_form_vertical_pair(case, ctx)
            if not vert.stabilized:
                failures.append((lab, p, "iteration did not stabilize"))
            if vert.pair != closed.normalized():
                failures.append((lab, p, "closed form is not the fixed point"))
            if not check_phi_commutation(closed.normalized(), two_variable=False):
                failures.append((lab, p, "closed form fails the intertwining identity"))
            base = gamma_matrix(case, ctx)
            at_zero = lambda M: mat_map(M, lambda s: s.substitute_x1_zero())
            if not (
                mat_eq(at_zero(closed.Y), mat_scale(base.Y, p))
                and mat_eq(at_zero(closed.Z), mat_scale(base.Z, p))
            ):
                failures.append((lab, p, "x1 = 0 does not recover the undeformed pair"))
    _verdict("closed form solves the one-variable recursion", failures)


def test_criterion_04_increment_structure():
    failures = []
    for lab in CASES:
        for p in (3, 5):
            for k in (1, 2, 3):
                sol = solve_thickened_recursion(CaseDescriptor.from_label(lab, p), k)
                report = structure_check(sol, raise_on_failure=False)
                if not report.ok:
                    bad = [c.name for c in report.clauses if not c.ok]
                    failures.append((lab, p, k, bad))
    _verdict("tower increment structure (vanishing sides, divisibility, units)", failures)


def test_criterion_05_integrality_detects_vertical_components():
    failures = []
    rng = random.Random(20260822)
    for lab in CASES:
        for p in (3, 5):
            case0 = CaseDescriptor.from_label(lab, p)
            drawn = 0
            while drawn < 20:
                s = rng.randrange(-50, 51)
                t = rng.randrange(-50, 51)
                if t == 0 or _vp(t, p) >= 3:
                    continue
                drawn += 1
                c0 = _vp(t, p)
                case = case0.with_gamma(s, t)
                got = integrality_predicate(*case.param_scalars(8))
                if got != (c0 > 0):
                    failures.append((lab, p, s, t, "predicate", got))
                    continue
                tr, nm = case0.gamma_trace_norm(s, t)
                if conductor(tr, nm, lab, p) != c0:
                    failures.append((lab, p, s, t, "conductor"))
                    continue
                inv = component_inventory(lab, p, c0)
                vertical = [r for r in inv.records if r.kind == "vertical"]
                if c0 > 0:
                    if len(vertical) != 1 or vertical[0].count != 2 or vertical[0].intersection != 1:
                        failures.append((lab, p, s, t, "vertical records", vertical))
                elif vertical:
                    failures.append((lab, p, s, t, "phantom vertical component"))
    _verdict("integrality predicate marks the two transversal vertical components", failures)


def test_criterion_06_inventory_totals_and_displayed_forms(tmp_path, monkeypatch, capsys):
    failures = []
    for lab in CASES:
        for p in (3, 5, 7):
            for c0 in range(5):
                try:
                    total = total_proper_intersection(lab, p, c0)
                except Exception as exc:  # consistency failures land here
                    failures.append((lab, p, c0, repr(exc)))
                    continue
                if total != total_proper_closed_form(lab, p, c0):
                    failures.append((lab, p, c0, "closed form mismatch"))
                for s in range(c0 + 1):
                    if per_level_proper_sum(lab, s, p) != per_level_proper_sum_closed_form(lab, s, p):
                        failures.append((lab, p, c0, s, "per-level sum"))
                report = displayed_corollary_report(lab, p, c0)
                if lab == "unr" and not report["agree"]:
                    failures.append((lab, p, c0, "displayed corollary should match"))
    # the known ramified display discrepancy must be reported, not silently
    # absorbed: the inventory command routes it through the errata channel
    ram = displayed_corollary_report("ram", 3, 1)
    if ram["agree"] or ram["assembled"] != 8 or ram["displayed"] != -22:
        failures.append(("ram display", ram))
    monkeypatch.setenv("ENDOLIFT_OUT_DIR", str(tmp_path))
    rc = cli_main(["inventory", "--case", "ram", "--p", "3", "--c0", "1"])
    out = capsys.readouterr().out
    errata = json.loads(out)["errata"]
    if rc != 0 or not any(e["code"] == "displayed-closed-form-mismatch" for e in errata):
        failures.append(("errata channel", rc, errata))
    _verdict("inventory totals, per-level sums, and displayed-form errata", failures)


def test_criterion_07_threshold_tables_and_degree_sums():
    failures = []
    for lab in CASES:
        for p in (3, 5):
            table = THRESHOLDS[(lab, p)]
            got = [keating_threshold(lab, k, p) for k in range(5)]
            if got != table:
                failures.append((lab, p, "threshold table", got))
            # the step function must turn exactly at the tabulated values
            for j, bound in enumerate(table):
                if endo_order_level(lab, 5, bound, p) != j:
                    failures.append((lab, p, j, "step lands low"))
                if endo_order_level(lab, 5, bound + 1, p) != j + 1:
                    failures.append((lab, p, j, "step lands high"))
            for c0 in range(5):
                degree_sum = sum(level_degree(lab, k, p) for k in range(c0 + 1))
                if degree_sum != special_fiber_length(lab, p, c0):
                    failures.append((lab, p, c0, "degree sum"))
    _verdict("endomorphism-order thresholds and layer-degree bookkeeping", failures)


def test_criterion_08_lattice_suites():
    failures = []
    for p in (3, 5):
        module = standard_rank2(p)
        parities = []
        for k in range(5):
            found = enumerate_stable_sublattices(module, k)
            if len(found) != 1:
                failures.append((p, k, "sublattice count", len(found)))
                continue
            lat = found[0]
            if lat.pivot_exponents() != ((k + 1) // 2, k // 2):
                failures.append((p, k, "exponents", lat.pivot_exponents()))
            parities.append(lie_action_parity(lat))
        if parities != ["psi", "psi-bar", "psi", "psi-bar", "psi"]:
            failures.append((p, "parity alternation", parities))

    rank4 = tensor_rank4(3)
    for (s, m) in ((1, 1), (2, 1), (2, 2)):
        found = enumerate_stable_superlattices(rank4, s, m)
        classes = [classify_superlattice(lat) for lat in found]
        if classes != superlattice_family(s, m):
            failures.append((s, m, "superlattice classes", classes))

    for p in (3, 5):
        for delta in (0, 1):
            for a in range(4):
                for b in range(4):
                    if a + b + delta > 3:
                        continue
                    try:
                        descend_superlattice(a, b, delta, p)
                    except Exception as exc:
                        failures.append((p, a, b, delta, repr(exc)))
    _verdict("stable sublattices, superlattice classification, descents", failures)


def test_criterion_09_unique_filtration_lift():
    failures = []
    for p in (3, 5):
        got = count_hodge_lifts(p)
        if got != 1:
            failures.append((p, got))
    _verdict("joint-stable filtration lift is unique", failures)


def test_criterion_10_robustness():
    failures = []

    # (a) doubling the carried p-adic precision changes nothing reported
    for (lab, p, c0) in (("unr", 3, 1), ("ram", 3, 1), ("unr", 3, 2), ("ram", 3, 2)):
        case = CaseDescriptor.from_label(lab, p)
        base = quotient_length_details(case, c0)
        doubled = quotient_length_details(case, c0, precision_scale=2)
        if (base.length, base.exponents) != (doubled.length, doubled.exponents):
            failures.append((lab, c0, "precision doubling changed the measurement"))
    for lab in CASES:
        case = CaseDescriptor.from_label(lab, 3)
        ctx = one_variable_context(3, prec=16)
        if solve_vertical_recursion(case, ctx).pair != closed_form_vertical_pair(case, ctx).normalized():
            failures.append((lab, "one-variable fixed point moved at 16 digits"))
        sol = solve_thickened_recursion(case, 2, recursion_context(3, 2, precision_scale=2))
        if not structure_check(sol, raise_on_failure=False).ok:
            failures.append((lab, "structure verdict changed at doubled precision"))

    # (b) the SNF measurement is invariant under pivot-order permutation
    rng = random.Random(7)
    for lab in CASES:
        case = CaseDescriptor.from_label(lab, 3)
        details = quotient_length_details(case, 1)
        sol = solve_thickened_recursion(case, 1, recursion_context(3, 1))
        chain_ctx = ChainContext(3, 3, -details.chain_radius, details.chain_radius)
        a = [ChainScalar.from_series(chain_ctx, sol.alpha.x2_slice(j)) for j in range(3)]
        b = [ChainScalar.from_series(chain_ctx, sol.beta.x2_slice(j)) for j in range(3)]
        pres = ChainPresentation.from_corner_series(chain_ctx, 3, a, b)
        rows = pres.rows()
        reference = chain_snf([list(r) for r in rows], chain_ctx)
        for _ in range(6):
            rp = list(range(len(rows)))
            cp = list(range(len(rows[0])))
            rng.shuffle(rp)
            rng.shuffle(cp)
            shuffled = [[rows[i][j] for j in cp] for i in rp]
            if chain_snf(shuffled, chain_ctx) != reference:
                failures.append((lab, "permutation moved the elementary divisors", rp, cp))

    # (c) deeper towers restrict to shallower ones at every common level
    for lab in CASES:
        for p, k_top in ((3, 3), (5, 2)):
            case = CaseDescriptor.from_label(lab, p)
            deep = solve_thickened_recursion(case, k_top, recursion_context(p, k_top))
            for j in range(1, k_top):
                ctx_j = recursion_context(p, j)
                shallow = solve_thickened_recursion(case, j, ctx_j)
                red = deep.pairs[j].with_context(ctx_j)
                if not (mat_eq(red.Y, shallow.pairs[j].Y) and mat_eq(red.Z, shallow.pairs[j].Z)):
                    failures.append((lab, p, k_top, j, "tower reduction mismatch"))
    _verdict("precision doubling, pivot permutation, tower reduction", failures)
