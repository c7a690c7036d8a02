"""The benchmark's three workloads as fixed, seeded lists of cells.

A cell is one call (or a short fixed chain of calls) into endolift together
with the check of its result against the frozen oracle.  Building a
workload is its set-up: it creates the cases, modules, presentations and
seeded inputs the cells use, so the timed passes do only engine work and
verification.  The seed sets the cell order and every drawn input; the
library receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from endolift import cli
from endolift import inventory as inv
from endolift import lattices as lat
from endolift import lengths
from endolift import windows as win

import oracle

Sink = Callable[[str, int], None]


@dataclass(frozen=True)
class Cell:
    name: str
    # None when the result matches the oracle, else what differed
    run: Callable[[], Optional[str]]


def _rng(workload: str, purpose: str, seed: int) -> random.Random:
    """Independent deterministic stream per (workload, purpose, seed)."""
    return random.Random(f"{workload}:{purpose}:{seed}")


def _case(lab: str, p: int):
    # looked up at call time, so a traced pass sees the probed method
    return win.CaseDescriptor.from_label(lab, p)


def _mismatch(what: str, got, want) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _first(*problems: Optional[str]) -> Optional[str]:
    return next((p for p in problems if p is not None), None)


def _cli_cell(args, sink: Sink) -> Cell:
    args = tuple(args)
    digest = oracle.CLI_DIGESTS[args]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(args))
        data = out.getvalue().encode("utf-8")
        sink("cli.report_bytes", len(data))
        return _first(
            _mismatch("exit code", rc, 0),
            _mismatch("report sha256", hashlib.sha256(data).hexdigest(), digest),
        )

    return Cell("cli " + " ".join(args), run)


# ---------------------------------------------------------------------------
# chain-fill: lengths does nearly all the work, lattices none


def _corner_rows(lab: str, p: int, k: int, radius: int):
    """Rows of the depth-k corner presentation at a fixed x1 window."""
    sol = win.solve_thickened_recursion(_case(lab, p), k, win.recursion_context(p, k))
    ctx = lengths.ChainContext(p, 2 * k + 1, -radius, radius)
    cap = p**k
    a = [lengths.ChainScalar.from_series(ctx, sol.alpha.x2_slice(j)) for j in range(cap)]
    b = [lengths.ChainScalar.from_series(ctx, sol.beta.x2_slice(j)) for j in range(cap)]
    return lengths.ChainPresentation.from_corner_series(ctx, cap, a, b).rows(), ctx


def chain_fill(seed: int, sink: Sink) -> List[Cell]:
    cells = [_cli_cell(("multiplicity", "--case", "both", "--p", "3,5", "--c0", "1..2"), sink)]

    def details(lab, p, k):
        def run():
            rep = lengths.quotient_length_details(_case(lab, p), k)
            return _first(
                _mismatch("length", rep.length, oracle.MULT_GRID[(lab, p, k)]),
                _mismatch("exponents", rep.exponents, oracle.SNF_EXPONENTS[(lab, p, k)]),
            )
        return Cell(f"quotient_length_details {lab} p={p} c0={k}", run)

    def annihilator(lab, p, k):
        want = {key: True for key in oracle.ANNIHILATOR_KEYS[min(k, 2)]}

        def run():
            return _mismatch("table", lengths.annihilator_report(_case(lab, p), k), want)
        return Cell(f"annihilator_report {lab} p={p} c0={k}", run)

    def elimination(lab, p, k):
        def run():
            got = lengths.length_by_elimination(_case(lab, p), k)
            return _mismatch("length", got, oracle.MULT_GRID[(lab, p, k)])
        return Cell(f"length_by_elimination {lab} p={p} c0={k}", run)

    cells.append(details("unr", 3, 3))
    # the (ram, 3|5, 2) and (unr, 3, 3) annihilator cells take 13-40 s each
    # and do not fit the run length; the c0 = 2 unramified cells keep the
    # dense fill-in path in the workload
    for lab, p, k in (("unr", 3, 1), ("ram", 3, 1), ("unr", 5, 1), ("ram", 5, 1),
                      ("unr", 3, 2), ("unr", 5, 2)):
        cells.append(annihilator(lab, p, k))
    for (lab, p, k) in oracle.MULT_GRID:
        if k <= 2:
            cells.append(elimination(lab, p, k))

    perm_rng = _rng("chain-fill", "snf-permutations", seed)
    for (lab, p, k), radius in sorted(oracle.SNF_RADIUS.items()):
        rows, ctx = _corner_rows(lab, p, k, radius)
        want = list(oracle.SNF_EXPONENTS[(lab, p, k)])
        for i in range(2):
            rp = list(range(len(rows)))
            cp = list(range(len(rows[0])))
            perm_rng.shuffle(rp)
            perm_rng.shuffle(cp)
            shuffled = [[rows[r][c] for c in cp] for r in rp]

            def run(shuffled=shuffled, ctx=ctx, want=want):
                return _mismatch("divisors", lengths.chain_snf(shuffled, ctx), want)
            cells.append(Cell(f"chain_snf {lab} p={p} c0={k} permutation {i}", run))
    return cells


# ---------------------------------------------------------------------------
# lattice-enum: lattices and WittScalar construction, nothing else


def lattice_enum(seed: int, sink: Sink) -> List[Cell]:
    cells = [_cli_cell(
        ("lattice", "--p", "3,5", "--sublattices", "3", "--superlattices", "2", "--appendix"),
        sink)]

    def sublattice(module, p, k):
        def run():
            found = lat.enumerate_stable_sublattices(module, k)
            if len(found) != 1:
                return f"{len(found)} stable sublattices, want 1"
            return _first(
                _mismatch("exponents", found[0].pivot_exponents(), oracle.sublattice_exponents(k)),
                _mismatch("parity", lat.lie_action_parity(found[0]), oracle.sublattice_parity(k)),
            )
        return Cell(f"enumerate_stable_sublattices p={p} k={k}", run)

    for p, k_top in ((3, 4), (7, 2)):
        module = lat.standard_rank2(p)
        for k in range(k_top + 1):
            cells.append(sublattice(module, p, k))

    rank4 = lat.tensor_rank4(3)
    for (s, m), family in sorted(oracle.SUPERLATTICE_FAMILY.items()):
        def run(s=s, m=m, family=family):
            found = lat.enumerate_stable_superlattices(rank4, s, m)
            return _mismatch("classes", [lat.classify_superlattice(x) for x in found], family)
        cells.append(Cell(f"enumerate_stable_superlattices p=3 s={s} m={m}", run))

    for p in (3, 5):
        for a, b, delta in ((a, b, d) for d in (0, 1) for a in range(4) for b in range(4)
                            if a + b + d <= 3):
            def run(a=a, b=b, delta=delta, p=p):
                rep = lat.descend_superlattice(a, b, delta, p)
                return _mismatch("frame", (rep.a, rep.b, rep.delta), (a, b, delta))
            cells.append(Cell(f"descend_superlattice p={p} a={a} b={b} delta={delta}", run))

    cells.append(Cell("hodge_lift_census p=3", lambda: _mismatch(
        "counts", lat.hodge_lift_census(3), oracle.census_counts(3))))
    return cells


# ---------------------------------------------------------------------------
# sweep-small: many millisecond cells with short, sparse operands


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def sweep_small(seed: int, sink: Sink) -> List[Cell]:
    cells = [
        _cli_cell(("selfcheck",), sink),
        _cli_cell(("recursion", "--case", "both", "--p", "3,5", "--k", "3"), sink),
        _cli_cell(("inventory", "--case", "both", "--p", "3,5,7", "--c0", "0..4"), sink),
    ]

    def tower(lab, p, k):
        def run():
            sol = win.solve_thickened_recursion(_case(lab, p), k)
            return _first(
                _mismatch("structure", win.structure_check(sol, raise_on_failure=False).ok, True),
                _mismatch("commutation",
                          win.check_phi_commutation(sol.pairs[k], two_variable=True), True),
                _mismatch("corner terms", (len(sol.alpha.coeffs), len(sol.beta.coeffs)),
                          oracle.TOWER_TERMS[lab][k]),
            )
        return Cell(f"tower {lab} p={p} k={k}", run)

    def one_variable(lab, p, prec):
        def run():
            c = _case(lab, p)
            ctx = win.one_variable_context(p, prec=prec)
            vert = win.solve_vertical_recursion(c, ctx)
            closed = win.closed_form_vertical_pair(c, ctx).normalized()
            return _first(
                _mismatch("stabilized", vert.stabilized, True),
                _mismatch("fixed point is the closed form", vert.pair == closed, True),
                _mismatch("commutation", win.check_phi_commutation(closed, two_variable=False),
                          True),
            )
        return Cell(f"one-variable {lab} p={p} prec={prec}", run)

    def integrality(lab, p, draws):
        def run():
            base = _case(lab, p)
            for s, t in draws:
                c0 = _vp(t, p)
                problem = _first(
                    _mismatch(f"predicate s={s} t={t}",
                              win.integrality_predicate(*base.with_gamma(s, t).param_scalars(8)),
                              c0 > 0),
                    _mismatch(f"conductor s={s} t={t}",
                              inv.conductor(*base.gamma_trace_norm(s, t), lab, p), c0),
                )
                if problem:
                    return problem
                vertical = [(r.count, r.intersection)
                            for r in inv.component_inventory(lab, p, c0).records
                            if r.kind == "vertical"]
                problem = _mismatch(f"vertical records s={s} t={t}", vertical,
                                    [(2, 1)] if c0 > 0 else [])
                if problem:
                    return problem
            return None
        return Cell(f"integrality {lab} p={p}", run)

    def inventory_tables(lab, p):
        def run():
            totals = [inv.total_proper_intersection(lab, p, c0) for c0 in range(5)]
            closed = [inv.total_proper_closed_form(lab, p, c0) for c0 in range(5)]
            levels = [inv.per_level_proper_sum(lab, s, p) for s in range(5)]
            level_forms = [inv.per_level_proper_sum_closed_form(lab, s, p) for s in range(5)]
            thresholds = [inv.keating_threshold(lab, k, p) for k in range(5)]
            steps = [(inv.endo_order_level(lab, 5, b, p), inv.endo_order_level(lab, 5, b + 1, p))
                     for b in thresholds]
            fiber = [inv.special_fiber_length(lab, p, c0) for c0 in range(5)]
            degree_sums = [sum(inv.level_degree(lab, k, p) for k in range(c0 + 1))
                           for c0 in range(5)]
            display = inv.displayed_corollary_report(lab, p, 1)
            key = (lab, p)
            return _first(
                _mismatch("totals", totals, oracle.TOTAL_PROPER[key]),
                _mismatch("closed forms", closed, oracle.TOTAL_PROPER[key]),
                _mismatch("per-level sums", levels, oracle.PER_LEVEL_SUM[key]),
                _mismatch("per-level closed forms", level_forms, oracle.PER_LEVEL_SUM[key]),
                _mismatch("thresholds", thresholds, oracle.THRESHOLDS[key]),
                _mismatch("threshold steps", steps, [(j, j + 1) for j in range(5)]),
                _mismatch("special fiber", fiber, oracle.SPECIAL_FIBER_LENGTH[key]),
                _mismatch("degree sums", degree_sums, oracle.SPECIAL_FIBER_LENGTH[key]),
                _mismatch("displayed corollary agrees", display["agree"], lab == "unr"),
                _mismatch("ramified display", {k: display[k] for k in ("assembled", "displayed")},
                          oracle.RAMIFIED_DISPLAY_3_1) if key == ("ram", 3) else None,
            )
        return Cell(f"inventory tables {lab} p={p}", run)

    def small_lengths(lab, p):
        want = {key: True for key in oracle.ANNIHILATOR_KEYS[1]}

        def run():
            rep = lengths.quotient_length_details(_case(lab, p), 1)
            return _first(
                _mismatch("length", rep.length, oracle.MULT_GRID[(lab, p, 1)]),
                _mismatch("annihilator table", lengths.annihilator_report(_case(lab, p), 1), want),
            )
        return Cell(f"lengths {lab} p={p} c0=1", run)

    draw_rng = _rng("sweep-small", "integrality-generators", seed)
    for lab in ("unr", "ram"):
        for p, k_top in ((3, 6), (5, 4), (7, 3)):
            for k in range(1, k_top + 1):
                cells.append(tower(lab, p, k))
        for p in (3, 5, 7):
            for prec in (8, 16):
                cells.append(one_variable(lab, p, prec))
            draws = []
            while len(draws) < 20:
                s, t = draw_rng.randrange(-50, 51), draw_rng.randrange(-50, 51)
                if t != 0 and _vp(t, p) < 3:
                    draws.append((s, t))
            cells.append(integrality(lab, p, draws))
        for p in (3, 5):
            cells.append(small_lengths(lab, p))
        for p in (3, 5, 7, 11):
            cells.append(inventory_tables(lab, p))
    return cells


WORKLOADS: Dict[str, Callable[[int, Sink], List[Cell]]] = {
    "chain-fill": chain_fill,
    "lattice-enum": lattice_enum,
    "sweep-small": sweep_small,
}


def build(workload: str, seed: int, sink: Sink) -> List[Cell]:
    """The workload's cells in the seed's order."""
    cells = WORKLOADS[workload](seed, sink)
    _rng(workload, "cell-order", seed).shuffle(cells)
    return cells
