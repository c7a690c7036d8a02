"""Batch front-end: parameter sweeps over the exact-arithmetic suites.

Five commands (`inventory`, `recursion`, `multiplicity`, `lattice`,
`selfcheck`) share one report shape: a JSON object with fields
{schema_version, command, config, rows, footers, verdicts, errata}, or a
TSV projection of the rows.  Reports go to stdout and to a file named
<command>.<format> in the output directory (the ENDOLIFT_OUT_DIR
environment variable overrides the default, which is the working
directory).  Reruns with the same config are byte-identical: grids are
walked in sorted order and nothing time- or host-dependent is emitted.

Each command declares its flags and their defaults once.  A `--config`
file may set exactly those flags, and its values pass the same choices and
the same reader as the flags; the command line beats the file, which beats
the default.  The report's `config` block is these resolved settings.

Each command imports its engine module when it runs, so `lattice` and
`inventory` load neither the series, the tower nor the length engine, and
`main` builds the argument parser of the named command alone.

Exit codes: 0 all selected checks pass; 1 a check failed; 2 usage error;
3 precision or window exhaustion.
"""

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from .errors import (
    ConsistencyFailure,
    EndoliftError,
    NotAnOrder,
    PrecisionExhausted,
    PrecisionTooLow,
    ShapeViolation,
    StabilityFailure,
    StructureViolation,
    WindowExhausted,
)

SCHEMA_VERSION = 1
OUT_DIR_ENV = "ENDOLIFT_OUT_DIR"

# what a command returns: rows, footers, verdicts, errata
Report = Tuple[List[Dict], Dict, List[Dict], List[Dict]]

SUBLATTICE_ERRATUM = (
    "classical display of the stable index-p^k sublattice puts the larger "
    "exponent on f0; operator stability forces it onto e0.  Canonical form "
    "reported here: (p^(a+eps) e0, p^a f0).  Lie-parity conclusions are "
    "unaffected."
)


# ---------------------------------------------------------------------------
# settings: each flag is declared once, and one reader turns its value into
# the setting whether it comes from the command line, the config file or
# the command's default


def _int(value) -> int:
    """The one integer grammar of flags and config values: surrounding
    whitespace, an optional leading "-", then ASCII digits only.  `int`
    alone would also take "3_0", "+3" and non-ASCII digits such as "٣"."""
    text = str(value).strip()
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {value!r}")
    return int(text)


def _parse_int_list(text: str) -> List[int]:
    """Accepts "3", "3,5,7", and "0..4" (inclusive range); an empty chunk,
    as in "3,,5" or ",3", is an error."""
    out: List[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty list entry in {text!r}")
        if ".." in chunk:
            lo_s, hi_s = chunk.split("..", 1)
            lo, hi = _int(lo_s), _int(hi_s)
            if hi < lo:
                raise ValueError(f"empty range {chunk!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(_int(chunk))
    return sorted(set(out))


def _case_labels(choice: str) -> List[str]:
    return ["unr", "ram"] if choice == "both" else [choice]


def _switch(value) -> bool:
    """A switch given on the command line (True), as a default, or as a
    config word: 1, true, yes, on or 0, false, no, off."""
    word = str(value).lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _count(value) -> int:
    """A lattice count: n >= 0, or -1, the "not selected" default."""
    n = _int(value)
    if n < -1:
        raise ValueError(f"a count is n >= 0, or -1 for none, not {n}")
    return n


# every flag, by dest: its argparse settings and its reader; each command
# takes only the flags it reads, and its config file may set exactly those
_FLAGS = {
    "case": (dict(choices=["unr", "ram", "both"]), _case_labels),
    "p": (dict(help="prime or list: 3 | 3,5 | 3..7"), _parse_int_list),
    "c0": (dict(help="conductor or list/range"), _parse_int_list),
    "k": (dict(help="tower depth"), _int),
    "format": (dict(choices=["json", "tsv"]), str),
    "precision_scale": (dict(help="multiply declared p-adic precision (>= 1)"), _int),
    "dump": (dict(action="store_const", const=True), _switch),
    "sublattices": (dict(metavar="K"), _count),
    "superlattices": (dict(metavar="S"), _count),
    "appendix": (dict(action="store_const", const=True), _switch),
}


def _file_config(ns) -> Dict[str, Tuple[str, str]]:
    """The `key = value` settings of the --config file, each with the
    `file:line` it came from.  A key that is not one of the command's flags,
    a key set twice, or a value outside the flag's choices, is a usage
    error, not a silently dropped, overwritten or unchecked setting."""
    values: Dict[str, Tuple[str, str]] = {}
    if not ns.config:
        return values
    with open(ns.config, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            where = f"{ns.config}:{lineno}"
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{where}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in ns.flag_defaults:
                raise ValueError(f"{where}: {ns.command} takes no key {key!r}")
            if key in values:
                raise ValueError(f"{where}: {key} is set again, first at {values[key][1]}")
            choices = _FLAGS[key][0].get("choices")
            if choices is not None and value not in choices:
                raise ValueError(f"{where}: {key} must be one of {choices}, not {value!r}")
            values[key] = (value, where)
    return values


def _settings(ns) -> Dict:
    """Each of the command's flags, read from the command line, else the
    config file, else the default.  This is the report's `config` block."""
    from_file = _file_config(ns)
    settings = {}
    for name, default in ns.flag_defaults.items():
        value, where = getattr(ns, name), "--" + name.replace("_", "-")
        if value is None:
            value, where = from_file.get(name, (default, "default"))
        try:
            settings[name] = _FLAGS[name][1](value)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return settings


# ---------------------------------------------------------------------------
# report emission


def _emit(command: str, config: Dict, rows: List[Dict], footers: Dict,
          verdicts: List[Dict], errata: List[Dict]) -> None:
    fmt = config["format"]
    if fmt == "json":
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": config,
            "rows": rows,
            "footers": footers,
            "verdicts": verdicts,
            "errata": errata,
        }
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        columns = sorted({key for row in rows for key in row})
        lines = ["\t".join(columns)]
        for row in rows:
            lines.append(
                "\t".join("" if row.get(c) is None else str(row.get(c)) for c in columns)
            )
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    out_dir = os.environ.get(OUT_DIR_ENV) or "."
    path = os.path.join(out_dir, f"{command}.{fmt}")
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"warning: could not write {path}: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# inventory


def cmd_inventory(config: Dict) -> Report:
    from . import inventory as inv

    rows: List[Dict] = []
    footers: Dict = {}
    verdicts: List[Dict] = []
    errata: List[Dict] = []
    for label in config["case"]:
        for p in config["p"]:
            for c0 in config["c0"]:
                tag = f"{label} p={p} c0={c0}"
                cinv = inv.component_inventory(label, p, c0)
                for rec in cinv.records:
                    rows.append(
                        {
                            "case": label,
                            "p": p,
                            "c0": c0,
                            "kind": rec.kind,
                            "level": rec.level,
                            "orbit_level": rec.orbit_level,
                            "count": rec.count,
                            "multiplicity": rec.multiplicity,
                            "intersection": rec.intersection,
                            "proper": rec.proper,
                        }
                    )
                horizontal = cinv.horizontal_proper_intersection()
                vertical = cinv.vertical_contribution()
                total = cinv.total_proper()
                closed = inv.total_proper_closed_form(label, p, c0)
                footers[tag] = {
                    "horizontal_proper": horizontal,
                    "vertical": vertical,
                    "total_proper": total,
                    "closed_form": closed,
                }
                verdicts.append(
                    {"check": f"total-vs-closed-form {tag}", "pass": total == closed}
                )
                report = inv.displayed_corollary_report(label, p, c0)
                if label == "unr":
                    verdicts.append(
                        {"check": f"displayed-corollary {tag}", "pass": report["agree"]}
                    )
                elif not report["agree"]:
                    errata.append(
                        {
                            "code": "displayed-closed-form-mismatch",
                            "case": label,
                            "p": p,
                            "c0": c0,
                            "note": (
                                "displayed ramified proper-horizontal closed form gives "
                                f"{report['displayed']} but the assembled inventory total is "
                                f"{report['assembled']}; the assembled total is authoritative"
                            ),
                        }
                    )
                level_ok = all(
                    inv.per_level_proper_sum(label, s, p)
                    == inv.per_level_proper_sum_closed_form(label, s, p)
                    for s in range(0, c0 + 1)
                )
                verdicts.append({"check": f"per-level-sums {tag}", "pass": level_ok})
    return rows, footers, verdicts, errata


# ---------------------------------------------------------------------------
# recursion


def cmd_recursion(config: Dict) -> Report:
    from . import windows as win

    k, scale = config["k"], config["precision_scale"]
    rows: List[Dict] = []
    footers: Dict = {}
    verdicts: List[Dict] = []
    for label in config["case"]:
        for p in config["p"]:
            tag = f"{label} p={p} k={k}"
            case = win.CaseDescriptor.from_label(label, p)
            # the tower first, so a refused depth or precision scale costs no engine work
            ctx = win.recursion_context(p, k, precision_scale=scale)
            sol = win.solve_thickened_recursion(case, k, ctx)
            one_ctx = win.one_variable_context(p)
            vert = win.solve_vertical_recursion(case, one_ctx)
            closed = win.closed_form_vertical_pair(case, one_ctx)
            verdicts.append(
                {"check": f"one-variable-fixed-point {tag}", "pass": vert.stabilized}
            )
            verdicts.append(
                {
                    "check": f"closed-form-match {tag}",
                    "pass": vert.pair == closed.normalized(),
                }
            )
            verdicts.append(
                {
                    "check": f"one-variable-commutation {tag}",
                    "pass": win.check_phi_commutation(vert.pair, two_variable=False),
                }
            )
            verdicts.append(
                {
                    "check": f"tower-commutation {tag}",
                    "pass": win.check_phi_commutation(sol.pairs[k], two_variable=True),
                }
            )
            report = win.structure_check(sol, raise_on_failure=False)
            for clause in report.clauses:
                verdicts.append(
                    {"check": f"structure {tag} {clause.name}", "pass": clause.ok}
                )
            rows.append(
                {
                    "case": label,
                    "p": p,
                    "k": k,
                    "kind": "summary",
                    "series": None,
                    "x1": None,
                    "x2": None,
                    "alpha_terms": len(sol.alpha.coeffs),
                    "beta_terms": len(sol.beta.coeffs),
                    "denominator_exponent": sol.pairs[k].denom_exp,
                    "structure_ok": report.ok,
                }
            )
            if config["dump"]:
                for name, series in (("alpha", sol.alpha), ("beta", sol.beta)):
                    for (m1, m2), (ca, cb) in sorted(
                        series.coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0])
                    ):
                        rows.append(
                            {
                                "case": label,
                                "p": p,
                                "k": k,
                                "kind": "coefficient",
                                "series": name,
                                "x1": m1,
                                "x2": m2,
                                "coeff_1": ca,
                                "coeff_w": cb,
                            }
                        )
            footers[tag] = {
                "alpha_terms": len(sol.alpha.coeffs),
                "beta_terms": len(sol.beta.coeffs),
                "structure_ok": report.ok,
            }
    return rows, footers, verdicts, []


# ---------------------------------------------------------------------------
# multiplicity


def cmd_multiplicity(config: Dict) -> Report:
    from . import inventory as inv, lengths, windows as win

    rows: List[Dict] = []
    verdicts: List[Dict] = []
    all_match = True
    for label in config["case"]:
        for p in config["p"]:
            for c0 in config["c0"]:
                tag = f"{label} p={p} c0={c0}"
                case = win.CaseDescriptor.from_label(label, p)
                details = lengths.quotient_length_details(
                    case, c0, precision_scale=config["precision_scale"]
                )
                closed = inv.vertical_multiplicity_closed_form(p, c0)
                match = details.length == closed
                all_match = all_match and match
                rows.append(
                    {
                        "case": label,
                        "p": p,
                        "c0": c0,
                        "snf_length": details.length,
                        "closed_form": closed,
                        "match": match,
                        "chain_radius": details.chain_radius,
                        "window_widened": details.retried,
                    }
                )
                verdicts.append({"check": f"multiplicity {tag}", "pass": match})
    footers = {"grid": {"cells": len(rows), "all_match": all_match}}
    return rows, footers, verdicts, []


# ---------------------------------------------------------------------------
# lattice


def cmd_lattice(config: Dict) -> Report:
    from . import lattices as lab

    if config["sublattices"] < 0 and config["superlattices"] < 0 and not config["appendix"]:
        # nothing selected: run the default suite, and echo it in the config
        config.update(sublattices=2, superlattices=1, appendix=True)
    subl, superl = config["sublattices"], config["superlattices"]
    rows: List[Dict] = []
    footers: Dict = {}
    verdicts: List[Dict] = []
    errata: List[Dict] = []
    for p in config["p"]:
        if subl >= 0:
            module = lab.standard_rank2(p, prec=max(8, subl + 2))
            parities = []
            for k in range(subl + 1):
                found = lab.enumerate_stable_sublattices(module, k)
                verdicts.append(
                    {"check": f"sublattice-unique p={p} k={k}", "pass": len(found) == 1}
                )
                for lat in found:
                    exps = lat.pivot_exponents()
                    parity = lab.lie_action_parity(lat)
                    parities.append(parity)
                    rows.append(
                        {
                            "kind": "sublattice",
                            "p": p,
                            "k": k,
                            "count": len(found),
                            "exp_e0": exps[0],
                            "exp_f0": exps[1],
                            "parity": parity,
                        }
                    )
            alternates = all(
                parities[i] != parities[i + 1] for i in range(len(parities) - 1)
            )
            verdicts.append(
                {"check": f"sublattice-parity-alternates p={p}", "pass": alternates}
            )
            footers[f"sublattice-parities p={p}"] = ",".join(parities)
            errata.append({"code": "sublattice-display-swap", "p": p, "note": SUBLATTICE_ERRATUM})
        if superl >= 1:
            for s in range(1, superl + 1):
                for m in (1, 2):
                    if m == 1 and 2 * s > 4:
                        continue
                    if m == 2 and superl < 2:
                        continue
                    module = lab.tensor_rank4(p, prec=2 * (s + m) + 2)
                    found = lab.enumerate_stable_superlattices(module, s, m)
                    classes = [lab.classify_superlattice(lat) for lat in found]
                    verdicts.append(
                        {
                            "check": f"superlattice-family-count p={p} s={s} m={m}",
                            "pass": classes == lab.superlattice_family(s, m),
                        }
                    )
                    for a, b, delta in classes:
                        rows.append(
                            {
                                "kind": "superlattice",
                                "p": p,
                                "s": s,
                                "m": m,
                                "a": a,
                                "b": b,
                                "delta": delta,
                            }
                        )
        if config["appendix"]:
            census = lab.hodge_lift_census(p)
            rows.append(
                {
                    "kind": "hodge-census",
                    "p": p,
                    "all": census["all"],
                    "order_stable": census["order_stable"],
                    "uniformizer_stable": census["uniformizer_stable"],
                    "both_stable": census["both_stable"],
                }
            )
            verdicts.append(
                {"check": f"hodge-lift-unique p={p}", "pass": census["both_stable"] == 1}
            )
    return rows, footers, verdicts, errata


# ---------------------------------------------------------------------------
# selfcheck


def _require(ok: bool, detail: str) -> None:
    """A selfcheck condition that, unlike assert, still runs under python -O."""
    if not ok:
        raise ConsistencyFailure(detail)


def _selfcheck_battery() -> List[Tuple[str, bool, str]]:
    from . import inventory as inv, lattices as lab, lengths, windows as win

    checks: List[Tuple[str, bool, str]] = []

    def run(name: str, fn):
        try:
            detail = fn()
            checks.append((name, True, detail if isinstance(detail, str) else ""))
        except EndoliftError as exc:
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    def operator_sanity_all():
        for p in (3, 5):
            lab.operator_sanity(lab.standard_rank2(p))
            lab.operator_sanity(lab.ramified_rank2(p))
            lab.operator_sanity(lab.tensor_rank4(p))
        return "rank-2 x2, rank-4 at p=3,5"

    run("operator-sanity", operator_sanity_all)

    def sublattice_suite():
        module = lab.standard_rank2(3)
        want = ["psi", "psi-bar", "psi"]
        got = []
        for k in range(3):
            found = lab.enumerate_stable_sublattices(module, k)
            _require(len(found) == 1, f"k={k}: {len(found)} lattices")
            got.append(lab.lie_action_parity(found[0]))
        _require(got == want, f"parities {got}")
        return "unique per k<=2, parities " + ",".join(got)

    run("sublattices", sublattice_suite)

    def superlattice_suite():
        module = lab.tensor_rank4(3, prec=6)
        found = lab.enumerate_stable_superlattices(module, 1, 1)
        classes = [lab.classify_superlattice(L) for L in found]
        _require(classes == [(0, 0, 1), (0, 1, 0), (1, 0, 0)], str(classes))
        return "s=1 exhaustive: 3 lattices"

    run("superlattices", superlattice_suite)

    def descent_suite():
        for a in range(3):
            for b in range(3):
                for d in (0, 1):
                    if a + b + d <= 2:
                        lab.descend_superlattice(a, b, d, 3)
        return "all a+b+delta<=2 stable"

    run("descents", descent_suite)

    def census_suite():
        census = lab.hodge_lift_census(3)
        _require(census["both_stable"] == 1 and census["all"] == 3**8, str(census))
        return "both-stable count 1"

    run("hodge-census", census_suite)

    def inventory_suite():
        spots = {
            ("unr", 3, 1): 5,
            ("unr", 3, 2): 34,
            ("ram", 3, 1): 12,
        }
        for (label, p, c0), want in sorted(spots.items()):
            got = inv.total_proper_intersection(label, p, c0)
            _require(got == want, f"{label} p={p} c0={c0}: {got} != {want}")
        return "spot totals 5/34/12"

    run("inventory-totals", inventory_suite)

    def multiplicity_suite():
        for label in ("unr", "ram"):
            got = lengths.vertical_multiplicity(label, 3, 1)
            _require(got == 2, f"{label}: {got}")
        return "length 2 at c0=1, both cases"

    run("multiplicity", multiplicity_suite)

    def annihilator_suite():
        case = win.CaseDescriptor.from_label("unr", 3)
        _require(lengths.annihilator_check(case, 1), "a membership fails at (unr, 3, 1)")
        return "membership table at (unr, 3, 1)"

    run("annihilator", annihilator_suite)

    def recursion_suite():
        for label in ("unr", "ram"):
            case = win.CaseDescriptor.from_label(label, 3)
            ctx = win.one_variable_context(3)
            vert = win.solve_vertical_recursion(case, ctx)
            _require(
                vert.pair == win.closed_form_vertical_pair(case, ctx).normalized(),
                f"{label}: recursion fixed point differs from the closed form",
            )
            sol = win.solve_thickened_recursion(case, 2)
            report = win.structure_check(sol, raise_on_failure=False)
            _require(report.ok, str([c.name for c in report.clauses if not c.ok]))
        return "closed form + structure at k=2, both cases"

    run("recursion", recursion_suite)

    def integrality_suite():
        case = win.CaseDescriptor.from_label("unr", 3)
        prec = 6
        a, b, c, d = case.with_gamma(2, 1).param_scalars(prec)
        _require(not win.integrality_predicate(a, b, c, d), "unit coefficient is integral?")
        a, b, c, d = case.with_gamma(2, 3).param_scalars(prec)
        _require(win.integrality_predicate(a, b, c, d), "divisible coefficient not integral?")
        return "unit vs divisible generator coefficient"

    run("integrality", integrality_suite)

    return checks


def cmd_selfcheck(config: Dict) -> Report:
    checks = _selfcheck_battery()
    rows = [{"check": n, "pass": ok, "detail": detail} for n, ok, detail in checks]
    verdicts = [{"check": n, "pass": ok} for n, ok, _ in checks]
    footers = {
        "summary": {
            "checks": len(checks),
            "passed": sum(1 for _, ok, _ in checks if ok),
        }
    }
    return rows, footers, verdicts, []


# ---------------------------------------------------------------------------
# entry point


# each command: its function, its help line and its flags' defaults
_COMMANDS = {
    "inventory": (cmd_inventory, "component tables and totals", dict(case="both", p="3", c0="1")),
    "recursion": (cmd_recursion, "tower solutions and structure checks",
                  dict(case="both", p="3", k=2, precision_scale=1, dump=False)),
    "multiplicity": (cmd_multiplicity, "measured vs closed-form lengths",
                     dict(case="both", p="3", c0="1..2", precision_scale=1)),
    "lattice": (cmd_lattice, "stable-lattice suites", dict(p="3", sublattices=-1, superlattices=-1, appendix=False)),
    "selfcheck": (cmd_selfcheck, "fast cross-check battery", {}),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone; the lean one's
    usage line still names them all, so both refuse its arguments alike."""
    parser = argparse.ArgumentParser(
        prog="endolift",
        description="Exact desk-scale sweeps over deformation-locus invariants.",
    )
    names = None if command is None else "{" + ",".join(_COMMANDS) + "}"  # as argparse writes them
    subs = parser.add_subparsers(dest="command", required=True, metavar=names)
    for name in _COMMANDS if command is None else (command,):
        fn, help_text, defaults = _COMMANDS[name]
        sub, defaults = subs.add_parser(name, help=help_text), dict(defaults, format="json")
        for flag in defaults:
            sub.add_argument("--" + flag.replace("_", "-"), dest=flag, default=None, **_FLAGS[flag][0])
        sub.add_argument("--config", default=None, help="key = value file mirroring flags")
        sub.set_defaults(fn=fn, flag_defaults=defaults)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ns = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        config = _settings(ns)
        rows, footers, verdicts, errata = ns.fn(config)
        if not verdicts:
            raise ValueError(f"{ns.command} with these settings checks nothing")
        _emit(ns.command, config, rows, footers, verdicts, errata)
        return 0 if all(v["pass"] for v in verdicts) else 1
    except (ValueError, NotAnOrder, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (WindowExhausted, PrecisionExhausted, PrecisionTooLow) as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 3
    except (ConsistencyFailure, StructureViolation, ShapeViolation, StabilityFailure) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except EndoliftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
