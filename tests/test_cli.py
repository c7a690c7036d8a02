"""End-to-end tests for the command-line harness (in-process)."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import endolift
from endolift import cli, windows as win
from endolift.cli import SCHEMA_VERSION, build_parser, main
from endolift.errors import ConsistencyFailure, WindowExhausted


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("ENDOLIFT_OUT_DIR", str(tmp_path))
    return tmp_path


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def _run_json(capsys, argv):
    rc, out = _run(capsys, argv)
    return rc, json.loads(out)


class TestSelfcheck:
    def test_passes_and_reports(self, outdir, capsys):
        rc, report = _run_json(capsys, ["selfcheck"])
        assert rc == 0
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["command"] == "selfcheck"
        assert report["footers"]["summary"] == {"checks": 10, "passed": 10}
        assert all(v["pass"] for v in report["verdicts"])

    def test_writes_output_file(self, outdir, capsys):
        rc, out = _run(capsys, ["selfcheck"])
        assert rc == 0
        assert (outdir / "selfcheck.json").read_text(encoding="utf-8") == out

    def test_failing_check_fails_under_optimize(self):
        # python -O strips assert statements; the battery must not rely on them
        code = (
            "from endolift import cli, lengths\n"
            "lengths.annihilator_check = lambda *args, **kwargs: False\n"
            "print(dict((n, ok) for n, ok, _ in cli._selfcheck_battery())['annihilator'])\n"
        )
        src = str(Path(endolift.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestInventory:
    def test_known_totals(self, outdir, capsys):
        rc, report = _run_json(capsys, ["inventory", "--case", "unr", "--p", "3", "--c0", "1"])
        assert rc == 0
        footer = report["footers"]["unr p=3 c0=1"]
        assert footer["total_proper"] == 5
        assert footer["total_proper"] == footer["closed_form"]
        assert not report["errata"]

    def test_ramified_display_mismatch_goes_to_errata(self, outdir, capsys):
        rc, report = _run_json(capsys, ["inventory", "--case", "ram", "--p", "3", "--c0", "1"])
        assert rc == 0  # the mismatch is reported, not failed
        codes = [e["code"] for e in report["errata"]]
        assert "displayed-closed-form-mismatch" in codes
        assert all(v["pass"] for v in report["verdicts"])

    def test_conductor_zero(self, outdir, capsys):
        rc, report = _run_json(capsys, ["inventory", "--case", "both", "--p", "3", "--c0", "0"])
        assert rc == 0
        # unramified: nothing proper at conductor 0; ramified keeps its one
        # nonstandard component (the closed form gives 1 there too)
        assert report["footers"]["unr p=3 c0=0"]["total_proper"] == 0
        assert report["footers"]["ram p=3 c0=0"]["total_proper"] == 1
        assert report["footers"]["ram p=3 c0=0"]["closed_form"] == 1


class TestRecursion:
    def test_verdicts_pass(self, outdir, capsys):
        rc, report = _run_json(capsys, ["recursion", "--case", "unr", "--p", "3", "--k", "1"])
        assert rc == 0
        names = [v["check"] for v in report["verdicts"]]
        assert any("closed-form" in n for n in names)
        assert all(v["pass"] for v in report["verdicts"])

    def test_dump_adds_coefficient_rows(self, outdir, capsys):
        rc, plain = _run_json(capsys, ["recursion", "--case", "unr", "--p", "3", "--k", "1"])
        rc2, dumped = _run_json(
            capsys, ["recursion", "--case", "unr", "--p", "3", "--k", "1", "--dump"]
        )
        assert rc == rc2 == 0
        assert len(dumped["rows"]) > len(plain["rows"])

    def test_one_variable_cap_maps_to_exit_three(self, outdir, capsys, monkeypatch):
        # (unr, 3) reaches its fixed point at depth 5; under a cap of 3 steps
        # no division fails, the window runs out
        monkeypatch.setattr(win, "_MAX_DEPTH", 3)
        case = win.CaseDescriptor.from_label("unr", 3)
        with pytest.raises(WindowExhausted, match="within 3 steps"):
            win.solve_vertical_recursion(case, win.one_variable_context(3))
        assert main(["recursion", "--case", "unr", "--p", "3"]) == 3


class TestMultiplicity:
    def test_grid_row_content(self, outdir, capsys):
        rc, report = _run_json(
            capsys, ["multiplicity", "--case", "ram", "--p", "3", "--c0", "1"]
        )
        assert rc == 0
        (row,) = report["rows"]
        assert row["snf_length"] == 2
        assert row["closed_form"] == 2
        assert row["match"] is True
        assert report["footers"]["grid"]["all_match"] is True

    def test_conductor_zero_is_a_usage_error(self, outdir, capsys):
        rc = main(["multiplicity", "--case", "unr", "--p", "3", "--c0", "0"])
        assert rc == 2

    def test_window_exhaustion_maps_to_exit_three(self, outdir, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise WindowExhausted("probe")

        monkeypatch.setattr("endolift.lengths.quotient_length_details", boom)
        rc = main(["multiplicity", "--case", "unr", "--p", "3", "--c0", "1"])
        assert rc == 3

    def test_consistency_failure_maps_to_exit_one(self, outdir, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ConsistencyFailure("probe")

        monkeypatch.setattr("endolift.lengths.quotient_length_details", boom)
        rc = main(["multiplicity", "--case", "unr", "--p", "3", "--c0", "1"])
        assert rc == 1


class TestLattice:
    def test_sublattice_listing(self, outdir, capsys):
        rc, report = _run_json(
            capsys, ["lattice", "--p", "3", "--sublattices", "2"]
        )
        assert rc == 0
        subl = [r for r in report["rows"] if r.get("kind") == "sublattice"]
        assert {r["k"] for r in subl} == {0, 1, 2}
        for r in subl:
            assert r["count"] == 1
        codes = [e["code"] for e in report["errata"]]
        assert "sublattice-display-swap" in codes

    def test_superlattice_census(self, outdir, capsys):
        rc, report = _run_json(
            capsys, ["lattice", "--p", "3", "--superlattices", "1"]
        )
        assert rc == 0
        supl = [r for r in report["rows"] if r.get("kind") == "superlattice"]
        assert len(supl) == 3
        assert all(v["pass"] for v in report["verdicts"])

    def test_appendix_census(self, outdir, capsys):
        rc, report = _run_json(capsys, ["lattice", "--p", "3", "--appendix"])
        assert rc == 0
        census = [r for r in report["rows"] if r.get("kind") == "hodge-census"]
        assert census
        assert census[0]["both_stable"] == 1


class TestOutputContract:
    def test_reruns_are_byte_identical(self, outdir, capsys):
        _, first = _run(capsys, ["inventory", "--case", "unr", "--p", "3", "--c0", "1"])
        _, second = _run(capsys, ["inventory", "--case", "unr", "--p", "3", "--c0", "1"])
        assert first == second

    def test_json_is_sorted_and_indented(self, outdir, capsys):
        _, report_text = _run(capsys, ["selfcheck"])
        parsed = json.loads(report_text)
        assert report_text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"

    def test_tsv_has_sorted_union_header(self, outdir, capsys):
        rc, out = _run(
            capsys,
            ["multiplicity", "--case", "unr", "--p", "3", "--c0", "1", "--format", "tsv"],
        )
        assert rc == 0
        lines = out.strip().split("\n")
        header = lines[0].split("\t")
        assert header == sorted(header)
        assert len(lines) == 2
        assert (outdir / "multiplicity.tsv").exists()

    def test_config_file_supplies_defaults(self, outdir, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# desk sweep\ncase = ram\np = 3\nc0 = 1\nformat = tsv\n", encoding="utf-8"
        )
        rc, out = _run(capsys, ["multiplicity", "--config", str(cfg)])
        assert rc == 0
        assert "\t" in out
        assert "ram" in out

    def test_cli_flags_beat_config_file(self, outdir, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("case = ram\np = 3\nc0 = 1\n", encoding="utf-8")
        rc, report = _run_json(
            capsys, ["multiplicity", "--config", str(cfg), "--case", "unr"]
        )
        assert rc == 0
        assert {row["case"] for row in report["rows"]} == {"unr"}

    def test_missing_config_file_is_usage_error(self, outdir, capsys):
        rc = main(["multiplicity", "--config", "/nonexistent/x.cfg"])
        assert rc == 2


class TestArgumentErrors:
    def test_unknown_command_exits_two(self, outdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_int_list_is_usage_error(self, outdir, capsys):
        rc = main(["multiplicity", "--p", "three"])
        assert rc == 2

    # values the inventory or the tower cannot take, and a run that would
    # check nothing
    @pytest.mark.parametrize("argv", [
        ["inventory", "--p", "4", "--c0", "1"],
        ["inventory", "--case", "unr", "--c0", "-1"],
        ["lattice", "--superlattices", "0"],
        ["recursion", "--k", "0"],
        ["recursion", "--precision-scale", "0"],
        ["multiplicity", "--precision-scale", "0"],
    ])
    def test_out_of_domain_run_is_usage_error(self, outdir, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("usage error:")
        assert not list(outdir.glob(argv[0] + ".*"))

    # a negative depth is refused by the depth rule, before p**k builds a box
    @pytest.mark.parametrize("argv", [["recursion", "--k", "-1"], ["multiplicity", "--c0", "-1"]])
    def test_negative_depth_is_refused_by_name(self, outdir, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err == "usage error: depth k must be at least 1, got k = -1\n"

    def test_refused_recursion_does_no_engine_work(self, outdir, capsys, monkeypatch):
        calls = []
        real = win.solve_vertical_recursion
        monkeypatch.setattr(win, "solve_vertical_recursion", lambda *a, **kw: calls.append(a) or real(*a, **kw))
        for bad in (["--k", "0"], ["--precision-scale", "0"]):
            assert main(["recursion", "--case", "unr", *bad]) == 2
        assert calls == []
        # the probe does see an accepted run
        assert main(["recursion", "--case", "unr", "--k", "1"]) == 0
        assert len(calls) == 1

    # a count below -1 is refused, not replaced by the default suite
    @pytest.mark.parametrize("flag, value", [("--sublattices", "-2"), ("--superlattices", "-7")])
    def test_lattice_count_below_minus_one_is_usage_error(self, outdir, capsys, flag, value):
        assert main(["lattice", flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"usage error: {flag}: ")
        assert not (outdir / "lattice.json").exists()

    # one integer grammar: surrounding whitespace, an optional "-", ASCII
    # digits, and no empty list entry
    @pytest.mark.parametrize("argv, flag", [
        (["recursion", "--k", "3_0"], "--k"),
        (["multiplicity", "--p", "\u0663"], "--p"),
        (["multiplicity", "--c0", "3,,5"], "--c0"),
        (["multiplicity", "--p", ",3"], "--p"),
        (["lattice", "--sublattices", "+2"], "--sublattices"),
        (["recursion", "--precision-scale", "0_1"], "--precision-scale"),
    ], ids=["underscore", "non-ascii-digit", "empty-chunk", "leading-comma", "plus-sign", "underscore-scale"])
    def test_integers_have_one_grammar(self, outdir, capsys, argv, flag):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"usage error: {flag}: ")
        assert not list(outdir.glob(argv[0] + ".*"))

    def test_config_integers_have_the_same_grammar(self, outdir, capsys, tmp_path):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("k = 3_0\n", encoding="utf-8")
        assert main(["recursion", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"usage error: {cfg}:1: ")
        # whitespace around a valid integer is no error
        cfg.write_text("p = 3 , 5\nk =  1 \n", encoding="utf-8")
        rc, report = _run_json(capsys, ["recursion", "--case", "unr", "--config", str(cfg)])
        assert rc == 0
        assert (report["config"]["p"], report["config"]["k"]) == ([3, 5], 1)

    # every flag a command used to accept and then ignore
    @pytest.mark.parametrize("command, flag", [
        ("inventory", "--k=1"), ("inventory", "--precision-scale=2"), ("inventory", "--dump"),
        ("recursion", "--c0=1"),
        ("multiplicity", "--k=1"), ("multiplicity", "--dump"),
        ("lattice", "--case=unr"), ("lattice", "--c0=1"), ("lattice", "--k=1"),
        ("lattice", "--precision-scale=2"), ("lattice", "--dump"),
        ("selfcheck", "--case=unr"), ("selfcheck", "--p=7"), ("selfcheck", "--c0=1"), ("selfcheck", "--k=1"),
        ("selfcheck", "--precision-scale=2"), ("selfcheck", "--dump"),
    ])
    def test_unread_flag_is_usage_error(self, outdir, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, flag])
        assert exc.value.code == 2

    # a config value passes the same choices and reader as its flag
    @pytest.mark.parametrize("command, line", [
        ("selfcheck", "format = xml"), ("inventory", "case = inert"),
        ("recursion", "dump = maybe"), ("lattice", "sublattices = two"),
        ("lattice", "superlattices = -3"), ("inventory", "p = 3\np = 5"),
    ])
    def test_bad_config_value_is_usage_error(self, outdir, capsys, tmp_path, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# sweep\n" + line + "\n", encoding="utf-8")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        # every line of the setting is named: a repeated key names both
        assert all(f"{cfg}:{n}" in err for n in range(2, line.count("\n") + 3))
        assert not list(outdir.glob(command + ".*"))

    # the report's config block is the command's resolved flags, no more
    @pytest.mark.parametrize("argv", [
        ["inventory", "--case", "unr", "--p", "3", "--c0", "1"],
        ["recursion", "--case", "unr", "--p", "3", "--k", "1"],
        ["multiplicity", "--case", "unr", "--p", "3", "--c0", "1"],
        ["lattice", "--p", "3", "--sublattices", "0"],
        ["selfcheck"],
    ])
    def test_config_block_keys_are_the_accepted_flags(self, outdir, capsys, argv):
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        accepted = {
            a.dest for a in commands.choices[argv[0]]._actions if a.option_strings
        } - {"help", "config"}
        rc, report = _run_json(capsys, argv)
        assert rc == 0
        assert set(report["config"]) == accepted

    def test_unread_config_key_is_usage_error(self, outdir, capsys, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("prime = 5\n", encoding="utf-8")
        assert main(["multiplicity", "--config", str(cfg)]) == 2
        assert "prime" in capsys.readouterr().err
        # a shared key that this command does not read is refused too
        cfg.write_text("c0 = 1\n", encoding="utf-8")
        assert main(["lattice", "--config", str(cfg)]) == 2
        assert not (outdir / "lattice.json").exists()


# each command with every one of its flags set away from its default
EVERY_FLAG = {
    "inventory": dict(case="unr", p="3,5", c0="0..1", format="tsv"),
    "recursion": dict(case="ram", p="3", k="1", precision_scale="2", dump=True, format="tsv"),
    "multiplicity": dict(case="unr", p="3", c0="1", precision_scale="2", format="tsv"),
    "lattice": dict(p="3", sublattices="1", superlattices="1", appendix=True, format="tsv"),
    "selfcheck": dict(format="tsv"),
}


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of one CLI call; argparse exits by
    SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestLeanParser:
    """`main` builds the parser of the command it runs alone.  It must read
    and refuse that command's arguments exactly as the parser of every
    command does, which is what `main` runs on with `build_parser` patched
    to build them all."""

    @staticmethod
    def _lean_and_full(capsys, monkeypatch, argv):
        lean = _outcome(capsys, argv)
        full_parser = cli.build_parser
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", lambda command=None: full_parser())
            full = _outcome(capsys, argv)
        return lean, full

    @pytest.mark.parametrize("command", sorted(EVERY_FLAG))
    def test_the_lean_parser_holds_one_command_and_every_flag_is_given(self, command):
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        lean = next(a for a in build_parser(command)._actions if a.dest == "command")
        assert list(lean.choices) == [command] and len(commands.choices) == len(EVERY_FLAG)
        flags = {a.dest for a in commands.choices[command]._actions if a.option_strings}
        assert set(EVERY_FLAG[command]) == flags - {"help", "config"}

    @pytest.mark.parametrize("given", ["flags", "defaults", "config"])
    @pytest.mark.parametrize("command", sorted(EVERY_FLAG))
    def test_settings_and_report_bytes_match(self, outdir, capsys, monkeypatch, tmp_path, command, given):
        settings, argv = EVERY_FLAG[command], [command]
        if given == "flags":
            for name, value in settings.items():
                argv += ["--" + name.replace("_", "-")] + ([] if value is True else [value])
        elif given == "config":
            cfg = tmp_path / "every.cfg"
            cfg.write_text("".join(f"{name} = {'yes' if value is True else value}\n"
                                   for name, value in settings.items()), encoding="utf-8")
            argv += ["--config", str(cfg)]
        lean_ns, full_ns = (parser.parse_args(argv) for parser in (build_parser(command), build_parser()))
        assert vars(lean_ns) == vars(full_ns)
        resolved = cli._settings(lean_ns)
        assert resolved == cli._settings(full_ns)
        assert (resolved["format"] == "tsv") == (given != "defaults")
        lean, full = self._lean_and_full(capsys, monkeypatch, argv)
        assert lean == full
        assert lean[0] == 0 and lean[1] and not lean[2]

    @pytest.mark.parametrize("argv, code", [
        (["lattice", "--bogus"], 2),
        (["inventory", "--case", "unr", "--bogus", "1"], 2),
        (["lattice", "lattice"], 2),
        (["inventory", "--case", "inert"], 2),
        (["lattice", "--format", "xml"], 2),
        (["lattice", "--p"], 2),
        (["lattice", "-h"], 0),
        (["recursion", "--help"], 0),
        (["frobnicate"], 2),
        ([], 2),
        (["-h"], 0),
    ], ids=["unknown-flag", "unknown-flag-with-value", "extra-argument", "bad-case", "bad-format",
            "p-without-value", "lattice-help", "recursion-help", "unknown-command", "no-command", "help"])
    def test_refusals_and_help_are_byte_identical(self, outdir, capsys, monkeypatch, argv, code):
        lean, full = self._lean_and_full(capsys, monkeypatch, argv)
        assert lean == full
        assert lean[0] == code and (lean[1] if code == 0 else lean[2])
        assert not list(outdir.iterdir())


def _recorded_digests():
    """The benchmark's sha256 of each CLI report, read from its oracle file
    by path, so that the harness itself is not imported."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle.CLI_DIGESTS


CLI_DIGESTS = _recorded_digests()

# the lattice reports past the benchmark's one invocation: the default
# census, the TSV writer, and the superlattice windows up to s = 3
LATTICE_DIGESTS = {
    ("lattice",):
        "d80f798cf32b19c877f22b7e26cdd760ba3ebd13f44be78a3749324a0455f7dc",
    ("lattice", "--format", "tsv"):
        "5520b046d2e2d3793ec508dd3fbccd631f388e57510be044a4387e01244b2c20",
    ("lattice", "--superlattices", "2"):
        "ab7d96d0337453de0397f34ed8feff531e1d17cf5da302d45ac2bd5afe51d38f",
    ("lattice", "--p", "3,5", "--superlattices", "3"):
        "5390a93fe5bbc07803610ca9adc9bfb60e4160e32f717413c0268f70cf57a012",
}


class TestReportDigests:
    @pytest.mark.parametrize("argv", sorted(CLI_DIGESTS), ids=" ".join)
    def test_report_bytes_match_the_recorded_digest(self, outdir, capsys, argv):
        rc, out = _run(capsys, list(argv))
        assert rc == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_DIGESTS[argv]

    @pytest.mark.parametrize("argv", sorted(LATTICE_DIGESTS), ids=" ".join)
    def test_lattice_report_bytes_match_the_recorded_digest(self, outdir, capsys, argv):
        rc, out = _run(capsys, list(argv))
        assert rc == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LATTICE_DIGESTS[argv]
