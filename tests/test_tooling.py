"""Repository-wide rules checked on the source text."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import endolift
import endolift.lengths
import endolift.witt

SRC = Path(endolift.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert, so an invariant resting on one silently vanishes
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


def test_package_imports_only_the_standard_library():
    # the package has no runtime dependencies; a third-party import (numpy
    # alone takes longer to import than the whole package) would add one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, f"non-stdlib imports in src: {found}"


def _unused_imports(path):
    """Names a file imports but neither reads nor lists in __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_each_input_rule_is_stated_once():
    # a restated check drifts from its owner: the odd-prime rule belongs to
    # witt.nonresidue, the tower's precision scale to windows.recursion_context,
    # its depth to windows._check_depth, the integrality precision to
    # windows.integrality_predicate
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    text = "".join(sources.values())
    assert text.count("must be an odd prime") == 1
    assert text.count("precision scale must be") == 1
    assert text.count("depth k must be") == 1
    assert text.count("integrality needs scalar precision") == 1
    assert text.count("level must be") == 1
    assert [name for name, source in sources.items() if "is_odd_prime" in source] == ["witt.py"]


def test_only_the_case_parameters_name_wittscalar():
    # the WittScalar wrapper is the case parameters' type and nothing else;
    # series, lengths and lattices take and return raw (a, b) pairs only
    named = [path.name for path in sorted(SRC.glob("*.py")) if "WittScalar" in path.read_text(encoding="utf-8")]
    assert named == ["windows.py", "witt.py"]


def test_only_lattices_names_the_lattice_slot_builder():
    # `_canonical_lattice` sets a lattice's slots from rows it takes to be in
    # canonical Hermite form without checking them; only the module that
    # builds such rows may hand it any
    named = [path.name for path in sorted(SRC.glob("*.py")) if "_canonical_lattice" in path.read_text(encoding="utf-8")]
    assert named == ["lattices.py"]


def _value_class_members():
    """(class, member, statement) for each method and each assigned name in
    the body of a class in the package that names Frozen as a base."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and any(getattr(base, "id", None) == "Frozen" for base in cls.bases)):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    yield cls.name, node.name, node
                elif isinstance(node, ast.Assign):
                    yield from ((cls.name, target.id, node) for target in node.targets if isinstance(target, ast.Name))


def test_value_classes_take_their_constructor_and_equality_from_frozen():
    # Frozen builds every value from its slots and compares and hashes it by
    # them; only the contexts validate and derive fields first, and
    # QuasiEndoPair names Frozen's equality in its own body, where the
    # benchmark's probe patches __eq__.  A copied constructor or a private
    # equality would be a second way to define a value
    inits, equality = [], []
    for cls, name, node in _value_class_members():
        if name == "__init__":
            inits.append(cls)
        elif name in ("__eq__", "__hash__"):
            equality.append((cls, name, ast.unparse(node.value) if isinstance(node, ast.Assign) else "def"))
    assert sorted(inits) == ["ChainContext", "SeriesContext"]
    assert sorted(equality) == [("QuasiEndoPair", "__eq__", "Frozen.__eq__"),
                                ("QuasiEndoPair", "__hash__", "Frozen.__hash__")]


def _fresh_process_loads(statement, tmp_path):
    """The endolift modules, and which of dataclasses and fractions, a fresh
    process has loaded after running `statement`; a fresh process, since
    this one has loaded them all."""
    code = (f"import sys\n{statement}\n"
            "print((sorted(n[9:] for n in sys.modules if n.startswith('endolift.')),"
            " sorted({'dataclasses', 'fractions'} & set(sys.modules))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]),
               ENDOLIFT_OUT_DIR=str(tmp_path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    modules, stdlib = ast.literal_eval(done.stdout.splitlines()[-1])
    return set(modules), set(stdlib)


@pytest.mark.parametrize("module, loaded", [
    ("endolift", set()),
    ("endolift.lattices", {"errors", "witt", "lattices"}),
    ("endolift.inventory", {"errors", "witt", "inventory"}),
    ("endolift.cli", {"cli", "errors"}),
    ("endolift.errors", {"errors"}),
    ("endolift.witt", {"errors", "witt"}),
    ("endolift.series", {"errors", "witt", "series"}),
    ("endolift.windows", {"errors", "witt", "series", "inventory", "windows"}),
    ("endolift.lengths", {"errors", "witt", "series", "inventory", "windows", "lengths"}),
])
def test_an_import_loads_only_what_it_needs(module, loaded, tmp_path):
    # the package re-exports nothing and the CLI imports each engine when a
    # command runs, so importing one module does not load the others; no
    # module pays for dataclasses or fractions at import
    assert _fresh_process_loads(f"import {module}", tmp_path) == (loaded, set())


@pytest.mark.parametrize("argv, loaded, stdlib", [
    (["lattice", "--sublattices", "1"], {"cli", "errors", "witt", "lattices"}, set()),
    # displayed_corollary_value, the one user of Fraction, runs here
    (["inventory"], {"cli", "errors", "witt", "inventory"}, {"fractions"}),
], ids=["lattice", "inventory"])
def test_a_command_loads_only_its_engine(argv, loaded, stdlib, tmp_path):
    statement = f"from endolift import cli; cli.main({argv!r})"
    assert _fresh_process_loads(statement, tmp_path) == (loaded, stdlib)


def test_the_scalars_have_one_arithmetic():
    # the pair helpers are the arithmetic: WittScalar keeps what carries a
    # case's parameters into the integrality predicate (and the benchmark's
    # probes), the residue field is the helpers at modulus p, and the tests'
    # reference ring shares no code with the helpers it checks
    methods = {name for name, value in vars(endolift.witt.WittScalar).items()
               if callable(value) and (name.startswith("__") or not name.startswith("_"))}
    assert methods == {"__init__", "__sub__", "__mul__", "valuation"}
    assert not [path.name for path in sorted(SRC.glob("*.py")) if "_ResidueField" in path.read_text(encoding="utf-8")]
    reference = Path(__file__).resolve().parent / "witt_reference.py"
    tree = ast.parse(reference.read_text(encoding="utf-8"), filename=str(reference))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    names += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert names and not [name for name in names if name.startswith("pair_")]


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(Path(__file__).resolve().parent.glob("*.py")):
        found += _unused_imports(path)
    assert not found, f"unused imports: {found}"


@pytest.mark.parametrize("argv", [
    ["recursion_depth_probe.py", "--primes", "3", "--radius-powers", "1", "--prec", "2"],
], ids=["recursion_depth_probe"])
def test_scripts_run(argv):
    # the scripts import the package by name; a deletion in src must not break them
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(scripts / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def _benchmark_probe_targets():
    """(module, target) of every probe in perfbench/tracer.py, read from its
    source text without importing it."""
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"), filename=str(tracer))
    return [
        (node.args[1].value, node.args[2].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Probe"
        and all(isinstance(arg, ast.Constant) for arg in node.args[1:3])
    ]


def test_benchmark_probes_resolve_in_the_package():
    # the benchmark wraps these by name; a rename or deletion in src would
    # otherwise only show as a failed benchmark run.  A method must sit in
    # its class's own __dict__, where the benchmark looks it up: one that is
    # only inherited, or moved into a helper, would not be counted
    targets = _benchmark_probe_targets()
    assert len(targets) > 30
    assert {("witt", "WittScalar.__init__"), ("witt", "WittScalar.__mul__"),
            ("lattices", "LatticeHNF.__init__")} <= set(targets)
    missing = []
    for module, target in targets:
        owner = importlib.import_module(f"endolift.{module}")
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(owner, cls_name, None)
            found = isinstance(cls, type) and attr in vars(cls)
        else:
            found = callable(getattr(owner, target, None))
        if not found:
            missing.append(f"{module}.{target}")
    assert not missing, f"benchmark probes with no target: {missing}"


@pytest.mark.parametrize("name", [
    "quotient_length_details", "quotient_length", "length_by_elimination",
    "annihilator_report", "annihilator_check", "vertical_multiplicity",
])
def test_windowed_numbers_have_one_path(name):
    # every windowed number goes through the stabilization driver: no entry
    # point pins a radius or forwards options it does not name
    params = inspect.signature(getattr(endolift.lengths, name)).parameters.values()
    assert "chain_radius" not in [param.name for param in params]
    assert all(param.kind is not param.VAR_KEYWORD for param in params)


@pytest.mark.parametrize("module, name, params", [
    ("lattices", "standard_rank2", ["p", "prec"]),
    ("lattices", "descend_superlattice", ["a", "b", "delta", "p"]),
    ("windows", "one_variable_context", ["p", "prec"]),
])
def test_entry_points_take_only_what_a_command_sets(module, name, params):
    # an option only tests or a script set is a second path through the
    # code; those build their module, precision or box themselves
    target = getattr(importlib.import_module(f"endolift.{module}"), name)
    assert list(inspect.signature(target).parameters) == params


def test_every_all_entry_resolves():
    # a stale __all__ entry breaks `from endolift.<module> import *` and
    # nothing else would notice
    names = ["endolift"] + [f"endolift.{path.stem}" for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"__all__ entries with no attribute: {missing}"
