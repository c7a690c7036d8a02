"""Every function the package defines is reached by the package's traffic.

One fresh process runs that traffic under `sys.setprofile`: the five
commands at their defaults, every cell of the three benchmark workloads at
seed 1, and the acceptance battery.  A function defined in src/ that it
never calls fails the test, unless it is a dunder guard or printer, or a
name on the ledger below, which the benchmark harness alone still holds in
the package.  Code that only tests reach belongs in tests/, as
`witt_reference.py` and `lattice_reference.py` do.

Run it alone with

    PYTHONPATH=src python -m pytest -q tests/test_reach.py
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import endolift

SRC = Path(endolift.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

# called only by copy, pickle, a failed assignment or a debugging print
GUARDS = {"__setattr__", "__delattr__", "__reduce__", "__setstate__", "__repr__", "__hash__", "__eq__"}

# module.qualname -> what holds it in the package though no traffic calls it;
# an entry leaves once the harness stops naming it
LEDGER = {
    "lattices.LatticeHNF.__init__": "perfbench/tracer.py probe lattices.hnf_new",
    "series.series_invert": "perfbench/tracer.py probe series.other",
    "series.TruncSeries.one": "called only by series_invert (probe series.other)",
    "series.TruncSeries.monomial": "called only by series_invert (probe series.other)",
    "witt.WittScalar.__mul__": "perfbench/tracer.py probe witt.scalar_mul",
    "lengths.ChainScalar.coeffs": "perfbench/tracer.py _note_chain_mul reads it",
}

TRAFFIC = """
import contextlib, io, json, sys

seen = set()

def note(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

sys.setprofile(note)
from endolift import cli
import workloads
import pytest

failed = []
for command in ("inventory", "recursion", "multiplicity", "lattice", "selfcheck"):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main([command]) != 0:
            failed.append(command)
for workload in sorted(workloads.WORKLOADS):
    for cell in workloads.build(workload, 1, lambda name, amount: None):
        if cell.run() is not None:
            failed.append(cell.name)
if pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[2]]) != 0:
    failed.append("acceptance battery")
sys.setprofile(None)
src, out = sys.argv[1], sys.argv[3]
reached = sorted({(code.co_filename, code.co_firstlineno) for code in seen if code.co_filename.startswith(src)})
with open(out, "w", encoding="utf-8") as f:
    json.dump({"failed": failed, "reached": reached}, f)
"""


def _defined_functions():
    """module.qualname -> (file, first line) of every def in src/; the first
    line of a decorated def is its first decorator's, as in its code object."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[f"{prefix}{child.name}"] = (str(path), first)
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path, f"{path.stem}.")
    return found


def test_every_package_function_is_reached(tmp_path):
    env = dict(os.environ, ENDOLIFT_OUT_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join([str(SRC.parent), str(PERFBENCH), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", TRAFFIC, str(SRC), str(TESTS / "test_acceptance.py"), str(tmp_path / "reach.json")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads((tmp_path / "reach.json").read_text(encoding="utf-8"))
    assert not result["failed"], f"traffic that did not pass: {result['failed']}"
    reached = {tuple(site) for site in result["reached"]}
    defined = _defined_functions()
    unreached = {name for name, site in defined.items()
                 if site not in reached and name.rsplit(".", 1)[-1] not in GUARDS}
    dead = sorted(unreached - set(LEDGER))
    assert not dead, f"functions in src/ that no traffic calls: {dead}"
    stale = sorted(set(LEDGER) - unreached)
    assert not stale, f"ledger names that the traffic calls, or that src/ no longer defines: {stale}"
