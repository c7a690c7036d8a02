"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import gc
import json
import signal
from time import perf_counter

import pytest

import reference as ref
import run
import tracer as tr
import workloads
from endolift import lengths
from endolift.errors import StabilityFailure


def _no_sink(name, amount):
    pass


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_times_subtract_what_children_cover():
    spans = [
        (0, "root", 0.0, 10.0, None, 0.0),
        (1, "a", 1.0, 4.0, 0, 0.0),
        (2, "a.inner", 2.0, 3.0, 1, 0.0),
        (3, "b", 5.0, 9.0, 0, 1.0),  # 1 s under aggregated hot calls
    ]
    assert tr.self_times(spans) == [3.0, 2.0, 1.0, 3.0]
    assert sum(tr.self_times(spans)) + 1.0 == 10.0


def test_self_times_count_overlapping_children_once():
    spans = [
        (0, "root", 0.0, 10.0, None, 0.0),
        (1, "x", 2.0, 6.0, 0, 0.0),
        (2, "y", 4.0, 12.0, 0, 0.0),  # overlaps x and runs past the parent
    ]
    assert tr.self_times(spans)[0] == pytest.approx(2.0)


def test_tracer_accounts_for_the_whole_root_span():
    t = tr.Tracer()
    t.enter(tr.HARNESS)
    t.enter("lengths.annihilator")
    t.hot("lengths.chain_mul", lambda: t.hot("witt.scalar_mul", sum, ([1, 2],), {}), (), {})
    t.leave()
    t.enter("cli.main")
    t.leave()
    t.leave()
    own = t.self_by_name()
    root = t.spans[0][3] - t.spans[0][2]
    assert sum(own.values()) == pytest.approx(root, abs=1e-9)
    assert t.counts["lengths.chain_mul"] == t.counts["witt.scalar_mul"] == 1
    assert all(s >= 0 for s in own.values())


def test_install_restores_every_binding():
    before = (lengths.chain_snf, lengths.ChainScalar.__mul__,
              lengths.solve_thickened_recursion,
              workloads.win.CaseDescriptor.__dict__["from_label"])
    installed = tr.install(tr.Tracer())
    assert lengths.chain_snf is not before[0]
    assert lengths.solve_thickened_recursion is workloads.win.solve_thickened_recursion
    installed.uninstall()
    after = (lengths.chain_snf, lengths.ChainScalar.__mul__,
             lengths.solve_thickened_recursion,
             workloads.win.CaseDescriptor.__dict__["from_label"])
    assert after == before


# ---------------------------------------------------------------------------
# cell runners


@pytest.mark.parametrize("workload, cell", [
    ("chain-fill", "annihilator_report unr p=3 c0=1"),
    ("chain-fill", "chain_snf unr p=3 c0=1 permutation 0"),
    ("lattice-enum", "descend_superlattice p=3 a=0 b=0 delta=0"),
    ("lattice-enum", "enumerate_stable_sublattices p=3 k=1"),
    ("sweep-small", "tower unr p=3 k=1"),
    ("sweep-small", "integrality ram p=5"),
])
def test_smoke_one_tiny_cell(workload, cell):
    cells = {c.name: c for c in workloads.build(workload, 1, _no_sink)}
    assert cells[cell].run() is None


def test_failing_cells_are_counted_and_the_pass_finishes():
    runner = run.Runner("sweep-small", 1)

    def raises():
        raise StabilityFailure("planted")

    runner.cells = [
        workloads.Cell("raises", raises),
        workloads.Cell("mismatch", lambda: "planted mismatch"),
        workloads.Cell("fine", lambda: None),
    ]
    runner.run_pass()
    assert runner.attempted == 3
    assert [f["cell"] for f in runner.failures] == ["raises", "mismatch"]
    assert runner.verdicts == {"raises": False, "mismatch": False, "fine": True}


def test_cli_cell_rejects_changed_report_bytes(monkeypatch):
    cell = next(c for c in workloads.build("sweep-small", 1, _no_sink)
                if c.name == "cli selfcheck")
    real_main = workloads.cli.main

    def noisy_main(argv):
        rc = real_main(argv)
        print("extra line")
        return rc

    monkeypatch.setattr(workloads.cli, "main", noisy_main)
    assert "report sha256" in cell.run()


# ---------------------------------------------------------------------------
# reference seconds


def test_probe_restores_the_collector_and_times_whole_chunks():
    assert gc.isenabled()
    wall, cpu = ref.probe(0.01)
    assert gc.isenabled()
    assert 0 < wall < 0.01 and cpu > 0


def test_sampler_probes_inside_work_and_reports_its_own_time():
    handler = signal.getsignal(signal.SIGALRM)
    with ref.Sampler() as sampler:
        start = perf_counter()
        while perf_counter() - start < 4 * ref.TICK_S:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.wall_speeds) >= 2
    assert sampler.probe_wall >= len(sampler.wall_speeds) * ref.PROBE_S
    wall, cpu = sampler.reference_seconds(1.0, 1.0)
    assert wall > 0 and cpu > 0
    assert sampler.reference_seconds(2.0, 2.0) == pytest.approx((2 * wall, 2 * cpu))


def test_sampled_pass_leaves_the_probes_out_of_its_times():
    runner = run.Runner("sweep-small", 1)
    runner.cells = [workloads.Cell("spin", lambda: _spin(0.3))]  # 0.3 s wall, probes too
    sample = runner.run_pass(reference=True)
    assert sample["probes"] >= 3
    assert 0.1 < sample["pass_s"] <= 0.3 - sample["probes"] * ref.PROBE_S
    assert sample["ref_pass_s"] > 0 and sample["ref_cpu_s"] > 0


def _spin(seconds):
    start = perf_counter()
    while perf_counter() - start < seconds:
        pass


# ---------------------------------------------------------------------------
# seeds


def _counts(seed):
    runner = run.Runner("sweep-small", seed)
    _sample, done = runner.traced_pass()
    return {k: v for k, v in run.layer_metrics(done).items()
            if not k.endswith(("_s", "_ratio"))}


def test_same_seed_gives_identical_counters():
    first, second = _counts(5), _counts(5)
    assert first == second
    assert first["series.mul.count"] > 0 and first["inventory.calls"] > 0


def test_different_seeds_give_identical_verdicts():
    a, b = run.Runner("sweep-small", 1), run.Runner("sweep-small", 2)
    assert [c.name for c in a.cells] != [c.name for c in b.cells]  # order is drawn
    a.run_pass()
    b.run_pass()
    assert a.verdicts == b.verdicts
    assert all(a.verdicts.values())


def test_seed_draws_the_chain_snf_permutations():
    def inputs(seed):
        cells = workloads.build("chain-fill", seed, _no_sink)
        cell = next(c for c in cells if c.name == "chain_snf ram p=3 c0=2 permutation 1")
        shuffled = cell.run.__defaults__[0]
        return [[str(x) for x in row] for row in shuffled]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


# ---------------------------------------------------------------------------
# the metric names BENCHMARK.json declares


def test_traced_pass_reports_every_declared_per_layer_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    runner = run.Runner("sweep-small", 1)
    _sample, done = runner.traced_pass()
    produced = set(run.layer_metrics(done)) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
