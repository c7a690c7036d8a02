"""endolift benchmark runner.

    python3 perfbench/run.py --workload chain-fill --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  One single-threaded process runs the
workload's cells as a closed loop (the next cell starts only after the
previous one has finished and been verified) for --seconds, pass after
pass.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0 (times in reference seconds, see reference.py), the per-layer
metrics with --trace 1.  A record with the
environment, every pass sample and (when traced) the spans is written to
.bench_out/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Optional

import reference as ref
import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
# harness self time (cell loop and verification) allowed as a share of
# the traced pass before the trace is reported as not accounting for it
RESIDUAL_LIMIT = 0.05

WORKLOAD_NAMES = ("chain-fill", "lattice-enum", "sweep-small")


def _import_endolift():
    """Import endolift from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "endolift" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no endolift sources under {src}")
    sys.path.insert(0, str(src))
    import endolift

    if Path(endolift.__file__).resolve().parent != (src / "endolift").resolve():
        raise SystemExit(f"benchmark: endolift imported from {endolift.__file__}, not {src}")
    return endolift


def setup_probe(workload: str, seed: int) -> float:
    """Reference seconds to import endolift and build the workload's inputs."""
    before = ref.probe(0.05)[0]
    start = perf_counter()
    _import_endolift()
    import workloads

    workloads.build(workload, seed, lambda name, amount: None)
    wall = perf_counter() - start
    after = ref.probe(0.05)[0]
    return wall * ref.REFERENCE_CHUNK_S * 2 / (before + after)


def measure_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"benchmark: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def environment(args) -> Dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs passes over one workload's cells and keeps every sample."""

    def __init__(self, workload: str, seed: int) -> None:
        import workloads

        self.tracer = None
        self.cells = workloads.build(workload, seed, self.count)
        self.attempted = 0
        self.failures: List[Dict[str, str]] = []
        self.verdicts: Dict[str, bool] = {}

    def count(self, name: str, amount: int) -> None:
        if self.tracer is not None:
            self.tracer.add(name, amount)

    def run_pass(self, reference: bool = False) -> Dict[str, float]:
        """One pass; with `reference`, also its times in reference seconds."""
        from endolift.errors import EndoliftError

        sampler = ref.Sampler() if reference else None
        wall_total = cpu_total = 0.0
        cell_s = {}
        with sampler or contextlib.nullcontext():
            for cell in self.cells:
                self.attempted += 1
                skip_wall, skip_cpu = ((sampler.probe_wall, sampler.probe_cpu)
                                       if sampler else (0.0, 0.0))
                cpu0, wall0 = process_time(), perf_counter()
                try:
                    problem = cell.run()
                except EndoliftError as exc:
                    problem = f"{type(exc).__name__}: {exc}"
                except Exception:  # a broken cell must not stop the run
                    problem = traceback.format_exc()
                self.verdicts[cell.name] = problem is None
                if problem is not None:
                    self.failures.append({"cell": cell.name, "problem": problem})
                    print(f"benchmark: cell {cell.name!r} failed: {problem}", file=sys.stderr)
                wall, cpu = perf_counter() - wall0, process_time() - cpu0
                if sampler:  # take out the probes that ran inside the cell
                    wall -= sampler.probe_wall - skip_wall
                    cpu -= sampler.probe_cpu - skip_cpu
                cell_s[cell.name] = wall
                wall_total += wall
                cpu_total += cpu  # user plus system CPU of this process
        sample = {"pass_s": wall_total, "cpu_s": cpu_total, "cell_s": cell_s}
        if sampler:
            sample["ref_pass_s"], sample["ref_cpu_s"] = sampler.reference_seconds(
                wall_total, cpu_total)
            sample["probes"] = len(sampler.wall_speeds)
        return sample

    def traced_pass(self):
        self.tracer = tr.Tracer()
        installed = tr.install(self.tracer)
        try:
            self.tracer.enter(tr.HARNESS)
            try:
                sample = self.run_pass()
            finally:
                self.tracer.leave()
        finally:
            installed.uninstall()
            done, self.tracer = self.tracer, None
        return sample, done


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(args, runner: Runner, record: Dict) -> Dict[str, float]:
    """A warm-up pass, then passes until --seconds, with set-up probes spread
    evenly between them.  Times are the medians of the run, in reference
    seconds; the raw wall and CPU times are printed and recorded beside them.
    """
    setup, samples = [], []
    start = perf_counter()
    record["warmup"] = runner.run_pass(reference=True)
    while True:
        while (len(setup) < SETUP_PROBES
               and perf_counter() - start >= len(setup) * args.seconds / SETUP_PROBES):
            setup.append(measure_setup(args.workload, args.seed))
        samples.append(runner.run_pass(reference=True))
        elapsed = perf_counter() - start
        if elapsed + _median([s["pass_s"] for s in samples]) * ref.SLOWDOWN > args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(args.workload, args.seed))
    record["setup_samples_s"] = setup
    record["passes"] = samples
    series = {name: [s[name] for s in samples]
              for name in ("ref_pass_s", "ref_cpu_s", "pass_s", "cpu_s")}
    series["setup_s"] = setup
    record["summary"] = {name: _summary(v) for name, v in series.items()}
    for name, summary in record["summary"].items():
        print(f"{name} " + " ".join(f"{k}={v:.6g}" for k, v in summary.items()))
    return {
        "setup_s": _median(setup),
        "pass_s": _median(series["ref_pass_s"]),
        "cpu_s": _median(series["ref_cpu_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _summary(values: List[float]) -> Dict[str, float]:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "min": min(values), "q1": q[0], "median": q[1], "q3": q[2],
            "max": max(values)}


def per_layer(args, runner: Runner, record: Dict) -> Dict[str, float]:
    """Alternate untraced and traced passes; report the fastest traced pass."""
    plain, traced, tracers = [], [], []
    start = perf_counter()
    while True:
        plain.append(runner.run_pass())
        sample, done = runner.traced_pass()
        traced.append(sample)
        tracers.append(done)
        elapsed = perf_counter() - start
        if elapsed + _median([s["pass_s"] for s in plain + traced]) * 2 > args.seconds:
            break
    per_pass = [layer_metrics(t) for t in tracers]
    counts = [{k: v for k, v in m.items() if not k.endswith(("_s", "_ratio"))} for m in per_pass]
    if any(c != counts[0] for c in counts):
        print("benchmark: per-layer counts differ between traced passes", file=sys.stderr)
    best = min(range(len(tracers)), key=lambda i: traced[i]["pass_s"])
    metrics = dict(per_pass[best])
    metrics["trace.overhead_ratio"] = (min(s["pass_s"] for s in traced)
                                       / min(s["pass_s"] for s in plain))
    if metrics["trace.residual_ratio"] > RESIDUAL_LIMIT:
        print(f"benchmark: layer self times leave {metrics['trace.residual_ratio']:.1%} of the "
              f"traced pass unaccounted (limit {RESIDUAL_LIMIT:.0%})", file=sys.stderr)
    spans = tracers[best].spans
    record["passes"] = {"untraced": plain, "traced": traced}
    record["per_pass_layer_metrics"] = per_pass
    t0 = spans[0][2]
    record["spans"] = [[name, begin - t0, end - t0, parent]
                       for _sid, name, begin, end, parent, _hidden in spans]
    record["self_by_name"] = tracers[best].self_by_name()
    return metrics


def layer_metrics(t) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    own = t.self_by_name()
    layer_self = {layer: 0.0 for layer in tr.LAYERS}
    for name, s in own.items():
        layer = tr.layer_of(name)
        if layer in layer_self:
            layer_self[layer] += s
    pass_s = t.spans[0][3] - t.spans[0][2]
    c, tot = t.counts, t.totals
    anns = c["lengths.annihilator"]
    candidates = tot["lattices.sublattice.candidates"]
    out = {
        "witt.scalar_new.count": c["witt.scalar_new"],
        "witt.scalar_mul.count": c["witt.scalar_mul"],
        "witt.scalar_mul.self_s": own.get("witt.scalar_mul", 0.0),
        "series.mul.count": c["series.mul"],
        "series.mul.operand_terms": tot["series.mul.operand_terms"],
        "series.mul.self_s": own.get("series.mul", 0.0),
        "windows.tower.count": c["windows.tower"],
        "windows.tower.self_s": own.get("windows.tower", 0.0),
        "windows.vertical.self_s": own.get("windows.vertical", 0.0),
        "windows.structure.self_s": own.get("windows.structure", 0.0),
        "lengths.chain_mul.count": c["lengths.chain_mul"],
        "lengths.chain_mul.self_s": own.get("lengths.chain_mul", 0.0),
        "lengths.chain_mul.term_products": tot["lengths.chain_mul.term_products"],
        "lengths.chain_mul.max_terms": t.maxima["lengths.chain_mul.max_terms"],
        "lengths.chain_snf.count": c["lengths.chain_snf"],
        "lengths.chain_snf.self_s": own.get("lengths.chain_snf", 0.0),
        "lengths.chain_snf.max_rows": t.maxima["lengths.chain_snf.max_rows"],
        "lengths.chain_snf.max_cols": t.maxima["lengths.chain_snf.max_cols"],
        "lengths.annihilator.self_s": own.get("lengths.annihilator", 0.0),
        "lengths.annihilator.snf_per_report":
            tot["lengths.annihilator.snf_calls"] / anns if anns else 0.0,
        "lengths.quotient_length.self_s": own.get("lengths.quotient_length", 0.0),
        "lengths.quotient_length.radii_tried": tot["lengths.quotient_length.radii_tried"],
        "lengths.elimination.self_s": own.get("lengths.elimination", 0.0),
        "inventory.calls": sum(n for name, n in c.items() if tr.layer_of(name) == "inventory"),
        "lattices.sublattice.self_s": own.get("lattices.sublattice", 0.0),
        "lattices.sublattice.candidates": candidates,
        "lattices.sublattice.hit_ratio":
            tot["lattices.sublattice.found"] / candidates if candidates else 0.0,
        "lattices.superlattice.self_s": own.get("lattices.superlattice", 0.0),
        "lattices.descent.self_s": own.get("lattices.descent", 0.0),
        "lattices.census.self_s": own.get("lattices.census", 0.0),
        "lattices.census.graphs": tot["lattices.census.graphs"],
        "cli.report_bytes": tot["cli.report_bytes"],
        "trace.pass_s": pass_s,
        "trace.residual_ratio": own.get(tr.HARNESS, 0.0) / pass_s,
    }
    for layer, s in layer_self.items():
        out[f"{layer}.self_s"] = s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    _import_endolift()
    env = environment(args)
    print("environment " + json.dumps(env, sort_keys=True), flush=True)
    os.environ["ENDOLIFT_OUT_DIR"] = str(OUT_DIR / "cli")
    runner = Runner(args.workload, args.seed)
    record: Dict[str, object] = {"environment": env}
    values = (per_layer if args.trace else end_to_end)(args, runner, record)
    units = _units(args.trace)
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record.update(result=result, failed_ratio=failed / runner.attempted,
                  failures=runner.failures, verdicts=runner.verdicts)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps(result, sort_keys=True))
    return 0


def _units(trace: int) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
