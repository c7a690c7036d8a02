"""Out-of-tree tracing for the benchmark: spans and counters around the
public calls of each endolift module.

Nothing under `src/` knows about this file.  `install` replaces the probed
functions and methods, in every endolift module namespace that binds them,
with wrappers that report to a `Tracer`; `uninstall` puts the originals
back, so untraced passes run the unmodified code with no overhead at all.

Three probe kinds keep the cost proportional to what is asked for:

* ``span``  - every call is kept as a span (name, start, end, parent), so
  the trace can be written out and self times recomputed from it;
* ``hot``   - carrier arithmetic called millions of times; calls are timed
  and counted but aggregated instead of kept, and the time they cover is
  recorded on the enclosing span as its hidden time.  A hot call never
  contains a kept span;
* ``count`` - only counted; the time stays with the caller.

A layer is the first dotted component of a probe name (``lengths`` in
``lengths.chain_snf``); the benchmark's own code reports as ``harness``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("witt", "series", "windows", "lengths", "inventory", "lattices", "cli")
HARNESS = "harness.pass"

# (id, name, start, end, parent id or None, time under aggregated hot calls)
Span = Tuple[int, str, float, float, Optional[int], float]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span stack, kept spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        # frame: [name, start, child_s, span id or None, hidden_s]
        self._stack: List[list] = []
        self._open: Dict[str, int] = defaultdict(int)
        self.hot_self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.totals: Dict[str, int] = defaultdict(int)
        self.maxima: Dict[str, int] = defaultdict(int)

    # -- probes -------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._open[name] += 1
        self._stack.append([name, perf_counter(), 0.0, len(self.spans), 0.0])
        self.spans.append(None)  # placeholder keeps ids in entry order

    def leave(self) -> None:
        end = perf_counter()
        name, start, _child, sid, hidden = self._stack.pop()
        self._open[name] -= 1
        self.counts[name] += 1
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = (sid, name, start, end, parent[3] if parent else None, hidden)
        if parent is not None:
            parent[2] += end - start

    def hot(self, name: str, fn: Callable, args, kwargs):
        stack = self._stack
        frame = [name, 0.0, 0.0, None, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            stack.pop()
            self.counts[name] += 1
            self.hot_self_s[name] += dur - frame[2]
            if stack:
                parent = stack[-1]
                parent[2] += dur
                if parent[3] is not None:
                    parent[4] += dur

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    # -- counters -----------------------------------------------------------

    def add(self, name: str, amount) -> None:
        self.totals[name] += amount

    def peak(self, name: str, value: int) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    # -- results ------------------------------------------------------------

    def self_by_name(self) -> Dict[str, float]:
        """Self seconds per probe name: kept spans recomputed from the span
        list, aggregated hot calls from their running sums."""
        out: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span[1]] += own
        for name, own in self.hot_self_s.items():
            out[name] += own
        return dict(out)


def self_times(spans: List[Span]) -> List[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover, minus the time of aggregated calls made
    directly inside it.  Spans are indexed by id (position in the list)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, _name, start, end, parent, _hidden in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, _name, start, end, _parent, hidden in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered - hidden)
    return out


# ---------------------------------------------------------------------------
# probe table


@dataclass(frozen=True)
class Probe:
    name: str
    module: str  # endolift submodule
    target: str  # "func" or "Class.method"
    kind: str  # "span" | "hot" | "count"
    note: Optional[Callable] = None  # note(tracer, args, kwargs, result)


def _note_series_mul(t: Tracer, args, kwargs, result) -> None:
    left, right = args
    t.add("series.mul.operand_terms", len(left.coeffs) + len(getattr(right, "coeffs", ())))


def _note_chain_mul(t: Tracer, args, kwargs, result) -> None:
    left, right = args
    t.add("lengths.chain_mul.term_products", len(left.coeffs) * len(right.coeffs))
    t.peak("lengths.chain_mul.max_terms", len(result.coeffs))


def _note_chain_snf(t: Tracer, args, kwargs, result) -> None:
    rows = args[0] if args else kwargs["rows"]
    t.peak("lengths.chain_snf.max_rows", len(rows))
    t.peak("lengths.chain_snf.max_cols", len(rows[0]) if rows else 0)
    if t.is_open("lengths.annihilator"):
        t.add("lengths.annihilator.snf_calls", 1)


def _note_quotient_length(t: Tracer, args, kwargs, result) -> None:
    # radii tried, derived from the returned window: the loop starts at the
    # default radius and doubles until two consecutive answers agree
    from endolift.lengths import chain_default_radius

    if kwargs.get("chain_radius") is not None:
        tried = 1
    else:
        base = chain_default_radius(result.case.p, result.k)
        tried = (result.chain_radius // base).bit_length()
    t.add("lengths.quotient_length.radii_tried", tried)


def _note_sublattice(t: Tracer, args, kwargs, result) -> None:
    t.add("lattices.sublattice.found", len(result))


def _note_hnf(t: Tracer, args, kwargs, result) -> None:
    if t.is_open("lattices.sublattice"):
        t.add("lattices.sublattice.candidates", 1)


def _note_census(t: Tracer, args, kwargs, result) -> None:
    t.add("lattices.census.graphs", result["all"])


PROBES: Tuple[Probe, ...] = (
    Probe("witt.scalar_new", "witt", "WittScalar.__init__", "count"),
    Probe("witt.scalar_mul", "witt", "WittScalar.__mul__", "hot"),
    Probe("series.mul", "series", "TruncSeries.__mul__", "hot", _note_series_mul),
    Probe("series.other", "series", "series_invert", "span"),
    Probe("series.other", "series", "f_series", "span"),
    Probe("series.other", "series", "g_series", "span"),
    Probe("windows.tower", "windows", "solve_thickened_recursion", "span"),
    Probe("windows.vertical", "windows", "solve_vertical_recursion", "span"),
    Probe("windows.vertical", "windows", "closed_form_vertical_pair", "span"),
    Probe("windows.structure", "windows", "structure_check", "span"),
    Probe("windows.structure", "windows", "check_phi_commutation", "span"),
    Probe("windows.other", "windows", "integrality_predicate", "span"),
    Probe("windows.other", "windows", "gamma_matrix", "span"),
    Probe("windows.other", "windows", "one_variable_context", "span"),
    Probe("windows.other", "windows", "recursion_context", "span"),
    Probe("windows.other", "windows", "CaseDescriptor.from_label", "span"),
    Probe("windows.other", "windows", "CaseDescriptor.with_gamma", "span"),
    Probe("windows.other", "windows", "CaseDescriptor.param_scalars", "span"),
    Probe("windows.other", "windows", "CaseDescriptor.gamma_trace_norm", "span"),
    Probe("windows.other", "windows", "QuasiEndoPair.normalized", "span"),
    Probe("windows.other", "windows", "QuasiEndoPair.__eq__", "span"),
    Probe("lengths.chain_mul", "lengths", "ChainScalar.__mul__", "hot", _note_chain_mul),
    Probe("lengths.chain_snf", "lengths", "chain_snf", "span", _note_chain_snf),
    Probe("lengths.annihilator", "lengths", "annihilator_report", "span"),
    Probe("lengths.quotient_length", "lengths", "quotient_length_details", "span",
          _note_quotient_length),
    Probe("lengths.elimination", "lengths", "length_by_elimination", "span"),
    Probe("lengths.other", "lengths", "vertical_multiplicity", "span"),
    Probe("lengths.other", "lengths", "annihilator_check", "span"),
    Probe("lattices.sublattice", "lattices", "enumerate_stable_sublattices", "span",
          _note_sublattice),
    Probe("lattices.hnf_new", "lattices", "LatticeHNF.__init__", "count", _note_hnf),
    Probe("lattices.superlattice", "lattices", "enumerate_stable_superlattices", "span"),
    Probe("lattices.descent", "lattices", "descend_superlattice", "span"),
    Probe("lattices.census", "lattices", "hodge_lift_census", "span", _note_census),
    Probe("lattices.other", "lattices", "standard_rank2", "span"),
    Probe("lattices.other", "lattices", "ramified_rank2", "span"),
    Probe("lattices.other", "lattices", "tensor_rank4", "span"),
    Probe("lattices.other", "lattices", "operator_sanity", "span"),
    Probe("lattices.other", "lattices", "lie_action_parity", "span"),
    Probe("lattices.other", "lattices", "classify_superlattice", "span"),
    Probe("lattices.other", "lattices", "superlattice_family", "span"),
    Probe("cli.main", "cli", "main", "span"),
)


def _inventory_probes() -> List[Probe]:
    """Every public function of `inventory` is an entry point (the CLI and
    the workloads call them directly), and none is hot enough to aggregate."""
    module = importlib.import_module("endolift.inventory")
    return [
        Probe(f"inventory.{name}", "inventory", name, "span")
        for name, fn in sorted(vars(module).items())
        if inspect.isfunction(fn) and not name.startswith("_")
        and fn.__module__ == module.__name__
    ]


def _wrap(tracer: Tracer, probe: Probe, fn: Callable) -> Callable:
    name, note = probe.name, probe.note
    if probe.kind == "span":
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if note is not None:
                note(tracer, args, kwargs, result)
            return result
    elif probe.kind == "hot":
        hot = tracer.hot

        def traced(*args, **kwargs):
            result = hot(name, fn, args, kwargs)
            if note is not None:
                note(tracer, args, kwargs, result)
            return result
    else:
        counts = tracer.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if note is not None:
                note(tracer, args, kwargs, result)
            return result
    traced.__wrapped__ = fn
    return traced


class Installation:
    """The patched bindings of one `install`, restored by `uninstall`."""

    def __init__(self) -> None:
        self.saved: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        # a class keeps the raw descriptor (classmethod), a module the object
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def install(tracer: Tracer) -> Installation:
    """Route every probed call through `tracer` until `uninstall`."""
    inst = Installation()
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "endolift" or n.startswith("endolift.")]
    for probe in PROBES + tuple(_inventory_probes()):
        module = importlib.import_module(f"endolift.{probe.module}")
        if "." in probe.target:
            cls_name, attr = probe.target.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                inst.set(cls, attr, classmethod(_wrap(tracer, probe, raw.__func__)))
            else:
                inst.set(cls, attr, _wrap(tracer, probe, raw))
            continue
        original = getattr(module, probe.target)
        wrapped = _wrap(tracer, probe, original)
        # rebind in every module that imported the function by name
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    inst.set(ns, attr, wrapped)
    return inst
