"""Spans around the calls into procforge's modules, recorded from outside.

Each traced function is replaced, on the attribute its callers look up,
by a wrapper that records a span (name, start, end, parent). Nothing in
src/ is edited. Spans are kept in flat arrays, so the hundreds of
thousands of closure calls of a large enumeration stay cheap to hold,
and are written out once the run is over. A layer's self time is the
time of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import math
import statistics
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

# Rejection reasons after which invoke restores its snapshot.
ROLLBACK_REASONS = ("RegistryError", "ScriptError", "NoBranchTaken")


class Tracer:
    """The spans of one traced pass and the wrappers that record them."""

    def __init__(self):
        self.names: List[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.notes: Dict[int, object] = {}
        self._stack = [-1]
        self._patched = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, owner, attr: str, name: str,
             note: Optional[Callable[[object, tuple], object]] = None):
        """Replace owner.attr by a wrapper recording a span named `name`.
        `note(result, args)` may attach one value to the span."""
        orig = getattr(owner, attr)
        nid = self._name_id(name)
        stack, name_of, parent, start, end, notes = (
            self._stack, self.name_of, self.parent, self.start, self.end, self.notes)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(perf_counter_ns())
            try:
                result = orig(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()
            if note is not None:
                notes[sid] = note(result, args)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def unwrap(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def self_ns(self) -> Dict[str, int]:
        """Self time per span name."""
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = dict.fromkeys(self.names, 0)
        for i, nid in enumerate(self.name_of):
            out[self.names[nid]] += self.end[i] - self.start[i] - child[i]
        return out

    def spans_of(self, name: str) -> List[int]:
        nid = self.names.index(name)
        return [i for i, n in enumerate(self.name_of) if n == nid]

    def duration_ns(self, sid: int) -> int:
        return self.end[sid] - self.start[sid]

    def write_tsv(self, path, pass_index: int, append: bool):
        with open(path, "a" if append else "w", encoding="utf-8") as f:
            if not append:
                f.write("pass\tid\tparent\tname\tstart_ns\tend_ns\tnote\n")
            for i in range(len(self.start)):
                note = self.notes.get(i)
                f.write(f"{pass_index}\t{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}\t"
                        f"{self.start[i]}\t{self.end[i]}\t{'' if note is None else note}\n")


def install(tracer: Tracer, modules) -> None:
    """Wrap every public entry point of each layer, on the attribute that
    its callers look up (cli imports some functions by name, harness and
    interp import the closures by name)."""
    cli, bpmn, codegen, harness, interp = (modules[m] for m in
                                           ("cli", "bpmn", "codegen", "harness", "interp"))
    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(bpmn, "parse_bpmn", "bpmn.parse")
    w(cli, "parse_registry", "registry.parse")
    w(cli, "validate_model", "ir.validate")
    w(cli, "compile_marking", "marking.compile")
    w(harness, "eager_closure_nondet", "marking.closure_nondet")
    w(interp, "eager_closure_data", "marking.closure_data",
      note=lambda r, a: len(r.fired))
    for fn in ("gen_fungible", "gen_nonfungible", "gen_process"):
        w(codegen, fn, "codegen.gen",
          note=lambda r, a: len(r.rendered_text.encode("utf-8")))
    w(harness, "run_experiment", "harness.other", note=lambda r, a: a[2].base_traces)
    w(harness, "parse_trace", "harness.other")
    w(harness, "report_to_json", "harness.other")
    w(harness, "enumerate_conforming", "harness.enumerate", note=lambda r, a: len(r))
    w(harness, "mutate", "harness.mutate")
    w(harness, "classify", "harness.classify")
    w(harness, "oracle_classify", "harness.oracle")
    w(interp, "new_instance", "interp.new_instance")
    w(interp.FungibleLedger, "__init__", "interp.new_instance")
    w(interp.NonFungibleStore, "__init__", "interp.new_instance")
    w(interp.InstanceState, "invoke", "interp.invoke",
      note=lambda r, a: None if r.ok else r.reason)


def percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile, or None unless at least ten samples lie
    beyond it."""
    values = sorted(values)
    k = max(math.ceil(q * len(values)) - 1, 0)
    if len(values) - 1 - k < 10:
        return None
    return values[k]


# name -> unit, in the order they are reported
LAYER_METRICS = {
    "bpmn.parse_ms": "ms", "bpmn.parse_calls": "count",
    "registry.parse_ms": "ms",
    "ir.validate_ms": "ms",
    "marking.compile_ms": "ms",
    "marking.closure_nondet_ms": "ms", "marking.closure_nondet_calls": "count",
    "marking.closure_data_ms": "ms", "marking.autos_fired": "count",
    "codegen.gen_ms": "ms", "codegen.units": "count", "codegen.sol_bytes": "bytes",
    "harness.oracle_ms": "ms", "harness.oracle_calls": "count",
    "harness.enumerate_ms": "ms", "harness.enumerated_traces": "count",
    "harness.base_yield": "ratio",
    "harness.classify_ms": "ms", "harness.classify_calls": "count",
    "harness.mutate_ms": "ms", "harness.other_ms": "ms",
    "interp.new_instance_ms": "ms", "interp.invoke_ms": "ms",
    "interp.invoke_calls": "count",
    "interp.invoke_us_p50": "us", "interp.invoke_us_p90": "us",
    "interp.rejected_ratio": "ratio",
    "interp.rollback_us_p50": "us", "interp.rollback_us_samples": "count",
    "cli.self_ms": "ms",
    "trace.wall_ms": "ms", "trace.uncovered_ms": "ms", "trace.overhead_pct": "%",
}


def layer_metrics(tracer: Tracer, traced_wall_s: float,
                  untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer figures of one traced pass. Percentiles without ten
    samples beyond them read 0; their sample counts sit beside them."""
    self_ms = {k: v / 1e6 for k, v in tracer.self_ns().items()}
    calls = {name: len(tracer.spans_of(name)) for name in tracer.names}

    def noted(name):
        return [tracer.notes[s] for s in tracer.spans_of(name) if s in tracer.notes]

    enumerated = noted("harness.enumerate")
    # each enumeration runs inside one experiment, which uses its first bases
    bases = {s: tracer.notes[s] for s in tracer.spans_of("harness.other") if s in tracer.notes}
    used = sum(min(bases[tracer.parent[s]], tracer.notes[s])
               for s in tracer.spans_of("harness.enumerate"))

    invokes = tracer.spans_of("interp.invoke")
    invoke_us = [tracer.duration_ns(s) / 1e3 for s in invokes]
    reasons = [tracer.notes.get(s) for s in invokes]
    rollback_us = [us for us, r in zip(invoke_us, reasons) if r in ROLLBACK_REASONS]
    wall_ms = traced_wall_s * 1e3

    m = {
        "bpmn.parse_ms": self_ms["bpmn.parse"],
        "bpmn.parse_calls": calls["bpmn.parse"],
        "registry.parse_ms": self_ms["registry.parse"],
        "ir.validate_ms": self_ms["ir.validate"],
        "marking.compile_ms": self_ms["marking.compile"],
        "marking.closure_nondet_ms": self_ms["marking.closure_nondet"],
        "marking.closure_nondet_calls": calls["marking.closure_nondet"],
        "marking.closure_data_ms": self_ms["marking.closure_data"],
        "marking.autos_fired": sum(noted("marking.closure_data")),
        "codegen.gen_ms": self_ms["codegen.gen"],
        "codegen.units": calls["codegen.gen"],
        "codegen.sol_bytes": sum(noted("codegen.gen")),
        "harness.oracle_ms": self_ms["harness.oracle"],
        "harness.oracle_calls": calls["harness.oracle"],
        "harness.enumerate_ms": self_ms["harness.enumerate"],
        "harness.enumerated_traces": sum(enumerated),
        "harness.base_yield": used / sum(enumerated) if enumerated else 0,
        "harness.classify_ms": self_ms["harness.classify"],
        "harness.classify_calls": calls["harness.classify"],
        "harness.mutate_ms": self_ms["harness.mutate"],
        "harness.other_ms": self_ms["harness.other"],
        "interp.new_instance_ms": self_ms["interp.new_instance"],
        "interp.invoke_ms": self_ms["interp.invoke"],
        "interp.invoke_calls": len(invokes),
        "interp.invoke_us_p50": percentile(invoke_us, 0.5) or 0,
        "interp.invoke_us_p90": percentile(invoke_us, 0.9) or 0,
        "interp.rejected_ratio": (sum(r is not None for r in reasons) / len(invokes)
                                  if invokes else 0),
        "interp.rollback_us_p50": percentile(rollback_us, 0.5) or 0,
        "interp.rollback_us_samples": len(rollback_us),
        "cli.self_ms": self_ms["cli.main"],
        "trace.wall_ms": wall_ms,
        "trace.uncovered_ms": wall_ms - sum(self_ms.values()),
        "trace.overhead_pct": 100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s,
    }
    assert set(m) == set(LAYER_METRICS)
    return m


def median_metrics(passes: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
