"""Trace generation, noise injection, and conformance checking.

Conforming traces are enumerated from the compiled marking automaton,
mutants are derived with three operators (add a line, remove a line, swap
two lines), and every trace is classified twice: by the automaton replayer
and by an independent brute-force token-game oracle working on the raw
model graph. The experiment report records the seed, class totals, and the
agreement percentage between the two classifiers.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .ir import NodeKind, ProcessModel, TASK_KINDS
from .marking import MarkingAutomaton, eager_closure_nondet

DEFAULT_STATE_BUDGET = 10**6


class HarnessError(Exception):
    pass


class BudgetExceeded(HarnessError):
    pass


class MutationExhausted(HarnessError):
    pass


class TraceSyntaxError(HarnessError):
    pass


# ---------------------------------------------------------------------------
# Traces


@dataclass(frozen=True)
class TraceEvent:
    task: str
    # stored as a sorted item tuple so events (and traces) are hashable
    args: Optional[Tuple[Tuple[str, object], ...]] = None
    caller: Optional[str] = None

    @staticmethod
    def make(task: str, args: Optional[Mapping[str, object]] = None,
             caller: Optional[str] = None) -> "TraceEvent":
        items = tuple(sorted(args.items())) if args is not None else None
        return TraceEvent(task, items, caller)

    @property
    def args_dict(self) -> Optional[Dict[str, object]]:
        return dict(self.args) if self.args is not None else None


Trace = Tuple[TraceEvent, ...]


def parse_trace(text: str) -> Trace:
    """One JSON object per nonempty line: {"task": ..., "args": {...}?, "caller": ...?}."""
    events: List[TraceEvent] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise TraceSyntaxError(f"line {lineno}: {e}") from e
        if not isinstance(obj, dict) or "task" not in obj:
            raise TraceSyntaxError(f"line {lineno}: expected an object with a 'task' field")
        args = obj.get("args")
        if args is not None and not isinstance(args, dict):
            raise TraceSyntaxError(f"line {lineno}: 'args' must be an object")
        events.append(TraceEvent.make(obj["task"], args, obj.get("caller")))
    return tuple(events)


def write_trace(trace: Trace) -> str:
    lines = []
    for ev in trace:
        obj: Dict[str, object] = {"task": ev.task}
        if ev.args is not None:
            obj["args"] = ev.args_dict
        if ev.caller is not None:
            obj["caller"] = ev.caller
        lines.append(json.dumps(obj, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Enumeration of conforming traces


def step(a: MarkingAutomaton, states: FrozenSet[int], task_id: str) -> FrozenSet[int]:
    """Fire external task task_id from every marking in states, through
    every enabled alternative, and close each result over all branch
    choices. Empty when the task is enabled in none of the states."""
    out: Set[int] = set()
    for m in states:
        for alt in a.external[task_id]:
            if m & alt.pre == alt.pre:
                out |= eager_closure_nondet(a, (m & ~alt.pre) | alt.post)
    return frozenset(out)


def enumerate_conforming(a: MarkingAutomaton, max_len: int,
                         strict: bool = True,
                         state_budget: int = DEFAULT_STATE_BUDGET) -> List[Trace]:
    """All task-name sequences of length <= max_len the automaton accepts,
    exploring every branch choice (guards unconstrained). Strict keeps only
    sequences that can end with the zero marking. Sorted for determinism."""
    found: Set[Tuple[str, ...]] = set()
    budget = [state_budget]

    def successors(states: FrozenSet[int], task_id: str) -> FrozenSet[int]:
        out = step(a, states, task_id)
        budget[0] -= len(out)
        if budget[0] < 0:
            raise BudgetExceeded(f"marking graph larger than {state_budget} states")
        return out

    names = a.external_names
    initial = eager_closure_nondet(a, a.initial_marking)

    def walk(states: FrozenSet[int], prefix: Tuple[str, ...]):
        if (not strict) or 0 in states:
            found.add(prefix)
        if len(prefix) >= max_len:
            return
        for task_id in a.external:
            nxt = successors(states, task_id)
            if nxt:
                walk(nxt, prefix + (names[task_id],))

    walk(initial, ())
    traces = [tuple(TraceEvent(name) for name in seq) for seq in sorted(found)]
    if strict:
        traces = [t for t in traces if t]  # empty prefix only counts in prefix mode
        if 0 in initial:
            traces.insert(0, ())
    return traces


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class Conforming:
    ok = True

    def label(self) -> str:
        return "Conforming"


@dataclass(frozen=True)
class NonConforming:
    first_bad_index: Optional[int] = None  # None <=> trace ran out (EndNotReached)

    ok = False

    @property
    def end_not_reached(self) -> bool:
        return self.first_bad_index is None

    def label(self) -> str:
        if self.end_not_reached:
            return "NonConforming(EndNotReached)"
        return f"NonConforming({self.first_bad_index})"


Classification = Union[Conforming, NonConforming]


def classify(model: ProcessModel, a: MarkingAutomaton, trace: Trace,
             strict: bool = True, instance=None) -> Classification:
    """Replay a trace against the automaton.

    Given an interpreter instance (data mode), each event is invoked on it,
    so scripts, guards and registry calls take effect and every outcome is
    appended to instance.event_log; replay stops at the first rejected
    event. Without one, the trace is searched over all branch choices,
    ignoring scripts and guards. An unknown task name is non-conforming at
    its index in both modes.
    """
    states = eager_closure_nondet(a, a.initial_marking) if instance is None else None
    for i, ev in enumerate(trace):
        task_id = a.task_id_for(ev.task)
        if task_id is None:
            return NonConforming(i)
        if instance is not None:
            accepted = instance.invoke(ev.task, ev.args_dict, ev.caller).ok
        else:
            states = step(a, states, task_id)
            accepted = bool(states)
        if not accepted:
            return NonConforming(i)
    final = states if instance is None else {instance.marking}
    if strict and 0 not in final:
        return NonConforming(None)
    return Conforming()


# ---------------------------------------------------------------------------
# Independent oracle: token game on the raw model graph
#
# Deliberately shares nothing with the marking compiler: markings are
# frozensets of flow ids, gateways fire as their own lazy transitions, and
# enabledness is checked over the saturated reachable set.


_AUTO_KINDS = (NodeKind.SCRIPT_TASK, NodeKind.XOR_GATEWAY,
               NodeKind.AND_GATEWAY, NodeKind.END_EVENT)

Marking = FrozenSet[str]


def _auto_successors(model: ProcessModel, m: Marking) -> List[Marking]:
    out: List[Marking] = []
    for n in model.nodes:
        if n.kind not in _AUTO_KINDS:
            continue
        inc = model.incoming(n.id)
        produced = frozenset(f.id for f in model.outgoing(n.id))
        if n.kind in (NodeKind.SCRIPT_TASK, NodeKind.AND_GATEWAY):
            needed = frozenset(f.id for f in inc)
            if needed and needed <= m:
                out.append((m - needed) | produced)
        elif n.kind == NodeKind.END_EVENT:
            for f in inc:
                if f.id in m:
                    out.append(m - {f.id})
        else:  # XOR: consume any one incoming, produce any one outgoing
            for f in inc:
                if f.id not in m:
                    continue
                for g in model.outgoing(n.id):
                    out.append((m - {f.id}) | {g.id})
    return out


def _saturate(model: ProcessModel, seeds: Set[Marking],
              budget: List[int]) -> FrozenSet[Marking]:
    seen: Set[Marking] = set(seeds)
    frontier = list(seeds)
    while frontier:
        m = frontier.pop()
        for m2 in _auto_successors(model, m):
            if m2 not in seen:
                seen.add(m2)
                frontier.append(m2)
                budget[0] -= 1
                if budget[0] < 0:
                    raise BudgetExceeded("oracle state budget exhausted")
    return frozenset(seen)


def oracle_classify(model: ProcessModel, trace: Trace, strict: bool = True,
                    state_budget: int = DEFAULT_STATE_BUDGET) -> Classification:
    budget = [state_budget]
    by_name: Dict[str, object] = {}
    for n in model.nodes:
        if n.kind in TASK_KINDS and n.kind != NodeKind.SCRIPT_TASK:
            by_name[n.display_name] = n
            by_name.setdefault(n.id, n)

    start = next(n for n in model.nodes if n.kind == NodeKind.START_EVENT)
    init: Marking = frozenset(f.id for f in model.outgoing(start.id))
    states = _saturate(model, {init}, budget)

    for i, ev in enumerate(trace):
        task = by_name.get(ev.task)
        if task is None:
            return NonConforming(i)
        inc = model.incoming(task.id)[0].id
        produced = frozenset(f.id for f in model.outgoing(task.id))
        fired = {(m - {inc}) | produced for m in states if inc in m}
        if not fired:
            return NonConforming(i)
        states = _saturate(model, fired, budget)
    if strict and frozenset() not in states:
        return NonConforming(None)
    return Conforming()


# ---------------------------------------------------------------------------
# Mutation


OPERATORS = ("add", "remove", "swap")


def mutate(trace: Trace, rng: random.Random, weights: Tuple[float, float, float],
           alphabet: Sequence[str], bases: Sequence[Trace],
           max_attempts: int = 100) -> Trace:
    """Apply exactly one operator; resample until the result differs from
    every base trace. Raises MutationExhausted after max_attempts tries."""
    base_set = {tuple(b) for b in bases}
    for _ in range(max_attempts):
        op = rng.choices(OPERATORS, weights=weights)[0]
        events = list(trace)
        if op == "add":
            pos = rng.randrange(len(events) + 1)
            events.insert(pos, TraceEvent(rng.choice(list(alphabet))))
        elif op == "remove":
            if not events:
                continue  # resample the operator
            del events[rng.randrange(len(events))]
        else:
            if len(events) < 2:
                continue
            i, j = rng.sample(range(len(events)), 2)
            events[i], events[j] = events[j], events[i]
        mutant = tuple(events)
        if mutant not in base_set:
            return mutant
    raise MutationExhausted(
        f"no mutant distinct from the base traces after {max_attempts} attempts")


# ---------------------------------------------------------------------------
# Experiment


@dataclass(frozen=True)
class ExperimentConfig:
    base_traces: int = 2
    mutants_per_base: int = 250
    seed: int = 0
    operator_weights: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    strict: bool = True

    def __post_init__(self):
        if any(w < 0 for w in self.operator_weights) or not any(self.operator_weights):
            raise ValueError("operator weights must be nonnegative and not all zero")
        if self.seed < 0:
            raise ValueError("seed must be an unsigned integer")
        if self.base_traces < 1:
            raise ValueError("at least one base trace is required")
        if self.mutants_per_base < 0:
            raise ValueError("mutants per base must be nonnegative")


@dataclass(frozen=True)
class Disagreement:
    trace_index: int
    replayer: str
    oracle: str
    trace: Tuple[str, ...]


@dataclass(frozen=True)
class Report:
    seed: int
    conforming: int
    non_conforming: int
    correctness_pct: float
    disagreements: Tuple[Disagreement, ...]
    elapsed_ms: int


def report_to_json(report: Report) -> str:
    obj = {
        "seed": report.seed,
        "totals": {"conforming": report.conforming,
                   "nonConforming": report.non_conforming},
        "correctnessPct": report.correctness_pct,
        "disagreements": [
            {"traceIndex": d.trace_index, "replayer": d.replayer,
             "oracle": d.oracle, "trace": list(d.trace)}
            for d in report.disagreements],
        "elapsedMs": report.elapsed_ms,
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def run_experiment(model: ProcessModel, a: MarkingAutomaton,
                   cfg: ExperimentConfig) -> Report:
    """Base traces + mutants, each classified by the replayer and by the
    independent oracle; correctness is the agreement percentage."""
    t0 = time.perf_counter()
    conforming_set = enumerate_conforming(a, len(a.external), strict=cfg.strict)
    bases = conforming_set[:cfg.base_traces]

    alphabet = sorted(a.external_names.values())
    rng = random.Random(cfg.seed)
    traces: List[Trace] = list(bases)
    for base in bases:
        for _ in range(cfg.mutants_per_base):
            traces.append(mutate(base, rng, cfg.operator_weights, alphabet, bases))

    conforming = non_conforming = agree = 0
    disagreements: List[Disagreement] = []
    for idx, trace in enumerate(traces):
        mine = classify(model, a, trace, strict=cfg.strict)
        theirs = oracle_classify(model, trace, strict=cfg.strict)
        if mine.ok:
            conforming += 1
        else:
            non_conforming += 1
        if mine.ok == theirs.ok:
            agree += 1
        else:
            disagreements.append(Disagreement(
                idx, mine.label(), theirs.label(),
                tuple(ev.task for ev in trace)))
    total = len(traces)
    pct = 100.0 * agree / total if total else 100.0
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return Report(cfg.seed, conforming, non_conforming, pct,
                  tuple(disagreements), elapsed_ms)
