"""Trace generation, noise injection, and conformance checking.

A conformance trace is a tuple of task names. Conforming ones are
enumerated from the compiled marking automaton, mutants are derived with
three operators (add a name, remove a name, swap two names), and every
trace is classified twice, from its names alone: by the automaton replayer
and by an independent brute-force token-game oracle working on the raw
model graph. Within an experiment each distinct trace is classified once,
and each classifier walks a prefix trie, so the state set after a distinct
prefix is computed once. The experiment report records the seed, class
totals, and the agreement percentage between the two classifiers.
replay_data instead invokes the events of a data trace on an interpreter.

The mutant stream is fixed for a seed: mutants draws every operator,
position and name from the rng's random() and getrandbits() alone, so it
does not depend on how a Python version implements random.choices,
randrange, choice or sample. test_mutant_stream_is_pinned in
tests/test_harness.py pins the stream.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import (Collection, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set,
                    Tuple, Union)

from .ir import NodeKind, ProcessModel, TASK_KINDS, is_address, load_json
from .marking import MarkingAutomaton, eager_closure_nondet, fire_external

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


class TraceEvent(NamedTuple):
    """One event of a data trace."""

    task: str
    args: Optional[Dict[str, object]] = None
    caller: Optional[str] = None


Trace = Tuple[TraceEvent, ...]
Names = Tuple[str, ...]  # a conformance trace: task names only


def parse_trace(text: str) -> Trace:
    """One JSON object per nonempty line: {"task": ..., "args": {...}?, "caller": ...?}."""
    events: List[TraceEvent] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = load_json(line)
        except ValueError as e:
            raise TraceSyntaxError(f"line {lineno}: {e}") from e
        if not isinstance(obj, dict) or "task" not in obj:
            raise TraceSyntaxError(f"line {lineno}: expected an object with a 'task' field")
        if not isinstance(obj["task"], str):
            raise TraceSyntaxError(f"line {lineno}: 'task' must be a string")
        args = obj.get("args")
        if args is not None and not isinstance(args, dict):
            raise TraceSyntaxError(f"line {lineno}: 'args' must be an object")
        caller = obj.get("caller")
        if caller is not None and not is_address(caller):
            raise TraceSyntaxError(f"line {lineno}: 'caller' must be 0x + 40 hex digits")
        events.append(TraceEvent(obj["task"], args, caller))
    return tuple(events)


# ---------------------------------------------------------------------------
# Enumeration of conforming traces


def step(a: MarkingAutomaton, states: FrozenSet[int], task_id: str) -> FrozenSet[int]:
    """Fire external task task_id with fire_external from every marking in
    states, and close each result over all branch choices. Empty when the
    task is enabled in none."""
    out: Set[int] = set()
    for m in states:
        fired = fire_external(a, m, task_id)
        if fired is not None:
            out |= eager_closure_nondet(a, fired[0])
    return frozenset(out)


def enumerate_conforming(a: MarkingAutomaton, max_len: int,
                         strict: bool = True,
                         limit: Optional[int] = None) -> List[Names]:
    """The first `limit` (default: all) task-name sequences of length
    <= max_len that the automaton accepts, in lexicographic order of the
    display names, exploring every branch choice (guards unconstrained).
    Strict keeps only sequences that can end with the zero marking.

    A pre-order DFS that tries tasks in sorted display-name order yields
    the sequences already sorted, so it stops once it has `limit` of them.
    The state budget, DEFAULT_STATE_BUDGET, counts only the markings
    produced on the way there; BudgetExceeded is raised when they exceed
    it."""
    found: List[Names] = []
    budget = [DEFAULT_STATE_BUDGET]
    by_name = sorted((name, tid) for tid, name in a.external_names.items())

    def walk(states: FrozenSet[int], prefix: Names) -> bool:
        """Extend found from this prefix on; True once it is full."""
        if (not strict) or 0 in states:
            found.append(prefix)
            if len(found) == limit:
                return True
        if len(prefix) >= max_len:
            return False
        for name, task_id in by_name:
            nxt = step(a, states, task_id)
            budget[0] -= len(nxt)
            if budget[0] < 0:
                raise BudgetExceeded(
                    f"marking graph larger than {DEFAULT_STATE_BUDGET} states")
            if nxt and walk(nxt, prefix + (name,)):
                return True
        return False

    walk(eager_closure_nondet(a, a.initial_marking), ())
    return found


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class Conforming:
    ok = True

    def label(self) -> str:
        return "Conforming"


class NonConforming(NamedTuple):
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


@dataclass(slots=True)
class _Prefix:
    """A node of a classifier's prefix trie: the state set after one
    distinct trace prefix (empty once the prefix is rejected) and the
    nodes of its extensions by the next task name."""

    states: FrozenSet
    left: int = 0  # the oracle's state budget left for the rest of the trace
    children: Dict[str, "_Prefix"] = field(default_factory=dict)


def classify(a: MarkingAutomaton, names: Names, strict: bool = True) -> Classification:
    """Replay task names against the automaton, searching all branch
    choices and ignoring scripts and guards. An unknown task name is
    non-conforming at its index."""
    return _replay(a, names, strict, _Prefix(eager_closure_nondet(a, a.initial_marking)))


def _replay(a: MarkingAutomaton, names: Names, strict: bool,
            node: _Prefix) -> Classification:
    """classify's loop. node is the root of a prefix trie that keeps each
    step's state set for the next trace sharing the prefix."""
    for i, name in enumerate(names):
        nxt = node.children.get(name)
        if nxt is None:
            task_id = a.task_id_for(name)
            nxt = node.children[name] = _Prefix(
                frozenset() if task_id is None else step(a, node.states, task_id))
        node = nxt
        if not node.states:
            return NonConforming(i)
    if strict and 0 not in node.states:
        return NonConforming(None)
    return Conforming()


def replay_data(instance, trace: Trace, strict: bool = True) -> Classification:
    """Invoke each event of a data trace on an interpreter instance, so
    scripts, guards and registry calls take effect and every outcome is
    appended to instance.event_log. Replay stops at the first rejected
    event; an unknown task name is non-conforming at its index."""
    for i, ev in enumerate(trace):
        if instance.automaton.task_id_for(ev.task) is None \
                or not instance.invoke(ev.task, ev.args, ev.caller).ok:
            return NonConforming(i)
    if strict and instance.marking != 0:
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


class _TokenGame:
    """The token game of one model, tabled once: each automatic node's
    (kind, needed, produced, incoming ids, outgoing ids), each external
    task's (incoming id, produced) by display name or id, and the
    saturated initial state set as the root of a prefix trie. The root is
    built on first use, so an experiment without traces spends no budget."""

    def __init__(self, model: ProcessModel):
        self.autos = []
        for n in model.nodes:
            if n.kind in _AUTO_KINDS:
                inc = tuple(f.id for f in model.incoming(n.id))
                out = tuple(f.id for f in model.outgoing(n.id))
                self.autos.append((n.kind, frozenset(inc), frozenset(out), inc, out))
        # a display name beats a task id
        self.by_name: Dict[str, Tuple[str, Marking]] = {}
        for n in model.nodes:
            if n.kind in TASK_KINDS and n.kind != NodeKind.SCRIPT_TASK:
                task = (model.incoming(n.id)[0].id,
                        frozenset(f.id for f in model.outgoing(n.id)))
                self.by_name[n.display_name] = task
                self.by_name.setdefault(n.id, task)
        start = next(n for n in model.nodes if n.kind == NodeKind.START_EVENT)
        self.initial: Marking = frozenset(f.id for f in model.outgoing(start.id))

    def successors(self, m: Marking) -> List[Marking]:
        out: List[Marking] = []
        for kind, needed, produced, inc, outgoing in self.autos:
            if kind in (NodeKind.SCRIPT_TASK, NodeKind.AND_GATEWAY):
                if needed and needed <= m:
                    out.append((m - needed) | produced)
            elif kind == NodeKind.END_EVENT:
                for f in inc:
                    if f in m:
                        out.append(m - {f})
            else:  # XOR: consume any one incoming, produce any one outgoing
                for f in inc:
                    if f in m:
                        rest = m - {f}
                        out.extend(rest | {g} for g in outgoing)
        return out

    def saturate(self, seeds: Set[Marking], budget: List[int]) -> FrozenSet[Marking]:
        seen: Set[Marking] = set(seeds)
        frontier = list(seeds)
        while frontier:
            m = frontier.pop()
            for m2 in self.successors(m):
                if m2 not in seen:
                    seen.add(m2)
                    frontier.append(m2)
                    budget[0] -= 1
                    if budget[0] < 0:
                        raise BudgetExceeded("oracle state budget exhausted")
        return frozenset(seen)

    @cached_property
    def root(self) -> _Prefix:
        budget = [DEFAULT_STATE_BUDGET]
        return _Prefix(self.saturate({self.initial}, budget), budget[0])

    def fire(self, node: _Prefix, name: str) -> _Prefix:
        """The trie node after firing task `name` from node's states. The
        budget carries along the path, so it is spent per trace."""
        task = self.by_name.get(name)
        if task is None:
            return _Prefix(frozenset())
        inc, produced = task
        budget = [node.left]
        fired = {(m - {inc}) | produced for m in node.states if inc in m}
        return _Prefix(self.saturate(fired, budget), budget[0])

    def verdict(self, names: Names, strict: bool) -> Classification:
        node = self.root
        for i, name in enumerate(names):
            nxt = node.children.get(name)
            if nxt is None:
                nxt = node.children[name] = self.fire(node, name)
            if not nxt.states:
                return NonConforming(i)
            node = nxt
        if strict and frozenset() not in node.states:
            return NonConforming(None)
        return Conforming()


def _saturate(model: ProcessModel, seeds: Set[Marking],
              budget: List[int]) -> FrozenSet[Marking]:
    """Every marking the automatic nodes of model reach from seeds; each
    new one spends one unit of budget."""
    return _TokenGame(model).saturate(seeds, budget)


def oracle_classify(model: ProcessModel, names: Names,
                    strict: bool = True) -> Classification:
    return _TokenGame(model).verdict(names, strict)


# ---------------------------------------------------------------------------
# Mutation


OPERATORS = ("add", "remove", "swap")


def mutants(trace: Names, rng: random.Random, count: int,
            alphabet: Sequence[str], bases: Collection[Names]) -> List[Names]:
    """count mutants of trace. Each applies exactly one operator, the
    three being equally likely, and is resampled until it is not in bases;
    MutationExhausted is raised when one takes more than 100 tries.

    Every draw is a fixed function of rng.random() and rng.getrandbits(),
    so the stream is the one random.choices(OPERATORS), randrange, choice
    and sample(range(n), 2) give in CPython 3.11, without depending on how
    a later version implements them."""
    uniform, getrandbits = rng.random, rng.getrandbits

    def below(m: int) -> int:
        """Uniform in range(m) by rejection, as random.Random._randbelow."""
        bits = m.bit_length()
        r = getrandbits(bits)
        while r >= m:
            r = getrandbits(bits)
        return r

    n, k = len(trace), len(alphabet)
    out: List[Names] = []
    for _ in range(count):
        for _ in range(100):
            op = OPERATORS[int(uniform() * 3)]
            if op == "add":
                if not k:
                    continue  # resample the operator
                pos = below(n + 1)
                mutant = trace[:pos] + (alphabet[below(k)],) + trace[pos:]
            elif op == "remove":
                if not n:
                    continue
                pos = below(n)
                mutant = trace[:pos] + trace[pos + 1:]
            else:
                if n < 2:
                    continue
                # as sample(range(n), 2): up to 21 items it draws the second
                # from a pool whose first pick holds the last item; above
                # that it redraws until the second differs from the first
                i = below(n)
                if n <= 21:
                    j = below(n - 1)
                    if j == i:
                        j = n - 1
                else:
                    j = below(n)
                    while j == i:
                        j = below(n)
                i, j = min(i, j), max(i, j)
                mutant = trace[:i] + (trace[j],) + trace[i + 1:j] + (trace[i],) + trace[j + 1:]
            if mutant not in bases:
                out.append(mutant)
                break
        else:
            raise MutationExhausted(
                "no mutant distinct from the base traces after 100 attempts")
    return out


def mutate(trace: Names, rng: random.Random,
           alphabet: Sequence[str], bases: Collection[Names]) -> Names:
    """One mutant of trace, drawn as mutants draws it: one operator, the
    three being equally likely."""
    return mutants(trace, rng, 1, alphabet, bases)[0]


# ---------------------------------------------------------------------------
# Experiment


@dataclass(frozen=True)
class ExperimentConfig:
    base_traces: int = 2
    mutants_per_base: int = 250
    seed: int = 0
    strict: bool = True

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be an unsigned integer")
        if self.base_traces < 1:
            raise ValueError("at least one base trace is required")
        if self.mutants_per_base < 0:
            raise ValueError("mutants per base must be nonnegative")


class Disagreement(NamedTuple):
    trace_index: int
    replayer: str
    oracle: str
    trace: Names


class Report(NamedTuple):
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
    independent oracle; correctness is the agreement percentage. A trace
    that repeats an earlier one takes its verdicts, and each classifier
    shares one prefix trie across the experiment."""
    t0 = time.perf_counter()
    bases = enumerate_conforming(a, len(a.external), strict=cfg.strict,
                                 limit=cfg.base_traces)
    base_set = frozenset(bases)
    alphabet = sorted(a.external_names.values())
    rng = random.Random(cfg.seed)
    traces: List[Names] = list(bases)
    for base in bases:
        traces += mutants(base, rng, cfg.mutants_per_base, alphabet, base_set)

    replay_root = _Prefix(eager_closure_nondet(a, a.initial_marking))
    oracle = _TokenGame(model)
    verdicts: Dict[Names, Tuple[Classification, Classification]] = {}
    conforming = non_conforming = agree = 0
    disagreements: List[Disagreement] = []
    for idx, names in enumerate(traces):
        pair = verdicts.get(names)
        if pair is None:
            pair = verdicts[names] = (_replay(a, names, cfg.strict, replay_root),
                                      oracle.verdict(names, cfg.strict))
        mine, theirs = pair
        if mine.ok:
            conforming += 1
        else:
            non_conforming += 1
        if mine.ok == theirs.ok:
            agree += 1
        else:
            disagreements.append(Disagreement(idx, mine.label(), theirs.label(), names))
    total = len(traces)
    pct = 100.0 * agree / total if total else 100.0
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return Report(cfg.seed, conforming, non_conforming, pct,
                  tuple(disagreements), elapsed_ms)
