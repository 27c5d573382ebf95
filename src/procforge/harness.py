"""Trace generation, noise injection, and conformance checking.

A conformance trace is a tuple of task names. Conforming ones are
enumerated from the compiled marking automaton, mutants are derived with
three operators (add a name, remove a name, swap two names), and every
trace is classified twice, from its names alone: by the automaton replayer
and by an independent brute-force token-game oracle working on the raw
model graph. Within an experiment each distinct trace is classified once,
and each classifier walks a graph of interned state sets: one node per
distinct state set, whose edge for a task is computed once, however many
prefixes reach it. The experiment report records the seed, class totals,
and the agreement percentage between the two classifiers.
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
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import (Collection, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set,
                    Tuple, Union)

from .ir import NodeKind, ProcessModel, TASK_KINDS, is_address, load_json
from .marking import MarkingAutomaton, NonTerminatingClosure, eager_closure_nondet, fire_external

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
    r"""One JSON object per nonempty line: {"task": ..., "args": {...}?, "caller": ...?}.
    Lines end at "\n" only, as JSON Lines has it: a JSON string may hold
    U+2028 and the other characters at which str.splitlines breaks, and
    the "\r" of a CRLF line is JSON whitespace."""
    events: List[TraceEvent] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
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
    states, and close each result over all branch choices. A firing whose
    closure never settles is dropped: no sweep of the emitted
    runAutoTransitions ends where it began, so the transaction reverts, as
    the interpreter rejects it. Empty when no firing is left."""
    out: Set[int] = set()
    for m in states:
        fired = fire_external(a, m, task_id)
        if fired is not None:
            try:
                out |= eager_closure_nondet(a, fired[0])
            except NonTerminatingClosure:
                pass
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


@dataclass(slots=True, eq=False)
class _StateSet:
    """A node of a classifier's graph of interned state sets: one distinct
    state set (empty once a trace is rejected) and its edges. The edge for
    a task name holds the node that firing the task from these states
    reaches and the edge's cost: the markings the oracle's saturation
    discovered on it (0 for the replayer). A classifier keeps its nodes in
    one table by state set, so each (state set, task) edge is computed
    once, whichever prefix reaches the state set first."""

    states: FrozenSet
    edges: Dict[str, Tuple["_StateSet", int]] = field(default_factory=dict)


Nodes = Dict[FrozenSet, _StateSet]  # a graph's table of its nodes by state set


def _intern(nodes: Nodes, states: FrozenSet) -> _StateSet:
    """The node of states in the table nodes, made on first use."""
    node = nodes.get(states)
    if node is None:
        node = nodes[states] = _StateSet(states)
    return node


def classify(a: MarkingAutomaton, names: Names, strict: bool = True) -> Classification:
    """Replay task names against the automaton, searching all branch
    choices and ignoring scripts and guards. An unknown task name is
    non-conforming at its index."""
    nodes: Nodes = {}
    return _replay(a, names, strict, nodes,
                   _intern(nodes, eager_closure_nondet(a, a.initial_marking)))


def _replay(a: MarkingAutomaton, names: Names, strict: bool,
            nodes: Nodes, node: _StateSet) -> Classification:
    """classify's loop from node, the root of the graph whose table is
    nodes. The graph keeps each (state set, task) step for every later
    trace that reaches the state set."""
    for i, name in enumerate(names):
        edge = node.edges.get(name)
        if edge is None:
            task_id = a.task_id_for(name)
            edge = node.edges[name] = (_intern(
                nodes, frozenset() if task_id is None else step(a, node.states, task_id)), 0)
        node = edge[0]
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


Marking = FrozenSet[str]


class _TokenGame:
    """The token game of one model, tabled once: every automatic move as a
    (needed, produced) pair of flow-id sets, each external task's
    (incoming id, produced) by display name or id, and the saturated
    initial state set as the root of a graph of interned state sets. The
    root is built on first use, so an experiment without traces spends no
    budget.

    A script task or an AND gateway needs all its incoming flows and
    produces all its outgoing ones. An end event is one move per incoming
    flow, which it consumes. An XOR gateway is one move per (incoming,
    outgoing) pair: it consumes any one incoming and produces any one
    outgoing flow."""

    def __init__(self, model: ProcessModel):
        self.nodes: Nodes = {}
        self.moves: List[Tuple[Marking, Marking]] = []
        for n in model.nodes:
            inc = [f.id for f in model.incoming(n.id)]
            out = [f.id for f in model.outgoing(n.id)]
            if n.kind in (NodeKind.SCRIPT_TASK, NodeKind.AND_GATEWAY):
                if inc:
                    self.moves.append((frozenset(inc), frozenset(out)))
            elif n.kind == NodeKind.END_EVENT:
                self.moves += ((frozenset({f}), frozenset()) for f in inc)
            elif n.kind == NodeKind.XOR_GATEWAY:
                self.moves += ((frozenset({f}), frozenset({g})) for f in inc for g in out)
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
        return [(m - needed) | produced for needed, produced in self.moves
                if needed <= m]

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
    def root(self) -> Tuple[_StateSet, int]:
        """The node of the saturated initial state set and its cost: the
        markings that saturation discovered."""
        budget = [DEFAULT_STATE_BUDGET]
        states = self.saturate({self.initial}, budget)
        return _intern(self.nodes, states), DEFAULT_STATE_BUDGET - budget[0]

    def fire(self, node: _StateSet, name: str, spent: int) -> Tuple[_StateSet, int]:
        """The edge for task `name` from node: the interned node of the
        saturated state set that firing it reaches, and the edge's cost,
        the markings that saturation discovered. The cost depends only on
        node's states and the task. spent is what the trace's path has
        cost so far; saturation raises BudgetExceeded once spent and the
        cost pass DEFAULT_STATE_BUDGET."""
        task = self.by_name.get(name)
        if task is None:
            return _intern(self.nodes, frozenset()), 0
        inc, produced = task
        left = DEFAULT_STATE_BUDGET - spent
        budget = [left]
        fired = {(m - {inc}) | produced for m in node.states if inc in m}
        return _intern(self.nodes, self.saturate(fired, budget)), left - budget[0]

    def verdict(self, names: Names, strict: bool) -> Classification:
        """The trace's class. The budget is per trace: the costs of the
        root and of the edges along the trace's path are summed, and
        BudgetExceeded is raised as soon as the sum passes
        DEFAULT_STATE_BUDGET, whichever trace computed each edge."""
        node, spent = self.root
        for i, name in enumerate(names):
            edge = node.edges.get(name)
            if edge is None:
                edge = node.edges[name] = self.fire(node, name, spent)
            node, cost = edge
            spent += cost
            if spent > DEFAULT_STATE_BUDGET:
                raise BudgetExceeded("oracle state budget exhausted")
            if not node.states:
                return NonConforming(i)
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
_UNDRAWN = object()  # a table entry of mutants whose edit is not yet drawn


def _unless_base(mutant: Names, bases: Collection[Names]) -> Optional[Names]:
    """mutant, or None when it is one of bases."""
    return None if mutant in bases else mutant


def mutants(trace: Names, rng: random.Random, count: int,
            alphabet: Sequence[str], bases: Collection[Names]) -> List[Names]:
    """count mutants of trace. Each applies exactly one operator, the
    three being equally likely, and is resampled until it is not in bases;
    MutationExhausted is raised when one takes more than 100 tries.

    Every draw is a fixed function of rng.random() and rng.getrandbits(),
    so the stream is the one random.choices(OPERATORS), randrange, choice
    and sample(range(n), 2) give in CPython 3.11, without depending on how
    a later version implements them. Each position and name is drawn by
    rejection, as random.Random._randbelow draws it.

    A trace of n names over an alphabet of k has at most (n+1)*k + n +
    n*(n-1)/2 distinct edits, often fewer than count, so each operator
    keeps a table by its edit: (position, name) for add, position for
    remove and the ordered pair of positions for swap. Each distinct edit
    is built and checked against bases once per call, so once per base of
    an experiment; a later draw of it takes the same mutant, or resamples
    at once when it gives a base. The draws, and so the stream and its
    pinned digest, are those of building every mutant."""
    uniform, getrandbits = rng.random, rng.getrandbits
    n, k = len(trace), len(alphabet)
    # the bit widths of the rejection draws from range(n + 1), range(n),
    # range(n - 1) and range(k)
    w_gap, w_pos, w_other, w_name = ((n + 1).bit_length(), n.bit_length(),
                                     (n - 1).bit_length(), k.bit_length())
    # each table holds the edit's mutant, None once it proved a base, or
    # _UNDRAWN; swap's is a dict, as a list of n*n would grow with the
    # square of the trace
    added = [_UNDRAWN] * ((n + 1) * k)  # by position * k + name
    removed = [_UNDRAWN] * n  # by position
    swapped: Dict[int, Optional[Names]] = {}  # by i * n + j, for i < j
    out: List[Names] = []
    for _ in range(count):
        for _ in range(100):
            op = int(uniform() * 3)  # the index into OPERATORS
            if op == 0:
                if not k:
                    continue  # resample the operator
                pos = getrandbits(w_gap)
                while pos > n:
                    pos = getrandbits(w_gap)
                name = getrandbits(w_name)
                while name >= k:
                    name = getrandbits(w_name)
                mutant = added[pos * k + name]
                if mutant is _UNDRAWN:
                    mutant = added[pos * k + name] = _unless_base(
                        trace[:pos] + (alphabet[name],) + trace[pos:], bases)
            elif op == 1:
                if not n:
                    continue
                pos = getrandbits(w_pos)
                while pos >= n:
                    pos = getrandbits(w_pos)
                mutant = removed[pos]
                if mutant is _UNDRAWN:
                    mutant = removed[pos] = _unless_base(trace[:pos] + trace[pos + 1:], bases)
            else:
                if n < 2:
                    continue
                i = getrandbits(w_pos)
                while i >= n:
                    i = getrandbits(w_pos)
                # as sample(range(n), 2): up to 21 items it draws the second
                # from a pool whose first pick holds the last item; above
                # that it redraws until the second is in range and differs
                # from the first
                if n <= 21:
                    j = getrandbits(w_other)
                    while j >= n - 1:
                        j = getrandbits(w_other)
                    if j == i:
                        j = n - 1
                else:
                    j = getrandbits(w_pos)
                    while j >= n or j == i:
                        j = getrandbits(w_pos)
                if i > j:
                    i, j = j, i
                mutant = swapped.get(i * n + j, _UNDRAWN)
                if mutant is _UNDRAWN:
                    mutant = swapped[i * n + j] = _unless_base(
                        trace[:i] + (trace[j],) + trace[i + 1:j] + (trace[i],) + trace[j + 1:],
                        bases)
            if mutant is not None:
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
    independent oracle; correctness is the agreement percentage. Each
    distinct trace is classified once, in the order of its first
    occurrence, and counted as often as it occurs; each classifier shares
    one graph of interned state sets across the experiment. A disagreement
    is reported at every index of its trace."""
    t0 = time.perf_counter()
    bases = enumerate_conforming(a, len(a.external), strict=cfg.strict,
                                 limit=cfg.base_traces)
    base_set = frozenset(bases)
    alphabet = sorted(a.external_names.values())
    rng = random.Random(cfg.seed)
    traces: List[Names] = list(bases)
    for base in bases:
        traces += mutants(base, rng, cfg.mutants_per_base, alphabet, base_set)

    replay_nodes: Nodes = {}
    replay_root = _intern(replay_nodes, eager_closure_nondet(a, a.initial_marking))
    oracle = _TokenGame(model)
    conforming = agree = 0
    labels: Dict[Names, Tuple[str, str]] = {}  # the verdicts of each disagreeing trace
    for names, times in Counter(traces).items():
        mine = _replay(a, names, cfg.strict, replay_nodes, replay_root)
        theirs = oracle.verdict(names, cfg.strict)
        if mine.ok:
            conforming += times
        if mine.ok == theirs.ok:
            agree += times
        else:
            labels[names] = (mine.label(), theirs.label())
    disagreements = [Disagreement(idx, *labels[names], names)
                     for idx, names in enumerate(traces) if names in labels] if labels else []
    total = len(traces)
    non_conforming = total - conforming
    pct = 100.0 * agree / total if total else 100.0
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return Report(cfg.seed, conforming, non_conforming, pct,
                  tuple(disagreements), elapsed_ms)
