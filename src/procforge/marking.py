"""Compilation of a validated process model into an executable marking
automaton.

Each sequence flow owns one bit (document order). A process instance's
state is a single word: the set of currently enabled flows. User and
default tasks are externally invoked transitions; script tasks, gateways
and end events fire automatically after every external firing, in sweeps
over the auto-transitions as the emitted runAutoTransitions does. Both
closures follow that one rule, with data or along every branch choice.

Condition-free gateways directly adjacent to a task (those that
ProcessModel.gateway_folds picks) are folded into that task's masks, as in
the generated contracts: an AND-join in front of a task widens its
precondition mask, an AND-split behind it widens its update mask, and an
XOR-join in front of it becomes one pre-alternative per incoming flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Set,
                    Tuple)

from .ir import (
    EXTERNAL_TASK_KINDS,
    Evaluator,
    Expr,
    NodeKind,
    ProcessModel,
    TASK_KINDS,
)


class MarkingError(Exception):
    pass


class NotEnabled(MarkingError):
    pass


class NoBranchTaken(MarkingError):
    pass


class NonTerminatingClosure(MarkingError):
    pass


@dataclass(frozen=True)
class Branch:
    """One outgoing alternative of a transition.

    guard is None for unconditional branches and for the default flow of
    an XOR split (is_default marks the latter), which is the last branch;
    test is guard's evaluator under the model's declared types. post is
    the produced bits. Only an XOR split has more than one branch.
    """

    post: int
    guard: Optional[Expr] = None
    is_default: bool = False
    test: Optional[Evaluator] = field(default=None, compare=False)


@dataclass(frozen=True)
class Transition:
    """One task, gateway or end event, as its emitted function tests it:
    pre_alternatives are the preMasks in the order of the if / else if
    chain, and the first one contained in the marking fires. A task has
    one unguarded branch holding its update mask."""

    node_id: str
    kind: NodeKind  # any kind but START_EVENT
    pre_alternatives: Tuple[int, ...]
    branches: Tuple[Branch, ...]
    # the script's (target, compiled value) pairs, in order
    statements: Tuple[Tuple[str, Evaluator], ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class MarkingAutomaton:
    flow_count: int
    bit_of: Mapping[str, int]  # flow id -> bit index, dense document order
    initial_marking: int
    external: Mapping[str, Transition]  # task id -> its transition
    autos: Tuple[Transition, ...]
    end_mask: int
    external_names: Mapping[str, str]  # task id -> display name
    folded: frozenset = frozenset()  # gateway ids folded into task masks

    @cached_property
    def _task_ids(self) -> Dict[str, str]:
        # a display name beats a task id, as in the trace generator and
        # the oracle; validate_model keeps display names unique
        ids = {tname: tid for tid, tname in self.external_names.items()}
        for tid in self.external_names:
            ids.setdefault(tid, tid)
        return ids

    def task_id_for(self, name: str) -> Optional[str]:
        return self._task_ids.get(name)


def compile_marking(model: ProcessModel) -> MarkingAutomaton:
    """Compile a model that validate_model accepted. Deterministic: bit
    assignment and transition order follow document order. Guards and
    scripts take the evaluators of model.typed, so their types are
    resolved once per model, by whichever of validate_model and this
    function asks first."""
    bit_of = {f.id: i for i, f in enumerate(model.flows)}
    start = next(n for n in model.nodes if n.kind == NodeKind.START_EVENT)

    def mask(flows) -> int:
        m = 0
        for f in flows:
            m |= 1 << bit_of[f.id]
        return m

    def bits(flows) -> Tuple[int, ...]:
        return tuple(1 << bit_of[f.id] for f in flows)

    folds, folded = model.gateway_folds, model.folded_gateways
    # build each transition once, skipping the folded gateways, and file
    # it by kind
    external: Dict[str, Transition] = {}
    autos: List[Transition] = []
    end_mask = 0
    for n in model.nodes:
        if n.id in folded or n.kind == NodeKind.START_EVENT:
            continue
        inc, out = model.incoming(n.id), model.outgoing(n.id)
        if n.kind in TASK_KINDS:
            front, behind = folds.get(n.id, (None, None))
            g_in = inc if front is None else model.incoming(front.id)
            # a folded XOR join gives one alternative per incoming flow
            pres = bits(g_in) if front is not None and front.kind == NodeKind.XOR_GATEWAY \
                else (mask(g_in),)
            branches = [Branch(post=mask(out if behind is None else model.outgoing(behind.id)))]
        elif n.kind == NodeKind.AND_GATEWAY:
            pres, branches = (mask(inc),), [Branch(post=mask(out))]
        elif n.kind == NodeKind.XOR_GATEWAY:
            pres = bits(inc)
            if len(out) > 1:
                # the default last: _pick_branch and codegen take it as the tail
                branches = [Branch(post=1 << bit_of[f.id], guard=f.condition,
                                   test=model.typed(f.condition)[1])
                            for f in out if not f.is_default]
                branches += [Branch(post=1 << bit_of[f.id], is_default=True)
                             for f in out if f.is_default]
            else:
                branches = [Branch(post=mask(out))]
        else:  # END_EVENT
            pres, branches = bits(inc), [Branch(post=0)]
            end_mask |= mask(inc)
        t = Transition(n.id, n.kind, pres, tuple(branches),
                       statements=tuple((st.target, model.typed(st.value)[1])
                                        for st in n.script))
        if n.kind in EXTERNAL_TASK_KINDS:
            external[n.id] = t
        else:
            autos.append(t)

    return MarkingAutomaton(
        flow_count=len(model.flows),
        bit_of=bit_of,
        initial_marking=mask(model.outgoing(start.id)),
        external=external,
        autos=tuple(autos),
        end_mask=end_mask,
        external_names={n.id: n.display_name for n in model.nodes
                        if n.kind in EXTERNAL_TASK_KINDS},
        folded=folded,
    )


# ---------------------------------------------------------------------------
# Execution


def enabled_external(a: MarkingAutomaton, marking: int):
    """All (task id, alternative index) whose preMask is contained in the
    marking."""
    result = set()
    for tid, t in a.external.items():
        for i, pre in enumerate(t.pre_alternatives):
            if marking & pre == pre:
                result.add((tid, i))
    return result


def fire_external(a: MarkingAutomaton, marking: int, task_id: str) -> Optional[Tuple[int, int]]:
    """Fire externally invoked task task_id through its first pre-alternative
    contained in the marking, as the emitted if / else if does. Returns
    (new marking, alternative index), or None when the task is not
    enabled. The one place that picks a task's alternative."""
    t = a.external[task_id]
    for i, pre in enumerate(t.pre_alternatives):
        if marking & pre == pre:
            return (marking & ~pre) | t.branches[0].post, i
    return None


class ClosureResult(NamedTuple):
    marking: int
    env: dict
    fired: Tuple[str, ...]  # auto node ids in firing order


def eager_closure_data(a: MarkingAutomaton, marking: int, env: Mapping[str, object],
                       on_fire: Optional[Callable[[str, dict], None]] = None
                       ) -> ClosureResult:
    """Fire the auto-transitions as the emitted runAutoTransitions does,
    evaluating XOR guards against the environment (Data mode). A sweep
    fires each transition of a.autos in turn that is enabled in the marking
    reached so far, through its first enabled pre-alternative; sweeps
    repeat until one ends on the marking it began with, whatever the
    variables. An automatic loop thus parks its token, or exceeds the cap
    of 4 firings per flow. on_fire runs after each firing's statements: the
    interpreter runs the registry calls bound to script tasks with it.
    Raises NoBranchTaken and NonTerminatingClosure."""
    env = dict(env)
    fired: List[str] = []
    budget = 4 * max(a.flow_count, 1)
    previous = ~marking
    while previous != marking:
        previous = marking
        for t in a.autos:
            pre = next((p for p in t.pre_alternatives if marking & p == p), None)
            if pre is None:
                continue
            marking = (marking & ~pre) | _pick_branch(t, env).post
            for target, value in t.statements:
                env[target] = value(env)
            if on_fire is not None:
                on_fire(t.node_id, env)
            fired.append(t.node_id)
            budget -= 1
            if budget < 0:
                raise NonTerminatingClosure(
                    f"auto-transition closure exceeded {4 * a.flow_count} firings")
    return ClosureResult(marking, env, tuple(fired))


def _pick_branch(t: Transition, env) -> Branch:
    """The first branch that is unguarded or whose guard holds:
    compile_marking puts an XOR split's default flow last."""
    for b in t.branches:
        if b.test is None or b.test(env):
            return b
    raise NoBranchTaken(f"all branch conditions false at '{t.node_id}' and no default flow")


def eager_closure_nondet(a: MarkingAutomaton, *markings: int) -> FrozenSet[int]:
    """Run the sweeps of eager_closure_data from each of markings along
    every branch choice, ignoring guards and scripts, and return the
    markings where a sweep ends on the marking it began with: the quiescent
    ones and the parked loops. A sweep ending elsewhere starts a new one
    unless its marking was seen before, from any of markings. The result is
    the union of each marking's own, so a marking none of whose sweeps ends
    where it began adds nothing. Raises NonTerminatingClosure when no sweep
    ends where it began."""
    autos = a.autos
    results: Set[int] = set()
    # (where the sweep began, marking, next auto); a loop, as a comprehension
    # costs CPython 3.11 a frame per call, and most calls have one marking
    paths = []
    for m in markings:
        paths.append((m, m, 0))
    seen = set(paths)
    while paths:
        start, m, k = paths.pop()
        for t in autos[k:]:
            k += 1
            for pre in t.pre_alternatives:
                if m & pre == pre:
                    break
            else:
                continue
            if len(t.branches) > 1:
                forks = [(start, (m & ~pre) | b.post, k) for b in t.branches]
                break
            m = (m & ~pre) | t.branches[0].post
        else:
            if m == start:
                results.add(m)
                continue
            forks = [(m, m, 0)]
        for fork in forks:
            if fork not in seen:
                seen.add(fork)
                paths.append(fork)
    if not results:
        raise NonTerminatingClosure("auto-transition cycle with no quiescent marking")
    return frozenset(results)


def dump_automaton(a: MarkingAutomaton) -> str:
    """Human-readable mask table for --dump-automaton."""
    width = (a.flow_count + 3) // 4 or 1
    lines = [f"flows: {a.flow_count}   initial marking: {a.initial_marking:#0{width + 2}x}"]
    lines.append("bit assignment (document order):")
    for fid, bit in sorted(a.bit_of.items(), key=lambda kv: kv[1]):
        lines.append(f"  bit {bit:>3}  {fid}")
    lines.append("external tasks:")
    for tid, t in a.external.items():
        name = a.external_names.get(tid, tid)
        for i, pre in enumerate(t.pre_alternatives):
            lines.append(f"  {name} [{i}]  pre={pre:#x}  post={t.branches[0].post:#x}")
    lines.append("auto transitions:")
    for t in a.autos:
        pres = ", ".join(f"{p:#x}" for p in t.pre_alternatives)
        posts = ", ".join(f"{b.post:#x}" + (" (default)" if b.is_default else
                                            " (guarded)" if b.guard is not None else "")
                          for b in t.branches)
        lines.append(f"  {t.node_id} ({t.kind.value})  pre=[{pres}]  post=[{posts}]")
    if a.folded:
        lines.append("folded gateways: " + ", ".join(sorted(a.folded)))
    lines.append(f"end mask: {a.end_mask:#x}")
    return "\n".join(lines) + "\n"
