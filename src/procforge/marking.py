"""Compilation of a validated process model into an executable marking
automaton.

Each sequence flow owns one bit (document order). A process instance's
state is a single word: the set of currently enabled flows. User and
default tasks are externally invoked transitions; script tasks, gateways
and end events fire automatically ("eager closure") after every external
firing.

Condition-free gateways directly adjacent to a task are folded into that
task's masks, mirroring the merged masks in the generated contracts:
an AND-join in front of a task widens its precondition mask, an AND-split
behind it widens its update mask, and an XOR-join in front of it becomes
one (preMask, update) alternative per incoming flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from .ir import (
    Assign,
    EXTERNAL_TASK_KINDS,
    Expr,
    NodeKind,
    ProcessModel,
    TASK_KINDS,
    eval_expr,
)


class MarkingError(Exception):
    pass


class NotEnabled(MarkingError):
    pass


class NoBranchTaken(MarkingError):
    pass


class NonTerminatingClosure(MarkingError):
    pass


class InternalInvariantError(MarkingError):
    pass


@dataclass(frozen=True)
class Branch:
    """One outgoing alternative of an auto-transition.

    guard is None for unconditional branches and for the default flow of
    an XOR split (is_default marks the latter). post is the produced bits.
    """

    post: int
    guard: Optional[Expr] = None
    is_default: bool = False


@dataclass(frozen=True)
class ExternalAlternative:
    pre: int
    post: int


@dataclass(frozen=True)
class AutoTransition:
    node_id: str
    kind: NodeKind  # SCRIPT_TASK, XOR_GATEWAY, AND_GATEWAY or END_EVENT
    pre_alternatives: Tuple[int, ...]
    branches: Tuple[Branch, ...]
    statements: Tuple[Assign, ...] = ()


@dataclass(frozen=True)
class MarkingAutomaton:
    flow_count: int
    bit_of: Mapping[str, int]  # flow id -> bit index, dense document order
    initial_marking: int
    external: Mapping[str, Tuple[ExternalAlternative, ...]]  # task id -> alternatives
    autos: Tuple[AutoTransition, ...]
    end_mask: int
    external_names: Mapping[str, str]  # task id -> display name
    folded: frozenset = frozenset()  # gateway ids folded into task masks

    def task_id_for(self, name: str) -> Optional[str]:
        for tid, tname in self.external_names.items():
            if tname == name or tid == name:
                return tid
        return None


def _mask(flows, bit_of) -> int:
    m = 0
    for f in flows:
        m |= 1 << bit_of[f.id]
    return m


def compile_marking(model: ProcessModel) -> MarkingAutomaton:
    """Compile a model that validate_model accepted. Deterministic: bit
    assignment and transition order follow document order."""
    bit_of = {f.id: i for i, f in enumerate(model.flows)}

    start = next(n for n in model.nodes if n.kind == NodeKind.START_EVENT)
    initial_marking = _mask(model.outgoing(start.id), bit_of)

    # raw per-node transitions
    external: Dict[str, List[ExternalAlternative]] = {}
    autos: Dict[str, AutoTransition] = {}
    for n in model.nodes:
        inc, out = model.incoming(n.id), model.outgoing(n.id)
        if n.kind in EXTERNAL_TASK_KINDS:
            external[n.id] = [ExternalAlternative(pre=_mask(inc, bit_of),
                                                  post=_mask(out, bit_of))]
        elif n.kind == NodeKind.SCRIPT_TASK:
            autos[n.id] = AutoTransition(
                n.id, n.kind,
                pre_alternatives=(_mask(inc, bit_of),),
                branches=(Branch(post=_mask(out, bit_of)),),
                statements=n.script)
        elif n.kind == NodeKind.AND_GATEWAY:
            autos[n.id] = AutoTransition(
                n.id, n.kind,
                pre_alternatives=(_mask(inc, bit_of),),
                branches=(Branch(post=_mask(out, bit_of)),))
        elif n.kind == NodeKind.XOR_GATEWAY:
            pre_alts = tuple(1 << bit_of[f.id] for f in inc)
            if len(out) > 1:
                branches = [Branch(post=1 << bit_of[f.id], guard=f.condition)
                            for f in out if not f.is_default]
                branches += [Branch(post=1 << bit_of[f.id], is_default=True)
                             for f in out if f.is_default]
            else:
                branches = [Branch(post=_mask(out, bit_of))]
            autos[n.id] = AutoTransition(n.id, n.kind, pre_alts, tuple(branches))
        elif n.kind == NodeKind.END_EVENT:
            autos[n.id] = AutoTransition(
                n.id, n.kind,
                pre_alternatives=tuple(1 << bit_of[f.id] for f in inc),
                branches=(Branch(post=0),))

    # fold condition-free gateways adjacent to tasks
    folded = set()
    for n in model.nodes:
        if n.kind not in TASK_KINDS:
            continue
        inc, out = model.incoming(n.id), model.outgoing(n.id)
        if len(inc) != 1 or len(out) != 1:
            raise InternalInvariantError(f"task {n.id} without single in/out flow")

        new_pre: Optional[Tuple[int, ...]] = None
        pred = model.node(inc[0].source)
        if pred is not None and pred.kind in (NodeKind.AND_GATEWAY, NodeKind.XOR_GATEWAY) \
                and pred.id not in folded:
            g_in, g_out = model.incoming(pred.id), model.outgoing(pred.id)
            joinable = len(g_out) == 1 and all(f.condition is None for f in g_out)
            if joinable and len(g_in) >= 1:
                if pred.kind == NodeKind.AND_GATEWAY:
                    new_pre = (_mask(g_in, bit_of),)
                else:
                    new_pre = tuple(1 << bit_of[f.id] for f in g_in)
                folded.add(pred.id)
                autos.pop(pred.id, None)

        new_post: Optional[int] = None
        succ = model.node(out[0].target)
        if succ is not None and succ.kind == NodeKind.AND_GATEWAY \
                and succ.id not in folded:
            g_in, g_out = model.incoming(succ.id), model.outgoing(succ.id)
            if len(g_in) == 1 and len(g_out) >= 1:
                new_post = _mask(g_out, bit_of)
                folded.add(succ.id)
                autos.pop(succ.id, None)

        if new_pre is None and new_post is None:
            continue
        if n.kind in EXTERNAL_TASK_KINDS:
            alts = external[n.id]
            pre_list = new_pre if new_pre is not None else tuple(a.pre for a in alts)
            post = new_post if new_post is not None else alts[0].post
            external[n.id] = [ExternalAlternative(p, post) for p in pre_list]
        else:
            t = autos[n.id]
            autos[n.id] = AutoTransition(
                t.node_id, t.kind,
                pre_alternatives=new_pre if new_pre is not None else t.pre_alternatives,
                branches=(Branch(post=new_post),) if new_post is not None else t.branches,
                statements=t.statements)

    end_mask = 0
    for t in autos.values():
        if t.kind == NodeKind.END_EVENT:
            for pre in t.pre_alternatives:
                end_mask |= pre

    ordered_autos = tuple(autos[n.id] for n in model.nodes if n.id in autos)
    return MarkingAutomaton(
        flow_count=len(model.flows),
        bit_of=bit_of,
        initial_marking=initial_marking,
        external={tid: tuple(alts) for tid, alts in external.items()},
        autos=ordered_autos,
        end_mask=end_mask,
        external_names={n.id: n.display_name for n in model.nodes
                        if n.kind in EXTERNAL_TASK_KINDS},
        folded=frozenset(folded),
    )


# ---------------------------------------------------------------------------
# Execution


def enabled_external(a: MarkingAutomaton, marking: int):
    """All (task id, alternative index) whose preMask is contained in the
    marking."""
    result = set()
    for tid, alts in a.external.items():
        for i, alt in enumerate(alts):
            if marking & alt.pre == alt.pre:
                result.add((tid, i))
    return result


def fire_external(a: MarkingAutomaton, marking: int, env: Mapping[str, object],
                  task_id: str, args: Optional[Mapping[str, object]] = None):
    """Fire one externally invoked task. Returns (marking, env, alt index).

    When several XOR-join alternatives are enabled the lowest index fires.
    Raises NotEnabled (marking unchanged) otherwise.
    """
    alts = a.external.get(task_id)
    if alts is None:
        raise NotEnabled(f"'{task_id}' is not an external task")
    for i, alt in enumerate(alts):
        if marking & alt.pre == alt.pre:
            new_env = dict(env)
            if args:
                new_env.update(args)
            return (marking & ~alt.pre) | alt.post, new_env, i
    raise NotEnabled(f"task '{task_id}' not enabled at marking {marking:#x}")


@dataclass
class ClosureResult:
    marking: int
    env: dict
    fired: List[str] = field(default_factory=list)  # auto node ids in firing order


def eager_closure_data(a: MarkingAutomaton, marking: int, env: Mapping[str, object],
                       types: Mapping[str, str],
                       on_fire: Optional[Callable[[str, dict], None]] = None
                       ) -> ClosureResult:
    """Fire all enabled auto-transitions to fixpoint, evaluating XOR guards
    against the environment (Data mode).

    on_fire is called after each fired transition's statements have updated
    the environment; the interpreter uses it to run registry invocations
    bound to script tasks. Raises NoBranchTaken and NonTerminatingClosure.
    """
    env = dict(env)
    fired: List[str] = []
    budget = 4 * max(a.flow_count, 1)
    while True:
        progressed = False
        for t in a.autos:
            pre = next((p for p in t.pre_alternatives if marking & p == p), None)
            if pre is None:
                continue
            branch = _pick_branch(t, env, types)
            marking = (marking & ~pre) | branch.post
            for st in t.statements:
                env[st.target] = eval_expr(st.value, env, types)
            if on_fire is not None:
                on_fire(t.node_id, env)
            fired.append(t.node_id)
            budget -= 1
            if budget < 0:
                raise NonTerminatingClosure(
                    f"auto-transition closure exceeded {4 * a.flow_count} firings")
            progressed = True
            break  # rescan from the top for a deterministic firing order
        if not progressed:
            return ClosureResult(marking, env, fired)


def _pick_branch(t: AutoTransition, env, types) -> Branch:
    default = None
    for b in t.branches:
        if b.is_default:
            default = b
        elif b.guard is None:
            return b
        elif eval_expr(b.guard, env, types):
            return b
    if default is not None:
        return default
    raise NoBranchTaken(f"all branch conditions false at '{t.node_id}' and no default flow")


def eager_closure_nondet(a: MarkingAutomaton, marking: int) -> FrozenSet[int]:
    """Explore every branch choice of the auto-transitions from a marking
    and return the quiescent markings reached.

    Guards and scripts are ignored: with unconstrained data every XOR
    branch is satisfiable. Raises NonTerminatingClosure when no quiescent
    marking is reachable.
    """
    quiescent: Set[int] = set()
    seen = {marking}
    stack = [marking]
    while stack:
        m = stack.pop()
        moved = False
        for t in a.autos:
            for pre in t.pre_alternatives:
                if m & pre != pre:
                    continue
                moved = True
                for b in t.branches:
                    m2 = (m & ~pre) | b.post
                    if m2 not in seen:
                        seen.add(m2)
                        stack.append(m2)
        if not moved:
            quiescent.add(m)
    if not quiescent:
        raise NonTerminatingClosure("auto-transition cycle with no quiescent marking")
    return frozenset(quiescent)


def dump_automaton(a: MarkingAutomaton) -> str:
    """Human-readable mask table for --dump-automaton."""
    width = (a.flow_count + 3) // 4 or 1
    lines = [f"flows: {a.flow_count}   initial marking: {a.initial_marking:#0{width + 2}x}"]
    lines.append("bit assignment (document order):")
    for fid, bit in sorted(a.bit_of.items(), key=lambda kv: kv[1]):
        lines.append(f"  bit {bit:>3}  {fid}")
    lines.append("external tasks:")
    for tid, alts in a.external.items():
        name = a.external_names.get(tid, tid)
        for i, alt in enumerate(alts):
            lines.append(f"  {name} [{i}]  pre={alt.pre:#x}  post={alt.post:#x}")
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
