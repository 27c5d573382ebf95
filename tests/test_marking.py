import random

import pytest

from procforge.ir import (
    Assign,
    BinOp,
    Lit,
    Node,
    NodeKind,
    ProcessModel,
    ProcessVariableDecl,
    SequenceFlow,
    Var,
    validate_model,
)
from procforge.marking import (
    MarkingAutomaton,
    NoBranchTaken,
    NonTerminatingClosure,
    NotEnabled,
    compile_marking,
    dump_automaton,
    eager_closure_data,
    eager_closure_nondet,
    enabled_external,
    fire_external,
)

from conftest import load_model
from modelgen import random_model


def popcount(x):
    return bin(x).count("1")


def test_bit_assignment_follows_document_order(grain_model, grain_automaton):
    a = grain_automaton
    assert a.flow_count == 18
    assert [a.bit_of[f.id] for f in grain_model.flows] == list(range(18))
    assert a.initial_marking == 1  # start's single outgoing flow is bit 0


def test_and_join_folds_into_script_task(grain_automaton):
    a = grain_automaton
    create = next(t for t in a.autos if t.node_id == "s_createtitle")
    assert len(create.pre_alternatives) == 1
    assert popcount(create.pre_alternatives[0]) == 2
    assert popcount(create.branches[0].post) == 1
    assert "g_join" in a.folded


def test_and_split_folds_into_task(grain_automaton):
    a = grain_automaton
    (alt,) = a.external["t_register"]
    assert popcount(alt.post) == 2
    assert "g_split" in a.folded


def test_xor_split_with_conditions_is_not_folded(grain_automaton):
    a = grain_automaton
    assert "g_price" not in a.folded
    price = next(t for t in a.autos if t.node_id == "g_price")
    guards = [b for b in price.branches if b.guard is not None]
    defaults = [b for b in price.branches if b.is_default]
    assert len(guards) == 1 and len(defaults) == 1


def test_xor_join_fold_yields_alternatives(ico_model):
    a = compile_marking(ico_model)
    alts = a.external["t_invest"]
    assert len(alts) == 2  # one per flow into the folded XOR join
    assert {popcount(x.pre) for x in alts} == {1}
    assert "g_loop" in a.folded


def test_end_mask_covers_end_event_inputs(grain_model, grain_automaton):
    a = grain_automaton
    bits = {a.bit_of[f.id] for n in grain_model.nodes if n.kind == NodeKind.END_EVENT
            for f in grain_model.incoming(n.id)}
    assert a.end_mask == sum(1 << b for b in bits)


# --- execution ---------------------------------------------------------------


def _compiled(nodes, flows, variables=()):
    m = ProcessModel(id="m", nodes=tuple(nodes), flows=tuple(flows),
                     variables=tuple(variables))
    report = validate_model(m)
    assert report.ok, report.errors
    return m, compile_marking(m)


def test_fire_external_not_enabled():
    _, a = _compiled(
        [Node("start", NodeKind.START_EVENT), Node("t", NodeKind.USER_TASK, name="T"),
         Node("end", NodeKind.END_EVENT)],
        [SequenceFlow("f1", "start", "t"), SequenceFlow("f2", "t", "end")])
    m, env, alt = fire_external(a, a.initial_marking, {}, "t")
    assert alt == 0
    with pytest.raises(NotEnabled):
        fire_external(a, m, env, "t")
    with pytest.raises(NotEnabled):
        fire_external(a, a.initial_marking, {}, "ghost")


def test_enabled_external_set(grain_automaton):
    a = grain_automaton
    assert enabled_external(a, a.initial_marking) == {("t_register", 0)}


def test_closure_runs_scripts_and_guards():
    nodes = [Node("start", NodeKind.START_EVENT),
             Node("t", NodeKind.USER_TASK, name="T"),
             Node("s", NodeKind.SCRIPT_TASK, name="S",
                  script=(Assign("x", Lit(5, "int_const")),)),
             Node("g", NodeKind.XOR_GATEWAY),
             Node("e1", NodeKind.END_EVENT), Node("e2", NodeKind.END_EVENT)]
    flows = [SequenceFlow("f1", "start", "t"), SequenceFlow("f2", "t", "s"),
             SequenceFlow("f3", "s", "g"),
             SequenceFlow("f4", "g", "e1",
                          condition=BinOp(">", Var("x"), Lit(3, "int_const"))),
             SequenceFlow("f5", "g", "e2", is_default=True)]
    _, a = _compiled(nodes, flows, [ProcessVariableDecl("x", "uint256", 0)])
    m, env, _ = fire_external(a, a.initial_marking, {"x": 0}, "t")
    result = eager_closure_data(a, m, env)
    assert result.marking == 0
    assert result.env["x"] == 5
    assert result.fired == ["s", "g", "e1"]


def test_closure_no_branch_taken():
    nodes = [Node("start", NodeKind.START_EVENT),
             Node("t", NodeKind.USER_TASK, name="T"),
             Node("g", NodeKind.XOR_GATEWAY),
             Node("e1", NodeKind.END_EVENT), Node("e2", NodeKind.END_EVENT)]
    flows = [SequenceFlow("f1", "start", "t"), SequenceFlow("f2", "t", "g"),
             SequenceFlow("f3", "g", "e1", condition=Lit(False, "bool")),
             SequenceFlow("f4", "g", "e2", condition=Lit(False, "bool"))]
    m = ProcessModel(id="m", nodes=tuple(nodes), flows=tuple(flows))
    a = compile_marking(m)
    marking, env, _ = fire_external(a, a.initial_marking, {}, "t")
    with pytest.raises(NoBranchTaken):
        eager_closure_data(a, marking, env)


def _gateway_cycle():
    # two degenerate XOR gateways feeding each other: no quiescent marking
    nodes = [Node("start", NodeKind.START_EVENT),
             Node("g1", NodeKind.XOR_GATEWAY), Node("g2", NodeKind.XOR_GATEWAY),
             Node("end", NodeKind.END_EVENT),
             Node("t", NodeKind.USER_TASK, name="T")]
    flows = [SequenceFlow("f1", "start", "g1"),
             SequenceFlow("f2", "g1", "g2"),
             SequenceFlow("f3", "g2", "g1"),
             SequenceFlow("f4", "g2", "t"),
             SequenceFlow("f5", "t", "end")]
    return ProcessModel(id="cycle", nodes=tuple(nodes), flows=tuple(flows))


def test_nonterminating_closure_detected():
    # successive sweeps of the toggle loop end on its two loop-back flows in turn
    from modelgen import toggle_loop_bpmn
    from procforge.bpmn import parse_bpmn
    a = compile_marking(parse_bpmn(toggle_loop_bpmn(after_task=False)))
    with pytest.raises(NonTerminatingClosure, match="exceeded 36 firings"):
        eager_closure_data(a, a.initial_marking, {"x": 0, "y": 0})
    # make the cycle closed: g2 always routes back to g1. The second sweep
    # ends on f3 (0x4), as the first did, so both closures park there
    m = _gateway_cycle()
    flows = [f for f in m.flows if f.id != "f4"]
    nodes = [n for n in m.nodes if n.id not in ("t", "end")]
    m2 = ProcessModel(id="cycle", nodes=tuple(nodes), flows=tuple(flows))
    a = compile_marking(m2)
    parked = eager_closure_data(a, a.initial_marking, {}).marking
    assert eager_closure_nondet(a, a.initial_marking) == {parked} == {0x4}
    # a ring of four degenerate XOR gateways in document order a1, a3, a2,
    # a4: successive sweeps end on a2 -> a3 (0x4) and a4 -> a1 (0x10) in turn
    ring = ("a1", "a3", "a2", "a4")
    ring_flows = [SequenceFlow("f0", "start", "a1")] + [
        SequenceFlow(f"f{i}", f"a{i}", f"a{i % 4 + 1}") for i in range(1, 5)]
    a = compile_marking(ProcessModel(
        id="ring", flows=tuple(ring_flows),
        nodes=(Node("start", NodeKind.START_EVENT),)
        + tuple(Node(g, NodeKind.XOR_GATEWAY) for g in ring)))
    with pytest.raises(NonTerminatingClosure, match="exceeded 20 firings"):
        eager_closure_data(a, a.initial_marking, {})
    with pytest.raises(NonTerminatingClosure, match="no quiescent marking"):
        eager_closure_nondet(a, a.initial_marking)


def test_closure_parks_a_loop_whose_sweep_ends_where_it_began():
    from modelgen import counting_loop_bpmn
    from procforge.bpmn import parse_bpmn
    a = compile_marking(parse_bpmn(counting_loop_bpmn(after_task=False)))
    result = eager_closure_data(a, a.initial_marking, {"x": 0})
    # the second sweep ends on the loop-back flow f4, as the first did
    assert result.marking == 1 << a.bit_of["f4"] == 0x8
    assert result.env == {"x": 2}
    assert result.fired == ["s_inc", "g_split"] * 2


def test_closure_sweeps_the_autos_in_order():
    # "Set b" precedes the AND split in document order, so the first sweep
    # passes it before the split enables it: "Set a" fires first, "Set b"
    # in the second sweep, and x ends as the contract leaves it
    nodes = [Node("start", NodeKind.START_EVENT),
             Node("sb", NodeKind.SCRIPT_TASK, name="Set b",
                  script=(Assign("x", Lit(2, "int_const")),)),
             Node("split", NodeKind.AND_GATEWAY),
             Node("sa", NodeKind.SCRIPT_TASK, name="Set a",
                  script=(Assign("x", Lit(1, "int_const")),)),
             Node("join", NodeKind.AND_GATEWAY),
             Node("t", NodeKind.USER_TASK, name="T"),
             Node("end", NodeKind.END_EVENT)]
    flows = [SequenceFlow("f1", "start", "split"), SequenceFlow("f2", "split", "sa"),
             SequenceFlow("f3", "split", "sb"), SequenceFlow("f4", "sa", "join"),
             SequenceFlow("f5", "sb", "join"), SequenceFlow("f6", "join", "t"),
             SequenceFlow("f7", "t", "end")]
    _, a = _compiled(nodes, flows, [ProcessVariableDecl("x", "uint256", 0)])
    result = eager_closure_data(a, a.initial_marking, {"x": 0})
    assert result.fired == ["split", "sa", "sb"]
    assert result.env == {"x": 2}
    assert result.marking == a.external["t"][0].pre


def test_nondet_closure_explores_all_branches():
    nodes = [Node("start", NodeKind.START_EVENT),
             Node("g", NodeKind.XOR_GATEWAY),
             Node("t1", NodeKind.USER_TASK, name="A"),
             Node("t2", NodeKind.USER_TASK, name="B"),
             Node("e1", NodeKind.END_EVENT), Node("e2", NodeKind.END_EVENT)]
    flows = [SequenceFlow("f1", "start", "g"),
             SequenceFlow("f2", "g", "t1", condition=Lit(True, "bool")),
             SequenceFlow("f3", "g", "t2", is_default=True),
             SequenceFlow("f4", "t1", "e1"), SequenceFlow("f5", "t2", "e2")]
    m = ProcessModel(id="m", nodes=tuple(nodes), flows=tuple(flows))
    a = compile_marking(m)
    markings = eager_closure_nondet(a, a.initial_marking)
    # both tasks reachable: guard ignored, every branch explored
    enabled = {tid for mk in markings for tid, _ in enabled_external(a, mk)}
    assert enabled == {"t1", "t2"}


def test_closure_is_deterministic(grain_automaton):
    a = grain_automaton
    m, env, _ = fire_external(a, a.initial_marking, {}, "t_register")
    r1 = eager_closure_data(a, m, dict(env))
    r2 = eager_closure_data(a, m, dict(env))
    assert (r1.marking, r1.fired) == (r2.marking, r2.fired)


def test_compile_is_deterministic_on_random_models():
    rng = random.Random(7)
    for _ in range(25):
        model = random_model(rng)
        assert compile_marking(model) == compile_marking(model)


def test_dump_automaton_lists_masks(grain_automaton):
    text = dump_automaton(grain_automaton)
    assert "flows: 18" in text
    assert "bit   0  f01" in text
    assert "folded gateways: g_join, g_split" in text
    assert "end mask:" in text


def test_task_id_for_display_name_beats_task_id(grain_automaton):
    for tid, name in grain_automaton.external_names.items():
        assert grain_automaton.task_id_for(name) == tid
        assert grain_automaton.task_id_for(tid) == tid
    assert grain_automaton.task_id_for("Bogus") is None
    # t2's display name is t1's id, and t1's display name is t2's id: each
    # name means the task that displays it, as in the oracle
    a = MarkingAutomaton(flow_count=0, bit_of={}, initial_marking=0, external={},
                         autos=(), end_mask=0, external_names={"t1": "t2", "t2": "t1"})
    assert a.task_id_for("t1") == "t2"
    assert a.task_id_for("t2") == "t1"


def test_xor_default_branch_is_last():
    # _pick_branch and codegen take the last branch as the unguarded tail
    rng = random.Random(11)
    models = [load_model(n) for n in ("grain_title", "grain_title_unbound", "ico",
                                      "quality_tracing", "task_outsourcing")]
    models += [random_model(rng, max_flows=14) for _ in range(60)]
    defaults = 0
    for model in models:
        for t in compile_marking(model).autos:
            *head, last = t.branches
            assert all(b.test is not None and not b.is_default for b in head)
            defaults += last.is_default
    assert defaults > 10


def _chain_model(nodes, edges, variables=(), conditions=None, default=()):
    """Flows f1, f2, ... in the order of edges (their document order)."""
    conditions = conditions or {}
    flows = [SequenceFlow(f"f{i}", s, t, condition=conditions.get(i), is_default=i in default)
             for i, (s, t) in enumerate(edges, start=1)]
    return ProcessModel(id="m", nodes=tuple(nodes), flows=tuple(flows),
                        variables=tuple(variables))


_START, _END = Node("start", NodeKind.START_EVENT), Node("end", NodeKind.END_EVENT)
_COUNT = Node("s", NodeKind.SCRIPT_TASK, name="Count",
              script=(Assign("n", BinOp("+", Var("n"), Lit(1, "int_const"))),))


def _user(i):
    return Node(i, NodeKind.USER_TASK, name=i.upper())


def _and(i):
    return Node(i, NodeKind.AND_GATEWAY)


def _xor(i):
    return Node(i, NodeKind.XOR_GATEWAY)


_PAIR = [("start", "a"), ("a", "g"), ("g", "b"), ("b", "end")]
_CHAIN = [("start", "a"), ("a", "g1"), ("g1", "b"), ("b", "g2"), ("g2", "c"), ("c", "end")]

FOLD_CASES = {
    # a degenerate AND gateway between two tasks: the first task in
    # document order claims it, as its split or as its join
    "and-between-a-first": (
        _chain_model([_START, _user("a"), _and("g"), _user("b"), _END], _PAIR), {"g"},
        "  A [0]  pre=0x1  post=0x4\n"
        "  B [0]  pre=0x4  post=0x8\n"
        "auto transitions:\n"
        "  end (endEvent)  pre=[0x8]  post=[0x0]\n"
        "folded gateways: g\n"
        "end mask: 0x8\n"),
    "and-between-b-first": (
        _chain_model([_START, _user("b"), _and("g"), _user("a"), _END], _PAIR), {"g"},
        "  B [0]  pre=0x2  post=0x8\n"
        "  A [0]  pre=0x1  post=0x2\n"
        "auto transitions:\n"
        "  end (endEvent)  pre=[0x8]  post=[0x0]\n"
        "folded gateways: g\n"
        "end mask: 0x8\n"),
    # an XOR gateway is only ever a join: the task behind it claims it
    "xor-between-a-first": (
        _chain_model([_START, _user("a"), _xor("g"), _user("b"), _END], _PAIR), {"g"},
        "  A [0]  pre=0x1  post=0x2\n"
        "  B [0]  pre=0x2  post=0x8\n"
        "auto transitions:\n"
        "  end (endEvent)  pre=[0x8]  post=[0x0]\n"
        "folded gateways: g\n"
        "end mask: 0x8\n"),
    # each gateway is one task's split and the next task's join
    "split-or-join-in-order": (
        _chain_model([_START, _user("a"), _and("g1"), _user("b"), _and("g2"), _user("c"),
                      _END], _CHAIN), {"g1", "g2"},
        "  A [0]  pre=0x1  post=0x4\n"
        "  B [0]  pre=0x4  post=0x10\n"
        "  C [0]  pre=0x10  post=0x20\n"
        "auto transitions:\n"
        "  end (endEvent)  pre=[0x20]  post=[0x0]\n"
        "folded gateways: g1, g2\n"
        "end mask: 0x20\n"),
    "split-or-join-reversed": (
        _chain_model([_START, _user("c"), _and("g2"), _user("b"), _and("g1"), _user("a"),
                      _END], _CHAIN), {"g1", "g2"},
        "  C [0]  pre=0x8  post=0x20\n"
        "  B [0]  pre=0x2  post=0x8\n"
        "  A [0]  pre=0x1  post=0x2\n"
        "auto transitions:\n"
        "  end (endEvent)  pre=[0x20]  post=[0x0]\n"
        "folded gateways: g1, g2\n"
        "end mask: 0x20\n"),
    "xor-join-before-script": (
        _chain_model([_START, _xor("x"), _user("b"), _user("c"), _xor("j"), _COUNT, _END],
                     [("start", "x"), ("x", "b"), ("x", "c"), ("b", "j"), ("c", "j"),
                      ("j", "s"), ("s", "end")],
                     [ProcessVariableDecl("n", "uint256")],
                     conditions={3: BinOp(">", Var("n"), Lit(0, "int_const"))}, default={2}),
        {"j"},
        "  B [0]  pre=0x2  post=0x8\n"
        "  C [0]  pre=0x4  post=0x10\n"
        "auto transitions:\n"
        "  x (exclusiveGateway)  pre=[0x1]  post=[0x4 (guarded), 0x2 (default)]\n"
        "  s (scriptTask)  pre=[0x8, 0x10]  post=[0x40]\n"
        "  end (endEvent)  pre=[0x40]  post=[0x0]\n"
        "folded gateways: j\n"
        "end mask: 0x40\n"),
    "and-split-after-script": (
        _chain_model([_START, _COUNT, _and("g"), _user("b"), _user("c"), _and("h"), _END],
                     [("start", "s"), ("s", "g"), ("g", "b"), ("g", "c"), ("b", "h"),
                      ("c", "h"), ("h", "end")],
                     [ProcessVariableDecl("n", "uint256")]),
        {"g"},
        "  B [0]  pre=0x4  post=0x10\n"
        "  C [0]  pre=0x8  post=0x20\n"
        "auto transitions:\n"
        "  s (scriptTask)  pre=[0x1]  post=[0xc]\n"
        "  h (parallelGateway)  pre=[0x30]  post=[0x40]\n"
        "  end (endEvent)  pre=[0x40]  post=[0x0]\n"
        "folded gateways: g\n"
        "end mask: 0x40\n"),
}


@pytest.mark.parametrize("case", list(FOLD_CASES))
def test_which_task_claims_a_fold(case):
    model, folded, table = FOLD_CASES[case]
    assert validate_model(model).ok
    a = compile_marking(model)
    assert a.folded == folded
    # the masks, one line per external alternative and auto-transition
    assert dump_automaton(a).split("external tasks:\n")[1] == table
