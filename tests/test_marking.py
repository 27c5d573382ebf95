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
    result = eager_closure_data(a, m, env, {"x": "uint256"})
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
        eager_closure_data(a, marking, env, {})


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
    # make the cycle closed: g2 always routes back to g1
    m = _gateway_cycle()
    flows = [f for f in m.flows if f.id != "f4"]
    nodes = [n for n in m.nodes if n.id not in ("t", "end")]
    m2 = ProcessModel(id="cycle", nodes=tuple(nodes), flows=tuple(flows))
    a = compile_marking(m2)
    with pytest.raises(NonTerminatingClosure):
        eager_closure_data(a, a.initial_marking, {}, {})
    with pytest.raises(NonTerminatingClosure):
        eager_closure_nondet(a, a.initial_marking)


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
    r1 = eager_closure_data(a, m, dict(env), {})
    r2 = eager_closure_data(a, m, dict(env), {})
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
