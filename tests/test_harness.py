import ast
import hashlib
import inspect
import json
import random
import types
from collections import deque

import pytest
from hypothesis import example, given, strategies as st

from procforge import harness
from procforge.cli import main
from procforge.bpmn import parse_bpmn
from procforge.harness import (
    Conforming,
    Disagreement,
    ExperimentConfig,
    HarnessError,
    NonConforming,
    Report,
    TraceEvent,
    TraceSyntaxError,
    _saturate,
    classify,
    enumerate_conforming,
    mutate,
    oracle_classify,
    parse_trace,
    replay_data,
    report_to_json,
    run_experiment,
    step,
)
from procforge.interp import FungibleLedger, new_instance
from procforge.ir import Node, NodeKind, ProcessModel, SequenceFlow, validate_model
from procforge.marking import (NonTerminatingClosure, compile_marking, eager_closure_data,
                               eager_closure_nondet, fire_external)
from procforge.registry import parse_registry

from conftest import FIXTURES, load_model
from modelgen import (counting_loop_bpmn, parallel_chain, random_model, spinning_loop_bpmn,
                      toggle_loop_bpmn)


def build(nodes, flows):
    m = ProcessModel(id="m", nodes=tuple(nodes), flows=tuple(flows))
    return m, compile_marking(m)


def linear_abc():
    nodes = [Node("start", NodeKind.START_EVENT)]
    flows = []
    prev = "start"
    for i, name in enumerate("ABC"):
        nodes.append(Node(f"t{i}", NodeKind.USER_TASK, name=name))
        flows.append(SequenceFlow(f"f{i}", prev, f"t{i}"))
        prev = f"t{i}"
    nodes.append(Node("end", NodeKind.END_EVENT))
    flows.append(SequenceFlow("fend", prev, "end"))
    return build(nodes, flows)


def and_split_bc():
    nodes = [Node("start", NodeKind.START_EVENT), Node("a", NodeKind.USER_TASK, name="A"),
             Node("g1", NodeKind.AND_GATEWAY),
             Node("b", NodeKind.USER_TASK, name="B"),
             Node("c", NodeKind.USER_TASK, name="C"),
             Node("g2", NodeKind.AND_GATEWAY), Node("end", NodeKind.END_EVENT)]
    flows = [SequenceFlow("f1", "start", "a"), SequenceFlow("f2", "a", "g1"),
             SequenceFlow("f3", "g1", "b"), SequenceFlow("f4", "g1", "c"),
             SequenceFlow("f5", "b", "g2"), SequenceFlow("f6", "c", "g2"),
             SequenceFlow("f7", "g2", "end")]
    return build(nodes, flows)


def test_trace_reader_reads_every_field():
    text = ('{"task": "A", "args": {"y": 2, "x": 1}, "caller": "0x' + "a" * 40 + '"}\n'
            '\n{"task": "B"}\n')
    assert parse_trace(text) == (
        TraceEvent("A", {"x": 1, "y": 2}, "0x" + "a" * 40),
        TraceEvent("B"))


def test_trace_syntax_errors():
    with pytest.raises(TraceSyntaxError):
        parse_trace("not json\n")
    with pytest.raises(TraceSyntaxError):
        parse_trace('{"noTask": 1}\n')
    with pytest.raises(TraceSyntaxError):
        parse_trace('{"task": "A", "args": 5}\n')


def test_enumerate_linear_single_strict_trace():
    _, a = linear_abc()
    traces = enumerate_conforming(a, 3)
    assert traces == [("A", "B", "C")]


def test_enumerate_and_split_two_interleavings():
    _, a = and_split_bc()
    traces = enumerate_conforming(a, 3)
    assert sorted(traces) == [("A", "B", "C"), ("A", "C", "B")]


def test_enumerate_prefix_mode_includes_prefixes():
    _, a = linear_abc()
    traces = enumerate_conforming(a, 2, strict=False)
    assert sorted(traces) == [(), ("A",), ("A", "B")]


def test_enumerate_grain_has_swap_and_refund_paths(grain_automaton):
    traces = enumerate_conforming(grain_automaton, len(grain_automaton.external))
    assert len(traces) == 20  # 10 interleavings x 2 XOR outcomes
    finals = {t[-1] for t in traces}
    assert finals == {"Asset Swap", "Refund"}


def test_enumerate_budget(monkeypatch):
    _, a = and_split_bc()
    monkeypatch.setattr(harness, "DEFAULT_STATE_BUDGET", 1)
    with pytest.raises(HarnessError, match="^marking graph larger than 1 states$"):
        enumerate_conforming(a, 3)
    # the full walk produces 5 markings: A; then B, C; then C after B, B after C
    monkeypatch.setattr(harness, "DEFAULT_STATE_BUDGET", 5)
    assert len(enumerate_conforming(a, 3)) == 2
    monkeypatch.setattr(harness, "DEFAULT_STATE_BUDGET", 4)
    with pytest.raises(HarnessError, match="^marking graph larger than 4 states$"):
        enumerate_conforming(a, 3)
    # the first trace alone needs only the 3 markings on its own path
    monkeypatch.setattr(harness, "DEFAULT_STATE_BUDGET", 3)
    assert enumerate_conforming(a, 3, limit=1)[0] == ("A", "B", "C")


@pytest.mark.parametrize("strict", [True, False])
def test_enumerate_limit_is_prefix_of_full_list(strict):
    for seed in range(50):
        a = compile_marking(random_model(random.Random(seed)))
        full = enumerate_conforming(a, len(a.external), strict=strict)
        for k in (1, 2, 5):
            assert enumerate_conforming(a, len(a.external), strict=strict,
                                        limit=k) == full[:k], (seed, k)


def test_enumerate_parallel_chain6_first_two_within_small_budget(monkeypatch):
    a = compile_marking(parallel_chain(6))
    monkeypatch.setattr(harness, "DEFAULT_STATE_BUDGET", 100)
    first, second = enumerate_conforming(a, 12, limit=2)
    a_s = tuple(f"A{i}" for i in range(6))
    assert first == a_s + ("B0", "B1", "B2", "B3", "B4", "B5")
    assert second == a_s + ("B0", "B1", "B2", "B3", "B5", "B4")


def test_run_experiment_parallel_chain6():
    model = parallel_chain(6)
    cfg = ExperimentConfig(base_traces=2, mutants_per_base=5, seed=1)
    report = run_experiment(model, compile_marking(model), cfg)
    assert report.conforming + report.non_conforming == 12
    assert report.correctness_pct == 100.0


def test_state_budget_bounds_an_experiment_of_many_bases(monkeypatch):
    # MAX_DRAWS bounds only the mutants: on a wide AND split the bases are
    # bounded by the markings enumerate_conforming may produce
    monkeypatch.setattr(harness, "DEFAULT_STATE_BUDGET", 1000)
    model = parallel_chain(5)
    cfg = ExperimentConfig(base_traces=10**6, mutants_per_base=0)
    with pytest.raises(HarnessError, match="^marking graph larger than 1000 states$"):
        run_experiment(model, compile_marking(model), cfg)


def test_classify_base_traces_conforming(grain_model, grain_automaton):
    for base in enumerate_conforming(grain_automaton, 8)[:2]:
        assert classify(grain_automaton, base).ok
        assert oracle_classify(grain_model, base).ok


def test_classify_title_before_quality_rejected(grain_model, grain_automaton):
    # move the buy-interest step (which needs the created title) before the
    # quality evaluation that the title creation waits for
    bad = ("Registration request submitted", "Grain sample taken",
           "Truck carrying grain is weighed", "Grain dropped at silo",
           "Truck is weighed again", "Interest to buy title expressed",
           "Grain quality evaluated", "Asset Swap")
    verdict = classify(grain_automaton, bad)
    assert verdict == NonConforming(5)
    assert not oracle_classify(grain_model, bad).ok


def test_classify_empty_strict_is_end_not_reached(grain_model, grain_automaton):
    verdict = classify(grain_automaton, ())
    assert verdict == NonConforming(None) and verdict.end_not_reached
    assert verdict.label() == "NonConforming(EndNotReached)"
    assert classify(grain_automaton, (), strict=False).ok


def test_classify_unknown_task_name(grain_model, grain_automaton):
    t = ("Registration request submitted", "Bogus")
    assert classify(grain_automaton, t) == NonConforming(1)
    assert oracle_classify(grain_model, t) == NonConforming(1)


def test_classify_data_mode_uses_interpreter(grain_model, grain_automaton):
    from procforge.interp import new_instance
    from test_interpreter import SWAP_EVENTS, grain_registries
    trace = tuple(TraceEvent(t, a, c) for t, a, c in SWAP_EVENTS)

    def fresh():
        return new_instance(grain_model, grain_automaton,
                            registries=grain_registries())

    instance = fresh()
    assert replay_data(instance, trace).ok
    assert [e.outcome.ok for e in instance.event_log] == [True] * len(trace)
    # wrong deposit: the refund path is forced, so Asset Swap is rejected
    events = list(SWAP_EVENTS)
    events[6] = ("Interest to buy title expressed",
                 {"deposit": 1, "buyer": "0x" + "2" * 40}, "0x" + "2" * 40)
    bad = tuple(TraceEvent(t, a, c) for t, a, c in events)
    instance = fresh()
    assert replay_data(instance, bad) == NonConforming(7)
    assert len(instance.event_log) == 8  # replay stops at the rejected event


# --- the data-free state set and the interpreter ----------------------------


LRK_AT = "0xD3E4EBe81b55EA73b559da31ADf2CAc3b254ea11"  # the fixtures' LRK contractAddress


def lrk_ledger():
    return FungibleLedger(parse_registry((FIXTURES / "lrk.json").read_text()))


def replay_within_data_free_states(model, events, bindings=None, registries=None):
    """Invoke events on a new instance of model and check, after
    new_instance and after every accepted invoke, that the data-free state
    set of the accepted prefix contains the interpreter's marking."""
    a = compile_marking(model)
    instance = new_instance(model, a, bindings, registries)
    states = eager_closure_nondet(a, a.initial_marking)
    assert instance.marking in states
    for ev in events:
        if instance.invoke(ev.task, ev.args, ev.caller).ok:
            states = step(a, states, a.task_id_for(ev.task))
            assert instance.marking in states, ev.task
    return instance


@pytest.mark.parametrize("trace, name", [
    ("grain_swap.jsonl", "grain_title"), ("grain_refund.jsonl", "grain_title"),
    ("outsourcing_correct.jsonl", "task_outsourcing"),
    ("outsourcing_wrong.jsonl", "task_outsourcing")])
def test_data_free_states_contain_the_interpreters_marking_on_fixture_traces(trace, name):
    from test_interpreter import grain_registries
    registries = grain_registries() if name == "grain_title" else {LRK_AT: lrk_ledger()}
    instance = replay_within_data_free_states(
        load_model(name), parse_trace((FIXTURES / trace).read_text()), registries=registries)
    assert instance.event_log[0].outcome.ok


def test_data_free_states_contain_a_parked_loop():
    # the initial closure of the counting loop parks on its loop-back flow
    # (0x8), and after "Go" it parks at 0x10; "Done" is rejected both times
    payer = "0x" + "6" * 40
    for after_task, events in ((False, [TraceEvent("Done")]),
                               (True, [TraceEvent("Go", {}, payer), TraceEvent("Done")])):
        instance = replay_within_data_free_states(
            parse_bpmn(counting_loop_bpmn(after_task)), events,
            {"itf_lrk": LRK_AT}, {LRK_AT: lrk_ledger()})
        assert [e.outcome.ok for e in instance.event_log] == [e.task == "Go" for e in events]
        assert instance.marking == (0x10 if after_task else 0x8)
    # the toggle loop follows "Go", whose closure exceeds the cap
    replay_within_data_free_states(parse_bpmn(toggle_loop_bpmn(True)), [],
                                   {"itf_lrk": LRK_AT}, {LRK_AT: lrk_ledger()})


def test_a_firing_whose_closure_never_settles_reaches_no_state():
    # both modes reject "Go"; a start whose closure never settles raises
    model = parse_bpmn(spinning_loop_bpmn(after_task=True))
    a = compile_marking(model)
    states = eager_closure_nondet(a, a.initial_marking)
    assert step(a, states, a.task_id_for("Go")) == frozenset()
    assert classify(a, ("Go",), strict=False) == NonConforming(0)
    instance = new_instance(model, a, {"itf_lrk": LRK_AT}, {LRK_AT: lrk_ledger()})
    assert instance.invoke("Go", {}, "0x" + "6" * 40).reason == "NonTerminatingClosure"
    a = compile_marking(parse_bpmn(spinning_loop_bpmn(after_task=False)))
    with pytest.raises(NonTerminatingClosure, match="no quiescent marking"):
        classify(a, ())


def reference_step(a, states, task_id):
    """step with a closure walk per firing, one that never settles dropped."""
    out = set()
    for m in states:
        fired = fire_external(a, m, task_id)
        if fired is not None:
            try:
                out |= eager_closure_nondet(a, fired[0])
            except NonTerminatingClosure:
                pass
    return frozenset(out)


def test_one_closure_walk_reaches_the_union_of_a_walk_per_firing():
    # a firing that never settles adds nothing to one that settles
    a = compile_marking(parse_bpmn(spinning_loop_bpmn(after_task=True)))
    (settled,) = eager_closure_nondet(a, a.initial_marking)
    spinning, _ = fire_external(a, settled, a.task_id_for("Go"))
    assert eager_closure_nondet(a, spinning, settled) == {settled}
    # every edge of the first 200 state sets reached on each random model
    rng = random.Random(29)
    several = 0
    for _ in range(40):
        a = compile_marking(random_model(rng))
        frontier = [eager_closure_nondet(a, a.initial_marking)]
        seen = set(frontier)
        while frontier and len(seen) < 200:
            states = frontier.pop()
            for task_id in a.external:
                nxt = step(a, states, task_id)
                assert nxt == reference_step(a, states, task_id)
                several += sum(fire_external(a, m, task_id) is not None for m in states) > 1
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    assert several  # some steps close more than one firing


def test_data_free_states_contain_the_interpreters_marking_on_random_models():
    rng = random.Random(23)
    for _ in range(40):
        model = random_model(rng)
        for names in enumerate_conforming(compile_marking(model), 8):
            replay_within_data_free_states(model, [TraceEvent(n) for n in names])


def test_step_fires_the_first_enabled_alternative_as_fire_external_does():
    # after A and B both flows into the XOR join folded in front of T are
    # marked; fire_external consumes the first (f4) and leaves f5 (0x10)
    nodes = [Node("start", NodeKind.START_EVENT), Node("split", NodeKind.AND_GATEWAY),
             Node("a", NodeKind.USER_TASK, name="A"), Node("b", NodeKind.USER_TASK, name="B"),
             Node("join", NodeKind.XOR_GATEWAY), Node("t", NodeKind.USER_TASK, name="T"),
             Node("end", NodeKind.END_EVENT)]
    flows = [SequenceFlow("f1", "start", "split"), SequenceFlow("f2", "split", "a"),
             SequenceFlow("f3", "split", "b"), SequenceFlow("f4", "a", "join"),
             SequenceFlow("f5", "b", "join"), SequenceFlow("f6", "join", "t"),
             SequenceFlow("f7", "t", "end")]
    model, a = build(nodes, flows)
    assert validate_model(model).ok and a.folded == {"join"}
    states = step(a, step(a, eager_closure_nondet(a, a.initial_marking), "a"), "b")
    assert states == {0x18}
    marking, alt = fire_external(a, 0x18, "t")
    assert alt == 0
    assert step(a, states, "t") == eager_closure_nondet(a, marking) == {0x10}


def test_wide_automatic_split_closes_as_data_mode_does():
    # 20 automatic branches: the sweep fires each script task once, where
    # firing them in every order would visit 2^20 markings
    n = 20
    nodes = [Node("start", NodeKind.START_EVENT), Node("split", NodeKind.AND_GATEWAY)]
    nodes += [Node(f"s{i}", NodeKind.SCRIPT_TASK, name=f"S{i}") for i in range(n)]
    nodes += [Node("join", NodeKind.AND_GATEWAY), Node("t", NodeKind.USER_TASK, name="T"),
              Node("end", NodeKind.END_EVENT)]
    flows = [SequenceFlow("f_start", "start", "split")]
    flows += [SequenceFlow(f"f_s{i}", "split", f"s{i}") for i in range(n)]
    flows += [SequenceFlow(f"f_j{i}", f"s{i}", "join") for i in range(n)]
    flows += [SequenceFlow("f_t", "join", "t"), SequenceFlow("f_end", "t", "end")]
    model, a = build(nodes, flows)
    assert validate_model(model).ok and a.folded == {"join"}
    data = eager_closure_data(a, a.initial_marking, {})
    assert eager_closure_nondet(a, a.initial_marking) == {data.marking}
    assert data.marking == a.external["t"].pre_alternatives[0]
    assert classify(a, ("T",)) == Conforming()


# --- mutation ----------------------------------------------------------------


AB = ("a", "b")


def test_swap_on_two_events():
    # no alphabet to add from, and both removals are bases: only a swap is left
    out = mutate(AB, random.Random(0), [], bases=[AB, ("a",), ("b",)])
    assert out == ("b", "a")


def test_remove_resamples_on_empty():
    # nothing to add and one event, so add and swap resample until remove
    single = ("a",)
    out = mutate(single, random.Random(0), [], bases=[single])
    assert out == ()


EXHAUSTED = "no mutant distinct from the base traces"


def test_mutation_exhausted():
    single = ("a",)
    # only possible removal result is (), which equals a base
    with pytest.raises(HarnessError, match=f"^{EXHAUSTED}$"):
        mutate(single, random.Random(0), [], bases=[single, ()])


def test_mutants_never_equal_bases(grain_automaton):
    bases = enumerate_conforming(grain_automaton, 8)[:2]
    rng = random.Random(42)
    alphabet = sorted(grain_automaton.external_names.values())
    for _ in range(200):
        m = mutate(bases[0], rng, alphabet, bases)
        assert m not in bases


def test_mutation_deterministic_for_seed(grain_automaton):
    bases = enumerate_conforming(grain_automaton, 8)[:2]
    alphabet = sorted(grain_automaton.external_names.values())
    a = [mutate(bases[0], random.Random(42), alphabet, bases)
         for _ in range(1)]
    b = [mutate(bases[0], random.Random(42), alphabet, bases)
         for _ in range(1)]
    assert a == b


def reference_mutate(trace, rng, weights, alphabet, bases, gave_base):
    """mutate written with random.choices, randrange, choice and sample:
    the draws that mutants reproduces from random() and getrandbits().
    choices draws the operator by bisecting the cumulative weights when
    they are given and by scaling random() when they are not. gave_base
    holds the edits that gave a base in the draws of one call of mutants,
    keyed (pos, name) for add, (pos,) for remove and (i, j, None) for swap;
    the draws end once it holds every edit of trace."""
    n = len(trace)
    every = ({(pos, name) for pos in range(n + 1) for name in alphabet}
             | {(pos,) for pos in range(n)}
             | {(i, j, None) for i in range(n) for j in range(i + 1, n)})
    while gave_base != every:
        op = rng.choices(harness.OPERATORS, weights=weights)[0]
        names = list(trace)
        if op == "add":
            if not alphabet:
                continue
            pos = rng.randrange(len(names) + 1)
            name = rng.choice(alphabet)
            names.insert(pos, name)
            edit = (pos, name)
        elif op == "remove":
            if not names:
                continue
            pos = rng.randrange(len(names))
            del names[pos]
            edit = (pos,)
        else:
            if len(names) < 2:
                continue
            i, j = rng.sample(range(len(names)), 2)
            names[i], names[j] = names[j], names[i]
            edit = (min(i, j), max(i, j), None)
        mutant = tuple(names)
        if mutant not in bases:
            return mutant
        gave_base.add(edit)
    raise HarnessError(EXHAUSTED)


def draw_or_exhaust(draw):
    """The draws, or the message of the error that ended them."""
    try:
        return draw()
    except HarnessError as e:
        return str(e)


@pytest.mark.parametrize("weights", [(1, 1, 1), None])
@pytest.mark.parametrize("alphabet", [("a", "b", "c"), ()], ids=["alphabet", "no-alphabet"])
def test_mutants_draw_as_the_reference(weights, alphabet):
    # lengths above 21 take sample's set path, which no fixture reaches
    for length in range(41):
        for seed in range(3):
            src = random.Random(length * 3 + seed)
            trace = tuple(src.choice("abc") for _ in range(length))
            bases = {trace} | {tuple(src.choice("abc") for _ in range(length + d))
                               for d in (-1, 1) for _ in range(2) if length + d >= 0}
            count = 12
            ref_rng, rng, gave_base = random.Random(seed), random.Random(seed), set()
            expected = draw_or_exhaust(lambda: [
                reference_mutate(trace, ref_rng, weights, alphabet, bases, gave_base)
                for _ in range(count)])
            got = draw_or_exhaust(lambda: harness.mutants(
                trace, rng, count, alphabet, bases))
            assert got == expected, (length, seed)
            assert rng.getstate() == ref_rng.getstate(), (length, seed)


def every_edit(trace, alphabet):
    """Every mutant one operator makes of trace."""
    n = len(trace)
    return ({trace[:p] + (c,) + trace[p:] for p in range(n + 1) for c in alphabet}
            | {trace[:p] + trace[p + 1:] for p in range(n)}
            | {trace[:i] + (trace[j],) + trace[i + 1:j] + (trace[i],) + trace[j + 1:]
               for i in range(n) for j in range(i + 1, n)})


@pytest.mark.parametrize("alphabet", [("a",), ("a", "b"), ("a", "b", "c")])
@pytest.mark.parametrize("length", range(7))
def test_mutants_draw_as_the_reference_when_every_edit_repeats(length, alphabet):
    # 200 draws from at most 7 * 3 + 6 + 15 edits: each edit is drawn again
    # and again, so every table entry is read back, a base one included
    for seed in range(4):
        src = random.Random(length * 4 + seed)
        trace = tuple(src.choice(alphabet) for _ in range(length))
        edits = sorted(every_edit(trace, alphabet) - {trace})
        # half the edits give a base, all but one do, or all do
        for bases in ({trace} | set(src.sample(edits, len(edits) // 2)),
                      {trace} | set(edits[1:]), {trace} | set(edits)):
            ref_rng, rng, gave_base = random.Random(seed), random.Random(seed), set()
            expected = draw_or_exhaust(lambda: [
                reference_mutate(trace, ref_rng, None, alphabet, bases, gave_base)
                for _ in range(200)])
            got = draw_or_exhaust(lambda: harness.mutants(trace, rng, 200, alphabet, bases))
            assert got == expected, (trace, sorted(bases))
            assert rng.getstate() == ref_rng.getstate(), (trace, sorted(bases))
            # the draws end exactly when every edit gives a base
            if bases >= every_edit(trace, alphabet):
                assert got == EXHAUSTED
            else:
                assert len(got) == 200 and not bases & set(got)


def _one_edit(base, mutant, alphabet):
    """Whether mutant is base with one name of alphabet inserted, one
    name removed, or two positions of different names swapped."""
    n = len(base)
    if len(mutant) == n + 1:
        return any(mutant[:i] + mutant[i + 1:] == base and mutant[i] in alphabet
                   for i in range(n + 1))
    if len(mutant) == n - 1:
        return any(base[:i] + base[i + 1:] == mutant for i in range(n))
    diff = [i for i in range(n) if base[i] != mutant[i]]
    return (len(diff) == 2 and mutant[diff[0]] == base[diff[1]]
            and mutant[diff[1]] == base[diff[0]])


@given(trace=st.lists(st.sampled_from("abcd"), max_size=30).map(tuple),
       alphabet=st.lists(st.sampled_from("abcde"), max_size=3, unique=True),
       seed=st.integers(0, 2**32 - 1))
def test_every_mutant_is_its_base_with_one_edit(trace, alphabet, seed):
    bases = {trace}
    try:
        out = harness.mutants(trace, random.Random(seed), 20, alphabet, bases)
    except HarnessError as e:
        assert str(e) == EXHAUSTED
        assert trace == () and not alphabet  # no operator applies
        return
    assert len(out) == 20
    for mutant in out:
        assert mutant not in bases and _one_edit(trace, mutant, alphabet), mutant


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(seed=-1)


# --- experiment --------------------------------------------------------------


def test_run_experiment_counts(grain_model, grain_automaton):
    cfg = ExperimentConfig(base_traces=2, mutants_per_base=25, seed=7)
    report = run_experiment(grain_model, grain_automaton, cfg)
    assert report.conforming + report.non_conforming == 52
    assert report.correctness_pct == 100.0
    assert report.disagreements == ()
    assert report.conforming >= 2  # the bases at least


def test_run_experiment_no_mutants(grain_model, grain_automaton):
    cfg = ExperimentConfig(base_traces=2, mutants_per_base=0, seed=7)
    report = run_experiment(grain_model, grain_automaton, cfg)
    assert report.conforming == 2 and report.non_conforming == 0


def test_report_json_shape(grain_model, grain_automaton):
    cfg = ExperimentConfig(base_traces=2, mutants_per_base=5, seed=3)
    obj = json.loads(report_to_json(run_experiment(grain_model, grain_automaton, cfg)))
    assert set(obj) == {"seed", "totals", "correctnessPct", "disagreements", "elapsedMs"}
    assert set(obj["totals"]) == {"conforming", "nonConforming"}
    assert obj["seed"] == 3


def test_report_deterministic_modulo_elapsed(grain_model, grain_automaton):
    cfg = ExperimentConfig(base_traces=2, mutants_per_base=40, seed=11)
    r1 = run_experiment(grain_model, grain_automaton, cfg)
    r2 = run_experiment(grain_model, grain_automaton, cfg)
    strip = lambda r: (r.seed, r.conforming, r.non_conforming,
                       r.correctness_pct, r.disagreements)
    assert strip(r1) == strip(r2)


def test_replayer_and_oracle_agree_on_random_models():
    rng = random.Random(5)
    for _ in range(20):
        model = random_model(rng)
        a = compile_marking(model)
        alphabet = sorted(a.external_names.values()) or ["X"]
        bases = enumerate_conforming(a, len(a.external))
        for _ in range(20):
            base = bases[rng.randrange(len(bases))] if bases else ()
            t = mutate(base, rng, alphabet, bases=[]) \
                if base or alphabet else ()
            assert classify(a, t).ok == oracle_classify(model, t).ok


def edge(graph, node, name):
    """graph's node for task name from node, computed and kept as verdict does."""
    if name not in node.edges:
        node.edges[name] = graph.fire(node, name, 0)
    return node.edges[name][0]


def agreeing_pairs(model, a):
    """The live pairs of the replayer's and the oracle's state sets: a
    breadth-first walk from the pair of roots fires every display name from
    each live pair, to the fixpoint. At each pair both sides must be alive
    or neither, so every trace has the same first rejected index, and the
    end state must be in both sets or in neither, so every trace has the
    same strict verdict; the assertion names a shortest trace that differs."""
    graphs = (harness._Replayer(a), harness._TokenGame(model))
    alphabet = sorted(a.external_names.values())
    root = tuple(graph.root[0] for graph in graphs)
    trace_to = {root: ()}
    queue = deque([root])
    live = 0
    while queue:
        pair = queue.popleft()
        alive = [bool(node.states) for node in pair]
        ended = [graph.end in node.states for graph, node in zip(graphs, pair)]
        assert alive[0] == alive[1] and ended[0] == ended[1], trace_to[pair]
        if not alive[0]:
            continue
        live += 1
        for name in alphabet:
            nxt = tuple(edge(graph, node, name) for graph, node in zip(graphs, pair))
            if nxt not in trace_to:
                trace_to[nxt] = trace_to[pair] + (name,)
                queue.append(nxt)
    return live


@pytest.mark.parametrize("make, pairs", [
    *[pytest.param(lambda name=name: load_model(name), None, id=name)
      for name in ("grain_title", "grain_title_unbound", "ico", "quality_tracing",
                   "task_outsourcing")],
    # one live pair per choice of A{i} pending, B{i} pending or done, for each i
    *[pytest.param(lambda n=n: parallel_chain(n), 3 ** n, id=f"chain{n}") for n in range(2, 6)],
    pytest.param(lambda: parse_bpmn(counting_loop_bpmn(True)), None, id="counting-loop"),
    pytest.param(lambda: parse_bpmn(toggle_loop_bpmn(True)), None, id="toggle-loop"),
    # CHANGES.md's FOUND on the oracle and ROADMAP item 3: the oracle
    # accepts "Go", whose closure never settles
    pytest.param(lambda: parse_bpmn(spinning_loop_bpmn(True)), None, id="spinning-loop",
                 marks=pytest.mark.xfail(raises=AssertionError, strict=True,
                                         reason="the oracle accepts a task whose closure "
                                                "never settles")),
])
def test_replayer_and_oracle_agree_on_every_trace(make, pairs):
    model = make()
    live = agreeing_pairs(model, compile_marking(model))
    assert pairs is None or live == pairs


# --- one classification per distinct prefix ---------------------------------


def experiment_traces(a, cfg):
    """The traces run_experiment classifies, drawn as it draws them."""
    bases = enumerate_conforming(a, len(a.external), strict=cfg.strict,
                                 limit=cfg.base_traces)
    if not bases:
        raise HarnessError("no conforming base trace")
    alphabet = sorted(a.external_names.values())
    rng = random.Random(cfg.seed)
    traces = list(bases)
    for base in bases:
        try:
            for _ in range(cfg.mutants_per_base):
                traces.append(mutate(base, rng, alphabet, bases))
        except HarnessError:
            pass  # every edit of base gives a base: it has no mutant
    if cfg.mutants_per_base and len(traces) == len(bases):
        raise HarnessError(EXHAUSTED)
    return traces


def test_mutant_stream_is_pinned():
    # the operator, position and name draws of the default experiment on
    # every fixture; a change to mutate's rng calls changes the digest
    digest = hashlib.sha256()
    for name in ["grain_title", "ico", "quality_tracing", "task_outsourcing"]:
        a = compile_marking(load_model(name))
        for seed in (0, 7, 42):
            for strict in (True, False):
                for names in experiment_traces(a, ExperimentConfig(seed=seed, strict=strict)):
                    digest.update(("|".join(names) + "\n").encode())
    assert digest.hexdigest() \
        == "f59a486fc827db1fb3a7410213c331decd60a7e42c21f13d010e283ec76b4c01"


def reference_report(model, a, cfg):
    """run_experiment's report from classifying every trace on its own."""
    conforming = non_conforming = agree = 0
    disagreements = []
    traces = experiment_traces(a, cfg)
    for idx, trace in enumerate(traces):
        mine = classify(a, trace, strict=cfg.strict)
        theirs = oracle_classify(model, trace, strict=cfg.strict)
        conforming += mine.ok
        non_conforming += not mine.ok
        if mine.ok == theirs.ok:
            agree += 1
        else:
            disagreements.append(Disagreement(idx, mine.label(), theirs.label(),
                                              trace))
    pct = 100.0 * agree / len(traces)
    return Report(cfg.seed, conforming, non_conforming, pct, tuple(disagreements), 0)


def outcome(experiment, model, a, cfg):
    """The report with elapsed_ms zeroed, or the error the experiment raised."""
    try:
        return experiment(model, a, cfg)._replace(elapsed_ms=0)
    except harness.HarnessError as e:
        return type(e), str(e)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("name", ["grain_title", "ico", "quality_tracing", "task_outsourcing"])
def test_run_experiment_matches_per_trace_classification_on_fixtures(name, strict):
    model = load_model(name)
    a = compile_marking(model)
    for seed in (0, 7, 42):
        cfg = ExperimentConfig(seed=seed, strict=strict)
        assert outcome(run_experiment, model, a, cfg) \
            == outcome(reference_report, model, a, cfg), seed


def test_run_experiment_matches_per_trace_classification_on_random_models():
    rng = random.Random(23)
    reports = 0
    for i in range(30):
        model = random_model(rng)
        a = compile_marking(model)
        for strict in (True, False):
            cfg = ExperimentConfig(base_traces=2, mutants_per_base=30, seed=i, strict=strict)
            mine = outcome(run_experiment, model, a, cfg)
            assert mine == outcome(reference_report, model, a, cfg), (i, strict)
            reports += isinstance(mine, Report)
    assert reports >= 40  # the rest run out of mutants on both sides


def test_repeated_trace_gets_a_disagreement_at_every_index(grain_model, grain_automaton,
                                                             monkeypatch):
    cfg = ExperimentConfig(base_traces=2, mutants_per_base=250, seed=42)
    names = experiment_traces(grain_automaton, cfg)
    repeated = next(n for n in names if names.count(n) > 1)
    verdict = harness._TokenGame.verdict

    def flipped(game, trace, strict):
        theirs = verdict(game, trace, strict)
        if trace != repeated:
            return theirs
        return NonConforming(0) if theirs.ok else harness.Conforming()

    monkeypatch.setattr(harness._TokenGame, "verdict", flipped)
    report = run_experiment(grain_model, grain_automaton, cfg)
    expected = [i for i, n in enumerate(names) if n == repeated]
    assert [d.trace_index for d in report.disagreements] == expected
    assert {d.trace for d in report.disagreements} == {repeated}
    assert report.correctness_pct == 100.0 * (len(names) - len(expected)) / len(names)


def oracle_path(model, trace):
    """The oracle's state set after each prefix of trace, from the empty
    one on, each with the states counted against the budget up to it."""
    budget = [10**9]
    start = next(n for n in model.nodes if n.kind == NodeKind.START_EVENT)
    states = _saturate(model, {frozenset(f.id for f in model.outgoing(start.id))}, budget)
    path = [(states, 10**9 - budget[0])]
    for name in trace:
        task = next(n for n in model.nodes if n.display_name == name)
        inc = model.incoming(task.id)[0].id
        produced = frozenset(f.id for f in model.outgoing(task.id))
        states = _saturate(model, {(m - {inc}) | produced for m in states if inc in m},
                           budget)
        path.append((states, 10**9 - budget[0]))
    return path


def oracle_states_needed(model, trace):
    """The states the oracle counts against its budget on this trace."""
    return oracle_path(model, trace)[-1][1]


def hand_bases(monkeypatch, bases):
    """Make run_experiment take bases as its base traces. enumerate_conforming
    spends from the same budget as the oracle, so this leaves the oracle the
    only one spending it."""
    monkeypatch.setattr(harness, "enumerate_conforming",
                        lambda a, max_len, strict, limit: bases[:limit])


def split_with_relays():
    """An AND split into A, behind an automatic relay, and B, followed by
    one, joined in front of C. Until A fires, the oracle's state sets keep
    the markings where A's relay has not fired, so B costs more before A
    than after it; the state set after A and B is the same in either
    order."""
    nodes = [Node("start", NodeKind.START_EVENT), Node("split", NodeKind.AND_GATEWAY),
             Node("ra", NodeKind.AND_GATEWAY), Node("a", NodeKind.USER_TASK, name="A"),
             Node("b", NodeKind.USER_TASK, name="B"), Node("rb", NodeKind.AND_GATEWAY),
             Node("join", NodeKind.AND_GATEWAY), Node("c", NodeKind.USER_TASK, name="C"),
             Node("end", NodeKind.END_EVENT)]
    flows = [SequenceFlow("f1", "start", "split"), SequenceFlow("f2", "split", "ra"),
             SequenceFlow("f3", "ra", "a"), SequenceFlow("f4", "a", "join"),
             SequenceFlow("f5", "split", "b"), SequenceFlow("f6", "b", "rb"),
             SequenceFlow("f7", "rb", "join"), SequenceFlow("f8", "join", "c"),
             SequenceFlow("f9", "c", "end")]
    return build(nodes, flows)


def test_oracle_budget_is_per_trace(grain_model, grain_automaton, monkeypatch, capsys):
    first, second = enumerate_conforming(grain_automaton, 8, limit=2)
    need = oracle_states_needed(grain_model, first)
    hand_bases(monkeypatch, [first, second])
    one = ExperimentConfig(base_traces=1, mutants_per_base=0)
    monkeypatch.setattr(harness, "DEFAULT_STATE_BUDGET", need)
    assert oracle_classify(grain_model, first).ok
    assert run_experiment(grain_model, grain_automaton, one).conforming == 1
    monkeypatch.setattr(harness, "DEFAULT_STATE_BUDGET", need - 1)
    with pytest.raises(HarnessError, match="^oracle state budget exhausted$"):
        oracle_classify(grain_model, first)
    with pytest.raises(HarnessError, match="^oracle state budget exhausted$"):
        run_experiment(grain_model, grain_automaton, one)
    assert main(["conformance", str(FIXTURES / "grain_title.bpmn"),
                 "--bases", "1", "--mutants", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1

    # the two bases share a prefix; each still has the whole budget
    most = max(need, oracle_states_needed(grain_model, second))
    assert most < need + oracle_states_needed(grain_model, second)
    two = ExperimentConfig(base_traces=2, mutants_per_base=0)
    monkeypatch.setattr(harness, "DEFAULT_STATE_BUDGET", most)
    assert run_experiment(grain_model, grain_automaton, two).conforming == 2
    monkeypatch.setattr(harness, "DEFAULT_STATE_BUDGET", most - 1)
    with pytest.raises(HarnessError, match="^oracle state budget exhausted$"):
        run_experiment(grain_model, grain_automaton, two)

    # A, B and B, A reach one oracle state set at different costs, and the
    # second trace takes the edge for C from it that the first computed
    model, a = split_with_relays()
    cheap, dear = ("A", "B", "C"), ("B", "A", "C")
    (ab, _), (ba, _) = oracle_path(model, cheap)[2], oracle_path(model, dear)[2]
    assert ab == ba and ab
    cheap_need, dear_need = oracle_states_needed(model, cheap), oracle_states_needed(model, dear)
    assert cheap_need < dear_need
    hand_bases(monkeypatch, [cheap, dear])
    monkeypatch.setattr(harness, "DEFAULT_STATE_BUDGET", dear_need)
    assert oracle_classify(model, dear).ok
    assert run_experiment(model, a, two).conforming == 2
    monkeypatch.setattr(harness, "DEFAULT_STATE_BUDGET", dear_need - 1)
    assert oracle_classify(model, cheap).ok
    with pytest.raises(HarnessError, match="^oracle state budget exhausted$"):
        oracle_classify(model, dear)
    with pytest.raises(HarnessError, match="^oracle state budget exhausted$"):
        run_experiment(model, a, two)


# --- one computation per (state set, task) edge ------------------------------


def assert_shared_graph_gives_fresh_verdicts(model, a, traces, strict):
    """Classify traces in turn through one graph per classifier, as
    run_experiment does, and each again from a fresh root."""
    replayer, game = harness._Replayer(a), harness._TokenGame(model)
    for names in traces:
        assert replayer.verdict(names, strict) == classify(a, names, strict), names
        assert game.verdict(names, strict) == oracle_classify(model, names, strict), names


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("name", ["grain_title", "ico", "quality_tracing", "task_outsourcing"])
def test_shared_graph_gives_fresh_verdicts_on_fixtures(name, strict):
    model = load_model(name)
    a = compile_marking(model)
    for seed in (0, 7):
        traces = experiment_traces(a, ExperimentConfig(seed=seed, strict=strict))
        assert_shared_graph_gives_fresh_verdicts(model, a, traces, strict)
        assert_shared_graph_gives_fresh_verdicts(model, a, traces[::-1], strict)


@given(seed=st.integers(0, 2**32 - 1), strict=st.booleans())
@example(seed=32719, strict=False)  # one base is (), whose only non-base mutants add Bogus
def test_shared_graph_gives_fresh_verdicts_on_random_models(seed, strict):
    rng = random.Random(seed)
    model = random_model(rng, max_flows=16)
    a = compile_marking(model)
    bases = enumerate_conforming(a, len(a.external), strict=strict, limit=4)
    # an unknown name as well, so that rejections at unknown tasks share nodes
    alphabet = sorted(a.external_names.values()) + ["Bogus"]
    traces = list(bases)
    for base in bases:  # traces to classify, not traces distinct from every base
        traces += harness.mutants(base, rng, 30, alphabet, (base,))
    assert_shared_graph_gives_fresh_verdicts(model, a, traces, strict)


def test_each_edge_is_computed_once_per_experiment(monkeypatch):
    # the replayer steps, and the oracle saturates, once per distinct
    # (state set, task) edge that the experiment's traces reach, where a
    # prefix trie would do so once per distinct prefix
    model = parallel_chain(5)
    a = compile_marking(model)
    cfg = ExperimentConfig(seed=0)
    traces = experiment_traces(a, cfg)
    replay_edges, oracle_edges, prefixes = set(), set(), set()
    for names in traces:
        states = eager_closure_nondet(a, a.initial_marking)
        oracle = oracle_path(model, names)
        for i, name in enumerate(names):
            replay_edges.add((states, name))
            oracle_edges.add((oracle[i][0], name))
            prefixes.add(names[:i + 1])
            states = step(a, states, a.task_id_for(name))
            if not states:
                break

    calls = {"step": 0, "saturate": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    hand_bases(monkeypatch, traces[:cfg.base_traces])
    monkeypatch.setattr(harness, "step", counted("step", step))
    monkeypatch.setattr(harness._TokenGame, "saturate",
                        counted("saturate", harness._TokenGame.saturate))
    report = run_experiment(model, a, cfg)
    assert report.correctness_pct == 100.0
    assert calls["step"] == len(replay_edges)
    assert calls["saturate"] == len(oracle_edges) + 1  # and once for the root
    assert (len(replay_edges), len(oracle_edges), len(prefixes)) == (227, 227, 419)


def _code_objects(obj):
    code = obj.__code__
    stack = [code]
    while stack:
        c = stack.pop()
        yield c
        stack.extend(k for k in c.co_consts if isinstance(k, types.CodeType))


def test_oracle_uses_nothing_from_marking():
    tree = ast.parse(inspect.getsource(harness))
    from_marking = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "marking"
                    for alias in node.names}
    assert {"eager_closure_nondet", "MarkingAutomaton"} <= from_marking
    forbidden = from_marking | {"step", "classify", "_replay", "marking"}
    oracle = [harness.oracle_classify, harness._saturate]
    for attr in vars(harness._TokenGame).values():
        fn = getattr(attr, "func", attr)  # a cached_property wraps its function
        if inspect.isfunction(fn):
            oracle.append(fn)
    assert {f.__name__ for f in oracle} >= {"oracle_classify", "_saturate", "__init__",
                                            "successors", "saturate", "root", "fire",
                                            "verdict"}
    for fn in oracle:
        for code in _code_objects(fn):
            assert not forbidden & set(code.co_names), (fn.__qualname__, code.co_names)
            for name in code.co_names:
                assert getattr(getattr(harness, name, None), "__module__", None) \
                    != "procforge.marking", (fn.__qualname__, name)
