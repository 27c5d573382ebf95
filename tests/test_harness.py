import json
import random

import pytest

from procforge.harness import (
    BudgetExceeded,
    ExperimentConfig,
    MutationExhausted,
    NonConforming,
    TraceEvent,
    TraceSyntaxError,
    classify,
    enumerate_conforming,
    mutate,
    oracle_classify,
    parse_trace,
    report_to_json,
    run_experiment,
    write_trace,
)
from procforge.ir import Node, NodeKind, ProcessModel, SequenceFlow
from procforge.marking import compile_marking

from modelgen import random_model


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


def names(trace):
    return [ev.task for ev in trace]


def test_trace_io_roundtrip():
    text = ('{"task": "A", "args": {"x": 1}, "caller": "0x' + "a" * 40 + '"}\n'
            '{"task": "B"}\n')
    trace = parse_trace(text)
    assert trace[0].args_dict == {"x": 1}
    assert trace[1].args is None
    assert parse_trace(write_trace(trace)) == trace


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
    assert [names(t) for t in traces] == [["A", "B", "C"]]


def test_enumerate_and_split_two_interleavings():
    _, a = and_split_bc()
    traces = enumerate_conforming(a, 3)
    assert sorted(names(t) for t in traces) == [["A", "B", "C"], ["A", "C", "B"]]


def test_enumerate_prefix_mode_includes_prefixes():
    _, a = linear_abc()
    traces = enumerate_conforming(a, 2, strict=False)
    assert sorted(names(t) for t in traces) == [[], ["A"], ["A", "B"]]


def test_enumerate_grain_has_swap_and_refund_paths(grain_automaton):
    traces = enumerate_conforming(grain_automaton, len(grain_automaton.external))
    assert len(traces) == 20  # 10 interleavings x 2 XOR outcomes
    finals = {names(t)[-1] for t in traces}
    assert finals == {"Asset Swap", "Refund"}


def test_enumerate_budget():
    _, a = and_split_bc()
    with pytest.raises(BudgetExceeded):
        enumerate_conforming(a, 3, state_budget=1)


def test_classify_base_traces_conforming(grain_model, grain_automaton):
    for base in enumerate_conforming(grain_automaton, 8)[:2]:
        assert classify(grain_model, grain_automaton, base).ok
        assert oracle_classify(grain_model, base).ok


def test_classify_title_before_quality_rejected(grain_model, grain_automaton):
    # move the buy-interest step (which needs the created title) before the
    # quality evaluation that the title creation waits for
    bad = tuple(TraceEvent(n) for n in [
        "Registration request submitted", "Grain sample taken",
        "Truck carrying grain is weighed", "Grain dropped at silo",
        "Truck is weighed again", "Interest to buy title expressed",
        "Grain quality evaluated", "Asset Swap"])
    verdict = classify(grain_model, grain_automaton, bad)
    assert verdict == NonConforming(5)
    assert not oracle_classify(grain_model, bad).ok


def test_classify_empty_strict_is_end_not_reached(grain_model, grain_automaton):
    verdict = classify(grain_model, grain_automaton, ())
    assert verdict == NonConforming(None) and verdict.end_not_reached
    assert verdict.label() == "NonConforming(EndNotReached)"
    assert classify(grain_model, grain_automaton, (), strict=False).ok


def test_classify_unknown_task_name(grain_model, grain_automaton):
    t = (TraceEvent("Registration request submitted"), TraceEvent("Bogus"))
    assert classify(grain_model, grain_automaton, t) == NonConforming(1)
    assert oracle_classify(grain_model, t) == NonConforming(1)


def test_classify_data_mode_uses_interpreter(grain_model, grain_automaton):
    from procforge.interp import new_instance
    from test_interpreter import SWAP_EVENTS, grain_registries
    trace = tuple(TraceEvent.make(t, a, c) for t, a, c in SWAP_EVENTS)

    def fresh():
        return new_instance(grain_model, grain_automaton,
                            registries=grain_registries())

    instance = fresh()
    assert classify(grain_model, grain_automaton, trace, instance=instance).ok
    assert [e.outcome.ok for e in instance.event_log] == [True] * len(trace)
    # wrong deposit: the refund path is forced, so Asset Swap is rejected
    events = list(SWAP_EVENTS)
    events[6] = ("Interest to buy title expressed",
                 {"deposit": 1, "buyer": "0x" + "2" * 40}, "0x" + "2" * 40)
    bad = tuple(TraceEvent.make(t, a, c) for t, a, c in events)
    instance = fresh()
    assert classify(grain_model, grain_automaton, bad,
                    instance=instance) == NonConforming(7)
    assert len(instance.event_log) == 8  # replay stops at the rejected event


# --- mutation ----------------------------------------------------------------


AB = (TraceEvent("a"), TraceEvent("b"))


def test_swap_on_two_events():
    rng = random.Random(0)
    out = mutate(AB, rng, (0, 0, 1), ["a", "b"], bases=[AB])
    assert names(out) == ["b", "a"]


def test_remove_resamples_on_empty():
    rng = random.Random(0)
    single = (TraceEvent("a"),)
    out = mutate(single, rng, (0, 1, 0), ["a"], bases=[single])
    assert out == ()


def test_mutation_exhausted():
    single = (TraceEvent("a"),)
    # only possible removal result is (), which equals a base
    with pytest.raises(MutationExhausted):
        mutate(single, random.Random(0), (0, 1, 0), ["a"], bases=[single, ()])


def test_mutants_never_equal_bases(grain_automaton):
    bases = enumerate_conforming(grain_automaton, 8)[:2]
    rng = random.Random(42)
    alphabet = sorted(grain_automaton.external_names.values())
    for _ in range(200):
        m = mutate(bases[0], rng, (1, 1, 1), alphabet, bases)
        assert m not in bases


def test_mutation_deterministic_for_seed(grain_automaton):
    bases = enumerate_conforming(grain_automaton, 8)[:2]
    alphabet = sorted(grain_automaton.external_names.values())
    a = [mutate(bases[0], random.Random(42), (1, 1, 1), alphabet, bases)
         for _ in range(1)]
    b = [mutate(bases[0], random.Random(42), (1, 1, 1), alphabet, bases)
         for _ in range(1)]
    assert a == b


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(operator_weights=(0, 0, 0))
    with pytest.raises(ValueError):
        ExperimentConfig(operator_weights=(-1, 1, 1))
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
            t = mutate(base, rng, (1, 1, 1), alphabet, bases=[]) \
                if base or alphabet else ()
            assert classify(model, a, t).ok == oracle_classify(model, t).ok
