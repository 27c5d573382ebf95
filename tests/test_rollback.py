"""Rollback property: after any rejected invocation the instance is exactly
as it was before the call, and after any accepted one no registry still
holds a journal."""

import copy
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import FIXTURES, load_model
from modelgen import counting_loop_bpmn, toggle_loop_bpmn
from procforge.bpmn import parse_bpmn
from procforge.interp import FungibleLedger, NonFungibleStore, new_instance
from procforge.marking import compile_marking
from procforge.registry import FungibleRegistrySpec, parse_registry

LRK = "0xD3E4EBe81b55EA73b559da31ADf2CAc3b254ea11"
TITLE = "0xA9998dBe75D795556eA821E37cD2DE1F373BFd91"
LOOP_LRK = "0x" + "3" * 40
ACCOUNTS = ["0x" + c * 40 for c in "12456"]

MODELS = {
    "grain_title": load_model("grain_title"),
    "task_outsourcing": load_model("task_outsourcing"),
    "loop": parse_bpmn(counting_loop_bpmn(after_task=True)),
    "toggle": parse_bpmn(toggle_loop_bpmn(after_task=True)),
}
AUTOMATA = {name: compile_marking(m) for name, m in MODELS.items()}


def _events(trace):
    lines = (FIXTURES / trace).read_text().splitlines()
    return [(e["task"], e.get("args", {}), e.get("caller"))
            for e in map(json.loads, lines)]


# conforming runs whose prefixes take the random steps deep into each model
PREFIXES = {"grain_title": _events("grain_swap.jsonl"),
            "task_outsourcing": _events("outsourcing_correct.jsonl"),
            "loop": [], "toggle": []}

# the two prices often, so that payments reach the later tasks; -1 is a BadArgument
amounts = st.one_of(st.sampled_from([300, 500]), st.integers(-1, 1200),
                    st.integers(10**3, 10**7))
addresses = st.sampled_from(ACCOUNTS + ["not an address"])
callers = st.one_of(st.none(), st.sampled_from(ACCOUNTS))


def small_ledger(balances):
    return FungibleLedger(FungibleRegistrySpec(
        name="Coin", symbol="C", decimals=0, total_supply=sum(balances),
        initially_distributed_accounts=tuple(zip(ACCOUNTS, balances))))


def make_instance(name, balances):
    model, automaton = MODELS[name], AUTOMATA[name]
    if name in ("loop", "toggle"):
        return new_instance(model, automaton, {"itf_lrk": LOOP_LRK},
                            {LOOP_LRK: small_ledger(balances)})
    registries = {LRK: small_ledger(balances)}
    if name == "grain_title":
        title = parse_registry((FIXTURES / "grain_title.json").read_text())
        registries[TITLE] = NonFungibleStore(title)
    return new_instance(model, automaton, registries=registries)


def observable(inst):
    """Everything a caller can see of the instance, key order included."""
    regs = []
    for address, reg in inst.registries.items():
        if isinstance(reg, FungibleLedger):
            regs.append((address, list(reg.balances.items()),
                         list(reg.allowances.items()), reg.total_supply))
        else:
            regs.append((address, [(key, rec.owner, list(rec.attrs.items()), list(rec.history))
                                   for key, rec in reg.records.items()]))
    return inst.marking, list(inst.env.items()), regs


def enabled_tasks(inst):
    a = inst.automaton
    return sorted(a.external_names[tid] for tid, t in a.external.items()
                  if any(inst.marking & pre == pre for pre in t.pre_alternatives))


def draw_args(data, task):
    args = {}
    for ti in task.task_inputs:
        if data.draw(st.integers(0, 9), label="omit") == 0:
            continue
        args[ti.name] = data.draw(addresses if ti.type == "address" else amounts,
                                  label=ti.name)
    return args


def invoke_checked(inst, task_name, args, caller):
    before = copy.deepcopy(observable(inst))
    journal = list(inst.journal)
    outcome = inst.invoke(task_name, args, caller)
    # every registry writes to the instance's one journal
    assert all(reg.journal is inst.journal for reg in inst.registries.values())
    if outcome.ok:
        assert inst.journal == []
    else:
        assert observable(inst) == before, outcome
        assert inst.journal == journal


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(MODELS)),
       st.lists(st.sampled_from([0, 5, 300, 499, 500, 1000]),
                min_size=len(ACCOUNTS), max_size=len(ACCOUNTS)),
       st.data())
def test_rejected_invocation_leaves_instance_unchanged(name, balances, data):
    inst = make_instance(name, balances)
    prefix = PREFIXES[name]
    cut = data.draw(st.one_of(st.just(len(prefix)), st.integers(0, len(prefix))), label="prefix")
    for event in prefix[:cut]:
        invoke_checked(inst, *event)
    names = sorted(inst.automaton.external_names.values())
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        enabled = enabled_tasks(inst)
        # mostly an enabled task, so that runs get past the first steps
        pool = enabled if enabled and data.draw(st.integers(0, 3), label="pool") else names
        task_name = data.draw(st.sampled_from(pool), label="task")
        task = inst.model.node(inst.automaton.task_id_for(task_name))
        invoke_checked(inst, task_name, draw_args(data, task), data.draw(callers, label="caller"))
