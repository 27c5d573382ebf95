"""The declaration tables of ir.process_scopes, registry.registry_scopes
and registry.token_scopes against what tests/solexec.py reads in the
emitted text: every name the text declares is in the table's scope for
it, and whatever validate_model and parse_registry accept emits no
clash."""

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import solexec
from conftest import FIXTURES, GOLDEN, load_model
from modelgen import (counting_loop_bpmn, random_model, record_calls_bpmn, spinning_loop_bpmn,
                      toggle_loop_bpmn)
from test_cli import GRAIN_TEXT, UPDATE_WEIGHT_EDITS
from test_codegen import ABI_SPECS, PINNED_ATTRIBUTES, REGISTRY_FLAGS

from procforge.bpmn import parse_bpmn
from procforge.codegen import gen_fungible, gen_nonfungible, gen_process
from procforge.ir import (FunctionParameter, ProcessVariableDecl, SmartContractFunctionDecl,
                          TaskInput, clashes, is_identifier, process_scopes, validate_model)
from procforge.marking import compile_marking
from procforge.registry import (FungibleRegistrySpec, InvariantViolation, parse_registry,
                                registry_scopes, token_scopes)

GOLDEN_SPECS = {"grain_title": "grain_title.json", "quality_tracing": "certificate.json"}
LRK_DOC = json.loads((FIXTURES / "lrk.json").read_text())


def process_text(model):
    return gen_process(model, compile_marking(model)).rendered_text


def registry_variants():
    """(spec, emitted text) of each of the 84 flag combinations that
    test_registry_text_is_pinned_for_every_accepted_flag_combination pins."""
    variants = []
    for registry_type in ("single", "distributed"):
        for bits in itertools.product((False, True), repeat=len(REGISTRY_FLAGS)):
            doc = {"name": "Deed Book", "registryType": registry_type,
                   "attributes": PINNED_ATTRIBUTES, **dict(zip(REGISTRY_FLAGS, bits))}
            try:
                spec = parse_registry(json.dumps(doc))
            except InvariantViolation:
                continue
            variants.append((spec, gen_nonfungible(spec).rendered_text))
    return variants


REGISTRY_VARIANTS = registry_variants()


def loop_models():
    return [parse_bpmn(f(after)) for f in (counting_loop_bpmn, toggle_loop_bpmn,
                                           spinning_loop_bpmn) for after in (False, True)] \
        + [parse_bpmn(record_calls_bpmn())]


def units_with_tables():
    """(label, emitted text, table) of every golden unit that has a table,
    the 84 registry variants, the tokens of lrk.json and of ABI_SPECS, and
    the process units of 40 random models and of the loop models."""
    units = []
    for fixture_dir in sorted(GOLDEN.iterdir()):
        model = load_model(fixture_dir.name)
        units.append((f"{fixture_dir.name}/ProcessFactory.sol",
                      (fixture_dir / "ProcessFactory.sol").read_text(), process_scopes(model)))
        if fixture_dir.name in GOLDEN_SPECS:
            spec = parse_registry((FIXTURES / GOLDEN_SPECS[fixture_dir.name]).read_text())
            registry_file = next(fixture_dir.glob("*Registry.sol"))
            units.append((f"{fixture_dir.name}/{registry_file.name}", registry_file.read_text(),
                          registry_scopes(spec)))
    units += [(f"variant {i}", text, registry_scopes(spec))
              for i, (spec, text) in enumerate(REGISTRY_VARIANTS)]
    tokens = [parse_registry(json.dumps(LRK_DOC))] + [
        spec for spec in ABI_SPECS.values() if isinstance(spec, FungibleRegistrySpec)]
    units += [(f"token {i}", gen_fungible(spec).rendered_text, token_scopes(spec.name))
              for i, spec in enumerate(tokens)]
    rng = random.Random(7)
    models = [random_model(rng, max_flows=rng.choice((6, 10, 16))) for _ in range(40)]
    units += [(f"model {i}", process_text(m), process_scopes(m))
              for i, m in enumerate(models + loop_models())]
    return units


def test_the_reader_reads_each_scope_of_a_golden():
    scopes = {s.path: s for s in solexec.read_unit(
        (GOLDEN / "ico" / "ProcessFactory.sol").read_text())}
    assert scopes[()].declares == ["LorikeetCoin", "ProcessFactory", "ProcessMonitor"]
    assert scopes[("LorikeetCoin", "transfer")].declares == ["to", "amount", "success"]
    assert scopes[("ProcessMonitor", "taskExecuted")].hides is False
    claimed = scopes[("ProcessMonitor", "Tokens_claimed")]
    assert claimed.declares == ["preconditionsp", "instanceOfLorikeetCoin"]
    assert {"LorikeetCoin", "addressOfLorikeetCoin", "_investor", "_tokens", "marking",
            "runAutoTransitions", "taskExecuted"} <= claimed.reads
    assert "transfer" not in claimed.reads  # a member, read after a dot
    registry = {s.path: s for s in solexec.read_unit(
        (GOLDEN / "grain_title" / "GrainTitleRegistry.sol").read_text())}
    assert registry[("GrainTitleRegistry", "Record")].declares == [
        "exists", "owner", "weight", "quality"]
    assert registry[("GrainTitleRegistry", "record_get_owner")].declares == [
        "record_id", "record_owner"]
    assert "onlyProcess" in registry[("GrainTitleRegistry", "record_create")].reads


def test_the_reader_refuses_what_codegen_does_not_emit():
    with pytest.raises(solexec.ReadError):
        solexec.read_unit("contract A is B { }")
    with pytest.raises(solexec.ReadError):
        solexec.read_unit("contract A { enum E { X } }")


def test_every_golden_declares_each_name_once_and_reads_only_declared_names():
    for sol in sorted(GOLDEN.rglob("*.sol")):
        scopes = solexec.read_unit(sol.read_text())
        assert solexec.clashes(scopes) == [], sol
        assert solexec.unresolved(scopes) == [], sol


def test_every_emitted_declaration_is_in_the_table():
    for label, text, table in units_with_tables():
        names = {}
        for scope in table:
            names.setdefault(scope.path, set()).update(d.name for d in scope.names)
        for scope in solexec.read_unit(text):
            assert set(scope.declares) <= names.get(scope.path, set()), (label, scope.path)


def test_the_reader_finds_the_clash_of_each_newly_refused_model():
    # each model below validated before the table, and emits text that the
    # reader shows clashing
    text = (FIXTURES / "task_outsourcing.bpmn").read_text()
    edits = [[('<bcext:output name="balance" type="uint256"/>',
               '<bcext:output name="account" type="uint256"/>'),
              ('return="balance"', 'return="account"')]]
    edits += [[('name="LorikeetCoin"', f'name="{name}"')]
              for name in ("marking", "preconditionsp", "runAutoTransitions", "taskExecuted",
                           "instance", "previous")]
    for edit in edits:
        edited = text
        for old, new in edit:
            assert old in edited
            edited = edited.replace(old, new)
        model = parse_bpmn(edited)
        assert not validate_model(model).ok, edit
        assert solexec.clashes(solexec.read_unit(process_text(model))), edit


def test_a_task_calling_one_interface_twice_declares_its_local_once():
    # the swap calls GrainTitleRegistry twice from its one pre-alternative,
    # and the reader keeps one scope per function
    text = GRAIN_TEXT
    for old, new in UPDATE_WEIGHT_EDITS:
        text = text.replace(old, new)
    model = parse_bpmn(text)
    assert validate_model(model).ok
    assert len(compile_marking(model).external["t_swap"].pre_alternatives) == 1
    scopes = solexec.read_unit(process_text(model))
    assert solexec.clashes(scopes) == []
    swap = next(s for s in scopes if s.path == ("ProcessMonitor", "Asset_swap"))
    assert swap.declares.count("instanceOfGrainTitleRegistry") == 1


@pytest.mark.parametrize("name", ["Transfer", "transfer", "Approval", "approval"])
def test_a_token_named_like_its_event_is_refused_at_its_name(name):
    spec = parse_registry(json.dumps(LRK_DOC))._replace(name=name)
    assert solexec.clashes(solexec.read_unit(gen_fungible(spec).rendered_text))
    with pytest.raises(InvariantViolation, match=f"^name: the contract '{name.title()}' is "
                                                 f"hidden by the emitted name '{name.title()}'$"):
        parse_registry(json.dumps({**LRK_DOC, "name": name}))


# --- whatever is accepted emits no clash -----------------------------------


def reader_names():
    """Every name the reader finds declared in the goldens and the registry
    variants, and some keywords."""
    texts = [p.read_text() for p in GOLDEN.rglob("*.sol")] + [t for _, t in REGISTRY_VARIANTS]
    return sorted({n for t in texts for s in solexec.read_unit(t) for n in s.declares}
                  | {"return", "mapping", "keccak256", "this"})


NAMES = st.sampled_from(reader_names())
TASK_OUTSOURCING = load_model("task_outsourcing")


def assert_no_clash(text):
    scopes = solexec.read_unit(text)
    assert solexec.clashes(scopes) == []
    assert solexec.unresolved(scopes) == []


@settings(max_examples=150, deadline=None)
@given(variables=st.lists(NAMES, max_size=2), inputs=st.lists(NAMES, max_size=2),
       interface=NAMES, function=NAMES, params=st.lists(NAMES, max_size=2),
       returns=st.lists(NAMES, max_size=2))
def test_a_model_that_validates_emits_no_clash(variables, inputs, interface, function, params,
                                               returns):
    # task_outsourcing with the names drawn: variables and inputs of the task
    # t_deposit added, its interface renamed and given one more function;
    # and whatever the table refuses the reader shows clashing
    m = TASK_OUTSOURCING
    itf = m.interfaces[0]
    fn = SmartContractFunctionDecl(function, tuple(FunctionParameter(p, "uint256") for p in params),
                                   tuple(FunctionParameter(r, "bool") for r in returns))
    nodes = tuple(n._replace(task_inputs=n.task_inputs + tuple(TaskInput(i, "uint256")
                                                               for i in inputs))
                  if n.id == "t_deposit" else n for n in m.nodes)
    model = dataclasses.replace(
        m, nodes=nodes, interfaces=(itf._replace(name=interface, functions=itf.functions + (fn,)),),
        variables=m.variables + tuple(ProcessVariableDecl(v, "uint256") for v in variables))
    text = process_text(model)
    if validate_model(model).ok:
        assert_no_clash(text)
    # the table reserves instanceOf<I> in every node's function, and solexec
    # reads no keyword as a name
    drawn = variables + inputs + [interface, function] + params + returns
    if clashes(process_scopes(model)) and all(map(is_identifier, drawn)) \
            and not any(n.startswith("instanceOf") for n in drawn):
        assert solexec.clashes(solexec.read_unit(text))


@settings(max_examples=150, deadline=None)
@given(names=st.lists(NAMES, min_size=1, max_size=4),
       attribute_flags=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=4, max_size=4),
       registry_flags=st.lists(st.booleans(), min_size=6, max_size=6),
       spec_name=st.sampled_from(["Deed Book", "Record", "Owner", "Transfer"]))
def test_a_registry_spec_that_parses_emits_no_clash(names, attribute_flags, registry_flags,
                                                    spec_name):
    attributes = [{"name": n, "type": "uint256", "updatable": updatable,
                   "historyTracked": tracked}
                  for n, (updatable, tracked) in zip(names, attribute_flags)]
    for registry_type in ("single", "distributed"):
        doc = {"name": spec_name, "registryType": registry_type, "attributes": attributes,
               **dict(zip(REGISTRY_FLAGS, registry_flags))}
        try:
            spec = parse_registry(json.dumps(doc))
        except InvariantViolation:
            continue
        assert_no_clash(gen_nonfungible(spec).rendered_text)


def test_fungible_units_read_clean():
    spec = parse_registry((FIXTURES / "lrk.json").read_text())
    assert_no_clash(gen_fungible(spec).rendered_text)


@settings(deadline=None)
@given(name=NAMES, mintable=st.booleans(), burnable=st.booleans())
@example(name="Transfer", mintable=True, burnable=True)
def test_a_token_that_parses_emits_no_clash(name, mintable, burnable):
    doc = {**LRK_DOC, "name": name, "isMintable": mintable, "isBurnable": burnable,
           "minterAddresses": ["0x" + "1" * 40] if mintable else [],
           "burnerAddresses": ["0x" + "2" * 40] if burnable else []}
    try:
        spec = parse_registry(json.dumps(doc))
    except InvariantViolation:
        return
    assert_no_clash(gen_fungible(spec).rendered_text)
