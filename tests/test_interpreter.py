import json
import re

import pytest

from procforge import interp
from procforge.interp import (
    FungibleLedger,
    NonFungibleStore,
    Unauthorized,
    new_instance,
    pseudo_address,
    undo,
)
from procforge.ir import UINT256_MAX, addr_key
from procforge.marking import compile_marking
from procforge.registry import (
    AttributeDecl,
    FungibleRegistrySpec,
    InvariantViolation,
    NonFungibleRegistrySpec,
    parse_registry,
)

A1 = "0x" + "1" * 40
A2 = "0x" + "2" * 40
A3 = "0x" + "3" * 40
MINTER = "0x" + "e" * 40


def ledger(**kw):
    parts = dict(name="Coin", symbol="C", decimals=0, total_supply=100,
                 initially_distributed_accounts=((A1, 100),))
    parts.update(kw)
    return FungibleLedger(FungibleRegistrySpec(**parts))


def conserved(lg):
    return sum(lg.balances.values()) == lg.total_supply


def test_transfer_and_conservation():
    lg = ledger()
    lg.transfer(A1, A2, 40)
    assert lg.balance_of(A1) == 60 and lg.balance_of(A2) == 40
    assert conserved(lg)


def test_transfer_insufficient():
    lg = ledger()
    with pytest.raises(interp.RegistryError, match=f"^{A2} holds 0, needs 1$"):
        lg.transfer(A2, A1, 1)
    assert conserved(lg)


def test_approve_transfer_from():
    lg = ledger()
    lg.approve(A1, A2, 30)
    assert lg.allowance(A1, A2) == 30
    lg.transfer_from(A2, A1, A3, 25)
    assert lg.balance_of(A3) == 25 and lg.allowance(A1, A2) == 5
    with pytest.raises(interp.RegistryError, match="^allowance 5 < 6$"):
        lg.transfer_from(A2, A1, A3, 6)
    assert conserved(lg)


def test_mint_requires_authorization():
    lg = ledger(is_mintable=True, minter_addresses=(MINTER,))
    lg.mint(MINTER, A2, 50)
    assert lg.total_supply == 150 and conserved(lg)
    with pytest.raises(Unauthorized):
        lg.mint(A1, A2, 1)


def test_mint_past_uint256_is_refused_before_any_write():
    # the emitted token requires totalSupply + value >= totalSupply, and no
    # balance exceeds the total, so neither wraps modulo 2**256
    lg = ledger(is_mintable=True, minter_addresses=(MINTER,))
    mark = len(lg.journal)
    with pytest.raises(interp.RegistryError,
                       match=f"^minting {UINT256_MAX - 99} overflows totalSupply 100$"):
        lg.mint(MINTER, A2, UINT256_MAX - 99)
    assert len(lg.journal) == mark and lg.total_supply == 100
    assert lg.balances == {addr_key(A1): 100}
    lg.mint(MINTER, A1, UINT256_MAX - 100)
    assert lg.total_supply == lg.balance_of(A1) == UINT256_MAX and conserved(lg)
    with pytest.raises(interp.RegistryError):
        lg.mint(MINTER, A2, 1)
    lg.mint(MINTER, A2, 0)
    assert lg.total_supply == UINT256_MAX and conserved(lg)


MINT_BPMN = """<?xml version="1.0" encoding="UTF-8"?>
<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"
             xmlns:bcext="urn:procforge:bcext:1" id="defs_mint">
  <process id="mint">
    <extensionElements>
      <bcext:smartContractInterface id="itf_lrk" name="LorikeetCoin">
        <bcext:function name="mint">
          <bcext:input name="to" type="address"/>
          <bcext:input name="value" type="uint256"/>
          <bcext:output name="success" type="bool"/>
        </bcext:function>
      </bcext:smartContractInterface>
      <bcext:invocation sourceTask="t_grant" targetInterface="itf_lrk" fnName="mint">
        <bcext:bindIn param="to" source="holder"/>
        <bcext:bindIn param="value" source="amount"/>
      </bcext:invocation>
      <bcext:invocation sourceTask="s_fee" targetInterface="itf_lrk" fnName="mint">
        <bcext:bindIn param="to" source="0x1111111111111111111111111111111111111111"/>
        <bcext:bindIn param="value" source="1"/>
      </bcext:invocation>
    </extensionElements>
    <startEvent id="start"/>
    <userTask id="t_grant" name="Grant">
      <extensionElements>
        <bcext:input name="holder" type="address"/>
        <bcext:input name="amount" type="uint256"/>
      </extensionElements>
    </userTask>
    <scriptTask id="s_fee" name="Fee"/>
    <userTask id="t_done" name="Done"/>
    <endEvent id="end"/>
    <sequenceFlow id="f1" sourceRef="start" targetRef="t_grant"/>
    <sequenceFlow id="f2" sourceRef="t_grant" targetRef="s_fee"/>
    <sequenceFlow id="f3" sourceRef="s_fee" targetRef="t_done"/>
    <sequenceFlow id="f4" sourceRef="t_done" targetRef="end"/>
  </process>
</definitions>
"""


def test_invoke_rolls_back_a_mint_whose_second_call_passes_uint256():
    # "Grant", called by A2, mints amount to holder, then the script "Fee",
    # called by the process, mints 1 to A1: when the fee would pass
    # 2**256 - 1, the first mint is undone too
    from procforge.bpmn import parse_bpmn
    from procforge.ir import validate_model
    model = parse_bpmn(MINT_BPMN)
    assert validate_model(model).ok
    lg = ledger(is_mintable=True, minter_addresses=(A2, pseudo_address("process:mint:0")))
    inst = new_instance(model, compile_marking(model), {"itf_lrk": A3}, {A3: lg})
    before = _ledger_state(inst, A3)
    outcome = inst.invoke("Grant", {"holder": A2, "amount": UINT256_MAX - 100}, A2)
    assert not outcome.ok and outcome.reason == "RegistryError"
    assert outcome.detail == "minting 1 overflows totalSupply " + str(UINT256_MAX)
    assert _ledger_state(inst, A3) == before
    assert inst.invoke("Grant", {"holder": A2, "amount": UINT256_MAX - 101}, A2).ok
    assert lg.total_supply == UINT256_MAX and conserved(lg)
    assert (lg.balance_of(A1), lg.balance_of(A2)) == (101, UINT256_MAX - 101)


def test_burn():
    lg = ledger(is_burnable=True, burner_addresses=(MINTER,))
    lg.burn(MINTER, A1, 30)
    assert lg.total_supply == 70 and conserved(lg)
    with pytest.raises(interp.RegistryError, match=f"^cannot burn 1 from {A2}$"):
        lg.burn(MINTER, A2, 1)


def test_address_keys_case_insensitive():
    lg = ledger()
    lg.transfer(A1.upper().replace("0X", "0x"), A2, 10)
    assert lg.balance_of(A2.upper().replace("0X", "0x")) == 10


def test_two_spellings_of_one_address_are_refused_as_parse_registry_refuses_them():
    # the emitted constructor would set the second balance over the first
    lower, upper = "0x" + "a" * 40, "0x" + "A" * 40
    dist = ((A1, 60), (lower, 30), (A2, 0), (upper, 10))
    with pytest.raises(InvariantViolation) as ours:
        ledger(initially_distributed_accounts=dist)
    with pytest.raises(InvariantViolation) as parsed:
        parse_registry(json.dumps({
            "name": "Coin", "symbol": "C", "decimals": 0, "totalSupply": "100",
            "initiallyDistributedAccounts": [{"address": a, "amount": str(n)}
                                             for a, n in dist]}))
    assert str(ours.value) == str(parsed.value) == \
        f"initiallyDistributedAccounts[3]: duplicate address {upper}"


def test_a_distribution_off_total_supply_is_refused_as_parse_registry_refuses_it():
    # a hand-built spec of 7 out of 100 would give a ledger summing to 7
    dist = ((A1, 7),)
    with pytest.raises(InvariantViolation) as ours:
        ledger(initially_distributed_accounts=dist)
    with pytest.raises(InvariantViolation) as parsed:
        parse_registry(json.dumps({
            "name": "Coin", "symbol": "C", "decimals": 0, "totalSupply": "100",
            "initiallyDistributedAccounts": [{"address": a, "amount": str(n)}
                                             for a, n in dist]}))
    assert str(ours.value) == str(parsed.value) == \
        "initiallyDistributedAccounts: distribution ≠ totalSupply"
    assert conserved(ledger(initially_distributed_accounts=((A1, 93), (A2, 7))))


@pytest.mark.parametrize("fn, args, caller", [
    ("transfer", [A2, -1], A1),
    ("approve", [A2, -1], A1),
    ("mint", [A2, -1], MINTER),
], ids=["transfer", "approve", "mint"])
def test_a_negative_amount_is_refused_and_changes_no_balance(fn, args, caller):
    # the ABI check refuses a negative uint256 before the ledger sees it
    lg = ledger(is_mintable=True, minter_addresses=(MINTER,))
    before = (dict(lg.balances), dict(lg.allowances), lg.total_supply)
    with pytest.raises(interp.RegistryError, match=f"^{fn} takes "):
        interp._dispatch(lg, fn, args, caller)
    assert (dict(lg.balances), dict(lg.allowances), lg.total_supply) == before


# --- record store ------------------------------------------------------------


def store(**kw):
    parts = dict(
        name="Title", registry_type="single",
        attributes=(AttributeDecl("weight", "uint256", history_tracked=True),
                    AttributeDecl("note", "string", updatable=True)),
        is_ownership_transfer_enabled=True)
    parts.update(kw)
    return NonFungibleStore(NonFungibleRegistrySpec(**parts))


def test_record_lifecycle():
    s = store()
    s.record_create(A1, A3, 10, "n")
    assert s.record_get_owner(A3) == A1
    assert s.record_get_attrs(A3) == (10, "n")
    s.record_update(A1, A3, s.spec.attributes[1], "updated")
    assert s.record_get_attrs(A3) == (10, "updated")
    s.record_ownership_transfer(A1, A3, A2)
    assert s.record_get_owner(A3) == A2


def test_duplicate_and_unknown_records():
    s = store()
    s.record_create(A1, A3, 1, "")
    with pytest.raises(interp.RegistryError, match=f"^record {A3} already exists$"):
        s.record_create(A1, A3, 1, "")
    with pytest.raises(interp.RegistryError, match=f"^no record {A2}$"):
        s.record_get_owner(A2)


def test_attrs_must_match_declaration():
    s = store()
    with pytest.raises(interp.RegistryError, match="^record_create takes "):
        interp._dispatch(s, "record_create", [A3, 1], A1)
    with pytest.raises(interp.RegistryError, match="^record_create takes "):
        interp._dispatch(s, "record_create", [A3, 1, "", "extra"], A1)
    assert not s.records


def test_history_tracking():
    s = store(attributes=(AttributeDecl("note", "string", updatable=True,
                                        history_tracked=True),))
    s.record_create(A1, A3, "a")
    s.record_update(A1, A3, s.spec.attributes[0], "b")
    rec = s.records[A3]
    assert rec.history == (("note", "a"), ("note", "b"))


def test_dispatch_calls_through_the_function_tables():
    lg, s = ledger(), store()
    assert interp._dispatch(lg, "transfer", [A2, 40], A1) == (True,)
    assert interp._dispatch(lg, "approve", [A3, 5], A2) == (True,)
    assert interp._dispatch(lg, "transferFrom", [A2, A3, 5], A3) == (True,)
    assert interp._dispatch(lg, "balanceOf", [A3], A1) == (5,)
    assert interp._dispatch(lg, "allowance", [A2, A3], A1) == (0,)
    assert [interp._dispatch(lg, fn, [], A1)[0]
            for fn in ("totalSupply", "name", "symbol", "decimals")] == [100, "Coin", "C", 0]
    assert interp._dispatch(s, "record_create", [A3, 7, "n"], A1) == ()
    assert interp._dispatch(s, "record_get_owner", [A3], A2) == (A1,)
    assert interp._dispatch(s, "record_update_note", [A3, "m"], A1) == ()
    assert interp._dispatch(s, "record_get_attrs", [A3], A2) == (7, "m")
    assert interp._dispatch(s, "record_ownership_transfer", [A3, A2], A1) == ()
    assert s.record_get_owner(A3) == A2


# as the emitted registries, a ledger has mint and burn only when enabled,
# and a record registry has record_ownership_transfer only when enabled and
# record_update_<attr> only for an updatable attribute
REGISTRIES = {"token": ledger, "record": store,
              "fixed-record": lambda: store(is_ownership_transfer_enabled=False)}


@pytest.mark.parametrize("registry, fn, args, message", [
    ("token", "ownerOf", [A1], "token registry has no function 'ownerOf'"),
    ("record", "ownerOf", [A1], "record registry has no function 'ownerOf'"),
    ("record", "record_update_colour", [A1, 1], "record registry has no function "
                                                 "'record_update_colour'"),
    ("token", "transfer", [A1], f"transfer takes (address, uint256), got ('{A1}',)"),
    ("token", "balanceOf", [5], "balanceOf takes (address), got (5,)"),
    ("record", "record_create", [A3, "n", 7],
     f"record_create takes (address, uint256, string), got ('{A3}', 'n', 7)"),
    ("record", "record_create", [A3, 1],
     f"record_create takes (address, uint256, string), got ('{A3}', 1)"),
    ("token", "mint", [A1, 1], "token registry has no function 'mint'"),
    ("token", "burn", [A1, 1], "token registry has no function 'burn'"),
    ("record", "record_update_weight", [A3, 8], "record registry has no function "
                                                "'record_update_weight'"),
    ("fixed-record", "record_ownership_transfer", [A3, A2],
     "record registry has no function 'record_ownership_transfer'"),
])
def test_dispatch_rejects_calls_the_registry_cannot_take(registry, fn, args, message):
    reg = REGISTRIES[registry]()
    with pytest.raises(interp.RegistryError) as exc:
        interp._dispatch(reg, fn, args, A1)
    assert type(exc.value) is interp.RegistryError and str(exc.value) == message


def test_bpmn_restriction_and_process_transfer():
    s = store(is_record_creation_restricted_to_bpmn=True,
              is_ownership_transfer_enabled_to_bpmn=True)
    proc = pseudo_address("proc")
    s.process_address = proc
    with pytest.raises(Unauthorized):
        s.record_create(A1, A3, 1, "")
    s.record_create(proc, A3, 1, "")
    # the bound process may move records it does not own
    s.record_ownership_transfer(proc, A3, A2)
    assert s.record_get_owner(A3) == A2
    with pytest.raises(Unauthorized):
        s.record_ownership_transfer(A1, A3, A1)


def test_only_the_bound_process_updates_a_record_when_creation_is_restricted():
    # grain_title.json restricts record creation to the process, and so
    # every update: not even the record's owner may update it
    from conftest import FIXTURES
    doc = json.loads((FIXTURES / "grain_title.json").read_text())
    doc["attributes"][0]["updatable"] = True
    s = NonFungibleStore(parse_registry(json.dumps(doc)))
    proc = pseudo_address("proc")
    s.process_address = proc
    s.record_create(proc, A3, 10, 2)
    s.record_ownership_transfer(proc, A3, A1)
    before = s.records[A3]
    with pytest.raises(Unauthorized,
                       match="^record updates are restricted to the bound process$"):
        interp._dispatch(s, "record_update_weight", [A3, 11], A1)
    assert s.records[A3] == before
    assert interp._dispatch(s, "record_update_weight", [A3, 11], proc) == ()
    assert s.record_get_attrs(A3) == (11, 2)


def test_record_access_control():
    s = store(is_registry_record_access_control_enabled=True)
    s.record_create(A1, A3, 1, "")
    with pytest.raises(Unauthorized):
        s.record_update(A2, A3, s.spec.attributes[1], "x")
    s.record_update(A1, A3, s.spec.attributes[1], "x")


def test_pseudo_address_shape_and_determinism():
    a = pseudo_address("x")
    assert a.startswith("0x") and len(a) == 42
    assert a == pseudo_address("x") and a != pseudo_address("y")


def test_ledger_rollback_restores_writes_in_order():
    lg = ledger(is_mintable=True, minter_addresses=(MINTER,),
                is_burnable=True, burner_addresses=(MINTER,))
    before = (list(lg.balances.items()), list(lg.allowances.items()), lg.total_supply)
    mark = len(lg.journal)
    lg.approve(A1, A2, 30)
    lg.transfer_from(A2, A1, A3, 25)
    lg.mint(MINTER, A2, 50)
    lg.burn(MINTER, A1, 10)
    lg.transfer(A3, A1, 5)
    undo(lg.journal, mark)
    assert (list(lg.balances.items()), list(lg.allowances.items()), lg.total_supply) == before
    assert len(lg.journal) == mark


def test_store_rollback_restores_records():
    s = store(attributes=(AttributeDecl("note", "string", updatable=True,
                                        history_tracked=True),))
    s.record_create(A1, A3, "a")
    kept = s.records[A3]
    mark = len(s.journal)
    note = s.spec.attributes[0]
    s.record_update(A1, A3, note, "b")
    s.record_ownership_transfer(A1, A3, A2)
    s.record_create(A1, A2, "c")
    s.record_update(A1, A2, note, "d")
    assert (kept.owner, kept.attrs, kept.history) == (A1, {"note": "a"}, (("note", "a"),))
    undo(s.journal, mark)
    assert list(s.records) == [A3] and s.records[A3] is kept


# --- instances ---------------------------------------------------------------


def grain_registries():
    from conftest import FIXTURES
    lrk = FungibleLedger(parse_registry((FIXTURES / "lrk.json").read_text()))
    title = NonFungibleStore(parse_registry((FIXTURES / "grain_title.json").read_text()))
    return {
        "0xD3E4EBe81b55EA73b559da31ADf2CAc3b254ea11": lrk,
        "0xA9998dBe75D795556eA821E37cD2DE1F373BFd91": title,
    }


BUYER = "0x" + "2" * 40
SWAP_EVENTS = [
    ("Registration request submitted", {}, None),
    ("Grain sample taken", {}, None),
    ("Grain quality evaluated", {"quality": 8}, None),
    ("Truck carrying grain is weighed", {"weightGross": 12000}, None),
    ("Grain dropped at silo", {}, None),
    ("Truck is weighed again", {"weightTare": 7000}, None),
    ("Interest to buy title expressed", {"deposit": 500, "buyer": BUYER}, BUYER),
    ("Asset Swap", {}, None),
]


def test_grain_swap_end_state(grain_model, grain_automaton):
    inst = new_instance(grain_model, grain_automaton, registries=grain_registries())
    for task, args, caller in SWAP_EVENTS:
        assert inst.invoke(task, args, caller).ok
    assert inst.marking == 0
    title = inst.registries[addr_key("0xA9998dBe75D795556eA821E37cD2DE1F373BFd91")]
    lrk = inst.registries[addr_key("0xD3E4EBe81b55EA73b559da31ADf2CAc3b254ea11")]
    assert title.record_get_owner(inst.env["titleId"]) == BUYER
    assert lrk.balance_of("0x" + "1" * 40) == 500  # farmer got the price
    assert lrk.balance_of(BUYER) == 200000 - 500


def test_out_of_order_task_rejected_without_side_effects(grain_model, grain_automaton):
    inst = new_instance(grain_model, grain_automaton, registries=grain_registries())
    before = inst.marking
    outcome = inst.invoke("Grain quality evaluated", {"quality": 1})
    assert not outcome.ok and outcome.reason == "NotEnabled"
    assert inst.marking == before
    assert inst.marking != 0 and not inst.event_log[-1].outcome.ok
    assert inst.event_log[-1].task == "Grain quality evaluated"


def test_failed_registry_call_rolls_back_marking(grain_model, grain_automaton):
    inst = new_instance(grain_model, grain_automaton, registries=grain_registries())
    for task, args, caller in SWAP_EVENTS[:6]:
        assert inst.invoke(task, args, caller).ok
    before_marking = inst.marking
    lrk = inst.registries[addr_key("0xD3E4EBe81b55EA73b559da31ADf2CAc3b254ea11")]
    before_balance = lrk.balance_of(BUYER)
    # deposit larger than the buyer's balance: transfer fails inside the task
    outcome = inst.invoke("Interest to buy title expressed",
                          {"deposit": 10**9, "buyer": BUYER}, BUYER)
    assert not outcome.ok and outcome.reason == "RegistryError"
    assert inst.marking == before_marking
    lrk = inst.registries[addr_key("0xD3E4EBe81b55EA73b559da31ADf2CAc3b254ea11")]
    assert lrk.balance_of(BUYER) == before_balance
    # the instance still accepts the correct continuation
    assert inst.invoke("Interest to buy title expressed",
                       {"deposit": 500, "buyer": BUYER}, BUYER).ok


def test_unknown_task_raises(grain_model, grain_automaton):
    inst = new_instance(grain_model, grain_automaton, registries=grain_registries())
    with pytest.raises(interp.InstanceError,
                       match="^'No such task' is not an external task of the model$"):
        inst.invoke("No such task")


@pytest.mark.parametrize("caller", ['not "an" address', "", A1 + "\n", "0x" + "1" * 39 + "١"],
                         ids=["words", "empty", "newline-after", "arabic-indic-digit"])
def test_a_caller_that_is_not_an_address_is_refused_before_any_write(outsourcing_model, caller):
    from conftest import FIXTURES
    lg = FungibleLedger(parse_registry((FIXTURES / "lrk.json").read_text()))
    inst = new_instance(outsourcing_model, compile_marking(outsourcing_model),
                        registries={"0xD3E4EBe81b55EA73b559da31ADf2CAc3b254ea11": lg})
    before = dict(lg.balances)
    deposit = {"amount": 0, "requester": "0x" + "5" * 40}
    with pytest.raises(interp.InstanceError,
                       match=f"^caller {re.escape(repr(caller))} is not 0x \\+ 40 hex digits$"):
        inst.invoke("Deposit payment", deposit, caller)
    assert lg.balances == before and inst.event_log == [] and inst.journal == []
    # the refused call left the instance as it was, and None is the process
    assert inst.invoke("Deposit payment", deposit, None).ok
    assert list(lg.balances) == list(before) + [inst.process_address]


def test_missing_address_binding():
    from conftest import load_model
    model = load_model("grain_title_unbound")
    automaton = compile_marking(model)
    with pytest.raises(interp.InstanceError,
                       match="^interface 'itf_lrk' has no contractAddress and no binding$"):
        new_instance(model, automaton, registries=grain_registries())


def test_unknown_registry_address(grain_model, grain_automaton):
    with pytest.raises(interp.InstanceError,
                       match="^no simulated registry at 0xD3E4EBe81b55EA73b559da31ADf2CAc3b254ea11 "
                             "for interface 'itf_lrk'$"):
        new_instance(grain_model, grain_automaton, registries={})


def test_instance_address_is_derived_from_the_process_id(grain_model, grain_automaton):
    inst = new_instance(grain_model, grain_automaton, registries=grain_registries())
    assert inst.process_address == pseudo_address("process:grain_title:0")


def _ledger_state(inst, address):
    lg = inst.registries[addr_key(address)]
    return inst.marking, dict(inst.env), dict(lg.balances), dict(lg.allowances), lg.total_supply


def test_nonterminating_closure_rolls_back_invoke():
    from modelgen import toggle_loop_bpmn
    from procforge.bpmn import parse_bpmn
    model = parse_bpmn(toggle_loop_bpmn(after_task=True))
    inst = new_instance(model, compile_marking(model), {"itf_lrk": A3},
                        {A3: ledger(initially_distributed_accounts=((A2, 100),))})
    before = _ledger_state(inst, A3)
    # "Go" pays 5 to A1 before the loop behind it exhausts the closure
    outcome = inst.invoke("Go", {}, A2)
    assert not outcome.ok and outcome.reason == "NonTerminatingClosure"
    assert _ledger_state(inst, A3) == before


def test_types_resolved_once_at_compile(monkeypatch):
    # each guard and script statement is typed once per model, however many
    # of validate_model, compile_marking, gen_process and the interpreter
    # read it; each node's function name is sanitized once
    from collections import Counter

    from conftest import load_model
    from procforge import codegen, ir
    from procforge.ir import TASK_KINDS, NodeKind, validate_model

    compiled, sanitized = Counter(), []
    real_compile, real_sanitize = ir.compile_expr, ir.sanitize_identifier

    def counting_compile(e, types):
        compiled[id(e)] += 1
        return real_compile(e, types)

    def counting_sanitize(name):
        sanitized.append(name)
        return real_sanitize(name)

    monkeypatch.setattr(ir, "compile_expr", counting_compile)
    monkeypatch.setattr(ir, "sanitize_identifier", counting_sanitize)
    model = load_model("ico")  # a fresh model: nothing typed yet
    guards = [f.condition for f in model.flows if f.condition is not None]
    statements = [st.value for n in model.nodes for st in n.script]
    assert guards and len(statements) == 2

    assert validate_model(model).ok
    automaton = compile_marking(model)
    codegen.gen_process(model, automaton)
    process = pseudo_address("process:ico:0")
    inst = new_instance(model, automaton, {"itf_lrk": A3},
                        {A3: ledger(total_supply=10**6,
                                    initially_distributed_accounts=((process, 10**6),))})
    for _ in range(3):
        assert inst.invoke("Investment received", {"amount": 100, "investor": A2}).ok
        assert inst.invoke("Tokens claimed", {}).ok
    assert inst.env["amountRaised"] == 300
    assert inst.registries[addr_key(A3)].balance_of(A2) == 3 * 100 * 100
    assert [compiled[id(e)] for e in guards + statements] == [1] * (len(guards) + 2)
    # every node but the start event and the folded gateways emits a function
    emitting = [n.display_name if n.kind in TASK_KINDS else n.id for n in model.nodes
                if n.kind != NodeKind.START_EVENT and n.id not in automaton.folded]
    assert automaton.folded and sorted(sanitized) == sorted(emitting)


def test_rollback_keeps_registry_objects():
    from modelgen import toggle_loop_bpmn
    from procforge.bpmn import parse_bpmn
    model = parse_bpmn(toggle_loop_bpmn(after_task=True))
    lg = ledger(initially_distributed_accounts=((A2, 100),))
    inst = new_instance(model, compile_marking(model), {"itf_lrk": A3}, {A3: lg})
    # "Go" pays 5 before the closure fails; the rollback undoes it in place
    assert inst.invoke("Go", {}, A2).reason == "NonTerminatingClosure"
    assert inst.registries[addr_key(A3)] is lg
    assert lg.balance_of(A2) == 100


def test_invoke_copies_no_registry(monkeypatch, outsourcing_model):
    import copy
    requester, worker = "0x" + "5" * 40, "0x" + "4" * 40
    accounts = tuple((f"0x{i:040x}", 1) for i in range(1, 10**5)) + ((requester, 300),)
    lg = ledger(total_supply=10**5 - 1 + 300, initially_distributed_accounts=accounts)
    address = "0xD3E4EBe81b55EA73b559da31ADf2CAc3b254ea11"
    inst = new_instance(outsourcing_model, compile_marking(outsourcing_model),
                        registries={address: lg})

    def no_copy(*args, **kwargs):
        raise AssertionError("invoke copied an object")

    monkeypatch.setattr(copy, "deepcopy", no_copy)
    monkeypatch.setattr(copy, "copy", no_copy)
    deposit = {"amount": 10**9, "requester": requester}
    outcome = inst.invoke("Deposit payment", deposit, requester)
    assert not outcome.ok and outcome.reason == "RegistryError"
    assert lg.balance_of(requester) == 300
    assert inst.invoke("Deposit payment", dict(deposit, amount=300), requester).ok
    assert inst.invoke("Task completed", {}, worker).ok
    assert inst.marking == 0
    assert (lg.balance_of(requester), lg.balance_of(worker)) == (0, 300)
    assert lg.balance_of(inst.process_address) == 0 and conserved(lg)


def test_bound_calls_follow_parameter_and_return_order():
    from modelgen import record_calls_bpmn
    from procforge.bpmn import parse_bpmn
    from procforge.ir import validate_model
    model = parse_bpmn(record_calls_bpmn())
    assert validate_model(model).ok
    store = NonFungibleStore(NonFungibleRegistrySpec(
        name="Titles", registry_type="single",
        attributes=(AttributeDecl("weight", "uint256"), AttributeDecl("quality", "uint256"))))
    titles = "0x" + "7" * 40
    inst = new_instance(model, compile_marking(model), registries={titles: store})
    assert inst.invoke("Register", {"id": A1, "kg": 12000, "grade": 8}, A2).ok
    assert store.records[A1].attrs == {"weight": 12000, "quality": 8}
    assert store.records[A1].owner == A2
    assert inst.env["q"] == 8
