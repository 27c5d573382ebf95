import dataclasses
import hashlib
import itertools
import json
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from procforge.codegen import (
    gen_fungible,
    gen_nonfungible,
    gen_process,
    render_expr,
)
from procforge.bpmn import parse_bpmn
from procforge.interp import FungibleLedger, NonFungibleStore
from procforge.ir import (
    VALUE_TYPES,
    BinOp,
    Lit,
    Node,
    NodeKind,
    ProcessModel,
    ProcessVariableDecl,
    SequenceFlow,
    UnaryOp,
    Var,
    contract_name,
    function_name,
    sanitize_identifier,
    validate_model,
)
from procforge.marking import compile_marking
from procforge.registry import (
    AttributeDecl,
    FungibleRegistrySpec,
    InvariantViolation,
    NonFungibleRegistrySpec,
    parse_registry,
)

import solexec
from conftest import FIXTURES, load_model
from modelgen import random_model


def contracts(unit):
    """The contracts a unit declares, in order."""
    return tuple(solexec.read_unit(unit.rendered_text)[0].declares)


def lrk_spec():
    return parse_registry((FIXTURES / "lrk.json").read_text())


def title_spec():
    return parse_registry((FIXTURES / "grain_title.json").read_text())


def _words_by_character(text):
    # the word split of sanitize_identifier and contract_name before they
    # used a regex, kept as the reference
    return "".join(c if c.isascii() and c.isalnum() else " " for c in text).split()


def _reference_sanitize_identifier(name):
    words = _words_by_character(name)
    if not words:
        return "_"
    ident = "_".join([words[0][0].upper() + words[0][1:]] + [w.lower() for w in words[1:]])
    return "_" + ident if ident[0].isdigit() else ident


def _reference_contract_name(display_name):
    name = "".join(w[0].upper() + w[1:] for w in _words_by_character(display_name))
    if not name:
        return "Contract"
    return "C" + name if name[0].isdigit() else name


@given(st.text())
@example("Create Grain Title")
@example("3tokens! x² ٣ ǅ\u00a0K\u2160")
def test_word_split_matches_the_character_loop(text):
    assert sanitize_identifier(text) == _reference_sanitize_identifier(text)
    assert contract_name(text) == _reference_contract_name(text)


def test_contract_name():
    assert contract_name("Lorikeet Coin") == "LorikeetCoin"
    assert contract_name("grain title") == "GrainTitle"
    assert contract_name("3tokens!") == "C3tokens"
    assert contract_name("") == "Contract"


# a text that ends a string literal, then its line, then escapes what follows
NASTY = 'a", true); selfdestruct(msg.sender); //\n\t\x7f\\'


def _held(literal: str) -> str:
    """The text an emitted Solidity string literal holds; the literal may
    use only the escapes codegen emits."""
    assert re.fullmatch(r'"(?:[^"\\\x00-\x1f\x7f]|\\[\\"]|\\x[0-9a-f]{2})*"', literal), literal
    return re.sub(r"\\(x..|.)", lambda m: chr(int(m[1][1:], 16)) if len(m[1]) == 3 else m[1],
                  literal[1:-1])


def test_string_literal_holds_its_text():
    assert _held(render_expr(Lit(NASTY, "string"), {})) == NASTY


@pytest.mark.parametrize("field", ["name", "symbol"])
def test_token_name_and_symbol_are_string_literals(field):
    text = gen_fungible(lrk_spec()._replace(**{field: NASTY})).rendered_text
    literal = text.split(f"string public {field} = ", 1)[1].split(";\n", 1)[0]
    assert _held(literal) == NASTY


def test_task_name_is_a_string_literal_in_task_events(ico_model):
    node = ico_model.node("t_invest")
    model = dataclasses.replace(ico_model, nodes=tuple(
        n._replace(name=NASTY) if n is node else n for n in ico_model.nodes))
    automaton = compile_marking(model)
    events = re.findall(r"emit taskExecuted\((.*), (?:true|false)\);",
                        gen_process(model, automaton).rendered_text)
    named = [e for e in events if "selfdestruct" in e]
    assert len(named) == len(automaton.external["t_invest"].pre_alternatives) + 1
    assert all(_held(e) == NASTY for e in named)


def test_non_ascii_token_name_becomes_an_ascii_contract_name():
    unit = gen_fungible(lrk_spec()._replace(name="Café Coin"))
    assert (unit.file_name, contracts(unit)) == ("CafCoin.sol", ("CafCoin",))
    assert contract_name("x² ٣") == "X"


def test_non_ascii_task_name_becomes_an_ascii_function_name(ico_model):
    node = ico_model.node("t_invest")
    model = dataclasses.replace(ico_model, nodes=tuple(
        n._replace(name="Café investment") if n is node else n
        for n in ico_model.nodes))
    assert validate_model(model).ok
    text = gen_process(model, compile_marking(model)).rendered_text
    assert "function Caf_investment(" in text
    assert "é" not in text.replace('"Café investment"', "")


def test_render_expr():
    e = BinOp("==", Var("escrowBalance"), Var("price"))
    assert render_expr(e, {}) == "(_escrowBalance == _price)"
    assert render_expr(Var("processAddress"), {}) == "address(this)"
    assert render_expr(Lit("hi", "string"), {}) == '"hi"'
    assert render_expr(Lit(True, "bool"), {}) == "true"


def test_nested_unary_operand_is_parenthesized():
    # -(-d) must not be emitted as --_d, Solidity's pre-decrement of _d
    from procforge.bpmn import parse_script
    from procforge.interp import new_instance
    nodes = [Node("start", NodeKind.START_EVENT),
             Node("s", NodeKind.SCRIPT_TASK, name="Negate", script=parse_script("e = -(-d)")),
             Node("t", NodeKind.USER_TASK, name="T"), Node("end", NodeKind.END_EVENT)]
    flows = [SequenceFlow("f1", "start", "s"), SequenceFlow("f2", "s", "t"),
             SequenceFlow("f3", "t", "end")]
    model = ProcessModel(id="m", nodes=tuple(nodes), flows=tuple(flows),
                         variables=(ProcessVariableDecl("d", "int256", 5),
                                    ProcessVariableDecl("e", "int256")))
    assert validate_model(model).ok
    a = compile_marking(model)
    assert "            _e = -(-_d);\n" in gen_process(model, a).rendered_text
    assert new_instance(model, a).env == {"d": 5, "e": 5}
    # a single unary operator stays bare
    assert render_expr(UnaryOp("-", Var("d")), {}) == "-_d"
    assert render_expr(UnaryOp("!", Var("flag")), {}) == "!_flag"
    assert render_expr(UnaryOp("!", UnaryOp("!", Var("flag"))), {}) == "!(!_flag)"


def test_string_equality_compares_keccak256_hashes():
    # solc 0.5 has no == on string: both operands are hashed
    types = {"s": "string", "t": "string", "n": "uint256"}
    assert render_expr(BinOp("==", Var("s"), Lit("x", "string")), types) == \
        '(keccak256(abi.encodePacked(_s)) == keccak256(abi.encodePacked("x")))'
    assert render_expr(BinOp("!=", Var("s"), Var("t")), types) == \
        "(keccak256(abi.encodePacked(_s)) != keccak256(abi.encodePacked(_t)))"
    assert render_expr(BinOp("==", Var("n"), Lit(1, "int_const")), types) == "(_n == 1)"


def test_string_guard_is_emitted_as_a_hash_comparison():
    text = (FIXTURES / "ico.bpmn").read_text().replace(
        '<bcext:variable name="tokens" type="uint256"/>',
        '<bcext:variable name="tokens" type="uint256"/>'
        '<bcext:variable name="phase" type="string" initial="open"/>').replace(
        "amountRaised >= cap", "amountRaised >= cap &amp;&amp; phase != &quot;open&quot;")
    model = parse_bpmn(text)
    assert validate_model(model).ok
    guards = [line.strip() for line in
              gen_process(model, compile_marking(model)).rendered_text.splitlines()
              if "_phase" in line and line.strip().startswith("if")]
    assert guards == ["if (((_amountRaised >= _cap) && (keccak256(abi.encodePacked(_phase))"
                      ' != keccak256(abi.encodePacked("open"))))) {']


def test_fungible_unit_shape():
    unit = gen_fungible(lrk_spec())
    assert unit.file_name == "LorikeetCoin.sol"
    text = unit.rendered_text
    assert text.startswith("pragma solidity ^0.5.8;\n")
    assert 'string public symbol = "LRK";' in text
    assert "uint8 public decimals = 2;" in text
    assert "totalSupply = 1000000;" in text
    # no mint/burn surface when the features are off
    assert "function mint" not in text and "function burn" not in text
    # every distribution account seeded
    assert text.count("balances[0x") == 3


def test_token_constructor_writes_addresses_as_the_spec_spells_them_in_spec_order():
    # the ledger lowers a mixed-case address; the emitted constructor keeps
    # the spec's spelling and order, as registry._Distribution holds both
    doc = json.loads((FIXTURES / "lrk.json").read_text())
    doc["totalSupply"] = "1000"
    doc["initiallyDistributedAccounts"] = [
        {"address": "0x" + "5" * 40, "amount": "300"},
        {"address": "0xAbCdEf0123456789aBcDeF0123456789AbCdEf01", "amount": "700"}]
    text = gen_fungible(parse_registry(json.dumps(doc))).rendered_text
    ctor = text[text.index("constructor() public {"):]
    ctor = ctor[:ctor.index("\n    }\n")]
    assert re.findall(r"balances\[(0x[0-9A-Fa-f]{40})\] = ([0-9]+);", ctor) \
        == [(e["address"], e["amount"]) for e in doc["initiallyDistributedAccounts"]]


def test_fungible_mint_burn_emitted_when_enabled():
    spec = lrk_spec()._replace(is_mintable=True,
                               minter_addresses=("0x" + "A" * 40,),
                               is_burnable=True,
                               burner_addresses=("0x" + "B" * 40,))
    text = gen_fungible(spec).rendered_text
    assert "function mint(address to, uint256 value)" in text
    # as the simulated ledger, the token refuses a mint past 2**256 - 1
    # instead of wrapping (solc 0.5 does not check overflow)
    assert '        require(totalSupply + value >= totalSupply, "totalSupply overflow");\n' \
        '        balances[to] += value;\n' in text
    assert "function burn(address from, uint256 value)" in text
    assert "isMinter[0x" in text and "isBurner[0x" in text


def test_nonfungible_single_shape():
    unit = gen_nonfungible(title_spec())
    assert unit.file_name == "GrainTitleRegistry.sol"
    assert contracts(unit) == ("GrainTitleRegistry",)
    text = unit.rendered_text
    assert "struct Record" in text
    assert "function record_create(address record_id, uint256 weight, uint256 quality) public onlyProcess" in text
    assert "function record_ownership_transfer" in text
    assert "modifier onlyProcess()" in text
    assert "constructor(address _processAddress) public" in text
    # weight is history tracked -> change event
    assert "event WeightChanged(address indexed recordId, uint256 value);" in text
    # quality is not
    assert "QualityChanged" not in text


def test_nonfungible_distributed_emits_record_contract():
    spec = parse_registry(
        (FIXTURES / "certificate.json").read_text())._replace(registry_type="distributed")
    unit = gen_nonfungible(spec)
    assert contracts(unit) == ("CertificateOfOriginRecord", "CertificateOfOriginRegistry")
    text = unit.rendered_text
    assert "contract CertificateOfOriginRecord {" in text
    assert "new CertificateOfOriginRecord(msg.sender" in text
    assert "records[record_id].setOwner(to);" in text
    # updatable attribute gets a setter on the record contract
    assert "function set_report(string memory value) public onlyRegistry" in text


REGISTRY_FLAGS = ("isOwnershipTransferEnabled", "isRecordCreationRestrictedToBPMN",
                  "isOwnershipTransferEnabledToBPMN", "isRegistryFunctionAccessControlEnabled",
                  "isRegistryRecordAccessControlEnabled", "isAccessControlBySmartContractEnabled")
PINNED_ATTRIBUTES = [
    {"name": "weight", "type": "uint256", "updatable": True, "historyTracked": True},
    {"name": "note", "type": "string", "historyTracked": True},
    {"name": "ok", "type": "bool", "updatable": True},
    {"name": "who", "type": "address"},
]


def test_registry_text_is_pinned_for_every_accepted_flag_combination():
    # no golden covers a distributed registry: this pins the emitted text of
    # both storage layouts under each flag combination parse_registry accepts
    digest = hashlib.sha256()
    accepted = 0
    for registry_type in ("single", "distributed"):
        for bits in itertools.product((False, True), repeat=len(REGISTRY_FLAGS)):
            doc = {"name": "Deed Book", "registryType": registry_type,
                   "attributes": PINNED_ATTRIBUTES, **dict(zip(REGISTRY_FLAGS, bits))}
            try:
                spec = parse_registry(json.dumps(doc))
            except InvariantViolation:
                continue
            accepted += 1
            digest.update(gen_nonfungible(spec).rendered_text.encode("utf-8"))
    assert accepted == 2 * 42
    assert digest.hexdigest() == ("170ff5eea98a01e4632f0ae8b2a4cfe7"
                                 "e1ef2161b5ee309b384cf73ca564c2d4")


def test_transfer_disabled_registry_reverts():
    spec = title_spec()._replace(is_ownership_transfer_enabled=False,
                                 is_ownership_transfer_enabled_to_bpmn=False)
    text = gen_nonfungible(spec).rendered_text
    assert 'revert("ownership transfer is disabled");' in text
    assert "function record_ownership_transfer" not in text


@pytest.mark.parametrize("registry_type, owner", [
    ("single", "records[record_id].owner"),
    ("distributed", "records[record_id].owner()"),
], ids=["single", "distributed"])
def test_access_control_flags_guard_record_writes(registry_type, owner):
    # function, record and contract access control on, with the process
    # bound (transfer to the process); the simulator does not model these
    # guards (ROADMAP item 2(e)), so this pins the contract side
    spec = parse_registry((FIXTURES / "certificate.json").read_text())
    spec = spec._replace(
        registry_type=registry_type,
        attributes=tuple(a._replace(updatable=True) for a in spec.attributes),
        is_record_creation_restricted_to_bpmn=False,
        is_registry_function_access_control_enabled=True,
        is_registry_record_access_control_enabled=True,
        is_access_control_by_smart_contract_enabled=True)
    text = gen_nonfungible(spec).rendered_text
    registry = text[text.index("contract CertificateOfOriginRegistry"):]
    guards = [line.strip() for line in registry.splitlines()
              if re.search(r"modifier|constructor|function record_|require\(msg\.sender", line)]
    assert guards == [
        "constructor(address _processAddress, address _accessController) public {",
        "modifier onlyProcess() {",
        'require(msg.sender == processAddress, "restricted to the bound process");',
        "modifier onlyAuthorized() {",
        "require(msg.sender == deployer || msg.sender == accessController"
        ' || msg.sender == processAddress, "caller not authorized");',
        "function record_create(address record_id, string memory report,"
        " string memory origin) public onlyAuthorized {",
        "function record_get_owner(address record_id) public view returns (address record_owner) {",
        "function record_get_attrs(address record_id) public view"
        " returns (string memory report, string memory origin) {",
        "function record_update_report(address record_id, string memory value)"
        " public onlyAuthorized {",
        f'require(msg.sender == {owner} || msg.sender == deployer, "not the record owner");',
        "function record_update_origin(address record_id, string memory value)"
        " public onlyAuthorized {",
        f'require(msg.sender == {owner} || msg.sender == deployer, "not the record owner");',
        "function record_ownership_transfer(address record_id, address new_owner) public {",
        f"require(msg.sender == {owner} || msg.sender == processAddress,"
        ' "not authorized to transfer");',
        "require(msg.sender == from || recordApproval[record_id] == msg.sender",
        f'require(msg.sender == {owner}, "not the owner");',
    ]


def test_process_unit_structure(grain_model, grain_automaton):
    unit = gen_process(grain_model, grain_automaton)
    assert unit.file_name == "ProcessFactory.sol"
    # the interface contracts come first, each under its own name
    assert contracts(unit) == ("LorikeetCoin", "GrainTitleRegistry",
                               "ProcessFactory", "ProcessMonitor")
    text = unit.rendered_text
    # interface declarations for both bound contracts
    assert "contract LorikeetCoin {" in text
    assert "function transfer(address to, uint256 amount) external returns (bool success);" in text
    # factory protocol
    assert "address[] public createdInstances;" in text
    assert "event instanceCreated(address instanceAddress);" in text
    assert "new ProcessMonitor( /*_participants*/ )" in text
    # the marking word and task surface
    assert "uint public marking;" in text
    assert "function Asset_swap() public {" in text
    assert 'emit taskExecuted("Asset Swap", true);' in text


def test_task_functions_update_masks(grain_model, grain_automaton):
    text = gen_process(grain_model, grain_automaton).rendered_text
    t = grain_automaton.external["t_register"]
    (pre,), (branch,) = t.pre_alternatives, t.branches
    assert f"preconditionsp & {pre:#x} == {pre:#x}" in text
    assert f"preconditionsp & uint(~{pre:#x})  | {branch.post:#x}" in text


def test_xor_alternatives_render_as_else_if(ico_model):
    a = compile_marking(ico_model)
    text = gen_process(ico_model, a).rendered_text
    body = text.split("function Investment_received")[1].split("function ")[0]
    assert body.count("else if") == 1  # two folded pre-alternatives


def test_guarded_gateway_renders_condition(grain_model, grain_automaton):
    text = gen_process(grain_model, grain_automaton).rendered_text
    assert "if ((_escrowBalance == _price))" in text


def test_xor_split_without_default_returns_the_marking_unchanged():
    # the contract side of ROADMAP item 2(c): where the interpreter raises
    # NoBranchTaken and rolls back, the emitted gateway returns the marking
    x = Var("x")
    nodes = [Node("start", NodeKind.START_EVENT), Node("t", NodeKind.USER_TASK, name="T"),
             Node("g", NodeKind.XOR_GATEWAY),
             Node("e1", NodeKind.END_EVENT), Node("e2", NodeKind.END_EVENT)]
    flows = [SequenceFlow("f1", "start", "t"), SequenceFlow("f2", "t", "g"),
             SequenceFlow("f3", "g", "e1", condition=BinOp(">", x, Lit(1, "int_const"))),
             SequenceFlow("f4", "g", "e2", condition=BinOp("<", x, Lit(1, "int_const")))]
    model = ProcessModel(id="m", nodes=tuple(nodes), flows=tuple(flows),
                         variables=(ProcessVariableDecl("x", "uint256"),))
    assert validate_model(model).ok
    text = gen_process(model, compile_marking(model)).rendered_text
    body = text[text.index("    function G("):text.index("    function E1(")]
    assert body.splitlines() == [
        "    function G(uint preconditionsp) internal returns (uint) {",
        "        if ( (preconditionsp & 0x2 == 0x2) ) {",
        "            if ((_x > 1)) {",
        "                return preconditionsp & uint(~0x2)  | 0x4;",
        "            }",
        "            if ((_x < 1)) {",
        "                return preconditionsp & uint(~0x2)  | 0x8;",
        "            }",
        "            return preconditionsp;  // no branch satisfiable",
        "        } else",
        "            return preconditionsp;",
        "    }",
        "",
    ]


def _sweep_calls(text):
    """The functions runAutoTransitions calls, in the order of its sweep."""
    body = text.split("function runAutoTransitions(")[1].split("\n        }\n")[0]
    return re.findall(r"preconditionsp = (\w+)\(preconditionsp\);", body)


FIXTURE_MODELS = ["grain_title", "grain_title_unbound", "ico", "quality_tracing",
                  "task_outsourcing"]


@pytest.mark.parametrize("model", [load_model(name) for name in FIXTURE_MODELS]
                         + [random_model(random.Random(seed)) for seed in range(20)],
                         ids=FIXTURE_MODELS + [f"random-{seed}" for seed in range(20)])
def test_contract_sweeps_the_autos_in_the_interpreters_order(model):
    # eager_closure_data sweeps automaton.autos; the emitted loop calls the same list
    a = compile_marking(model)
    calls = _sweep_calls(gen_process(model, a).rendered_text)
    assert calls and calls == [function_name(model.node(t.node_id)) for t in a.autos]


def test_output_bindings_assign_storage(grain_model, grain_automaton):
    text = gen_process(grain_model, grain_automaton).rendered_text
    assert "_escrowBalance = instanceOfLorikeetCoin.balanceOf(address(this));" in text


def test_rendered_text_is_lf_only():
    for unit in (gen_fungible(lrk_spec()), gen_nonfungible(title_spec())):
        assert "\r" not in unit.rendered_text
        assert unit.rendered_text.endswith("\n")


def test_generation_is_deterministic(grain_model, grain_automaton):
    a = gen_process(grain_model, grain_automaton).rendered_text
    b = gen_process(load_model("grain_title"), compile_marking(load_model("grain_title"))).rendered_text
    assert a == b


def test_bound_calls_render_in_parameter_and_return_order():
    from modelgen import record_calls_bpmn
    model = parse_bpmn(record_calls_bpmn())
    text = gen_process(model, compile_marking(model)).rendered_text
    assert "instanceOfTitles.record_create(_id, _kg, _grade);" in text
    assert "(, _q) = instanceOfTitles.record_get_attrs(_id);" in text


# ---------------------------------------------------------------------------
# The simulated registries' function tables against the emitted contracts


def _public_abi(contract: str) -> dict:
    """name -> parameter types of each public function and each public
    state variable's getter in one emitted contract."""
    abi = {name: tuple(p.split()[0] for p in params.split(",") if p.strip())
           for name, params in re.findall(r"function (\w+)\(([^)]*)\) public", contract)}
    for decl, name in re.findall(r"^    (\w+|mapping\(.*\)) public (\w+)\b[^(\n]*;$", contract,
                                 re.MULTILINE):
        abi[name] = tuple(re.findall(r"mapping\((\w+) =>", decl))
    return abi


MINTER = "0x" + "1" * 40
TOKEN = FungibleRegistrySpec(name="Token", symbol="TK", decimals=2, total_supply=0,
                             is_mintable=True, minter_addresses=(MINTER,),
                             is_burnable=True, burner_addresses=(MINTER,))
RECORDS = NonFungibleRegistrySpec(
    name="Deeds", registry_type="single",
    attributes=tuple(AttributeDecl(f"a_{t}", t, updatable=True) for t in VALUE_TYPES),
    is_ownership_transfer_enabled=True)


def _accepted_registry_specs():
    """The record-registry specs of the pinned registry text: both storage
    layouts under each flag combination parse_registry accepts."""
    for registry_type in ("single", "distributed"):
        for bits in itertools.product((False, True), repeat=len(REGISTRY_FLAGS)):
            doc = {"name": "Deed Book", "registryType": registry_type,
                   "attributes": PINNED_ATTRIBUTES, **dict(zip(REGISTRY_FLAGS, bits))}
            try:
                yield parse_registry(json.dumps(doc))
            except InvariantViolation:
                pass


ABI_SPECS = {
    "token": TOKEN,
    "fixed-token": TOKEN._replace(is_mintable=False, minter_addresses=(),
                                  is_burnable=False, burner_addresses=()),
    "single": RECORDS,
    "distributed": RECORDS._replace(registry_type="distributed"),
    **{f"deeds-{i}": spec for i, spec in enumerate(_accepted_registry_specs())},
}


@pytest.mark.parametrize("spec", list(ABI_SPECS.values()), ids=list(ABI_SPECS))
def test_simulated_functions_are_emitted_with_the_same_parameters(spec):
    # every simulated function is emitted with the same parameters, and
    # every emitted mint, burn and record_* function is simulated
    fungible = isinstance(spec, FungibleRegistrySpec)
    if fungible:
        registry, unit = FungibleLedger(spec), gen_fungible(spec)
    else:
        registry, unit = NonFungibleStore(spec), gen_nonfungible(spec)
    text = unit.rendered_text
    # the registry is the unit's last contract; a distributed one's records
    # come before it
    emitted = _public_abi(text[text.index(f"contract {contracts(unit)[-1]} "):])
    for name, (params, _) in registry.functions.items():
        assert emitted.get(name) == params, name
    assert {name for name in emitted if name in ("mint", "burn") or name.startswith("record_")} \
        <= set(registry.functions)
