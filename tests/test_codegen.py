from procforge.codegen import (
    contract_name,
    gen_fungible,
    gen_nonfungible,
    gen_process,
    render_expr,
)
from procforge.ir import BinOp, Lit, Var
from procforge.marking import compile_marking
from procforge.registry import parse_registry

from conftest import FIXTURES, load_model


def lrk_spec():
    return parse_registry((FIXTURES / "lrk.json").read_text())


def title_spec():
    return parse_registry((FIXTURES / "grain_title.json").read_text())


def test_contract_name():
    assert contract_name("Lorikeet Coin") == "LorikeetCoin"
    assert contract_name("grain title") == "GrainTitle"
    assert contract_name("3tokens!") == "C3tokens"
    assert contract_name("") == "Contract"


def test_render_expr():
    e = BinOp("==", Var("escrowBalance"), Var("price"))
    assert render_expr(e) == "(_escrowBalance == _price)"
    assert render_expr(Var("processAddress")) == "address(this)"
    assert render_expr(Lit("hi", "string")) == '"hi"'
    assert render_expr(Lit(True, "bool")) == "true"


def test_fungible_unit_shape():
    unit = gen_fungible(lrk_spec())
    assert unit.file_name == "LorikeetCoin.sol"
    assert unit.pragma_version == "^0.5.8"
    text = unit.rendered_text
    assert text.startswith("pragma solidity ^0.5.8;\n")
    assert 'string public symbol = "LRK";' in text
    assert "uint8 public decimals = 2;" in text
    assert "totalSupply = 1000000;" in text
    # no mint/burn surface when the features are off
    assert "function mint" not in text and "function burn" not in text
    # every distribution account seeded
    assert text.count("balances[0x") == 3


def test_fungible_mint_burn_emitted_when_enabled():
    import dataclasses
    spec = dataclasses.replace(lrk_spec(), is_mintable=True,
                               minter_addresses=("0x" + "A" * 40,),
                               is_burnable=True,
                               burner_addresses=("0x" + "B" * 40,))
    text = gen_fungible(spec).rendered_text
    assert "function mint(address to, uint256 value)" in text
    assert "function burn(address from, uint256 value)" in text
    assert "isMinter[0x" in text and "isBurner[0x" in text


def test_nonfungible_single_shape():
    unit = gen_nonfungible(title_spec())
    assert unit.file_name == "GrainTitleRegistry.sol"
    assert unit.contracts == ("GrainTitleRegistry",)
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
    import dataclasses
    spec = dataclasses.replace(parse_registry(
        (FIXTURES / "certificate.json").read_text()), registry_type="distributed")
    unit = gen_nonfungible(spec)
    assert unit.contracts == ("CertificateOfOriginRecord", "CertificateOfOriginRegistry")
    text = unit.rendered_text
    assert "contract CertificateOfOriginRecord {" in text
    assert "new CertificateOfOriginRecord(msg.sender" in text
    assert "records[record_id].setOwner(to);" in text
    # updatable attribute gets a setter on the record contract
    assert "function set_report(string memory value) public onlyRegistry" in text


def test_transfer_disabled_registry_reverts():
    import dataclasses
    spec = dataclasses.replace(title_spec(), is_ownership_transfer_enabled=False,
                               is_ownership_transfer_enabled_to_bpmn=False)
    text = gen_nonfungible(spec).rendered_text
    assert 'revert("ownership transfer is disabled");' in text
    assert "function record_ownership_transfer" not in text


def test_process_unit_structure(grain_model, grain_automaton):
    unit = gen_process(grain_model, grain_automaton)
    assert unit.file_name == "ProcessFactory.sol"
    assert unit.contracts[-2:] == ("ProcessFactory", "ProcessMonitor")
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
    (alt,) = grain_automaton.external["t_register"]
    assert f"preconditionsp & {alt.pre:#x} == {alt.pre:#x}" in text
    assert f"preconditionsp & uint(~{alt.pre:#x})  | {alt.post:#x}" in text


def test_xor_alternatives_render_as_else_if(ico_model):
    a = compile_marking(ico_model)
    text = gen_process(ico_model, a).rendered_text
    body = text.split("function Investment_received")[1].split("function ")[0]
    assert body.count("else if") == 1  # two folded pre-alternatives


def test_guarded_gateway_renders_condition(grain_model, grain_automaton):
    text = gen_process(grain_model, grain_automaton).rendered_text
    assert "if ((_escrowBalance == _price))" in text


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
