import dataclasses
import json
import re
import sys

import pytest
from hypothesis import example, given, strategies as st

from conftest import FIXTURES, load_model

from procforge.bpmn import parse_bpmn

from procforge.ir import (
    Assign,
    BinOp,
    Diagnostic,
    EvalError,
    ExprTypeError,
    INT256_MAX,
    INT256_MIN,
    Lit,
    Node,
    NumberTooLong,
    NodeKind,
    ParameterBinding,
    ProcessModel,
    ProcessVariableDecl,
    SequenceFlow,
    TaskInput,
    UINT256_MAX,
    UnaryOp,
    Var,
    ZERO_ADDRESS,
    compile_expr,
    is_address,
    is_identifier,
    literal_matches,
    load_json,
    process_scopes,
    sanitize_identifier,
    validate_model,
)

U = {"x": "uint256", "y": "uint256", "b": "bool", "a": "address", "s": "string",
     "i": "int256", "j": "int256"}


@pytest.mark.parametrize("text", [
    r'{"a\tb": "\u00e9\"", "\ud800": 1}',
    r'{"a\tb": ["\\", "x\udc00y"], "c": "\u00e9"}',
], ids=["key", "value"])
def test_load_json_refuses_a_lone_surrogate_among_other_escapes(text):
    with pytest.raises(ValueError, match="^a string holds a lone surrogate$"):
        load_json(text)


@pytest.mark.parametrize("text, value", [
    (r'{"k": "\\ud800"}', {"k": "\\ud800"}),
    (r'["\ud83d\ude00", "\u00e9"]', ["\U0001F600", "\xe9"]),
], ids=["escaped-backslash", "surrogate-pair"])
def test_load_json_accepts_escapes_that_decode_to_no_lone_surrogate(text, value):
    assert load_json(text) == value


@pytest.mark.parametrize("text", ["[%s]", '{"k": -%s}', "%s"])
def test_load_json_words_a_number_it_does_not_read(text):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(NumberTooLong, match=f"^a number has more than {limit} digits$"):
        load_json(text % ("9" * (limit + 1)))
    assert load_json(text % ("9" * limit)) is not None


def test_load_json_of_a_text_without_a_backslash_is_json_loads():
    text = f'[{(FIXTURES / "lrk.json").read_text()}, {{"\U0001F600": [1, 2.5, null]}}]'
    assert "\\" not in text
    assert load_json(text) == json.loads(text)


def test_check_basic_arithmetic():
    e = BinOp("+", Var("x"), Lit(1, "int_const"))
    assert compile_expr(e, U)[0] == "uint256"


def test_int_const_adapts_to_either_width():
    assert compile_expr(BinOp("*", Var("i"), Lit(2, "int_const")), U)[0] == "int256"
    assert compile_expr(BinOp("<", Lit(1, "int_const"), Lit(2, "int_const")), U)[0] == "bool"


def test_mixing_widths_rejected():
    with pytest.raises(ExprTypeError):
        compile_expr(BinOp("+", Var("x"), Var("i")), U)[0]


def test_string_supports_equality_only():
    assert compile_expr(BinOp("==", Var("s"), Lit("hi", "string")), U)[0] == "bool"
    with pytest.raises(ExprTypeError):
        compile_expr(BinOp("<", Var("s"), Var("s")), U)[0]
    with pytest.raises(ExprTypeError):
        compile_expr(BinOp("+", Var("s"), Var("s")), U)[0]


def test_unary_minus_on_uint_rejected():
    with pytest.raises(ExprTypeError):
        compile_expr(UnaryOp("-", Var("x")), U)[0]
    assert compile_expr(UnaryOp("-", Var("i")), U)[0] == "int256"


def test_not_requires_bool():
    assert compile_expr(UnaryOp("!", Var("b")), U)[0] == "bool"
    with pytest.raises(ExprTypeError):
        compile_expr(UnaryOp("!", Var("x")), U)[0]


def test_eval_checked_underflow():
    e = BinOp("-", Var("x"), Var("y"))
    with pytest.raises(EvalError, match="^unsigned result below zero: -2$"):
        compile_expr(e, U)[1]({"x": 3, "y": 5})


def test_eval_checked_overflow():
    e = BinOp("+", Var("x"), Lit(1, "int_const"))
    with pytest.raises(EvalError, match=f"^uint256 overflow: {UINT256_MAX + 1}$"):
        compile_expr(e, U)[1]({"x": UINT256_MAX})
    e2 = BinOp("-", Var("i"), Lit(1, "int_const"))
    with pytest.raises(EvalError, match=f"^int256 underflow: {INT256_MIN - 1}$"):
        compile_expr(e2, U)[1]({"i": INT256_MIN})


def test_eval_division():
    assert compile_expr(BinOp("/", Lit(7, "int_const"), Lit(2, "int_const")), U)[1]({}) == 3
    with pytest.raises(EvalError, match="^1 / 0$"):
        compile_expr(BinOp("/", Var("x"), Lit(0, "int_const")), U)[1]({"x": 1})


def test_signed_division_truncates_toward_zero():
    e = BinOp("/", Var("i"), Var("j"))
    assert compile_expr(e, U)[1]({"i": -7, "j": 2}) == -3  # python's // would give -4
    assert compile_expr(e, U)[1]({"i": 7, "j": -2}) == -3


PAY_AND_COUNT = """<?xml version="1.0" encoding="UTF-8"?>
<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"
             xmlns:bcext="urn:procforge:bcext:1" id="d">
  <process id="p">
    <bcext:variables><bcext:variable name="x" type="uint256"/></bcext:variables>
    <bcext:smartContractInterface id="itf_lrk" name="LorikeetCoin">
      <bcext:function name="transfer">
        <bcext:input name="to" type="address"/>
        <bcext:input name="amount" type="uint256"/>
      </bcext:function>
    </bcext:smartContractInterface>
    <bcext:invocation sourceTask="count" targetInterface="itf_lrk" fnName="transfer">
      <bcext:bindIn param="to" source="payee"/>
      <bcext:bindIn param="amount" source="amount"/>
    </bcext:invocation>
    <startEvent id="start"/>
    <parallelGateway id="split"/>
    <userTask id="pay" name="Pay">
      <extensionElements>
        <bcext:input name="amount" type="uint256"/>
        <bcext:input name="payee" type="address"/>
      </extensionElements>
    </userTask>
    <scriptTask id="count" name="Count"><script>x = amount + 1</script></scriptTask>
    <parallelGateway id="join"/>
    <endEvent id="end"/>
    <sequenceFlow id="f1" sourceRef="start" targetRef="split"/>
    <sequenceFlow id="f2" sourceRef="split" targetRef="pay"/>
    <sequenceFlow id="f3" sourceRef="split" targetRef="count"/>
    <sequenceFlow id="f4" sourceRef="pay" targetRef="join"/>
    <sequenceFlow id="f5" sourceRef="count" targetRef="join"/>
    <sequenceFlow id="f6" sourceRef="join" targetRef="end"/>
  </process>
</definitions>
"""


def test_unset_task_input_reads_as_zero(tmp_path, capsys):
    assert [compile_expr(Var(name), U)[1]({}) for name in ("x", "i", "b", "a", "s")] \
        == [0, 0, False, ZERO_ADDRESS, ""]
    # Count runs before Pay gives amount and payee, and reads the zeros that
    # the emitted constructor stores in _amount and _payee: x = 0 + 1, and
    # its bound call is transfer(address(0), 0)
    from procforge.cli import main
    (tmp_path / "m.bpmn").write_text(PAY_AND_COUNT)
    (tmp_path / "t.jsonl").write_text(
        json.dumps({"task": "Pay", "args": {"amount": 5, "payee": "0x" + "1" * 40}}))
    assert main(["simulate", str(tmp_path / "m.bpmn"), "--trace", str(tmp_path / "t.jsonl"),
                 "--registry", str(FIXTURES / "lrk.json"), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["classification"] == "Conforming"
    assert out["variables"] == {"x": 1, "amount": 5, "payee": "0x" + "1" * 40}


def test_address_comparison_case_insensitive():
    lo = "0x" + "ab" * 20
    hi = "0x" + "AB" * 20
    e = BinOp("==", Var("a"), Lit(hi, "address"))
    assert compile_expr(e, U)[1]({"a": lo}) is True


def test_boolean_short_circuit():
    # right operand would raise if evaluated
    e = BinOp("||", Lit(True, "bool"),
              BinOp("==", BinOp("/", Var("x"), Lit(0, "int_const")), Lit(1, "int_const")))
    assert compile_expr(e, U)[1]({"x": 1}) is True


@given(st.integers(min_value=0, max_value=UINT256_MAX),
       st.integers(min_value=1, max_value=UINT256_MAX))
def test_unsigned_division_matches_floor(a, b):
    e = BinOp("/", Var("x"), Var("y"))
    assert compile_expr(e, U)[1]({"x": a, "y": b}) == a // b


@given(st.integers(min_value=INT256_MIN, max_value=INT256_MAX),
       st.integers(min_value=INT256_MIN, max_value=INT256_MAX).filter(lambda v: v != 0))
@example(INT256_MIN, -1)
def test_signed_division_identity(a, b):
    divide = compile_expr(BinOp("/", Var("i"), Var("j")), U)[1]
    # truncation toward zero; the only quotient outside int256 is 2**255
    expected = abs(a) // abs(b) if (a >= 0) == (b >= 0) else -(abs(a) // abs(b))
    if expected <= INT256_MAX:
        assert divide({"i": a, "j": b}) == expected
    else:
        with pytest.raises(EvalError, match=f"^int256 overflow: {expected}$"):
            divide({"i": a, "j": b})


def test_is_address():
    assert is_address("0x" + "0" * 40)
    assert not is_address("0x" + "0" * 39)
    assert not is_address("1x" + "0" * 40)
    assert not is_address("0x" + "g" * 40)


@given(st.one_of(st.text(), st.text("0123456789abcdefABCDEFxg_+- \n\u0663",
                                     min_size=38, max_size=42).map(lambda s: "0x" + s)))
@example("0x+" + "f" * 39)
@example("0x-" + "f" * 39)
@example("0x" + "1_" * 19 + "11")
@example("0x  " + "f" * 38)
@example("0x" + "\u0663" * 40)  # a digit to int(), not a hex digit
def test_is_address_is_exactly_0x_and_40_hex_digits(text):
    assert is_address(text) == (re.fullmatch(r"0x[0-9a-fA-F]{40}", text) is not None)


def test_literal_matches():
    assert literal_matches("uint256", 0)
    assert not literal_matches("uint256", -1)
    assert not literal_matches("uint256", True)  # bools are not uints
    assert literal_matches("int256", INT256_MIN)
    assert not literal_matches("int256", INT256_MIN - 1)
    assert literal_matches("address", "0x" + "1" * 40)
    assert not literal_matches("address", "nope")


def test_sanitize_identifier():
    assert sanitize_identifier("Create Grain Title") == "Create_grain_title"
    assert sanitize_identifier("truck is weighed") == "Truck_is_weighed"
    assert sanitize_identifier("3rd attempt") == "_3rd_attempt"
    assert sanitize_identifier("???") == "_"


@pytest.mark.parametrize("name, ident", [
    ("Café investment", "Caf_investment"), ("x² paid", "X_paid"), ("٣", "_")])
def test_sanitize_identifier_keeps_ascii_letters_and_digits(name, ident):
    assert sanitize_identifier(name) == ident


def test_names_that_differ_outside_ascii_collide():
    m = linear_model(nodes=linear_model().nodes + (
        Node("t8", NodeKind.USER_TASK, name="Café"),
        Node("t9", NodeKind.USER_TASK, name="Caf_")))
    assert "function 'Caf' of task 'Caf_' collides with function 'Caf' of task 'Café'" \
        in errors_of(m)


# --- model validation -------------------------------------------------------


def linear_model(**overrides):
    parts = dict(
        id="m",
        nodes=(
            Node("start", NodeKind.START_EVENT),
            Node("t1", NodeKind.USER_TASK, name="Do thing"),
            Node("end", NodeKind.END_EVENT),
        ),
        flows=(
            SequenceFlow("f1", "start", "t1"),
            SequenceFlow("f2", "t1", "end"),
        ),
    )
    parts.update(overrides)
    return ProcessModel(**parts)


def errors_of(model):
    return [d.message for d in validate_model(model).errors]


def test_valid_linear_model():
    assert validate_model(linear_model()).ok


def test_duplicate_node_id():
    m = linear_model(nodes=linear_model().nodes + (Node("t1", NodeKind.USER_TASK),))
    assert any("duplicate node id" in e for e in errors_of(m))


def test_dangling_flow():
    m = linear_model(flows=linear_model().flows + (SequenceFlow("f3", "t1", "ghost"),))
    assert any("dangling flow target" in e for e in errors_of(m))
    # the flow also gives t1 a second incoming flow, so t1's degree error too
    m = linear_model(flows=linear_model().flows + (SequenceFlow("f3", "ghost", "t1"),))
    assert [str(d) for d in validate_model(m).errors] == [
        "error: [f3] dangling flow source 'ghost'",
        "error: [t1] tasks must have exactly one incoming and one outgoing flow; "
        "use gateways for branching"]


def test_start_end_cardinality():
    m = linear_model(nodes=(Node("t1", NodeKind.USER_TASK),), flows=())
    msgs = errors_of(m)
    assert any("exactly one start event" in e for e in msgs)
    assert any("no end event" in e for e in msgs)


def test_task_degree_rule():
    m = linear_model(flows=linear_model().flows + (SequenceFlow("f3", "start", "t1"),))
    assert any("exactly one incoming" in e for e in errors_of(m))


def test_marking_width_limit():
    nodes = [Node("start", NodeKind.START_EVENT), Node("end", NodeKind.END_EVENT)]
    flows = [SequenceFlow("f0", "start", "t0")]
    for i in range(257):
        nodes.append(Node(f"t{i}", NodeKind.USER_TASK))
        flows.append(SequenceFlow(f"f{i+1}", f"t{i}", f"t{i+1}" if i < 256 else "end"))
    m = ProcessModel(id="wide", nodes=tuple(nodes), flows=tuple(flows))
    assert any("exceeds 256 bits" in e for e in errors_of(m))


def test_condition_only_on_xor_split():
    flows = (SequenceFlow("f1", "start", "t1"),
             SequenceFlow("f2", "t1", "end", condition=Lit(True, "bool")))
    assert any("not an XOR-split branch" in e for e in errors_of(linear_model(flows=flows)))


def test_gateway_may_not_join_and_split():
    m = ProcessModel(
        id="m",
        nodes=(Node("start", NodeKind.START_EVENT),
               Node("t1", NodeKind.USER_TASK), Node("t2", NodeKind.USER_TASK),
               Node("g", NodeKind.AND_GATEWAY),
               Node("t3", NodeKind.USER_TASK), Node("t4", NodeKind.USER_TASK),
               Node("e1", NodeKind.END_EVENT), Node("e2", NodeKind.END_EVENT),
               Node("g0", NodeKind.AND_GATEWAY)),
        flows=(SequenceFlow("f0", "start", "g0"),
               SequenceFlow("f0a", "g0", "t1"), SequenceFlow("f0b", "g0", "t2"),
               SequenceFlow("f1", "t1", "g"), SequenceFlow("f2", "t2", "g"),
               SequenceFlow("f3", "g", "t3"), SequenceFlow("f4", "g", "t4"),
               SequenceFlow("f5", "t3", "e1"), SequenceFlow("f6", "t4", "e2")))
    assert any("join and split" in e for e in errors_of(m))


def test_script_target_must_be_declared():
    nodes = (Node("start", NodeKind.START_EVENT),
             Node("s", NodeKind.SCRIPT_TASK, script=(Assign("nope", Lit(1, "int_const")),)),
             Node("end", NodeKind.END_EVENT))
    flows = (SequenceFlow("f1", "start", "s"), SequenceFlow("f2", "s", "end"))
    m = ProcessModel(id="m", nodes=nodes, flows=flows)
    assert any("undeclared variable 'nope'" in e for e in errors_of(m))


def test_task_input_shadow_rules():
    base = linear_model(variables=(ProcessVariableDecl("x", "uint256"),))
    ok = base.nodes[1]
    same = Node(ok.id, ok.kind, ok.name, task_inputs=(TaskInput("x", "uint256"),))
    m1 = linear_model(variables=base.variables,
                      nodes=(base.nodes[0], same, base.nodes[2]))
    assert validate_model(m1).ok
    diff = Node(ok.id, ok.kind, ok.name, task_inputs=(TaskInput("x", "bool"),))
    m2 = linear_model(variables=base.variables,
                      nodes=(base.nodes[0], diff, base.nodes[2]))
    assert any("different type" in e for e in errors_of(m2))


def test_task_inputs_of_one_name_have_one_type():
    nodes = (Node("start", NodeKind.START_EVENT),
             Node("t1", NodeKind.USER_TASK, name="One", task_inputs=(TaskInput("x", "uint256"),)),
             Node("t2", NodeKind.USER_TASK, name="Two", task_inputs=(TaskInput("x", "address"),)),
             Node("end", NodeKind.END_EVENT))
    flows = (SequenceFlow("f1", "start", "t1"), SequenceFlow("f2", "t1", "t2"),
             SequenceFlow("f3", "t2", "end"))
    report = validate_model(ProcessModel(id="m", nodes=nodes, flows=flows))
    assert [str(d) for d in report.errors] == [
        "error: [t2] task input 'x' is address here but uint256 in task 't1'"]
    # the same type in both tasks is one variable, as before
    same = Node("t2", NodeKind.USER_TASK, name="Two",
                task_inputs=(TaskInput("x", "uint256"),))
    assert validate_model(ProcessModel(id="m", nodes=nodes[:2] + (same,) + nodes[3:],
                                       flows=flows)).ok


def test_unreachable_node():
    # a detached two-task cycle is structurally sane but unreachable
    m = linear_model(nodes=linear_model().nodes + (
        Node("lost1", NodeKind.USER_TASK, name="lost one"),
        Node("lost2", NodeKind.USER_TASK, name="lost two")),
        flows=linear_model().flows + (SequenceFlow("f9", "lost1", "lost2"),
                                      SequenceFlow("f10", "lost2", "lost1")))
    assert any("not reachable" in e for e in errors_of(m))


def test_sanitized_name_collision():
    nodes = (Node("start", NodeKind.START_EVENT),
             Node("t1", NodeKind.USER_TASK, name="do it"),
             Node("t2", NodeKind.USER_TASK, name="Do It"),
             Node("end", NodeKind.END_EVENT))
    flows = (SequenceFlow("f1", "start", "t1"), SequenceFlow("f2", "t1", "t2"),
             SequenceFlow("f3", "t2", "end"))
    m = ProcessModel(id="m", nodes=nodes, flows=flows)
    assert errors_of(m) == [
        "function 'Do_it' of task 'Do It' collides with function 'Do_it' of task 'do it'"]


# a gateway or an end event emits a function named by its id
@pytest.mark.parametrize("old, new, message", [
    ('name="Allocate tokens"', 'name="G cap"',
     "function 'G_cap' of exclusiveGateway 'g_cap' collides with function 'G_cap' of task 'G cap'"),
    ('name="Allocate tokens"', 'name="End closed"',
     "function 'End_closed' of endEvent 'end_closed' collides with "
     "function 'End_closed' of task 'End closed'"),
], ids=["gateway", "end-event"])
def test_function_names_of_gateways_and_end_events_collide(old, new, message):
    text = (FIXTURES / "ico.bpmn").read_text()
    assert old in text
    assert errors_of(parse_bpmn(text.replace(old, new))) == [message]


# a function named like a contract of ProcessFactory.sol: solc rejects one
# named like its own contract, and one named like an interface shadows the
# interface's type in the monitor
@pytest.mark.parametrize("old, new, message", [
    ('name="Task completed"', 'name="ProcessMonitor"',
     "function 'ProcessMonitor' of task 'ProcessMonitor' hides the emitted name 'ProcessMonitor'"),
    ('name="Pay worker"', 'name="LorikeetCoin"',
     "function 'LorikeetCoin' of task 'LorikeetCoin' hides interface 'LorikeetCoin'"),
    ('name="Refund requester"', 'name="ProcessFactory"',
     "function 'ProcessFactory' of task 'ProcessFactory' hides the emitted name 'ProcessFactory'"),
], ids=["own-contract", "interface", "factory"])
def test_a_function_named_like_a_contract_is_an_error(old, new, message):
    text = (FIXTURES / "task_outsourcing.bpmn").read_text()
    assert old in text
    assert errors_of(parse_bpmn(text.replace(old, new))) == [message]


def test_a_folded_gateway_emits_no_function_to_collide_with():
    from procforge.codegen import gen_process
    from procforge.marking import compile_marking
    text = (FIXTURES / "ico.bpmn").read_text()
    # "Tokens claimed" does not claim g_loop, "Investment received" does
    model = parse_bpmn(text.replace('name="Tokens claimed"', 'name="g loop"'))
    assert errors_of(model) == []
    a = compile_marking(model)
    assert "g_loop" in a.folded
    assert gen_process(model, a).rendered_text.count("function G_loop(") == 1
    # g_cap splits with conditions, so it is not folded and emits G_cap
    assert errors_of(parse_bpmn(text.replace('name="Allocate tokens"', 'name="g cap"'))) == [
        "function 'G_cap' of exclusiveGateway 'g_cap' collides with function 'G_cap' of task 'g cap'"]


def test_a_task_of_two_outgoing_flows_folds_nothing():
    # validate reports the degree and still checks the names
    nodes = (Node("start", NodeKind.START_EVENT), Node("j", NodeKind.XOR_GATEWAY),
             Node("t", NodeKind.USER_TASK, name="J"), Node("end", NodeKind.END_EVENT))
    flows = (SequenceFlow("f1", "start", "j"), SequenceFlow("f2", "j", "t"),
             SequenceFlow("f3", "t", "end"), SequenceFlow("f4", "t", "end"))
    m = ProcessModel(id="m", nodes=nodes, flows=flows)
    assert m.gateway_folds == {}
    assert errors_of(m) == [
        "tasks must have exactly one incoming and one outgoing flow; use gateways for branching",
        "function 'J' of task 'J' collides with function 'J' of exclusiveGateway 'j'"]


ITF_LRK2 = '<bcext:smartContractInterface id="itf_lrk2" name="{}"/>'


@pytest.mark.parametrize("old, new, messages", [
    # the second interface also brings a second address, constructor
    # parameter and local of the one name
    ("</bcext:smartContractInterface>",
     "</bcext:smartContractInterface>" + ITF_LRK2.format("LorikeetCoin"),
     ["duplicate interface 'LorikeetCoin'",
      "duplicate the constructor parameter '_addressOfLorikeetCoin' of interface 'LorikeetCoin'",
      "duplicate the address 'addressOfLorikeetCoin' of interface 'LorikeetCoin'",
      "duplicate the local 'instanceOfLorikeetCoin' of interface 'LorikeetCoin'"]),
    ('name="LorikeetCoin"', 'name="ProcessFactory"',
     ["interface 'ProcessFactory' collides with the emitted name 'ProcessFactory'"]),
    ('name="LorikeetCoin"', 'name="ProcessMonitor"',
     ["interface 'ProcessMonitor' collides with the emitted name 'ProcessMonitor'"]),
], ids=["two-interfaces", "ProcessFactory", "ProcessMonitor"])
def test_interface_contract_names_are_unique(old, new, messages):
    text = (FIXTURES / "ico.bpmn").read_text()
    assert old in text
    assert errors_of(parse_bpmn(text.replace(old, new, 1))) == messages


def test_degenerate_gateway_is_warning_only():
    nodes = (Node("start", NodeKind.START_EVENT), Node("g", NodeKind.XOR_GATEWAY),
             Node("t1", NodeKind.USER_TASK), Node("end", NodeKind.END_EVENT))
    flows = (SequenceFlow("f1", "start", "g"), SequenceFlow("f2", "g", "t1"),
             SequenceFlow("f3", "t1", "end"))
    report = validate_model(ProcessModel(id="m", nodes=nodes, flows=flows))
    assert report.ok
    assert any("degenerate gateway" in d.message for d in report.warnings)


def test_diagnostic_str():
    d = Diagnostic("error", "f1", "broken")
    assert str(d) == "error: [f1] broken"


# each diagnostic that no other test triggers, from text edits of a fixture
TO_VAR = '<bcext:variable name="price" type="uint256" initial="300"/>'
TO_REQUESTER = '<bcext:input name="requester" type="address"/>'
TO_ACCOUNT = '<bcext:input name="account" type="address"/>'
TO_BALANCE = '<bcext:output name="balance" type="uint256"/>'
TO_BIND_OUT = '<bcext:bindOut return="balance" target="escrowBalance"/>'
TO_F4 = '<sequenceFlow id="f4" sourceRef="g_deposit" targetRef="t_work">'
TO_F4_CONDITION = TO_F4 + """
      <conditionExpression>escrowBalance == price</conditionExpression>
    </sequenceFlow>"""
TO_F5 = '<sequenceFlow id="f5" sourceRef="g_deposit" targetRef="s_refund" default="true"/>'
TO_F7 = '<sequenceFlow id="f7" sourceRef="s_pay" targetRef="end_done"/>'
TO_F8 = '<sequenceFlow id="f8" sourceRef="s_refund" targetRef="end_refunded"/>'
NOT_REACHED = "node cannot reach any end event"
DEGENERATE = "degenerate gateway with one incoming and one outgoing flow"
TO_WORK = '<userTask id="t_work" name="Task completed"/>'
TO_DEPOSIT_INPUTS = """<extensionElements>
        <bcext:input name="amount" type="uint256"/>
        <bcext:input name="requester" type="address"/>
      </extensionElements>"""
# t_deposit's inputs declared as variables instead, so that its bindings still resolve
TO_DEPOSIT_BARE = [(TO_DEPOSIT_INPUTS, ""), (TO_VAR, TO_VAR + '<bcext:variable name="amount" '
                   'type="uint256"/><bcext:variable name="requester" type="address"/>')]
SAME_FUNCTION = ("error", "t_work", "function 'Deposit_payment' of task 'deposit payment' "
                 "collides with function 'Deposit_payment' of task 'Deposit payment'")


def t_work_named_like_t_deposit(*inputs):
    """t_work renamed 'deposit payment', so that its function is t_deposit's
    Deposit_payment, with a uint256 task input of each name in inputs."""
    body = "".join(f'<bcext:input name="{n}" type="uint256"/>' for n in inputs)
    return (TO_WORK, '<userTask id="t_work" name="deposit payment">'
                     f'<extensionElements>{body}</extensionElements></userTask>')


ICO_INVESTOR = '<bcext:input name="investor" type="address"/>'


@pytest.mark.parametrize("fixture, edits, expected", [
    pytest.param("task_outsourcing",
                 [(TO_VAR, TO_VAR + '<bcext:variable name="price" type="uint256"/>')],
                 [("error", "price", "duplicate variable declaration")], id="variable-twice"),
    pytest.param("task_outsourcing",
                 [(TO_VAR, TO_VAR + '<bcext:variable name="n" type="uint8"/>')],
                 [("error", "n", "unknown variable type 'uint8'")], id="variable-type"),
    pytest.param("task_outsourcing", [('<bcext:function name="balanceOf">',
                                       '<bcext:function name="transfer"/>'
                                       '<bcext:function name="balanceOf">')],
                 [("error", "itf_lrk", "duplicate function 'transfer'")], id="function-twice"),
    pytest.param("task_outsourcing", [('<bcext:function name="balanceOf">',
                                       '<bcext:function name="LorikeetCoin">'
                                       '<bcext:input name="x" type="uint256"/>'
                                       '</bcext:function><bcext:function name="balanceOf">')],
                 [("error", "itf_lrk", "function 'LorikeetCoin' hides interface 'LorikeetCoin'")],
                 id="function-named-like-interface"),
    # solc refuses the emitted balanceOf(address account) returns (uint256 account)
    pytest.param("task_outsourcing", [(TO_BALANCE, TO_BALANCE.replace("balance", "account")),
                                      (TO_BIND_OUT, TO_BIND_OUT.replace("balance", "account"))],
                 [("error", "itf_lrk", "output parameter 'account' on balanceOf collides with "
                                       "input parameter 'account' on balanceOf")],
                 id="input-and-output-of-one-name"),
    pytest.param("ico", [('type="bool"/>', 'type="bool); function pwn() external; '
                                           'function x(uint256"/>')],
                 [("error", "itf_lrk", "unknown output parameter type 'bool); function pwn() "
                                       "external; function x(uint256' on transfer")],
                 id="parameter-type-injected"),
    pytest.param("task_outsourcing",
                 [(TO_ACCOUNT, '<bcext:input name="account" type="mapping"/>'),
                  (TO_BALANCE, '<bcext:output name="balance" type="uint"/>')],
                 [("error", "itf_lrk", "unknown input parameter type 'mapping' on balanceOf"),
                  ("error", "itf_lrk", "unknown output parameter type 'uint' on balanceOf"),
                  ("error", "s_check", "return 'balance' of balanceOf is uint, "
                                       "bound to uint256 variable 'escrowBalance'"),
                  ("error", "s_check", "'account' of balanceOf expects mapping, "
                                       "bound to address 'processAddress'")],
                 id="parameter-types"),
    pytest.param("task_outsourcing", [(TO_ACCOUNT, TO_ACCOUNT + TO_ACCOUNT)],
                 [("error", "itf_lrk", "duplicate input parameter 'account' on balanceOf")],
                 id="input-parameter-twice"),
    pytest.param("task_outsourcing", [(TO_BALANCE, TO_BALANCE + TO_BALANCE)],
                 [("error", "itf_lrk", "duplicate output parameter 'balance' on balanceOf")],
                 id="output-parameter-twice"),
    pytest.param("ico", [('sourceRef="g_cap" targetRef="g_loop"',
                          'sourceRef="g_cap" targetRef="start"')],
                 [("error", "start", "start event has incoming flows"),
                  ("warning", "g_loop", DEGENERATE)],
                 id="start-incoming"),
    pytest.param("ico", [('<sequenceFlow id="f1" sourceRef="start" targetRef="g_loop"/>', "")],
                 [("error", "start", "start event has no outgoing flow"),
                  ("warning", "g_loop", DEGENERATE)],
                 id="start-no-outgoing"),
    pytest.param("task_outsourcing",
                 [(TO_F8, TO_F8 + '<sequenceFlow id="f9" sourceRef="end_refunded" '
                                  'targetRef="end_done"/>')],
                 [("error", "end_refunded", "end event has outgoing flows")], id="end-outgoing"),
    pytest.param("task_outsourcing", [('<endEvent id="end_done" name="Task paid"/>',
                                       '<endEvent id="end_done" name="Task paid"/>'
                                       '<endEvent id="end_lost" name="Lost"/>')],
                 [("error", "end_lost", "end event has no incoming flow")], id="end-no-incoming"),
    pytest.param("ico", [('sourceRef="g_cap" targetRef="g_loop" default="true"/>',
                          'sourceRef="g_cap" targetRef="g" default="true"/>'
                          '<exclusiveGateway id="g"/>')],
                 [("warning", "g_loop", DEGENERATE),
                  ("error", "g", "gateway must have incoming and outgoing flows")],
                 id="gateway-no-outgoing"),
    pytest.param("task_outsourcing", [('targetRef="t_deposit"/>',
                                       'targetRef="t_deposit" default="true"/>')],
                 [("error", "f1", "default flag on a flow not leaving an XOR gateway")],
                 id="default-off-xor"),
    pytest.param("task_outsourcing", [(TO_F4_CONDITION, TO_F4[:-1] + ' default="true"/>')],
                 [("error", "g_deposit", "more than one default flow")], id="two-defaults"),
    pytest.param("task_outsourcing",
                 [(TO_F5, TO_F5[:-2] + "><conditionExpression>true</conditionExpression>"
                                       "</sequenceFlow>")],
                 [("error", "f5", "default flow must not carry a condition")],
                 id="default-with-condition"),
    pytest.param("task_outsourcing", [(TO_F4_CONDITION, TO_F4[:-1] + "/>")],
                 [("error", "f4", "XOR-split branch without condition and not default")],
                 id="branch-without-condition"),
    pytest.param("task_outsourcing", [("escrowBalance == price", "escrowBalance + price")],
                 [("error", "f4", "condition must be bool, got uint256")],
                 id="condition-not-bool"),
    pytest.param("task_outsourcing", [(TO_REQUESTER, TO_REQUESTER + TO_REQUESTER)],
                 [("error", "t_deposit", "duplicate task input 'requester'")],
                 id="task-input-twice"),
    pytest.param("task_outsourcing",
                 [(TO_REQUESTER, TO_REQUESTER + '<bcext:input name="memo" type="bytes"/>')],
                 [("error", "t_deposit", "unknown task input type 'bytes'")],
                 id="task-input-type"),
    # the emitted Tokens_claimed(uint256 _tokens) would pay the caller's
    # argument, not the slot _tokens that s_alloc wrote
    pytest.param("ico", [('<userTask id="t_claim" name="Tokens claimed"/>',
                          '<userTask id="t_claim" name="Tokens claimed"><extensionElements>'
                          '<bcext:input name="_tokens" type="uint256"/>'
                          '</extensionElements></userTask>')],
                 [("error", "t_claim",
                   "task input '_tokens' hides the slot '_tokens' of variable 'tokens'")],
                 id="task-input-hides-a-slot"),
    pytest.param("ico",
                 [(ICO_INVESTOR, ICO_INVESTOR + '<bcext:input name="_amount" type="uint256"/>')],
                 [("error", "t_invest",
                   "task input '_amount' hides the slot '_amount' of task input 'amount'")],
                 id="task-input-hides-an-input-slot"),
    pytest.param("ico", [("tokens = amount * rate", "tokens = amount > rate")],
                 [("error", "s_alloc", "script assigns bool to uint256 variable 'tokens'")],
                 id="script-type"),
    pytest.param("task_outsourcing", [('fnName="balanceOf"', 'fnName="allowance"')],
                 [("error", "s_check", "interface 'LorikeetCoin' has no function 'allowance'")],
                 id="no-function"),
    pytest.param("task_outsourcing",
                 [('<bcext:bindIn param="account" source="processAddress"/>', "")],
                 [("error", "s_check",
                   "input bindings for balanceOf must cover ['account'] exactly, got []")],
                 id="inputs-uncovered"),
    pytest.param("task_outsourcing", [(TO_BIND_OUT, TO_BIND_OUT.replace("balance", "total"))],
                 [("error", "s_check", "output binding for unknown return 'total'")],
                 id="unknown-return"),
    pytest.param("task_outsourcing",
                 [(TO_BIND_OUT, TO_BIND_OUT + TO_BIND_OUT.replace("escrowBalance", "price"))],
                 [("error", "s_check", "return 'balance' bound more than once")],
                 id="return-twice"),
    pytest.param("task_outsourcing",
                 [(TO_BIND_OUT, TO_BIND_OUT.replace("escrowBalance", "total"))],
                 [("error", "s_check", "output bound to undeclared variable 'total'")],
                 id="output-undeclared"),
    pytest.param("task_outsourcing", [('source="worker"', 'source="payee"')],
                 [("error", "s_pay", "binding source 'payee' is not a variable or task input")],
                 id="binding-source-undeclared"),
    # t_work and s_pay loop through g_again, and end_done is gone
    pytest.param("task_outsourcing",
                 [('<endEvent id="end_done" name="Task paid"/>',
                   '<exclusiveGateway id="g_again"/>'),
                  (TO_F4, TO_F4.replace("t_work", "g_again")),
                  (TO_F7, TO_F7.replace("end_done", "g_again")
                   + '<sequenceFlow id="f9" sourceRef="g_again" targetRef="t_work"/>')],
                 [("error", "t_work", NOT_REACHED), ("error", "s_pay", NOT_REACHED),
                  ("error", "g_again", NOT_REACHED)],
                 id="end-unreachable"),
    pytest.param("task_outsourcing", [("escrowBalance == price", "escrowBalance == cost")],
                 [("error", "f4", "condition type error: undeclared variable 'cost'")],
                 id="expr-undeclared"),
    pytest.param("task_outsourcing", [("escrowBalance == price", "escrowBalance == worker")],
                 [("error", "f4", "condition type error: cannot compare uint256 with address")],
                 id="expr-cannot-compare"),
    pytest.param("task_outsourcing", [("escrowBalance == price", "escrowBalance || price")],
                 [("error", "f4", "condition type error: '||' requires bool operands, "
                                  "got uint256 and uint256")],
                 id="expr-bool-operands"),
    pytest.param("task_outsourcing",
                 [(TO_VAR, TO_VAR + '<bcext:variable name="fee" type="uint256" initial="-1"/>')],
                 [("error", "fee", "initial value -1 does not match type uint256")],
                 id="initial-negative-uint"),
    pytest.param("task_outsourcing",
                 [(TO_VAR, TO_VAR + '<bcext:variable name="done" type="bool" initial="5"/>')],
                 [("error", "done", "initial value 5 does not match type bool")],
                 id="initial-number-bool"),
    pytest.param("task_outsourcing",
                 [(TO_VAR, TO_VAR + '<bcext:variable name="payer" type="address" '
                                    'initial="0x12"/>')],
                 [("error", "payer", "initial value '0x12' does not match type address")],
                 id="initial-short-address"),
    pytest.param("task_outsourcing",
                 [(TO_VAR, TO_VAR + '<bcext:variable name="done" type="bool" initial="true"/>')],
                 [], id="initial-bool"),
    # two functions of one name share one scope, where each declares the
    # locals preconditionsp and instanceOfLorikeetCoin: a local meets itself
    # there, and an input meets the first declaration of its name
    pytest.param("task_outsourcing",
                 [t_work_named_like_t_deposit("preconditionsp", "amount")],
                 [SAME_FUNCTION,
                  ("error", "t_work", "task input 'preconditionsp' collides with the emitted "
                                      "name 'preconditionsp'"),
                  ("error", "t_work", "duplicate task input 'amount'")],
                 id="one-function-name-both-with-inputs"),
    # the function without inputs comes first, so t_work's inputs meet its
    # locals in the order they are declared
    pytest.param("task_outsourcing",
                 TO_DEPOSIT_BARE + [t_work_named_like_t_deposit("preconditionsp", "marking")],
                 [SAME_FUNCTION,
                  ("error", "t_work", "task input 'preconditionsp' collides with the emitted "
                                      "name 'preconditionsp'"),
                  ("error", "t_work", "task input 'marking' hides the emitted name 'marking'")],
                 id="one-function-name-one-with-inputs"),
    pytest.param("task_outsourcing", TO_DEPOSIT_BARE + [t_work_named_like_t_deposit()],
                 [SAME_FUNCTION], id="one-function-name-neither-with-inputs"),
])
def test_validate_model_diagnostic(fixture, edits, expected):
    text = (FIXTURES / f"{fixture}.bpmn").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    assert validate_model(parse_bpmn(text)).diagnostics == tuple(
        Diagnostic(*d) for d in expected)


# every name that ProcessFactory.sol declares in the file, in the monitor
# and in t_invest's function Investment_received, as the table gives them
INVESTMENT_RECEIVED_SEES = sorted({
    name for s in process_scopes(load_model("ico")) for name in s.names
    if s.path in ((), ("ProcessMonitor",), ("ProcessMonitor", "Investment_received"))})


@pytest.mark.parametrize("name", INVESTMENT_RECEIVED_SEES)
def test_a_task_input_may_not_shadow_a_name_of_the_task_function(name):
    text = (FIXTURES / "ico.bpmn").read_text().replace(
        ICO_INVESTOR, ICO_INVESTOR + f'<bcext:input name="{name}" type="uint256"/>', 1)
    diagnostics = validate_model(parse_bpmn(text)).diagnostics
    assert diagnostics and {(d.severity, d.ref) for d in diagnostics} == {("error", "t_invest")}
    assert any(f"task input '{name}'" in d.message for d in diagnostics)


ADDRESS_VARIABLE = '<bcext:variable name="addressOfLorikeetCoin" type="address"/>'


def test_a_variable_may_not_be_named_like_an_unbound_interfaces_address():
    # ico's LorikeetCoin has no contractAddress, so the constructor takes one
    text = (FIXTURES / "ico.bpmn").read_text().replace(
        "<bcext:variables>", "<bcext:variables>" + ADDRESS_VARIABLE, 1)
    assert validate_model(parse_bpmn(text)).diagnostics == (Diagnostic(
        "error", "addressOfLorikeetCoin", "the slot '_addressOfLorikeetCoin' of variable "
        "'addressOfLorikeetCoin' is hidden by the constructor parameter "
        "'_addressOfLorikeetCoin' of interface 'LorikeetCoin'"),)
    # task_outsourcing's is bound, and its constructor takes none
    text = (FIXTURES / "task_outsourcing.bpmn").read_text().replace(
        "<bcext:variables>", "<bcext:variables>" + ADDRESS_VARIABLE, 1)
    assert validate_model(parse_bpmn(text)).diagnostics == ()


# the monitor would declare uint public marking, a local preconditionsp, a
# function or an event of the interface's name, and read it as the type in
# "<name> instanceOf<name> = <name>(addressOf<name>);"
@pytest.mark.parametrize("name", ["marking", "preconditionsp", "runAutoTransitions",
                                  "taskExecuted"])
def test_an_interface_may_not_take_a_name_the_monitor_declares(name):
    text = (FIXTURES / "task_outsourcing.bpmn").read_text()
    assert validate_model(parse_bpmn(text.replace('name="LorikeetCoin"', f'name="{name}"'))
                          ).diagnostics == (Diagnostic(
        "error", "itf_lrk", f"interface '{name}' is hidden by the emitted name '{name}'"),)


def test_binding_source_must_be_a_variable_or_a_literal():
    # the reader makes every bindIn source a Var or a Lit, so the model is
    # edited directly
    model = load_model("task_outsourcing")
    pay = model.invocations[2]
    amount = ParameterBinding("amount", BinOp("+", Var("price"), Lit(1, "int_const")))
    model = dataclasses.replace(model, invocations=model.invocations[:2] + (
        pay._replace(input_bindings=pay.input_bindings[:1] + (amount,)),) + model.invocations[3:])
    assert validate_model(model).diagnostics == (Diagnostic(
        "error", "s_pay",
        "binding for 'amount' must be a variable, task input, processAddress, or literal"),)


# --- model index --------------------------------------------------------------


def scan_lookups(model, ref):
    """node/incoming/outgoing/interface for ref, by scanning in document order."""
    return (next((n for n in model.nodes if n.id == ref), None),
            tuple(f for f in model.flows if f.target == ref),
            tuple(f for f in model.flows if f.source == ref),
            next((i for i in model.interfaces if i.id == ref), None))


def index_lookups(model, ref):
    return (model.node(ref), model.incoming(ref), model.outgoing(ref),
            model.interface(ref))


@pytest.mark.parametrize("name", ["grain_title", "ico", "quality_tracing", "task_outsourcing"])
def test_model_index_matches_scan_on_fixtures(name):
    model = load_model(name)
    refs = [n.id for n in model.nodes] + [i.id for i in model.interfaces]
    for ref in refs:
        assert index_lookups(model, ref) == scan_lookups(model, ref), ref


@pytest.mark.parametrize("name", ["grain_title", "ico", "quality_tracing", "task_outsourcing"])
def test_calls_are_resolved_once_per_task(name):
    model = load_model(name)
    for n in model.nodes:
        bound = tuple(b for b in model.invocations if b.source_task == n.id)
        calls = model.calls_of(n.id)
        assert len(calls) == len(bound)
        assert model.calls_of(n.id) is calls
    assert model.calls_of("ghost") == ()


@pytest.mark.parametrize("name", ["grain_title", "ico", "quality_tracing", "task_outsourcing"])
def test_calls_carry_the_declared_function(name):
    model = load_model(name)
    for b in model.invocations:
        calls = model.calls_of(b.source_task)
        bound = [c for c in model.invocations if c.source_task == b.source_task]
        itf, fn, _, targets = calls[bound.index(b)]
        assert itf is model.interface(b.target_interface)
        assert fn is itf.function(b.fn_name)
        assert len(targets) == len(fn.outputs)


def test_model_index_duplicate_id_returns_first():
    dup = Node("t1", NodeKind.SCRIPT_TASK, name="second")
    m = linear_model(nodes=linear_model().nodes + (dup,))
    assert m.node("t1") is m.nodes[1]
    assert index_lookups(m, "t1") == scan_lookups(m, "t1")
    assert any("duplicate node id" in e for e in errors_of(m))


def test_model_index_lists_dangling_flow_under_missing_id():
    m = linear_model(flows=linear_model().flows + (SequenceFlow("f3", "t1", "ghost"),))
    assert m.node("ghost") is None
    assert m.incoming("ghost") == (m.flows[2],)
    assert m.outgoing("t1") == (m.flows[1], m.flows[2])
    assert index_lookups(m, "ghost") == scan_lookups(m, "ghost")


def test_model_index_unknown_id():
    assert index_lookups(linear_model(), "nope") == (None, (), (), None)


@pytest.mark.parametrize("old, new, message", [
    ('<bcext:bindIn param="amount" source="price"/>',
     '<bcext:bindIn param="amount" source="worker"/>',
     "'amount' of transfer expects uint256, bound to address 'worker'"),
    ('<bcext:bindIn param="to" source="worker"/>',
     '<bcext:bindIn param="to" source="7"/>',
     "'to' of transfer expects address, bound to literal 7"),
    ('<bcext:bindOut return="balance" target="escrowBalance"/>',
     '<bcext:bindOut return="balance" target="worker"/>',
     "return 'balance' of balanceOf is uint256, bound to address variable 'worker'"),
], ids=["input-variable", "input-literal", "output"])
def test_invocation_bindings_type_check(old, new, message):
    text = (FIXTURES / "task_outsourcing.bpmn").read_text()
    assert old in text
    assert errors_of(parse_bpmn(text.replace(old, new))) == [message]


# each name that reaches the Solidity source as it is: an injected one
# would put its own declarations into the emitted contract
INJECTED = "x; function f() public { selfdestruct(msg.sender); } uint256 y"


@pytest.mark.parametrize("old, new, message", [
    ('<bcext:variable name="price" type="uint256" initial="300"/>',
     f'<bcext:variable name="price" type="uint256" initial="300"/>'
     f'<bcext:variable name="{INJECTED}" type="uint256"/>',
     f"variable name '{INJECTED}' is not an identifier"),
    ('<bcext:input name="requester" type="address"/>',
     '<bcext:input name="requester" type="address"/><bcext:input name="a-b" type="bool"/>',
     "task input 'a-b' is not an identifier"),
    ("</bcext:smartContractInterface>",
     '</bcext:smartContractInterface><bcext:smartContractInterface id="itf_x" name="X Y"/>',
     "interface name 'X Y' is not an identifier"),
    ('<bcext:function name="balanceOf">',
     '<bcext:function name="f()"/><bcext:function name="balanceOf">',
     "function name 'f()' is not an identifier"),
    ('<bcext:output name="balance" type="uint256"/>',
     '<bcext:output name="balance" type="uint256"/><bcext:output name="ok;" type="bool"/>',
     "output parameter 'ok;' on balanceOf is not an identifier"),
    # solc rejects a declaration named by a keyword or a type name
    ('<bcext:variable name="price" type="uint256" initial="300"/>',
     '<bcext:variable name="price" type="uint256" initial="300"/>'
     '<bcext:variable name="mapping" type="uint256"/>',
     "variable name 'mapping' is not an identifier"),
    ('<bcext:input name="requester" type="address"/>',
     '<bcext:input name="requester" type="address"/><bcext:input name="return" type="bool"/>',
     "task input 'return' is not an identifier"),
    ("</bcext:smartContractInterface>",
     '</bcext:smartContractInterface><bcext:smartContractInterface id="itf_x" name="contract"/>',
     "interface name 'contract' is not an identifier"),
    ('<bcext:function name="balanceOf">',
     '<bcext:function name="emit"/><bcext:function name="balanceOf">',
     "function name 'emit' is not an identifier"),
    ('<bcext:output name="balance" type="uint256"/>',
     '<bcext:output name="balance" type="uint256"/><bcext:output name="uint8" type="bool"/>',
     "output parameter 'uint8' on balanceOf is not an identifier"),
], ids=["variable", "task-input", "interface", "function", "parameter",
        "variable-keyword", "task-input-keyword", "interface-keyword", "function-keyword",
        "parameter-keyword"])
def test_emitted_names_must_be_identifiers(old, new, message):
    text = (FIXTURES / "task_outsourcing.bpmn").read_text()
    assert old in text
    assert errors_of(parse_bpmn(text.replace(old, new, 1))) == [message]


@pytest.mark.parametrize("name", ["abstract", "case", "this", "true", "var", "while",
                                  "address", "bytes32", "fixed128x18", "msg", "require",
                                  "keccak256", "abi"])
def test_is_identifier_rejects_keywords_and_type_names(name):
    assert not is_identifier(name)
    assert is_identifier(name + "_") and is_identifier(name.capitalize())


NINES_80 = "9" * 80  # 266 bits


@pytest.mark.parametrize("old, new, messages", [
    ("tokens = amount * rate", f"tokens = {NINES_80}",
     ["script type error: integer literal above 2**256 - 1 (266 bits)"]),
    ("amountRaised >= cap", f"amountRaised >= {NINES_80}",
     ["condition type error: integer literal above 2**256 - 1 (266 bits)"]),
    ("tokens = amount * rate", f"tokens = {2**256 - 1}", []),
    ("tokens = amount * rate", f"tokens = {2**256 - 1} + amount", []),
    ("tokens = amount * rate", f"tokens = amount * rate; delta = {2**255}",
     [f"literal {2**255} does not fit int256 variable 'delta'"]),
    ("tokens = amount * rate", f"tokens = amount * rate; delta = {2**255 - 1}", []),
    ("tokens = amount * rate", f"tokens = amount * rate; delta = delta + {2**255}",
     [f"script type error: integer literal {2**255} does not fit int256"]),
    ("tokens = amount * rate", f"tokens = amount * rate; delta = -{2**256 - 1}",
     [f"script type error: integer literal -{2**256 - 1} is below int256 minimum"]),
    ("amountRaised >= cap", f"delta >= {2**255}",
     [f"condition type error: integer literal {2**255} does not fit int256"]),
    ("tokens = amount * rate", f"tokens = amount * rate; delta = delta + {2**255 - 1}", []),
    ("tokens = amount * rate", f"tokens = amount * rate; delta = -{2**255 - 1} - 1", []),
    ("tokens = amount * rate", f"tokens = amount * rate; delta = -{2**255}", []),
    ("amountRaised >= cap", "amountRaised >= 0x1" + "0" * 64,
     ["condition type error: integer literal above 2**256 - 1 (257 bits)"]),
    ("amountRaised >= cap", "amountRaised >= 0x1" + "0" * 63, []),
    # constant subexpressions are folded before the checks
    ("tokens = amount * rate", f"tokens = amount * rate; delta = delta + ({2**255} + 0)",
     [f"script type error: integer literal {2**255} does not fit int256"]),
    ("tokens = amount * rate", f"tokens = amount * rate; delta = -({2**256 - 2} + 1)",
     [f"script type error: integer literal -{2**256 - 1} is below int256 minimum"]),
    ("amountRaised >= cap", f"delta &lt; ({2**255} * 1)",
     [f"condition type error: integer literal {2**255} does not fit int256"]),
    ("tokens = amount * rate", f"tokens = amount * rate; delta = {2**255} + 0",
     [f"literal {2**255} does not fit int256 variable 'delta'"]),
    ("tokens = amount * rate", f"tokens = ({2**256 - 1} + 1) - 1",
     ["script type error: constant expression fails: "
      f"uint256 overflow: {2**256}"]),
    ("tokens = amount * rate", "tokens = amount + 1 / 0",
     ["script type error: constant expression fails: 1 / 0"]),
    ("tokens = amount * rate", f"tokens = amount * rate; delta = delta + (({2**255 - 1}) + 0)", []),
    ("tokens = amount * rate", f"tokens = amount * rate; delta = -({2**255 - 1} + 1)", []),
    ("amountRaised >= cap", f"delta &lt; ({2**255 - 1} * 1)", []),
    ("tokens = amount * rate", f"tokens = amount * rate; delta = {2**255 - 1} + 0", []),
    ("tokens = amount * rate", f"tokens = ({2**256 - 1} - 1) + 1", []),
], ids=["script", "condition", "uint256-max", "uint256-max-in-sum",
        "int256-overflow", "int256-max", "int256-operand-overflow", "negated-below-int256-min",
        "int256-comparison-overflow", "int256-max-in-sum", "int256-min-as-difference",
        "int256-min-negated", "hex-above-uint256-max", "hex-of-64-digits",
        "folded-int256-operand-overflow", "folded-negated-below-int256-min",
        "folded-int256-comparison-overflow", "folded-int256-assignment-overflow",
        "folded-uint256-overflow", "folded-zero-divisor",
        "folded-int256-max-in-sum", "folded-int256-min-negated",
        "folded-int256-max-compared", "folded-int256-max-assigned", "folded-uint256-max"])
def test_integer_literals_must_fit(old, new, messages):
    text = (FIXTURES / "ico.bpmn").read_text().replace(
        '<bcext:variable name="tokens" type="uint256"/>',
        '<bcext:variable name="tokens" type="uint256"/>'
        '<bcext:variable name="delta" type="int256"/>')
    assert old in text
    assert errors_of(parse_bpmn(text.replace(old, new))) == messages


@pytest.mark.parametrize("old, new", [
    ("tokens = amount * rate", f"tokens = amount * rate; delta = delta + ({2**255} + 0)"),
    ("tokens = amount * rate", f"tokens = amount * rate; delta = -({2**256 - 2} + 1)"),
    ("amountRaised >= cap", f"delta &lt; ({2**255} * 1)"),
])
def test_constant_outside_int256_fails_validate(tmp_path, capsys, old, new):
    from procforge.cli import main
    text = (FIXTURES / "ico.bpmn").read_text().replace(
        '<bcext:variable name="tokens" type="uint256"/>',
        '<bcext:variable name="tokens" type="uint256"/>'
        '<bcext:variable name="delta" type="int256"/>')
    model = tmp_path / "ico.bpmn"
    model.write_text(text.replace(old, new))
    assert main(["validate", str(model)]) == 1
    assert "1 error(s)" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["grain_title", "grain_title_unbound", "ico",
                                  "quality_tracing", "task_outsourcing"])
def test_fixtures_validate_ok(name):
    assert validate_model(load_model(name)).ok


def test_variable_of_unknown_type_is_a_type_error():
    # an 'int_const' variable would otherwise be taken for a folded constant
    with pytest.raises(ExprTypeError, match="variable 'k' has unknown type 'int_const'"):
        compile_expr(BinOp("+", Var("k"), Lit(1, "int_const")), {"k": "int_const"})
