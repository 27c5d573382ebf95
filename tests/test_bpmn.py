import sys

import pytest

from procforge import bpmn
from procforge.bpmn import (
    MAX_EXPR_DEPTH,
    ConditionParseError,
    parse_bpmn,
    parse_condition,
    parse_script,
)
from procforge.codegen import render_expr
from procforge.ir import Assign, BinOp, Lit, NodeKind, UnaryOp, Var, compile_expr, validate_model

from conftest import load_model


def test_condition_precedence():
    e = parse_condition("a + b * c == d && !e || f")
    # ((((a + (b*c)) == d) && (!e)) || f)
    assert isinstance(e, BinOp) and e.op == "||"
    left = e.left
    assert left.op == "&&"
    assert left.left.op == "=="
    assert left.left.left.op == "+"
    assert left.left.left.right.op == "*"
    assert isinstance(left.right, UnaryOp) and left.right.op == "!"


def test_condition_parens_and_unary():
    e = parse_condition("-(x + 1) < y")
    assert e.op == "<" and isinstance(e.left, UnaryOp)


def test_condition_literals():
    assert parse_condition("true") == Lit(True, "bool")
    assert parse_condition("42") == Lit(42, "int_const")
    assert parse_condition("0xff") == Lit(255, "int_const")
    addr = "0x" + "a" * 40
    assert parse_condition(addr) == Lit(addr, "address")
    assert parse_condition('"hi"') == Lit("hi", "string")


def test_forty_hex_digits_lex_as_address_not_number():
    # one digit short of an address is a hex number
    e = parse_condition("0x" + "a" * 39)
    assert e.type == "int_const"
    assert parse_condition("0x" + "a" * 40) == Lit("0x" + "a" * 40, "address")
    # so is one digit or more past it
    for digits in (41, 64, 65):
        assert parse_condition("0x1" + "0" * (digits - 1)) == Lit(16 ** (digits - 1), "int_const")


def test_condition_error_offset_and_expected():
    with pytest.raises(ConditionParseError) as exc:
        parse_condition("a + ")
    assert exc.value.offset == 4
    assert "(" in exc.value.expected

    with pytest.raises(ConditionParseError) as exc:
        parse_condition("(a + b")
    assert exc.value.expected == (")",)

    with pytest.raises(ConditionParseError) as exc:
        parse_condition("a @ b")
    assert exc.value.offset == 2


def test_condition_rejects_trailing_input():
    with pytest.raises(ConditionParseError) as exc:
        parse_condition("a == b c")
    assert "trailing" in str(exc.value)


def _nested_conditions(depth):
    """Conditions `depth` levels deep, one per way of nesting: parentheses,
    a flat sum, unary operators."""
    return ["(" * (depth - 1) + "x > 0" + ")" * (depth - 1),
            "x" + " + 1" * (depth - 1) + " > 0",
            "!" * depth + "b"]


def test_expression_depth_is_bounded():
    for text in _nested_conditions(MAX_EXPR_DEPTH + 1):
        with pytest.raises(ConditionParseError, match="nested deeper than"):
            parse_condition(text)
        with pytest.raises(ConditionParseError, match="nested deeper than"):
            parse_script("b = " + text)
    with pytest.raises(ConditionParseError, match="nested deeper than"):
        parse_condition("(" * 400 + "x" + ")" * 400)


def test_deepest_expression_runs_well_inside_the_recursion_limit():
    # every tree walker, the parser included, stays within 500 frames of
    # the caller at the depth bound
    limit = sys.getrecursionlimit()
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    sys.setrecursionlimit(depth + 500)
    try:
        for text in _nested_conditions(MAX_EXPR_DEPTH):
            e = parse_condition(text)
            t, run = compile_expr(e, {"x": "uint256", "b": "bool"})
            assert t == "bool" and run({"x": 1, "b": True}) in (True, False)
            assert render_expr(e, {"x": "uint256", "b": "bool"}).count("_") >= 1
    finally:
        sys.setrecursionlimit(limit)


def test_parse_script_statements():
    stmts = parse_script("x = 1; y := x + 2\nz = y * y")
    assert [s.target for s in stmts] == ["x", "y", "z"]
    assert stmts[1].value == BinOp("+", Var("x"), Lit(2, "int_const"))


def test_parse_script_keeps_semicolons_inside_strings():
    stmts = parse_script('origin = "Farm; Block 7"; x = 1')
    assert stmts == (Assign("origin", Lit("Farm; Block 7", "string")),
                     Assign("x", Lit(1, "int_const")))


@pytest.mark.parametrize("text, offset", [
    ('x = 1\ny = "a\nb"', 10),  # a string does not run over a newline
    ("x = 1\n+ 2", 6),  # nor does an expression
    ("x = 1;\ny = 1 2", 13),
])
def test_parse_script_errors_carry_offsets_into_the_whole_body(text, offset):
    with pytest.raises(ConditionParseError) as exc:
        parse_script(text)
    assert exc.value.offset == offset


def test_parse_script_requires_assignment():
    with pytest.raises(ConditionParseError):
        parse_script("x + 1")


# --- full documents ----------------------------------------------------------


def test_parse_grain_fixture():
    m = load_model("grain_title")
    assert m.id == "grain_title"
    assert len(m.tasks()) == 12
    assert len(m.gateways()) == 3
    assert len(m.flows) == 18
    assert len(m.interfaces) == 2
    assert len(m.invocations) == 6

    lrk = m.interface("itf_lrk")
    assert lrk.name == "LorikeetCoin"
    assert lrk.contract_address == "0xD3E4EBe81b55EA73b559da31ADf2CAc3b254ea11"
    transfer = lrk.function("transfer")
    assert [p.name for p in transfer.inputs] == ["to", "amount"]
    assert [p.name for p in transfer.outputs] == ["success"]

    interest = m.node("t_interest")
    assert interest.kind == NodeKind.USER_TASK
    assert [(ti.name, ti.type) for ti in interest.task_inputs] == \
        [("deposit", "uint256"), ("buyer", "address")]

    f15 = next(f for f in m.flows if f.id == "f15")
    assert f15.condition == BinOp("==", Var("escrowBalance"), Var("price"))
    f16 = next(f for f in m.flows if f.id == "f16")
    assert f16.is_default and f16.condition is None

    calc = m.node("s_calcweight")
    assert calc.script[0].target == "grainWeight"


def test_flow_document_order_preserved():
    m = load_model("grain_title")
    assert [f.id for f in m.flows[:4]] == ["f01", "f02", "f03", "f04"]


def test_binding_sources():
    m = load_model("grain_title")
    inv = next(b for b in m.invocations if b.source_task == "t_interest")
    by_param = {b.param: b.source for b in inv.input_bindings}
    assert by_param["to"] == Var("processAddress")
    assert by_param["amount"] == Var("deposit")


DOC = """<?xml version="1.0"?>
<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"
             xmlns:bcext="urn:procforge:bcext:1" id="d">
  <process id="p">
    {body}
  </process>
</definitions>
"""

MINIMAL = """
    <startEvent id="start"/>
    <userTask id="t" name="Go"/>
    <endEvent id="end"/>
    <sequenceFlow id="f1" sourceRef="start" targetRef="t"/>
    <sequenceFlow id="f2" sourceRef="t" targetRef="end"/>
"""


def test_xml_syntax_error_position():
    with pytest.raises(bpmn.BpmnParseError, match="^XML syntax error at line 1, column "):
        parse_bpmn("<definitions><broken")


def test_wrong_root_element():
    with pytest.raises(bpmn.BpmnParseError):
        parse_bpmn("<html/>")


def test_unknown_bpmn_element():
    with pytest.raises(bpmn.BpmnParseError,
                       match="^unsupported BPMN element 'callActivity' in process$"):
        parse_bpmn(DOC.format(body=MINIMAL + '<callActivity id="c"/>'))


def one_node(tag, children):
    """start -> n -> end, where n is a <tag> holding children."""
    return ('<startEvent id="start"/>'
            f'<{tag} id="n">{children}</{tag}>'
            '<endEvent id="end"/>'
            '<sequenceFlow id="f1" sourceRef="start" targetRef="n"/>'
            '<sequenceFlow id="f2" sourceRef="n" targetRef="end"/>')


NODE_TAGS = [kind.value for kind in NodeKind]


# Every element is read where it may appear or rejected, never dropped.
@pytest.mark.parametrize("body, message", [
    *((one_node(tag, "<extensionElements><bcext:bogus/></extensionElements>"),
       f"unexpected element 'bogus' inside {tag}") for tag in NODE_TAGS),
    (one_node("userTask", "<multiInstanceLoopCharacteristics/>"),
     "unexpected element 'multiInstanceLoopCharacteristics' inside userTask"),
    (one_node("task", '<bcext:input name="q" type="bool"/>'),
     "unexpected element 'input' inside task"),
    ('<extensionElements><extensionElements/></extensionElements>' + MINIMAL,
     "unsupported BPMN element 'extensionElements' in process"),
    ("<script>x = 1</script>" + MINIMAL, "unsupported BPMN element 'script' in process"),
    (MINIMAL.replace('targetRef="end"/>', 'targetRef="end"><bcext:bogus/></sequenceFlow>'),
     "unexpected element 'bogus' inside sequenceFlow"),
], ids=[*NODE_TAGS, "multi-instance", "bare-input", "nested-extensions", "process-script",
        "flow-child"])
def test_element_out_of_place_is_unknown(body, message):
    with pytest.raises(bpmn.BpmnParseError) as exc:
        parse_bpmn(DOC.format(body=body))
    assert str(exc.value) == message


def test_documentation_incoming_and_outgoing_are_skipped():
    body = ('<startEvent id="start"><outgoing>f1</outgoing></startEvent>'
            '<userTask id="t" name="Go"><documentation>Go on</documentation>'
            '<incoming>f1</incoming><outgoing>f2</outgoing></userTask>'
            '<endEvent id="end"><incoming>f2</incoming></endEvent>'
            '<sequenceFlow id="f1" sourceRef="start" targetRef="t">'
            '<documentation>first</documentation></sequenceFlow>'
            '<sequenceFlow id="f2" sourceRef="t" targetRef="end"/>')
    assert parse_bpmn(DOC.format(body=body)) == parse_bpmn(DOC.format(body=MINIMAL))


@pytest.mark.parametrize("default", ["yes", "True", "1", ""])
def test_flow_default_must_be_true_or_false(default):
    body = MINIMAL.replace('<sequenceFlow id="f2"', f'<sequenceFlow id="f2" default="{default}"')
    with pytest.raises(bpmn.BpmnParseError) as exc:
        parse_bpmn(DOC.format(body=body))
    assert "sequenceFlow 'f2'" in str(exc.value)


CONDITION = "<conditionExpression>true</conditionExpression>"


# A node holds at most one script and a flow at most one condition.
@pytest.mark.parametrize("body, message", [
    (one_node("scriptTask", "<script>a = 1</script><script>b = 2</script>"),
     "scriptTask 'n' has a second script"),
    (one_node("userTask", "<script/><script/>"), "userTask 'n' has a second script"),
    (MINIMAL.replace('targetRef="end"/>', f'targetRef="end">{CONDITION * 2}</sequenceFlow>'),
     "sequenceFlow 'f2' has a second conditionExpression"),
], ids=["script", "empty-scripts", "condition"])
def test_second_script_or_condition_is_an_error(body, message):
    with pytest.raises(bpmn.BpmnParseError) as exc:
        parse_bpmn(DOC.format(body=body))
    assert str(exc.value) == message


# Model defects are the validator's: the reader builds the model as
# written, and validate_model reports the defect at its ref.


def errors_of(body):
    return [(d.ref, d.message) for d in validate_model(parse_bpmn(DOC.format(body=body))).errors]


def test_duplicate_id():
    assert ("t", "duplicate node id") in errors_of(MINIMAL + '<userTask id="t"/>')
    flow = '<sequenceFlow id="f2" sourceRef="t" targetRef="end"/>'
    assert ("f2", "duplicate flow id") in errors_of(MINIMAL + flow)
    for itf_id in ("t", "f1"):
        itf = f'<bcext:smartContractInterface id="{itf_id}" name="X"/>'
        assert (itf_id, "duplicate interface id") in errors_of(MINIMAL + itf)


INPUT = '<extensionElements><bcext:input name="q" type="bool"/></extensionElements>'


@pytest.mark.parametrize("tag, children, message", [
    ("scriptTask", INPUT, "only user tasks may declare task inputs"),
    ("task", INPUT, "only user tasks may declare task inputs"),
    ("exclusiveGateway", INPUT, "only user tasks may declare task inputs"),
    ("userTask", "<script>x = 1</script>", "only script tasks may carry a script"),
], ids=["scriptTask", "task", "exclusiveGateway", "userTask"])
def test_node_kind_rules_are_the_validators(tag, children, message):
    assert ("n", message) in errors_of(one_node(tag, children))


def test_duplicate_id_resolves_to_its_first_node():
    # g is an XOR split and, later, a user task; every lookup of g finds the
    # split, as ProcessModel.node does
    body = ('<bcext:variables><bcext:variable name="b" type="bool"/></bcext:variables>'
            '<startEvent id="start"/><exclusiveGateway id="g"/>'
            '<userTask id="a"/><userTask id="c"/><exclusiveGateway id="j"/>'
            '<endEvent id="end"/><userTask id="g" name="Dup"/>'
            '<sequenceFlow id="f0" sourceRef="start" targetRef="g"/>'
            '<sequenceFlow id="f1" sourceRef="g" targetRef="a">'
            '<conditionExpression>b</conditionExpression></sequenceFlow>'
            '<sequenceFlow id="f2" sourceRef="g" targetRef="c">'
            '<conditionExpression>!b</conditionExpression></sequenceFlow>'
            '<sequenceFlow id="f3" sourceRef="a" targetRef="j"/>'
            '<sequenceFlow id="f4" sourceRef="c" targetRef="j"/>'
            '<sequenceFlow id="f5" sourceRef="j" targetRef="end"/>'
            '<bcext:invocation sourceTask="g" targetInterface="i" fnName="f"/>')
    errors = errors_of(body)
    assert ("g", "duplicate node id") in errors
    assert ("g", "invocation source is not a task") in errors
    assert not [e for e in errors if e[0] in ("f1", "f2")]


def test_malformed_interface_address():
    body = MINIMAL + ('<bcext:smartContractInterface id="i" name="X" '
                      'contractAddress="0x123"/>')
    assert parse_bpmn(DOC.format(body=body)).interfaces[0].contract_address == "0x123"
    assert ("i", "malformed contract address '0x123'") in errors_of(body)


def test_dangling_invocation_task():
    body = MINIMAL + (
        '<bcext:smartContractInterface id="i" name="X"/>'
        '<bcext:invocation sourceTask="ghost" targetInterface="i" fnName="f"/>')
    assert ("ghost", "invocation source is not a task") in errors_of(body)


def test_dangling_invocation_interface():
    body = MINIMAL + '<bcext:invocation sourceTask="t" targetInterface="ghost" fnName="f"/>'
    assert ("t", "invocation targets unknown interface 'ghost'") in errors_of(body)


def test_dangling_flow_is_left_to_validator():
    # parser accepts it; validate_model reports it
    m = parse_bpmn(DOC.format(body=MINIMAL +
                              '<sequenceFlow id="f3" sourceRef="t" targetRef="ghost"/>'))
    assert len(m.flows) == 3


def test_variables_under_extension_elements():
    body = ('<extensionElements><bcext:variables>'
            '<bcext:variable name="n" type="uint256" initial="5"/>'
            '</bcext:variables></extensionElements>' + MINIMAL)
    m = parse_bpmn(DOC.format(body=body))
    assert m.variables[0].name == "n" and m.variables[0].initial == 5


def test_variable_initial_literals():
    body = ('<bcext:variables>'
            '<bcext:variable name="b" type="bool" initial="true"/>'
            '<bcext:variable name="a" type="address" initial="0x%s"/>'
            '<bcext:variable name="s" type="string" initial="hello"/>'
            '</bcext:variables>' % ("1" * 40)) + MINIMAL
    m = parse_bpmn(DOC.format(body=body))
    assert m.variables[0].initial is True
    assert m.variables[1].initial == "0x" + "1" * 40
    assert m.variables[2].initial == "hello"


ADDR = "0x" + "aB" * 20

# What a bindIn source and a variable initial read as: a name is a Var (an
# initial keeps it as its text), anything else the one literal it spells.
LITERAL_TEXTS = [
    ("x", Var("x")),
    ("processAddress", Var("processAddress")),
    ("true", Lit(True, "bool")),
    ("false", Lit(False, "bool")),
    (ADDR, Lit(ADDR, "address")),
    ("5", Lit(5, "int_const")),
    ("-5", Lit(-5, "int_const")),
    ("5abc", Lit("5abc", "string")),
    ("0xff", Lit("0xff", "string")),
    (ADDR + "0", Lit(ADDR + "0", "string")),
    ("", Lit("", "string")),
]


def one_binding_and_initial(text):
    body = ('<bcext:variables><bcext:variable name="v" type="string" initial="%s"/>'
            '</bcext:variables>'
            '<bcext:invocation sourceTask="t" targetInterface="i" fnName="f">'
            '<bcext:bindIn param="p" source="%s"/></bcext:invocation>' % (text, text))
    return parse_bpmn(DOC.format(body=body + MINIMAL))


@pytest.mark.parametrize("text, expr", LITERAL_TEXTS,
                         ids=[text[:16] or "empty" for text, _ in LITERAL_TEXTS])
def test_binding_source_and_initial_read_as_one_expression(text, expr):
    m = one_binding_and_initial(text)
    assert m.invocations[0].input_bindings[0].source == expr
    initial = m.variables[0].initial
    expected = expr.value if isinstance(expr, Lit) else text
    assert type(initial) is type(expected) and initial == expected


@pytest.mark.parametrize("text", ["9" * 5000, "-" + "9" * 5000])
def test_too_long_integer_literal_is_a_parse_error(text):
    with pytest.raises(bpmn.BpmnParseError, match="too many digits"):
        one_binding_and_initial(text)
    body = ('<bcext:invocation sourceTask="t" targetInterface="i" fnName="f">'
            '<bcext:bindIn param="p" source="%s"/></bcext:invocation>' % text)
    with pytest.raises(bpmn.BpmnParseError, match="too many digits"):
        parse_bpmn(DOC.format(body=body + MINIMAL))


def test_missing_required_attribute():
    with pytest.raises(bpmn.BpmnParseError) as exc:
        parse_bpmn(DOC.format(body=MINIMAL + '<sequenceFlow id="fx" sourceRef="t"/>'))
    assert "targetRef" in str(exc.value)
