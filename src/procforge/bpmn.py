"""BPMN 2.0 XML parsing, including the bcext blockchain extension vocabulary.

Every element inside the process is matched by its full {namespace}local
tag and read where it may appear. documentation, incoming, outgoing and
laneSet are skipped as children of the process, a flow node or a
sequenceFlow; any other element is a BpmnParseError. The bcext namespace
URI is fixed to urn:procforge:bcext:1.

    process       flow nodes, sequenceFlow and the bcext declarations below,
                  also as children of a top-level extensionElements
    flow node     of any kind: bcext:input[name,type] under extensionElements,
                  and the text of at most one script element as its script body
    sequenceFlow  at most one conditionExpression; default="true" or "false"

    bcext:variables / bcext:variable[name,type,initial]
    bcext:smartContractInterface[id,name,contractAddress?]
        bcext:function[name] with bcext:input[name,type], bcext:output[name,type]
    bcext:invocation[sourceTask,targetInterface,fnName]
        bcext:bindIn[param,source], bcext:bindOut[return,target]

Of definitions, only its one process is read. The reader reports syntax
only. It raises BpmnParseError when it cannot build a ProcessModel:
malformed XML, an unknown element, a missing required attribute, a second
script or conditionExpression, or a literal, condition, script or default
flag that does not parse. Every
other defect, such as a duplicate id, a reference to an unknown node,
task or interface, a malformed contractAddress, or task inputs or a
script on a node of the wrong kind, is built into the model as written
and reported by ir.validate_model.
"""

from __future__ import annotations

import re
import string
import xml.etree.ElementTree as ET
from typing import List, Optional, Tuple

from .ir import (
    ADDRESS_RE,
    IDENTIFIER_RE,
    Assign,
    BinOp,
    Expr,
    FunctionParameter,
    InvocationBinding,
    Lit,
    Node,
    NodeKind,
    ParameterBinding,
    ProcessModel,
    ProcessVariableDecl,
    SequenceFlow,
    SmartContractFunctionDecl,
    SmartContractInterfaceDecl,
    TaskInput,
    UnaryOp,
    Var,
    is_address,
)

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
BCEXT_NS = "urn:procforge:bcext:1"


class BpmnParseError(Exception):
    pass


class ConditionParseError(BpmnParseError):
    def __init__(self, message: str, offset: int, expected: Tuple[str, ...] = ()):
        super().__init__(f"{message} at offset {offset}" +
                         (f" (expected {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = expected


# ---------------------------------------------------------------------------
# Condition / script expression grammar

MAX_EXPR_DEPTH = 32

# the kinds of token, each with its pattern, tried in this order
_TOKENS = (
    ("ws", r"\s+"),
    ("address", rf"{ADDRESS_RE.pattern}(?![0-9a-fA-F])"),
    ("hexint", r"0x[0-9a-fA-F]+"),
    ("int", r"\d+"),
    ("ident", IDENTIFIER_RE.pattern),
    ("string", r'"[^"\n]*"'),
    ("op", r":=|==|!=|<=|>=|&&|\|\||[-+*/<>!()=;]"),
)
# one scan of a text into its tokens, any other character a token of its own
_scan = re.compile("|".join(p for _, p in _TOKENS) + "|.", re.DOTALL).findall
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{p})" for kind, p in _TOKENS))
# the kind of every token that begins with the character, where it alone tells
_KIND = {**dict.fromkeys(string.ascii_letters + "_", "ident"), **dict.fromkeys("123456789", "int"),
         **dict.fromkeys(" \t\n\r\f\v", "ws"), **dict.fromkeys("-+*/<>!()=;", "op")}


def _tokenize(text: str, newline_ends_statement: bool = False):
    """(kind, value, offset) of each token, then eof. With
    newline_ends_statement, whitespace holding a newline is a ';' token:
    a string token never holds a newline, so a newline always lies
    between two statements of a script. A token whose first character
    does not tell its kind is matched alone against _TOKEN_RE, which finds
    the alternative the scan took; none matches a character that is no
    token."""
    tokens = []
    pos = 0
    for tok in _scan(text):
        kind = _KIND.get(tok[0])
        if kind is None:
            m = _TOKEN_RE.match(tok)
            if m is None:
                raise ConditionParseError(f"unexpected character {tok!r}", pos)
            kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, tok, pos))
        elif newline_ends_statement and "\n" in tok:
            tokens.append(("op", ";", pos + tok.index("\n")))
        pos += len(tok)
    tokens.append(("eof", "", len(text)))
    return tokens


# binary operators by precedence level, lowest first; unary '!' and '-'
# bind tighter than any of them
_LEVELS = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
           "+": 4, "-": 4, "*": 5, "/": 5}
_COMPARISON = 3  # the one level that does not chain: a < b < c stops at the second '<'
_TOP = max(_LEVELS.values())


class _ExprParser:
    """Precedence climbing (Pratt, "Top down operator precedence", 1973)
    over the tokens of one expression, by the table _LEVELS. Each parse
    method returns (expression, depth), where every operator and every
    pair of parentheses adds one level; an expression deeper than
    MAX_EXPR_DEPTH is a ConditionParseError, so the tree walkers
    downstream stay far inside the recursion limit."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.open = 0  # parentheses and unary operators being parsed

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind == "op" and value == op:
            return self.next()
        raise ConditionParseError(f"unexpected token {value or 'end of input'!r}",
                                  offset, (op,))

    @staticmethod
    def _bounded(depth: int, offset: int) -> int:
        if depth > MAX_EXPR_DEPTH:
            raise ConditionParseError(
                f"expression nested deeper than {MAX_EXPR_DEPTH} levels", offset)
        return depth

    def _nested(self, parse, offset: int) -> Tuple[Expr, int]:
        """parse() one level further in. The open levels are checked on the
        way down, so the recursion stops at the bound."""
        self.open = self._bounded(self.open + 1, offset)
        e, depth = parse()
        self.open -= 1
        return e, self._bounded(depth + 1, offset)

    def parse_expr(self, lowest: int = 1) -> Tuple[Expr, int]:
        """An expression whose binary operators all have a level of at
        least `lowest`. Operators of one level group to the left. After a
        comparison only a lower level may follow, so comparisons do not
        chain."""
        left, depth = self._unary()
        highest = _TOP
        while True:
            _, value, offset = self.tokens[self.i]
            level = _LEVELS.get(value, 0)  # only an op token spells an operator
            if not lowest <= level <= highest:
                return left, depth
            self.i += 1
            right, rdepth = self.parse_expr(level + 1)
            left, depth = BinOp(value, left, right), self._bounded(1 + max(depth, rdepth), offset)
            highest = level - 1 if level == _COMPARISON else level

    def _unary(self) -> Tuple[Expr, int]:
        kind, value, offset = self.next()
        if kind == "op":
            if value == "!" or value == "-":
                operand, depth = self._nested(self._unary, offset)
                return UnaryOp(value, operand), depth
            if value == "(":
                e, depth = self._nested(self.parse_expr, offset)
                self.expect_op(")")
                return e, depth
        return self._leaf(kind, value, offset), 0

    def _leaf(self, kind: str, value: str, offset: int) -> Expr:
        if kind in ("int", "hexint"):
            try:
                return Lit(int(value, 16 if kind == "hexint" else 10), "int_const")
            except ValueError:  # more digits than int() converts
                raise ConditionParseError("integer literal has too many digits",
                                          offset) from None
        if kind == "address":
            return Lit(value, "address")
        if kind == "string":
            return Lit(value[1:-1], "string")
        if kind == "ident":
            if value == "true":
                return Lit(True, "bool")
            if value == "false":
                return Lit(False, "bool")
            return Var(value)
        raise ConditionParseError(
            f"unexpected token {value or 'end of input'!r}", offset,
            ("literal", "identifier", "("))


def parse_condition(text: str) -> Expr:
    """Parse one expression; the whole input must be consumed."""
    p = _ExprParser(_tokenize(text))
    e, _ = p.parse_expr()
    kind, value, offset = p.peek()
    if kind != "eof":
        raise ConditionParseError(f"trailing input {value!r}", offset, ("end of input",))
    return e


def parse_script(text: str) -> Tuple[Assign, ...]:
    """Parse a script body: assignments 'target = expr' (or ':='),
    separated by semicolons or newlines. Error offsets are offsets into
    the whole body."""
    p = _ExprParser(_tokenize(text, newline_ends_statement=True))
    statements = []
    while p.peek()[0] != "eof":
        kind, value, offset = p.next()
        if (kind, value) == ("op", ";"):
            continue
        if kind != "ident":
            raise ConditionParseError("expected assignment target", offset, ("identifier",))
        target = value
        kind, op, offset = p.next()
        if kind != "op" or op not in ("=", ":="):
            raise ConditionParseError(f"expected assignment operator, got {op!r}",
                                      offset, ("=", ":="))
        e, _ = p.parse_expr()
        kind, value, offset = p.peek()
        if kind != "eof" and (kind, value) != ("op", ";"):
            raise ConditionParseError(f"trailing input {value!r}", offset, (";", "end of input"))
        statements.append(Assign(target, e))
    return tuple(statements)


# ---------------------------------------------------------------------------
# XML parsing

_BPMN = "{" + BPMN_NS + "}"
_BCEXT = "{" + BCEXT_NS + "}"
_EXTENSION_ELEMENTS = _BPMN + "extensionElements"
_SEQUENCE_FLOW = _BPMN + "sequenceFlow"
_SCRIPT = _BPMN + "script"
_CONDITION = _BPMN + "conditionExpression"

# a NodeKind's value is the local name of its BPMN element, and the name
# that the node's messages give it
_NODE_KINDS = {_BPMN + kind.value: (kind, kind.value) for kind in NodeKind}

_SKIPPED = frozenset(_BPMN + local for local in
                     ("documentation", "incoming", "outgoing", "laneSet"))


def _local(tag: str) -> str:
    return tag.rpartition("}")[2]


def _parse_literal(text: str) -> Lit:
    """Attribute literal for variable initials and binding constants."""
    if text == "true" or text == "false":
        return Lit(text == "true", "bool")
    if is_address(text):
        return Lit(text, "address")
    if re.fullmatch(r"-?\d+", text):
        try:
            return Lit(int(text), "int_const")
        except ValueError:  # more digits than int() converts
            raise BpmnParseError(f"integer literal of {len(text)} characters "
                                 "has too many digits") from None
    return Lit(text, "string")


def _missing(what: str, attr: str) -> BpmnParseError:
    return BpmnParseError(f"{what} missing required attribute '{attr}'")


def _require(elem, attr: str, what: str) -> str:
    value = elem.get(attr)
    if value is None:
        raise _missing(what, attr)
    return value


def _unexpected(child, where: str) -> BpmnParseError:
    return BpmnParseError(f"unexpected element '{_local(child.tag)}' inside {where}")


def _bcext_children(elem, allowed: Tuple[str, ...], where: str):
    """(local name, child) for each child of elem; a child that is not a
    bcext element named in allowed is a BpmnParseError."""
    for child in elem:
        local = _local(child.tag)
        if child.tag != _BCEXT + local or local not in allowed:
            raise _unexpected(child, where)
        yield local, child


def _parse_function(elem) -> SmartContractFunctionDecl:
    inputs, outputs = [], []
    for local, child in _bcext_children(elem, ("input", "output"), "bcext:function"):
        param = FunctionParameter(_require(child, "name", "bcext:" + local),
                                  _require(child, "type", "bcext:" + local))
        (inputs if local == "input" else outputs).append(param)
    return SmartContractFunctionDecl(
        _require(elem, "name", "bcext:function"), tuple(inputs), tuple(outputs))


def _parse_interface(elem) -> SmartContractInterfaceDecl:
    functions = [_parse_function(child) for _, child in
                 _bcext_children(elem, ("function",), "bcext:smartContractInterface")]
    return SmartContractInterfaceDecl(
        id=_require(elem, "id", "bcext:smartContractInterface"),
        name=_require(elem, "name", "bcext:smartContractInterface"),
        contract_address=elem.get("contractAddress"),
        functions=tuple(functions),
    )


def _parse_binding_source(text: str) -> Expr:
    """bindIn source: variable name, 'processAddress', or a literal."""
    if IDENTIFIER_RE.fullmatch(text) and text not in ("true", "false"):
        return Var(text)
    return _parse_literal(text)


def _parse_invocation(elem) -> InvocationBinding:
    input_bindings, output_bindings = [], []
    for local, child in _bcext_children(elem, ("bindIn", "bindOut"), "bcext:invocation"):
        if local == "bindIn":
            input_bindings.append(ParameterBinding(
                param=_require(child, "param", "bcext:bindIn"),
                source=_parse_binding_source(_require(child, "source", "bcext:bindIn"))))
        else:
            output_bindings.append(ParameterBinding(
                param=_require(child, "return", "bcext:bindOut"),
                target=_require(child, "target", "bcext:bindOut")))
    return InvocationBinding(
        source_task=_require(elem, "sourceTask", "bcext:invocation"),
        target_interface=_require(elem, "targetInterface", "bcext:invocation"),
        fn_name=_require(elem, "fnName", "bcext:invocation"),
        input_bindings=tuple(input_bindings),
        output_bindings=tuple(output_bindings),
    )


def _parse_variables(elem) -> List[ProcessVariableDecl]:
    out = []
    for _, child in _bcext_children(elem, ("variable",), "bcext:variables"):
        initial = child.get("initial")
        out.append(ProcessVariableDecl(
            name=_require(child, "name", "bcext:variable"),
            type=_require(child, "type", "bcext:variable"),
            initial=None if initial is None else _parse_literal(initial).value))
    return out


def _parse_node(elem, kind: NodeKind, what: str) -> Node:
    """Inputs and script are read whatever the kind: validate_model owns
    the kind rules. what is the kind's value. Most nodes have no child, and
    they skip the loop."""
    node_id = elem.get("id")
    if node_id is None:
        raise _missing(what, "id")
    if not len(elem):
        return Node(node_id, kind, elem.get("name", ""))
    inputs: List[TaskInput] = []
    script: Optional[Tuple[Assign, ...]] = None
    for child in elem:
        if child.tag == _EXTENSION_ELEMENTS:
            inputs.extend(TaskInput(_require(i, "name", "bcext:input"),
                                    _require(i, "type", "bcext:input"))
                          for _, i in _bcext_children(child, ("input",), what))
        elif child.tag == _SCRIPT:
            if script is not None:
                raise BpmnParseError(f"{what} '{node_id}' has a second script")
            script = parse_script(child.text or "")
        elif child.tag not in _SKIPPED:
            raise _unexpected(child, what)
    return Node(node_id, kind, elem.get("name", ""), tuple(inputs), script or ())


def _parse_flow(elem) -> SequenceFlow:
    """The id is read first, then the children, then the references and
    the default flag, so the first of these that fails names the error."""
    get = elem.get
    flow_id = get("id")
    if flow_id is None:
        raise _missing("sequenceFlow", "id")
    condition = None
    if len(elem):
        for child in elem:
            if child.tag == _CONDITION:
                if condition is not None:
                    raise BpmnParseError(
                        f"sequenceFlow '{flow_id}' has a second conditionExpression")
                condition = parse_condition(child.text or "")
            elif child.tag not in _SKIPPED:
                raise _unexpected(child, "sequenceFlow")
    source, target, default = get("sourceRef"), get("targetRef"), get("default")
    if source is None:
        raise _missing("sequenceFlow", "sourceRef")
    if target is None:
        raise _missing("sequenceFlow", "targetRef")
    if default is None or default == "false":
        return SequenceFlow(flow_id, source, target, condition)
    if default != "true":
        raise BpmnParseError(f"sequenceFlow '{flow_id}' has default {default!r}; "
                             "expected 'true' or 'false'")
    return SequenceFlow(flow_id, source, target, condition, True)


def _unknown_in_process(tag: str) -> BpmnParseError:
    local = _local(tag)
    if tag == _BPMN + local:
        return BpmnParseError(f"unsupported BPMN element '{local}' in process")
    if tag == _BCEXT + local:
        return BpmnParseError(f"unknown bcext element '{local}'")
    return BpmnParseError(f"foreign element '{tag}' inside process")


def parse_bpmn(xml_text: str) -> ProcessModel:
    """Parse a BPMN 2.0 document into a ProcessModel.

    Sequence-flow document order is preserved; it fixes the marking bit
    assignment downstream.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as e:
        raise BpmnParseError(f"XML syntax error at line {e.position[0]}, "
                             f"column {e.position[1]}: {e.msg}") from e

    if root.tag != _BPMN + "definitions":
        raise BpmnParseError("root element is not a BPMN 2.0 definitions element")
    processes = [child for child in root if child.tag == _BPMN + "process"]
    if len(processes) > 1:
        raise BpmnParseError("multiple process elements; expected exactly one")
    if not processes:
        raise BpmnParseError("no process element found")
    process = processes[0]

    nodes: List[Node] = []
    flows: List[SequenceFlow] = []
    variables: List[ProcessVariableDecl] = []
    interfaces: List[SmartContractInterfaceDecl] = []
    invocations: List[InvocationBinding] = []

    # the children of a top-level extensionElements are read in its place
    elements = []
    for child in process:
        if child.tag == _EXTENSION_ELEMENTS:
            elements.extend(child)
        else:
            elements.append(child)
    for elem in elements:
        tag = elem.tag
        if tag == _SEQUENCE_FLOW:
            flows.append(_parse_flow(elem))
            continue
        kind = _NODE_KINDS.get(tag)
        if kind is not None:
            nodes.append(_parse_node(elem, *kind))
        elif tag == _BCEXT + "variables":
            variables.extend(_parse_variables(elem))
        elif tag == _BCEXT + "smartContractInterface":
            interfaces.append(_parse_interface(elem))
        elif tag == _BCEXT + "invocation":
            invocations.append(_parse_invocation(elem))
        elif tag not in _SKIPPED:
            raise _unknown_in_process(tag)

    return ProcessModel(
        id=_require(process, "id", "process"),
        nodes=tuple(nodes),
        flows=tuple(flows),
        variables=tuple(variables),
        interfaces=tuple(interfaces),
        invocations=tuple(invocations),
    )
