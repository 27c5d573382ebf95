"""BPMN 2.0 XML parsing, including the bcext blockchain extension vocabulary.

The bcext namespace URI is fixed to urn:procforge:bcext:1. Extension
elements live inside the process (directly or under extensionElements):

    bcext:variables / bcext:variable[name,type,initial]
    bcext:smartContractInterface[id,name,contractAddress?]
        bcext:function[name] with bcext:input[name,type], bcext:output[name,type]
    bcext:invocation[sourceTask,targetInterface,fnName]
        bcext:bindIn[param,source], bcext:bindOut[return,target]

User task inputs are declared as bcext:input[name,type] under the task.
Script task bodies are the text of the standard BPMN script element.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import List, Tuple

from .ir import (
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


class XmlSyntaxError(BpmnParseError):
    pass


class UnknownElement(BpmnParseError):
    pass


class DanglingReference(BpmnParseError):
    pass


class DuplicateId(BpmnParseError):
    pass


class MalformedAddress(BpmnParseError):
    pass


class ConditionParseError(BpmnParseError):
    def __init__(self, message: str, offset: int, expected: Tuple[str, ...] = ()):
        super().__init__(f"{message} at offset {offset}" +
                         (f" (expected {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = expected


# ---------------------------------------------------------------------------
# Condition / script expression grammar

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<address>0x[0-9a-fA-F]{40})
  | (?P<hexint>0x[0-9a-fA-F]+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<op>:=|==|!=|<=|>=|&&|\|\||[-+*/<>!()=;])
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []  # (kind, value, offset)
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ConditionParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

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

    def parse_expr(self) -> Expr:
        return self._or()

    def _binary(self, sub, ops):
        left = sub()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ops:
                self.next()
                left = BinOp(value, left, sub())
            else:
                return left

    def _or(self):
        return self._binary(self._and, ("||",))

    def _and(self):
        return self._binary(self._cmp, ("&&",))

    def _cmp(self):
        left = self._add()
        kind, value, _ = self.peek()
        if kind == "op" and value in ("==", "!=", "<", "<=", ">", ">="):
            self.next()
            return BinOp(value, left, self._add())
        return left

    def _add(self):
        return self._binary(self._mul, ("+", "-"))

    def _mul(self):
        return self._binary(self._unary, ("*", "/"))

    def _unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in ("!", "-"):
            self.next()
            return UnaryOp(value, self._unary())
        return self._primary()

    def _primary(self):
        kind, value, offset = self.next()
        if kind == "int":
            return Lit(int(value), "int_const")
        if kind == "hexint":
            return Lit(int(value, 16), "int_const")
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
        if kind == "op" and value == "(":
            e = self.parse_expr()
            self.expect_op(")")
            return e
        raise ConditionParseError(
            f"unexpected token {value or 'end of input'!r}", offset,
            ("literal", "identifier", "("))


def parse_condition(text: str) -> Expr:
    """Parse one expression; the whole input must be consumed."""
    p = _ExprParser(text)
    e = p.parse_expr()
    kind, value, offset = p.peek()
    if kind != "eof":
        raise ConditionParseError(f"trailing input {value!r}", offset, ("end of input",))
    return e


def parse_script(text: str) -> Tuple[Assign, ...]:
    """Parse a script body: assignments 'target = expr' (or ':='),
    separated by semicolons or newlines."""
    statements = []
    for raw in re.split(r"[;\n]", text):
        line = raw.strip()
        if not line:
            continue
        p = _ExprParser(line)
        kind, value, offset = p.next()
        if kind != "ident":
            raise ConditionParseError("expected assignment target", offset, ("identifier",))
        target = value
        kind, op, offset = p.next()
        if kind != "op" or op not in ("=", ":="):
            raise ConditionParseError(f"expected assignment operator, got {op!r}",
                                      offset, ("=", ":="))
        e = p.parse_expr()
        kind, value, offset = p.peek()
        if kind != "eof":
            raise ConditionParseError(f"trailing input {value!r}", offset, ("end of input",))
        statements.append(Assign(target, e))
    return tuple(statements)


# ---------------------------------------------------------------------------
# XML parsing

_NODE_KINDS = {
    "startEvent": NodeKind.START_EVENT,
    "endEvent": NodeKind.END_EVENT,
    "task": NodeKind.DEFAULT_TASK,
    "userTask": NodeKind.USER_TASK,
    "scriptTask": NodeKind.SCRIPT_TASK,
    "exclusiveGateway": NodeKind.XOR_GATEWAY,
    "parallelGateway": NodeKind.AND_GATEWAY,
}

_IGNORED_BPMN = {"extensionElements", "documentation", "incoming", "outgoing",
                 "conditionExpression", "script", "laneSet"}


def _split_tag(tag: str) -> Tuple[str, str]:
    if tag.startswith("{"):
        ns, local = tag[1:].split("}", 1)
        return ns, local
    return "", tag


def _parse_literal(text: str):
    """Attribute literal for variable initials and binding constants."""
    if text == "true":
        return True
    if text == "false":
        return False
    if is_address(text):
        return text
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    return text


def _literal_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int_const"
    if isinstance(value, str) and is_address(value):
        return "address"
    return "string"


def _require(elem, attr: str, what: str) -> str:
    value = elem.get(attr)
    if value is None:
        raise BpmnParseError(f"{what} missing required attribute '{attr}'")
    return value


def _parse_function(elem) -> SmartContractFunctionDecl:
    inputs, outputs = [], []
    for child in elem:
        ns, local = _split_tag(child.tag)
        if ns != BCEXT_NS or local not in ("input", "output"):
            raise UnknownElement(f"unexpected element '{local}' inside bcext:function")
        param = FunctionParameter(_require(child, "name", "bcext:" + local),
                                  _require(child, "type", "bcext:" + local))
        (inputs if local == "input" else outputs).append(param)
    return SmartContractFunctionDecl(
        _require(elem, "name", "bcext:function"), tuple(inputs), tuple(outputs))


def _parse_interface(elem) -> SmartContractInterfaceDecl:
    address = elem.get("contractAddress")
    if address is not None and not is_address(address):
        raise MalformedAddress(f"contractAddress '{address}' is not 0x + 40 hex digits")
    functions = []
    for child in elem:
        ns, local = _split_tag(child.tag)
        if ns != BCEXT_NS or local != "function":
            raise UnknownElement(f"unexpected element '{local}' inside "
                                 "bcext:smartContractInterface")
        functions.append(_parse_function(child))
    return SmartContractInterfaceDecl(
        id=_require(elem, "id", "bcext:smartContractInterface"),
        name=_require(elem, "name", "bcext:smartContractInterface"),
        contract_address=address,
        functions=tuple(functions),
    )


def _parse_binding_source(text: str) -> Expr:
    """bindIn source: variable name, 'processAddress', or a literal."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text) and text not in ("true", "false") \
            and not is_address(text):
        return Var(text)
    value = _parse_literal(text)
    return Lit(value, _literal_type(value))


def _parse_invocation(elem) -> InvocationBinding:
    input_bindings, output_bindings = [], []
    for child in elem:
        ns, local = _split_tag(child.tag)
        if ns != BCEXT_NS or local not in ("bindIn", "bindOut"):
            raise UnknownElement(f"unexpected element '{local}' inside bcext:invocation")
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
    for child in elem:
        ns, local = _split_tag(child.tag)
        if ns != BCEXT_NS or local != "variable":
            raise UnknownElement(f"unexpected element '{local}' inside bcext:variables")
        initial = child.get("initial")
        out.append(ProcessVariableDecl(
            name=_require(child, "name", "bcext:variable"),
            type=_require(child, "type", "bcext:variable"),
            initial=None if initial is None else _parse_literal(initial)))
    return out


def _parse_task_inputs(task_elem) -> Tuple[TaskInput, ...]:
    inputs = []
    for ext in task_elem:
        ns, local = _split_tag(ext.tag)
        if ns == BPMN_NS and local == "extensionElements":
            for child in ext:
                cns, clocal = _split_tag(child.tag)
                if cns == BCEXT_NS and clocal == "input":
                    inputs.append(TaskInput(_require(child, "name", "bcext:input"),
                                            _require(child, "type", "bcext:input")))
                elif cns == BCEXT_NS:
                    raise UnknownElement(f"unexpected element '{clocal}' inside task")
    return tuple(inputs)


def _iter_process_children(process):
    """Process children plus bcext elements nested under extensionElements."""
    for child in process:
        ns, local = _split_tag(child.tag)
        if ns == BPMN_NS and local == "extensionElements":
            for sub in child:
                yield sub
        else:
            yield child


def parse_bpmn(xml_text) -> ProcessModel:
    """Parse a BPMN 2.0 document (text or bytes) into a ProcessModel.

    Sequence-flow document order is preserved; it fixes the marking bit
    assignment downstream.
    """
    if isinstance(xml_text, bytes):
        xml_text = xml_text.decode("utf-8")
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as e:
        raise XmlSyntaxError(f"XML syntax error at line {e.position[0]}, "
                             f"column {e.position[1]}: {e.msg}") from e

    ns, local = _split_tag(root.tag)
    if ns != BPMN_NS or local != "definitions":
        raise BpmnParseError("root element is not a BPMN 2.0 definitions element")

    process = None
    for child in root:
        cns, clocal = _split_tag(child.tag)
        if cns == BPMN_NS and clocal == "process":
            if process is not None:
                raise BpmnParseError("multiple process elements; expected exactly one")
            process = child
    if process is None:
        raise BpmnParseError("no process element found")

    nodes: List[Node] = []
    flows: List[SequenceFlow] = []
    variables: List[ProcessVariableDecl] = []
    interfaces: List[SmartContractInterfaceDecl] = []
    invocations: List[InvocationBinding] = []
    seen_ids = set()

    def claim_id(elem_id: str):
        if elem_id in seen_ids:
            raise DuplicateId(f"duplicate id '{elem_id}'")
        seen_ids.add(elem_id)

    for elem in _iter_process_children(process):
        ens, elocal = _split_tag(elem.tag)
        if ens == BPMN_NS:
            if elocal in _NODE_KINDS:
                node_id = _require(elem, "id", elocal)
                claim_id(node_id)
                kind = _NODE_KINDS[elocal]
                script: Tuple[Assign, ...] = ()
                if kind == NodeKind.SCRIPT_TASK:
                    for sub in elem:
                        sns, slocal = _split_tag(sub.tag)
                        if sns == BPMN_NS and slocal == "script":
                            script = parse_script(sub.text or "")
                nodes.append(Node(
                    id=node_id,
                    kind=kind,
                    name=elem.get("name", ""),
                    task_inputs=_parse_task_inputs(elem) if kind == NodeKind.USER_TASK else (),
                    script=script,
                ))
            elif elocal == "sequenceFlow":
                flow_id = _require(elem, "id", "sequenceFlow")
                claim_id(flow_id)
                condition = None
                for sub in elem:
                    sns, slocal = _split_tag(sub.tag)
                    if sns == BPMN_NS and slocal == "conditionExpression":
                        condition = parse_condition(sub.text or "")
                flows.append(SequenceFlow(
                    id=flow_id,
                    source=_require(elem, "sourceRef", "sequenceFlow"),
                    target=_require(elem, "targetRef", "sequenceFlow"),
                    condition=condition,
                    is_default=elem.get("default", "false") == "true",
                ))
            elif elocal in _IGNORED_BPMN:
                continue
            else:
                raise UnknownElement(f"unsupported BPMN element '{elocal}' in process")
        elif ens == BCEXT_NS:
            if elocal == "variables":
                variables.extend(_parse_variables(elem))
            elif elocal == "smartContractInterface":
                itf = _parse_interface(elem)
                claim_id(itf.id)
                interfaces.append(itf)
            elif elocal == "invocation":
                invocations.append(_parse_invocation(elem))
            else:
                raise UnknownElement(f"unknown bcext element '{elocal}'")
        else:
            raise UnknownElement(f"foreign element '{elem.tag}' inside process")

    node_ids = {n.id for n in nodes}
    interface_ids = {i.id for i in interfaces}
    for inv in invocations:
        if inv.source_task not in node_ids:
            raise DanglingReference(f"invocation references unknown task "
                                    f"'{inv.source_task}'")
        if inv.target_interface not in interface_ids:
            raise DanglingReference(f"invocation references unknown interface "
                                    f"'{inv.target_interface}'")

    return ProcessModel(
        id=_require(process, "id", "process"),
        nodes=tuple(nodes),
        flows=tuple(flows),
        variables=tuple(variables),
        interfaces=tuple(interfaces),
        invocations=tuple(invocations),
    )
