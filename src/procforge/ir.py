"""In-memory representation of a process model: nodes, flows, variables,
contract interfaces, invocation bindings, and the small typed expression
language used by conditions and scripts.

Everything here is immutable after construction. The records are
typing.NamedTuples, which import without generating code: they compare
and hash as the tuples of their fields, so a record equals any tuple of
the same items, and a changed copy is record._replace(field=value).
ProcessModel alone is a frozen dataclass, as it caches what is derived
from it on first lookup: its index, the typing of its expressions, the
names of its functions, its gateway folds and its contract calls. Each is
computed once per model and read by validate_model, compile_marking,
codegen and the interpreter alike.

Validation is a pure function producing a diagnostic report; it never
raises for model defects. It is the one owner of every model defect: the
BPMN reader raises only when a document cannot be read into a
ProcessModel at all, and leaves clashing ids, dangling references and
malformed values to validate_model.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Tuple, Union

UINT256_MAX = 2**256 - 1
INT256_MIN = -(2**255)
INT256_MAX = 2**255 - 1

VALUE_TYPES = ("uint256", "int256", "bool", "address", "string")

ZERO_ADDRESS = "0x" + "0" * 40

# the value of each type's storage slot before anything is written to it
ZERO_VALUES = {"uint256": 0, "int256": 0, "bool": False, "string": "", "address": ZERO_ADDRESS}

ADDRESS_RE = re.compile(r"0x[0-9a-fA-F]{40}")


def is_address(text: str) -> bool:
    """True iff text is 0x followed by exactly 40 hex digits."""
    return isinstance(text, str) and ADDRESS_RE.fullmatch(text) is not None


# a name emitted into the Solidity source as it is
IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Solidity 0.5's keywords, reserved words and unsized type names, and the
# globals the emitted code calls, which a declaration of the name would shadow
SOLIDITY_KEYWORDS = frozenset("""
    abi abstract address after alias anonymous apply as assembly auto bool
    break byte bytes calldata case catch constant constructor continue
    contract copyof days default define delete do else emit enum ether event
    external false final finney fixed for function hex hours if immutable
    implements import in indexed inline int interface internal is keccak256
    let library macro mapping match memory minutes modifier msg mutable new
    null of override partial payable pragma private promise public pure
    reference relocatable require return returns revert sealed seconds
    sizeof static storage string struct supports switch szabo this throw
    true try type typedef typeof ufixed uint unchecked using var view weeks
    wei while years
""".split())

# the sized type names: intN, uintN, bytesN, fixedMxN and ufixedMxN
SIZED_TYPE_RE = re.compile(r"u?int[0-9]+|bytes[0-9]+|u?fixed[0-9]+x[0-9]+")


def is_identifier(text: str) -> bool:
    """True iff text can be emitted as a Solidity name: ASCII, and not a
    keyword or a type name."""
    return (isinstance(text, str) and IDENTIFIER_RE.fullmatch(text) is not None
            and text not in SOLIDITY_KEYWORDS and SIZED_TYPE_RE.fullmatch(text) is None)


def addr_key(address: str) -> str:
    """Canonical (case-insensitive) key for address comparisons."""
    return address.lower()


class NumberTooLong(ValueError):
    """A JSON integer of more digits than int() converts: valid JSON that
    the program does not read."""


def load_json(text: str):
    """json.loads for text decoded from UTF-8. Every way the text can fail
    is a ValueError: malformed JSON, nesting deeper than the decoder
    recurses, a string holding a lone surrogate, which no UTF-8 output can
    carry, and an integer of more digits than int() converts, which is a
    NumberTooLong. Only a \\u escape decodes to a surrogate, so only a text
    holding one is checked for it; the scan for a backslash goes first, as
    a scan for one character is far quicker than one for the two of \\u."""
    try:
        value = json.loads(text)
        if "\\" in text and "\\u" in text:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except RecursionError:
        raise ValueError("nested too deeply") from None
    except UnicodeEncodeError:
        raise ValueError("a string holds a lone surrogate") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() refused the digits of a number
        raise NumberTooLong(
            f"a number has more than {sys.get_int_max_str_digits()} digits") from None
    return value


# ---------------------------------------------------------------------------
# Expression language


class Lit(NamedTuple):
    value: Union[int, bool, str]
    type: str  # uint256/int256/bool/address/string or "int_const"


class Var(NamedTuple):
    name: str


class UnaryOp(NamedTuple):
    op: str  # "!" or "-"
    operand: "Expr"


class BinOp(NamedTuple):
    op: str  # + - * / == != < <= > >= && ||
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Var, UnaryOp, BinOp]


class Assign(NamedTuple):
    """One script statement: target := value."""

    target: str
    value: Expr


ARITH_OPS = ("+", "-", "*", "/")
ORDER_OPS = ("<", "<=", ">", ">=")
EQ_OPS = ("==", "!=")
BOOL_OPS = ("&&", "||")


class EvalError(Exception):
    pass


class ExprTypeError(Exception):
    """Raised by compile_expr; surfaces as a validation diagnostic."""


def _unify_numeric(lt: str, left: "Evaluator", rt: str, right: "Evaluator") -> str:
    # an integer constant meeting an int256 operand converts to int256;
    # compile_expr folds every int_const, so its evaluator needs no environment
    for t, value, other in ((lt, left, rt), (rt, right, lt)):
        if t == "int_const" and other == "int256" and not INT256_MIN <= value({}) <= INT256_MAX:
            raise ExprTypeError(f"integer literal {value({})} does not fit int256")
    if lt == "int_const":
        return rt if rt != "int_const" else "int_const"
    if rt == "int_const":
        return lt
    if lt != rt:
        raise ExprTypeError(f"cannot mix {lt} and {rt}")
    return lt


def _require_numeric(t: str, where: str) -> None:
    if t not in ("uint256", "int256", "int_const"):
        raise ExprTypeError(f"{where} requires a numeric operand, got {t}")


def _range_check(value: int, result_type: str) -> int:
    if result_type == "uint256":
        if value < 0:
            raise EvalError(f"unsigned result below zero: {value}")
        if value > UINT256_MAX:
            raise EvalError(f"uint256 overflow: {value}")
    elif result_type == "int256":
        if value < INT256_MIN:
            raise EvalError(f"int256 underflow: {value}")
        if value > INT256_MAX:
            raise EvalError(f"int256 overflow: {value}")
    return value


Evaluator = Callable[[Mapping[str, object]], object]

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
            "==": operator.eq, "!=": operator.ne}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _arith(op: str, t: str, left: Evaluator, right: Evaluator) -> Evaluator:
    def run(env):
        lv, rv = left(env), right(env)
        width = t
        if width == "int_const":
            width = "uint256" if lv >= 0 and rv >= 0 else "int256"
        if op != "/":
            return _range_check(_ARITH[op](lv, rv), width)
        if rv == 0:
            raise EvalError(f"{lv} / 0")
        if width == "uint256":
            return lv // rv
        q = abs(lv) // abs(rv)  # solidity int division truncates toward zero
        return _range_check(q if (lv >= 0) == (rv >= 0) else -q, width)
    return run


def _fold(value: Evaluator) -> Evaluator:
    """The evaluator of an int_const expression, which holds no variable,
    evaluated once. One that fails on every run is a type error."""
    try:
        constant = value({})
    except EvalError as e:
        raise ExprTypeError(f"constant expression fails: {e}") from None
    return lambda env: constant


def compile_expr(e: Expr, types: Mapping[str, str]) -> Tuple[str, Evaluator]:
    """Type e under the given declarations and return (type, evaluator).

    The evaluator maps an environment (variable name -> python value) to
    the value of e. Types are resolved here, once: the evaluator knows the
    checked range of each arithmetic node and which equalities compare
    addresses. Integer literals type as 'int_const' and adapt to either
    integer width; arithmetic on them alone is folded here. A literal
    above 2**256 - 1 is a type error, and so is a folded constant that
    fails, or that meets an int256 operand, or is negated, outside int256.
    Strings support equality only. Arithmetic is checked, not wrapping. A
    declared name the environment lacks, such as a task input not given
    yet, reads as its type's zero value, as the emitted contract's storage
    does. Raises ExprTypeError for an ill-typed e.
    """
    if isinstance(e, Lit):
        value = e.value
        if e.type == "int_const" and value > UINT256_MAX:
            raise ExprTypeError(f"integer literal above 2**256 - 1 ({value.bit_length()} bits)")
        return e.type, lambda env: value
    if isinstance(e, Var):
        name = e.name
        if name not in types:
            raise ExprTypeError(f"undeclared variable '{name}'")
        if types[name] not in VALUE_TYPES:  # an 'int_const' variable would be folded
            raise ExprTypeError(f"variable '{name}' has unknown type '{types[name]}'")
        zero = ZERO_VALUES[types[name]]
        return types[name], lambda env: env.get(name, zero)
    if isinstance(e, UnaryOp):
        t, operand = compile_expr(e.operand, types)
        if e.op == "!":
            if t != "bool":
                raise ExprTypeError(f"'!' requires bool, got {t}")
            return "bool", lambda env: not operand(env)
        if e.op == "-":
            _require_numeric(t, "unary '-'")
            if t == "uint256":
                raise ExprTypeError("unary '-' not allowed on uint256")
            if t == "int_const" and -operand({}) < INT256_MIN:
                raise ExprTypeError(f"integer literal -{operand({})} is below int256 minimum")
            return "int256", lambda env: _range_check(-operand(env), "int256")
        raise ExprTypeError(f"unknown unary operator {e.op}")
    if isinstance(e, BinOp):
        op = e.op
        lt, left = compile_expr(e.left, types)
        rt, right = compile_expr(e.right, types)
        if op in ARITH_OPS:
            _require_numeric(lt, f"'{op}'")
            _require_numeric(rt, f"'{op}'")
            t = _unify_numeric(lt, left, rt, right)
            value = _arith(op, t, left, right)
            return t, _fold(value) if t == "int_const" else value
        if op in ORDER_OPS:
            _require_numeric(lt, f"'{op}'")
            _require_numeric(rt, f"'{op}'")
            _unify_numeric(lt, left, rt, right)
            compare = _COMPARE[op]
            return "bool", lambda env: compare(left(env), right(env))
        if op in EQ_OPS:
            if lt in ("uint256", "int256", "int_const") and rt in ("uint256", "int256", "int_const"):
                _unify_numeric(lt, left, rt, right)
            elif lt != rt:
                raise ExprTypeError(f"cannot compare {lt} with {rt}")
            compare = _COMPARE[op]
            if lt == "address":
                return "bool", lambda env: compare(addr_key(left(env)), addr_key(right(env)))
            return "bool", lambda env: compare(left(env), right(env))
        if op in BOOL_OPS:
            if lt != "bool" or rt != "bool":
                raise ExprTypeError(f"'{op}' requires bool operands, got {lt} and {rt}")
            if op == "&&":
                return "bool", lambda env: bool(left(env)) and bool(right(env))
            return "bool", lambda env: bool(left(env)) or bool(right(env))
        raise ExprTypeError(f"unknown operator {e.op}")
    raise ExprTypeError(f"unknown expression node {e!r}")


# ---------------------------------------------------------------------------
# Process model


class NodeKind(Enum):
    START_EVENT = "startEvent"
    END_EVENT = "endEvent"
    DEFAULT_TASK = "task"
    USER_TASK = "userTask"
    SCRIPT_TASK = "scriptTask"
    XOR_GATEWAY = "exclusiveGateway"
    AND_GATEWAY = "parallelGateway"


TASK_KINDS = (NodeKind.DEFAULT_TASK, NodeKind.USER_TASK, NodeKind.SCRIPT_TASK)
EXTERNAL_TASK_KINDS = (NodeKind.DEFAULT_TASK, NodeKind.USER_TASK)
GATEWAY_KINDS = (NodeKind.XOR_GATEWAY, NodeKind.AND_GATEWAY)


class TaskInput(NamedTuple):
    name: str
    type: str


class Node(NamedTuple):
    id: str
    kind: NodeKind
    name: str = ""
    task_inputs: tuple = ()  # tuple[TaskInput, ...], user tasks only
    script: tuple = ()  # tuple[Assign, ...], script tasks only

    @property
    def display_name(self) -> str:
        return self.name or self.id


class SequenceFlow(NamedTuple):
    id: str
    source: str
    target: str
    condition: Optional[Expr] = None
    is_default: bool = False


class ProcessVariableDecl(NamedTuple):
    name: str
    type: str
    initial: Optional[object] = None


class FunctionParameter(NamedTuple):
    name: str
    type: str


class SmartContractFunctionDecl(NamedTuple):
    name: str
    inputs: tuple = ()  # tuple[FunctionParameter, ...]
    outputs: tuple = ()


class SmartContractInterfaceDecl(NamedTuple):
    id: str
    name: str
    contract_address: Optional[str] = None
    functions: tuple = ()  # tuple[SmartContractFunctionDecl, ...]

    def function(self, fn_name: str) -> Optional[SmartContractFunctionDecl]:
        for f in self.functions:
            if f.name == fn_name:
                return f
        return None


class ParameterBinding(NamedTuple):
    """Binds one function parameter (input) or return value (output).

    source is an Expr for inputs: a Var, a Lit, or the reserved Var
    'processAddress'. target is a process variable name for outputs.
    """

    param: str
    source: Optional[Expr] = None  # input bindings
    target: Optional[str] = None  # output bindings


PROCESS_ADDRESS = "processAddress"


class InvocationBinding(NamedTuple):
    source_task: str
    target_interface: str
    fn_name: str
    input_bindings: tuple = ()  # tuple[ParameterBinding, ...]
    output_bindings: tuple = ()


class _ModelIndex(NamedTuple):
    """ProcessModel's lookups by id."""

    node: Dict[str, Node]
    incoming: Dict[str, Tuple[SequenceFlow, ...]]
    outgoing: Dict[str, Tuple[SequenceFlow, ...]]
    interface: Dict[str, SmartContractInterfaceDecl]
    invocations: Dict[str, Tuple[InvocationBinding, ...]]  # by source task


@dataclass(frozen=True)
class ProcessModel:
    id: str
    nodes: tuple = ()  # tuple[Node, ...]
    flows: tuple = ()  # tuple[SequenceFlow, ...]
    variables: tuple = ()  # tuple[ProcessVariableDecl, ...]
    interfaces: tuple = ()  # tuple[SmartContractInterfaceDecl, ...]
    invocations: tuple = ()  # tuple[InvocationBinding, ...]

    @cached_property
    def _index(self) -> "_ModelIndex":
        """Built on first lookup. It answers exactly as a scan in document
        order would: a duplicate id maps to its first element
        (validate_model reports the rest), and a flow whose source or
        target names no node is still listed under that id."""
        nodes: Dict[str, Node] = {}
        for n in self.nodes:
            nodes.setdefault(n.id, n)
        incoming: Dict[str, list] = {}
        outgoing: Dict[str, list] = {}
        for f in self.flows:
            incoming.setdefault(f.target, []).append(f)
            outgoing.setdefault(f.source, []).append(f)
        interfaces: Dict[str, SmartContractInterfaceDecl] = {}
        for i in self.interfaces:
            interfaces.setdefault(i.id, i)
        invocations: Dict[str, list] = {}
        for b in self.invocations:
            invocations.setdefault(b.source_task, []).append(b)
        return _ModelIndex(nodes,
                           {k: tuple(v) for k, v in incoming.items()},
                           {k: tuple(v) for k, v in outgoing.items()},
                           interfaces,
                           {k: tuple(v) for k, v in invocations.items()})

    def node(self, node_id: str) -> Optional[Node]:
        return self._index.node.get(node_id)

    def incoming(self, node_id: str):
        return self._index.incoming.get(node_id, ())

    def outgoing(self, node_id: str):
        return self._index.outgoing.get(node_id, ())

    def interface(self, interface_id: str) -> Optional[SmartContractInterfaceDecl]:
        return self._index.interface.get(interface_id)

    @cached_property
    def _typing(self) -> Dict[int, Union[Tuple[str, Evaluator], ExprTypeError]]:
        """compile_expr of every flow condition and every script statement's
        value under declared_types, each run once: the id of the
        expression -> (type, evaluator), or the ExprTypeError it raised.
        The model holds every expression it types, so no id is reused while
        the model lives, and one expression object shared by two places
        types alike in both."""
        types = self.declared_types
        exprs = [f.condition for f in self.flows if f.condition is not None]
        exprs += [st.value for n in self.nodes for st in n.script]
        typing: Dict[int, Union[Tuple[str, Evaluator], ExprTypeError]] = {}
        for e in exprs:
            if id(e) not in typing:
                try:
                    typing[id(e)] = compile_expr(e, types)
                except ExprTypeError as exc:
                    typing[id(e)] = exc
        return typing

    def typed(self, e: Expr) -> Tuple[str, Evaluator]:
        """(type, evaluator) of a condition or script value of this model, as
        compile_expr gives it under declared_types; raises the
        ExprTypeError of an ill-typed one. Typed once per model."""
        typed = self._typing[id(e)]
        if isinstance(typed, ExprTypeError):
            raise typed.with_traceback(None)
        return typed

    @cached_property
    def function_names(self) -> Dict[str, str]:
        """Node id -> the name of the ProcessMonitor function it emits
        (function_name), for the first node of each id. The start event and
        the folded gateways emit none."""
        folded = self.folded_gateways
        return {node_id: function_name(n) for node_id, n in self._index.node.items()
                if n.kind != NodeKind.START_EVENT and node_id not in folded}

    @cached_property
    def gateway_folds(self) -> Dict[str, Tuple[Optional[Node], Optional[Node]]]:
        """The condition-free gateways folded into a task's masks, which
        emit no function of their own: task id -> (the join in front of it,
        the AND split behind it), None for no fold. The first task in
        document order claims a gateway, and the gateway in front of it is
        tried before the one behind. A task without exactly one incoming
        and one outgoing flow folds nothing."""
        index = self._index
        node, incoming, outgoing = index.node, index.incoming, index.outgoing
        claimed = set()
        folds: Dict[str, Tuple[Optional[Node], Optional[Node]]] = {}
        for n in self.nodes:
            if n.kind not in TASK_KINDS:
                continue
            inc, out = incoming.get(n.id, ()), outgoing.get(n.id, ())
            if len(inc) != 1 or len(out) != 1:
                continue
            front, behind = node.get(inc[0].source), node.get(out[0].target)
            if front is None or front.kind not in GATEWAY_KINDS or front.id in claimed \
                    or front.id not in incoming or len(outgoing[front.id]) != 1 \
                    or outgoing[front.id][0].condition is not None:
                front = None
            else:
                claimed.add(front.id)
            if behind is None or behind.kind != NodeKind.AND_GATEWAY or behind.id in claimed \
                    or len(incoming.get(behind.id, ())) != 1 or behind.id not in outgoing:
                behind = None
            else:
                claimed.add(behind.id)
            if front is not None or behind is not None:
                folds[n.id] = (front, behind)
        return folds

    @cached_property
    def folded_gateways(self) -> frozenset:
        """The ids of the gateways in gateway_folds."""
        return frozenset(g.id for pair in self.gateway_folds.values() for g in pair
                         if g is not None)

    def external_tasks(self):
        return tuple(n for n in self.nodes if n.kind in EXTERNAL_TASK_KINDS)

    def tasks(self):
        return tuple(n for n in self.nodes if n.kind in TASK_KINDS)

    def gateways(self):
        return tuple(n for n in self.nodes if n.kind in GATEWAY_KINDS)

    @cached_property
    def _calls(self) -> Dict[str, tuple]:
        return {task_id: tuple(map(self._resolve_call, bound))
                for task_id, bound in self._index.invocations.items()}

    def calls_of(self, task_id: str) -> tuple:
        """Each contract call bound to a task of a validated model, in
        binding order, as (interface, function declaration, input sources
        in parameter order, output targets in return order with None where
        a return is unbound). Resolved once per model, for every task, on
        the first request."""
        return self._calls.get(task_id, ())

    def _resolve_call(self, inv: InvocationBinding):
        itf = self.interface(inv.target_interface)
        fn = itf.function(inv.fn_name)
        sources = {b.param: b.source for b in inv.input_bindings}
        targets = {b.param: b.target for b in inv.output_bindings}
        return (itf, fn, tuple(sources[p.name] for p in fn.inputs),
                tuple(targets.get(p.name) for p in fn.outputs))

    @cached_property
    def declared_types(self) -> Mapping[str, str]:
        """Variable declarations plus every task input, by name, as a
        read-only view.

        A task input may share the name of a declared variable of the same
        type; merging its value into the environment then acts as an
        assignment to that variable. validate_model rejects two types for
        one name, so on a valid model the order of the tasks does not
        matter.
        """
        types = {v.name: v.type for v in self.variables}
        for n in self.nodes:
            for ti in n.task_inputs:
                types.setdefault(ti.name, ti.type)
        return MappingProxyType(types)


# ---------------------------------------------------------------------------
# Validation


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    ref: str  # node/flow/element id the problem is attached to
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: [{self.ref}] {self.message}"


class ValidationReport(NamedTuple):
    diagnostics: tuple = ()

    @property
    def errors(self):
        return tuple(d for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self):
        return tuple(d for d in self.diagnostics if d.severity == "warning")

    @property
    def ok(self) -> bool:
        return not self.errors


def literal_matches(type_name: str, value: object) -> bool:
    if type_name in ("uint256", "int256"):
        if not isinstance(value, int) or isinstance(value, bool):
            return False
        if type_name == "uint256":
            return 0 <= value <= UINT256_MAX
        return INT256_MIN <= value <= INT256_MAX
    if type_name == "bool":
        return isinstance(value, bool)
    if type_name == "string":
        return isinstance(value, str)
    if type_name == "address":
        return isinstance(value, str) and is_address(value)
    return False


# the words of a display name: its runs of ASCII letters and digits
ascii_words = re.compile(r"[A-Za-z0-9]+").findall


def sanitize_identifier(name: str) -> str:
    """Display name -> solidity-safe identifier, first word capitalised and
    the rest lowercased ('Create Grain Title' -> 'Create_grain_title').
    Words are runs of ASCII letters and digits."""
    words = ascii_words(name)
    if not words:
        return "_"
    first = words[0]
    ident = first[0].upper() + first[1:]
    if len(words) > 1:
        ident += "_" + "_".join(words[1:]).lower()
    return "_" + ident if ident[0].isdigit() else ident


def contract_name(display_name: str) -> str:
    """'Lorikeet Coin' -> 'LorikeetCoin' (inner capitals preserved); words
    are runs of ASCII letters and digits."""
    words = ascii_words(display_name)
    name = "".join(w[0].upper() + w[1:] for w in words)
    if not name:
        return "Contract"
    if name[0].isdigit():
        name = "C" + name
    return name


def function_name(node: Node) -> str:
    """The name of the ProcessMonitor function a node emits: a task is
    named by its display name, a gateway or end event by its id."""
    return sanitize_identifier(node.display_name if node.kind in TASK_KINDS else node.id)


def slot(name: str) -> str:
    """_<name>: the ProcessMonitor storage slot of a variable or task input,
    and the constructor parameter that sets a state variable <name>."""
    return "_" + name


def address_of(interface: str) -> str:
    """addressOf<I>: the ProcessMonitor state variable of an interface's address."""
    return "addressOf" + interface


def instance_of(interface: str) -> str:
    """instanceOf<I>: the local through which a function calls an interface."""
    return "instanceOf" + interface


# ---------------------------------------------------------------------------
# Emitted declarations


class Declared(NamedTuple):
    """A name an emitted scope declares, with the model ref or attributes[i]
    it comes from, "" for a fixed name, and the label a clash words it by.
    A derived name is made from another name of its owner, as addressOf<I>
    from I."""

    name: str
    owner: str
    label: str = ""
    derived: bool = False


class Scope(NamedTuple):
    """The names one scope declares, at path in its file: () for the file,
    then (contract,) and (contract, member). Struct members and event
    parameters hide no outer name, as nothing reads them bare. declared
    builds the Declared entry of each name, in order, and is called only
    to word a clash; None when every name is a fixed one."""

    path: Tuple[str, ...]
    names: Tuple[str, ...]
    hides: bool = True
    declared: Optional[Callable[[], tuple]] = None

    def entries(self) -> tuple:
        return self.declared() if self.declared else emitted(*self.names)


@lru_cache(maxsize=None)  # called with the emitted code's few fixed lists only
def emitted(*names: str) -> tuple:
    """The entries of the emitted code's fixed names."""
    return tuple(Declared(n, "", f"the emitted name '{n}'") for n in names)


def clashes(scopes) -> list:
    """(blamed, how, other) for each name a scope declares twice and each
    declaration hiding a name of an enclosing scope, which comes first in
    scopes. The blame falls on a name the model states rather than on a
    fixed or derived one, else on the later one. A declaration meeting
    itself, in two scopes of one path that share their entries, is no
    clash. Each scope's names are checked against the names before them
    as sets; only a scope where a name meets another has its entries
    built and walked, and the entries it meets with them."""
    names: Dict[Tuple[str, ...], set] = {}
    listed: Dict[Tuple[str, ...], list] = {}
    built: Dict[int, tuple] = {}

    def entries(scope):
        if id(scope) not in built:
            built[id(scope)] = scope.entries()
        return built[id(scope)]

    def first(path, name):
        """The first entry of name at path so far, None for none."""
        for scope in listed.get(path, ()):
            if name in scope.names:
                return entries(scope)[scope.names.index(name)]
        return None

    found = []
    for scope in scopes:
        path, new = scope.path, scope.names
        own = names.setdefault(path, set())
        listed.setdefault(path, []).append(scope)
        size = len(own)
        own.update(new)
        outer = [path[:i] for i in range(len(path) - 1, -1, -1)] if scope.hides else ()
        if len(own) == size + len(new) and all(
                p not in names or names[p].isdisjoint(new) for p in outer):
            continue
        for d in entries(scope):
            other = first(path, d.name)
            same = other is not d
            if not same:
                for p in outer:
                    other = first(p, d.name)
                    if other is not None:
                        break
                else:
                    continue
            if not d.owner or (d.derived and other.owner and not other.derived):
                found.append((other, "collides with" if same else "is hidden by", d))
            else:
                found.append((d, "collides with" if same else "hides", other))
    return found


def _function_of(n: Node) -> str:
    return f"task '{n.display_name}'" if n.kind in TASK_KINDS else f"{n.kind.value} '{n.id}'"


def process_scopes(model: ProcessModel) -> list:
    """What codegen.gen_process declares in ProcessFactory.sol, scope by
    scope: the contracts, each interface's functions and their parameters,
    ProcessFactory's members, the monitor's, and the parameters and locals
    of the monitor's constructor and of each node's function. Every node's
    function declares the local instanceOf<I> of every interface, which
    codegen declares where the task calls I, so that binding a call to a
    task cannot make its inputs clash. These locals are listed once, at
    (ProcessMonitor, "*"), which no function can be named: that scope
    stands for every function that declares nothing else. A function with
    task inputs, or of a name another node's function has, has a scope of
    its own, its task inputs and then the same locals."""
    monitor, factory, interfaces = "ProcessMonitor", "ProcessFactory", model.interfaces
    bound = [i for i in interfaces if i.contract_address is None]
    ctor = tuple(slot(address_of(i.name)) for i in bound)
    local = ("preconditionsp",) + tuple(instance_of(i.name) for i in interfaces)

    def ctor_entries():
        return tuple(Declared(n, i.id, f"the constructor parameter '{n}' of interface '{i.name}'",
                              True) for n, i in zip(ctor, bound))

    @lru_cache(maxsize=None)  # one set of entries, met by itself in each function's scope
    def local_entries():
        return emitted("preconditionsp") + tuple(
            Declared(n, i.id, f"the local '{n}' of interface '{i.name}'", True)
            for n, i in zip(local[1:], interfaces))

    scopes = [Scope((), (factory, monitor) + tuple(i.name for i in interfaces), True,
                    lambda: emitted(factory, monitor) + tuple(
                        Declared(i.name, i.id, f"interface '{i.name}'") for i in interfaces))]
    for i in interfaces:
        scopes.append(Scope((i.name,), tuple(f.name for f in i.functions), True, lambda i=i: tuple(
            Declared(f.name, i.id, f"function '{f.name}'") for f in i.functions)))
        scopes += [Scope((i.name, f.name), tuple(p.name for p in f.inputs + f.outputs), True,
                         lambda i=i, f=f: tuple(
                             Declared(p.name, i.id, f"{way} parameter '{p.name}' on {f.name}")
                             for way, params in (("input", f.inputs), ("output", f.outputs))
                             for p in params))
                   for f in i.functions]
    scopes += [Scope((factory,), ("createdInstances", "instanceCreated", "createInstance")),
               Scope((factory, "instanceCreated"), ("instanceAddress",), False),
               Scope((factory, "createInstance"), ("_participants", "instance") + ctor, True,
                     lambda: emitted("_participants", "instance") + ctor_entries())]
    fixed = ("marking", "taskExecuted", "runAutoTransitions")
    addresses = tuple(address_of(i.name) for i in interfaces)
    fnames, node = model.function_names, model._index.node
    functions = tuple(fnames.values())

    def member_entries():
        owners = {v.name: (v.name, "variable") for v in model.variables}
        for n in model.nodes:
            for ti in n.task_inputs:
                owners.setdefault(ti.name, (n.id, "task input"))
        return emitted(*fixed) + tuple(
            Declared(a, i.id, f"the address '{a}' of interface '{i.name}'", True)
            for a, i in zip(addresses, interfaces)) + tuple(
            Declared(slot(name), ref, f"the slot '{slot(name)}' of {what} '{name}'")
            for name, (ref, what) in owners.items()) + tuple(
            Declared(name, node_id, f"function '{name}' of {_function_of(node[node_id])}")
            for node_id, name in fnames.items())

    shared = {name for name, k in Counter(functions).items() if k > 1}
    scopes.append(Scope((monitor,), fixed + addresses + tuple(map(slot, model.declared_types))
                        + functions, True, member_entries))
    scopes += [Scope((monitor, "constructor"), ctor, True, ctor_entries),
               Scope((monitor, "taskExecuted"), ("taskName", "success"), False),
               Scope((monitor, "runAutoTransitions"), ("preconditionsp", "previous"))]
    star = None
    for node_id, name in fnames.items():
        n = node[node_id]
        inputs = n.task_inputs if n.kind in EXTERNAL_TASK_KINDS else ()
        if inputs or name in shared:
            scopes.append(Scope((monitor, name), tuple(ti.name for ti in inputs) + local, True,
                                lambda node_id=node_id, inputs=inputs: tuple(
                                    Declared(ti.name, node_id, f"task input '{ti.name}'")
                                    for ti in inputs) + local_entries()))
        elif star is None:
            star = Scope((monitor, "*"), local, True, local_entries)
            scopes.append(star)
    return scopes


def _reachable(seeds, flows: Mapping[str, Tuple[SequenceFlow, ...]], end: str) -> set:
    """The seeds and every id reachable from them along flows, which maps
    a node id to its outgoing flows (end "target") or to its incoming
    flows (end "source")."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        for f in flows.get(frontier.pop(), ()):
            nxt = getattr(f, end)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def validate_model(model: ProcessModel) -> ValidationReport:  # noqa: C901
    """Structural and type validation. Returns diagnostics, never raises."""
    diags = []

    def err(ref, msg):
        diags.append(Diagnostic("error", ref, msg))

    def warn(ref, msg):
        diags.append(Diagnostic("warning", ref, msg))

    def identifier(ref, what, name):
        if not is_identifier(name):
            err(ref, f"{what} '{name}' is not an identifier")

    node_ids = set()
    for n in model.nodes:
        if n.id in node_ids:
            err(n.id, "duplicate node id")
        node_ids.add(n.id)

    flow_ids = set()
    for f in model.flows:
        if f.id in flow_ids or f.id in node_ids:
            err(f.id, "duplicate flow id")
        flow_ids.add(f.id)

    seen_vars = set()
    for v in model.variables:
        if v.name in seen_vars:
            err(v.name, "duplicate variable declaration")
        seen_vars.add(v.name)
        identifier(v.name, "variable name", v.name)
        if v.type not in VALUE_TYPES:
            err(v.name, f"unknown variable type '{v.type}'")
        elif v.initial is not None and not literal_matches(v.type, v.initial):
            err(v.name, f"initial value {v.initial!r} does not match type {v.type}")

    iface_ids = set()
    for itf in model.interfaces:
        if itf.id in iface_ids or itf.id in node_ids or itf.id in flow_ids:
            err(itf.id, "duplicate interface id")
        iface_ids.add(itf.id)
        identifier(itf.id, "interface name", itf.name)
        if itf.contract_address is not None and not is_address(itf.contract_address):
            err(itf.id, f"malformed contract address '{itf.contract_address}'")
        for fn in itf.functions:
            identifier(itf.id, "function name", fn.name)
            for direction, params in (("input", fn.inputs), ("output", fn.outputs)):
                for p in params:
                    if not is_identifier(p.name):
                        err(itf.id, f"{direction} parameter '{p.name}' on {fn.name} "
                                    "is not an identifier")
                    if p.type not in VALUE_TYPES:
                        err(itf.id, f"unknown {direction} parameter type '{p.type}' "
                                    f"on {fn.name}")

    if len(model.flows) > 256:
        err(model.id, f"marking exceeds 256 bits ({len(model.flows)} sequence flows)")

    for f in model.flows:
        if f.source not in node_ids:
            err(f.id, f"dangling flow source '{f.source}'")
        if f.target not in node_ids:
            err(f.id, f"dangling flow target '{f.target}'")

    start_kind, end_kind = NodeKind.START_EVENT, NodeKind.END_EVENT
    starts = [n for n in model.nodes if n.kind is start_kind]
    ends = [n for n in model.nodes if n.kind is end_kind]
    if len(starts) != 1:
        err(model.id, f"expected exactly one start event, found {len(starts)}")
    if not ends:
        err(model.id, "no end event")

    # structural degree rules
    index = model._index
    incoming, outgoing = index.incoming, index.outgoing
    for n in model.nodes:
        kind = n.kind
        inc, out = len(incoming.get(n.id, ())), len(outgoing.get(n.id, ()))
        if kind is start_kind:
            if inc:
                err(n.id, "start event has incoming flows")
            if not out:
                err(n.id, "start event has no outgoing flow")
        elif kind is end_kind:
            if out:
                err(n.id, "end event has outgoing flows")
            if not inc:
                err(n.id, "end event has no incoming flow")
        elif kind in TASK_KINDS:
            if inc != 1 or out != 1:
                err(n.id, "tasks must have exactly one incoming and one outgoing flow; "
                          "use gateways for branching")
        else:  # gateways
            if not inc or not out:
                err(n.id, "gateway must have incoming and outgoing flows")
            elif inc > 1 and out > 1:
                err(n.id, "gateway may not join and split at the same time")
            elif inc == 1 and out == 1:
                warn(n.id, "degenerate gateway with one incoming and one outgoing flow")

    # conditions live on XOR-split outgoing flows only
    for f in model.flows:
        if f.condition is None and not f.is_default:
            continue
        src = index.node.get(f.source)
        is_xor_split = (src is not None and src.kind == NodeKind.XOR_GATEWAY
                        and len(outgoing[src.id]) > 1)
        if f.condition is not None and not is_xor_split:
            err(f.id, "condition on a flow that is not an XOR-split branch")
        if f.is_default and (src is None or src.kind != NodeKind.XOR_GATEWAY):
            err(f.id, "default flag on a flow not leaving an XOR gateway")

    types = model.declared_types
    for n in model.nodes:
        if n.kind == NodeKind.XOR_GATEWAY:
            out = model.outgoing(n.id)
            if len(out) > 1:
                defaults = [f for f in out if f.is_default]
                if len(defaults) > 1:
                    err(n.id, "more than one default flow")
                for f in out:
                    if f.is_default:
                        if f.condition is not None:
                            err(f.id, "default flow must not carry a condition")
                    elif f.condition is None:
                        err(f.id, "XOR-split branch without condition and not default")
                    else:
                        try:
                            t, _ = model.typed(f.condition)
                            if t != "bool":
                                err(f.id, f"condition must be bool, got {t}")
                        except ExprTypeError as e:
                            err(f.id, f"condition type error: {e}")

    # task inputs; one name has one type across all tasks, as it is one
    # storage variable of the emitted contract
    declared = {v.name: v.type for v in model.variables}
    first_input: Dict[str, Tuple[str, str]] = {}  # name -> (type, task id)
    for n in model.nodes:
        if n.task_inputs:
            for ti in n.task_inputs:
                identifier(n.id, "task input", ti.name)
                if ti.type not in VALUE_TYPES:
                    err(n.id, f"unknown task input type '{ti.type}'")
                if ti.name in declared:
                    if declared[ti.name] != ti.type:
                        err(n.id, f"task input '{ti.name}' shadows variable of different type")
                    continue
                t0, task0 = first_input.setdefault(ti.name, (ti.type, n.id))
                if t0 != ti.type and task0 != n.id:
                    err(n.id, f"task input '{ti.name}' is {ti.type} here "
                              f"but {t0} in task '{task0}'")
            if n.kind != NodeKind.USER_TASK:
                err(n.id, "only user tasks may declare task inputs")
        if n.script and n.kind != NodeKind.SCRIPT_TASK:
            err(n.id, "only script tasks may carry a script")

    # scripts type-check; assignment targets must be declared variables
    for n in model.nodes:
        for st in n.script:
            if st.target not in declared:
                err(n.id, f"script assigns undeclared variable '{st.target}'")
                continue
            try:
                t, value = model.typed(st.value)
                # a literal, or an int_const that compile_expr folded
                constant = isinstance(st.value, Lit) or t == "int_const"
                target_t = types[st.target]
                if t == "int_const":
                    t = target_t if target_t in ("uint256", "int256") else t
                if t != target_t:
                    err(n.id, f"script assigns {t} to {target_t} variable '{st.target}'")
                elif constant and not literal_matches(t, value({})):
                    err(n.id, f"literal {value({})!r} does not fit "
                              f"{t} variable '{st.target}'")
            except ExprTypeError as e:
                err(n.id, f"script type error: {e}")

    # every name ProcessFactory.sol declares, once per scope and hiding no
    # name of an enclosing scope; a clash met in several scopes is one error
    reported = set()
    for blamed, how, other in clashes(process_scopes(model)):
        message = (f"duplicate {blamed.label}" if blamed.label == other.label
                   else f"{blamed.label} {how} {other.label}")
        if (blamed.owner, message) not in reported:
            reported.add((blamed.owner, message))
            err(blamed.owner, message)

    # invocation bindings
    for b in model.invocations:
        task = model.node(b.source_task)
        if task is None or task.kind not in TASK_KINDS:
            err(b.source_task, "invocation source is not a task")
            continue
        itf = model.interface(b.target_interface)
        if itf is None:
            err(b.source_task, f"invocation targets unknown interface '{b.target_interface}'")
            continue
        fn = itf.function(b.fn_name)
        if fn is None:
            err(b.source_task, f"interface '{itf.name}' has no function '{b.fn_name}'")
            continue
        bound = [pb.param for pb in b.input_bindings]
        # a parameter declared twice is reported once, at the interface
        expected = list(dict.fromkeys(p.name for p in fn.inputs))
        if sorted(bound) != sorted(expected):
            err(b.source_task,
                f"input bindings for {b.fn_name} must cover {expected} exactly, got {bound}")
        out_types = {p.name: p.type for p in fn.outputs}
        seen_out = set()
        for pb in b.output_bindings:
            if pb.param not in out_types:
                err(b.source_task, f"output binding for unknown return '{pb.param}'")
            if pb.param in seen_out:
                err(b.source_task, f"return '{pb.param}' bound more than once")
            seen_out.add(pb.param)
            if pb.target not in declared:
                err(b.source_task, f"output bound to undeclared variable '{pb.target}'")
            elif pb.param in out_types and out_types[pb.param] != declared[pb.target]:
                err(b.source_task, f"return '{pb.param}' of {b.fn_name} is "
                                   f"{out_types[pb.param]}, bound to {declared[pb.target]} "
                                   f"variable '{pb.target}'")
        in_types = {p.name: p.type for p in fn.inputs}
        for pb in b.input_bindings:
            src, want = pb.source, in_types.get(pb.param)
            if isinstance(src, Var):
                t = "address" if src.name == PROCESS_ADDRESS else types.get(src.name)
                if t is None:
                    err(b.source_task,
                        f"binding source '{src.name}' is not a variable or task input")
                elif want is not None and t != want:
                    err(b.source_task, f"'{pb.param}' of {b.fn_name} expects {want}, "
                                       f"bound to {t} '{src.name}'")
            elif isinstance(src, Lit):
                if want is not None and not literal_matches(want, src.value):
                    err(b.source_task, f"'{pb.param}' of {b.fn_name} expects {want}, "
                                       f"bound to literal {src.value!r}")
            else:
                err(b.source_task, f"binding for '{pb.param}' must be a variable, "
                                   "task input, processAddress, or literal")

    # reachability (over structurally sane graphs only)
    if not any(d.severity == "error" for d in diags):
        reach = _reachable([starts[0].id], outgoing, "target")
        for n in model.nodes:
            if n.id not in reach:
                err(n.id, "node not reachable from the start event")
        # backward reachability to some end event
        co_reach = _reachable([e.id for e in ends], incoming, "source")
        for n in model.nodes:
            if n.id in reach and n.id not in co_reach:
                err(n.id, "node cannot reach any end event")

    return ValidationReport(tuple(diags))
