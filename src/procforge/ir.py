"""In-memory representation of a process model: nodes, flows, variables,
contract interfaces, invocation bindings, and the small typed expression
language used by conditions and scripts.

Everything here is immutable after construction. Validation is a pure
function producing a diagnostic report; it never raises for model defects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Union

UINT256_MAX = 2**256 - 1
INT256_MIN = -(2**255)
INT256_MAX = 2**255 - 1

VALUE_TYPES = ("uint256", "int256", "bool", "address", "string")

ZERO_ADDRESS = "0x" + "0" * 40


def is_address(text: str) -> bool:
    """True iff text is 0x followed by exactly 40 hex digits."""
    if not isinstance(text, str) or len(text) != 42 or not text.startswith("0x"):
        return False
    try:
        int(text[2:], 16)
    except ValueError:
        return False
    return True


def addr_key(address: str) -> str:
    """Canonical (case-insensitive) key for address comparisons."""
    return address.lower()


# ---------------------------------------------------------------------------
# Expression language


@dataclass(frozen=True)
class Lit:
    value: Union[int, bool, str]
    type: str  # uint256/int256/bool/address/string or "int_const"


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class UnaryOp:
    op: str  # "!" or "-"
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / == != < <= > >= && ||
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Var, UnaryOp, BinOp]


@dataclass(frozen=True)
class Assign:
    """One script statement: target := value."""

    target: str
    value: Expr


ARITH_OPS = ("+", "-", "*", "/")
ORDER_OPS = ("<", "<=", ">", ">=")
EQ_OPS = ("==", "!=")
BOOL_OPS = ("&&", "||")


class EvalError(Exception):
    pass


class DivisionByZero(EvalError):
    pass


class ArithmeticOverflow(EvalError):
    pass


class ArithmeticUnderflow(EvalError):
    pass


class UnboundVariable(EvalError):
    pass


class ExprTypeError(Exception):
    """Raised by the static checker; surfaces as a validation diagnostic."""


def _unify_numeric(lt: str, rt: str) -> str:
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


def check_expr(e: Expr, types: Mapping[str, str]) -> str:
    """Infer the type of e under the given declarations.

    Integer literals type as 'int_const' and adapt to either integer width.
    Strings support equality only.
    """
    if isinstance(e, Lit):
        return e.type
    if isinstance(e, Var):
        if e.name not in types:
            raise ExprTypeError(f"undeclared variable '{e.name}'")
        return types[e.name]
    if isinstance(e, UnaryOp):
        t = check_expr(e.operand, types)
        if e.op == "!":
            if t != "bool":
                raise ExprTypeError(f"'!' requires bool, got {t}")
            return "bool"
        if e.op == "-":
            _require_numeric(t, "unary '-'")
            if t == "uint256":
                raise ExprTypeError("unary '-' not allowed on uint256")
            return "int256" if t == "int_const" else t
        raise ExprTypeError(f"unknown unary operator {e.op}")
    if isinstance(e, BinOp):
        lt = check_expr(e.left, types)
        rt = check_expr(e.right, types)
        if e.op in ARITH_OPS:
            _require_numeric(lt, f"'{e.op}'")
            _require_numeric(rt, f"'{e.op}'")
            return _unify_numeric(lt, rt)
        if e.op in ORDER_OPS:
            _require_numeric(lt, f"'{e.op}'")
            _require_numeric(rt, f"'{e.op}'")
            _unify_numeric(lt, rt)
            return "bool"
        if e.op in EQ_OPS:
            if lt in ("uint256", "int256", "int_const") and rt in ("uint256", "int256", "int_const"):
                _unify_numeric(lt, rt)
            elif lt != rt:
                raise ExprTypeError(f"cannot compare {lt} with {rt}")
            return "bool"
        if e.op in BOOL_OPS:
            if lt != "bool" or rt != "bool":
                raise ExprTypeError(f"'{e.op}' requires bool operands, got {lt} and {rt}")
            return "bool"
        raise ExprTypeError(f"unknown operator {e.op}")
    raise ExprTypeError(f"unknown expression node {e!r}")


def _range_check(value: int, result_type: str) -> int:
    if result_type == "uint256":
        if value < 0:
            raise ArithmeticUnderflow(f"unsigned result below zero: {value}")
        if value > UINT256_MAX:
            raise ArithmeticOverflow(f"uint256 overflow: {value}")
    elif result_type == "int256":
        if value < INT256_MIN:
            raise ArithmeticUnderflow(f"int256 underflow: {value}")
        if value > INT256_MAX:
            raise ArithmeticOverflow(f"int256 overflow: {value}")
    return value


def eval_expr(e: Expr, env: Mapping[str, object], types: Mapping[str, str]) -> object:
    """Evaluate a type-checked expression. Arithmetic is checked, not wrapping.

    env maps variable names to python values; types carries their declared
    types (needed to pick the checked range).
    """
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariable(e.name)
        return env[e.name]
    if isinstance(e, UnaryOp):
        v = eval_expr(e.operand, env, types)
        if e.op == "!":
            return not v
        if e.op == "-":
            t = check_expr(e, types)
            return _range_check(-v, "int256" if t == "int_const" else t)
    if isinstance(e, BinOp):
        if e.op in BOOL_OPS:
            lv = eval_expr(e.left, env, types)
            if e.op == "&&":
                return bool(lv) and bool(eval_expr(e.right, env, types))
            return bool(lv) or bool(eval_expr(e.right, env, types))
        lv = eval_expr(e.left, env, types)
        rv = eval_expr(e.right, env, types)
        if e.op in EQ_OPS:
            lt = check_expr(e.left, types)
            if lt == "address" or check_expr(e.right, types) == "address":
                lv, rv = addr_key(lv), addr_key(rv)
            eq = lv == rv
            return eq if e.op == "==" else not eq
        if e.op in ORDER_OPS:
            return {"<": lv < rv, "<=": lv <= rv, ">": lv > rv, ">=": lv >= rv}[e.op]
        # arithmetic
        t = _unify_numeric(check_expr(e.left, types), check_expr(e.right, types))
        if t == "int_const":
            t = "uint256" if lv >= 0 and rv >= 0 else "int256"
        if e.op == "+":
            return _range_check(lv + rv, t)
        if e.op == "-":
            return _range_check(lv - rv, t)
        if e.op == "*":
            return _range_check(lv * rv, t)
        if e.op == "/":
            if rv == 0:
                raise DivisionByZero(f"{lv} / 0")
            if t == "uint256":
                return lv // rv
            q = abs(lv) // abs(rv)  # solidity int division truncates toward zero
            return q if (lv >= 0) == (rv >= 0) else _range_check(-q, t)
    raise EvalError(f"cannot evaluate {e!r}")


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


@dataclass(frozen=True)
class TaskInput:
    name: str
    type: str


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind
    name: str = ""
    task_inputs: tuple = ()  # tuple[TaskInput, ...], user tasks only
    script: tuple = ()  # tuple[Assign, ...], script tasks only

    @property
    def display_name(self) -> str:
        return self.name or self.id


@dataclass(frozen=True)
class SequenceFlow:
    id: str
    source: str
    target: str
    condition: Optional[Expr] = None
    is_default: bool = False


@dataclass(frozen=True)
class ProcessVariableDecl:
    name: str
    type: str
    initial: Optional[object] = None


@dataclass(frozen=True)
class FunctionParameter:
    name: str
    type: str


@dataclass(frozen=True)
class SmartContractFunctionDecl:
    name: str
    inputs: tuple = ()  # tuple[FunctionParameter, ...]
    outputs: tuple = ()


@dataclass(frozen=True)
class SmartContractInterfaceDecl:
    id: str
    name: str
    contract_address: Optional[str] = None
    functions: tuple = ()  # tuple[SmartContractFunctionDecl, ...]

    def function(self, fn_name: str) -> Optional[SmartContractFunctionDecl]:
        for f in self.functions:
            if f.name == fn_name:
                return f
        return None


@dataclass(frozen=True)
class ParameterBinding:
    """Binds one function parameter (input) or return value (output).

    source is an Expr for inputs: a Var, a Lit, or the reserved Var
    'processAddress'. target is a process variable name for outputs.
    """

    param: str
    source: Optional[Expr] = None  # input bindings
    target: Optional[str] = None  # output bindings


PROCESS_ADDRESS = "processAddress"


@dataclass(frozen=True)
class InvocationBinding:
    source_task: str
    target_interface: str
    fn_name: str
    input_bindings: tuple = ()  # tuple[ParameterBinding, ...]
    output_bindings: tuple = ()


@dataclass(frozen=True)
class ProcessModel:
    id: str
    nodes: tuple = ()  # tuple[Node, ...]
    flows: tuple = ()  # tuple[SequenceFlow, ...]
    variables: tuple = ()  # tuple[ProcessVariableDecl, ...]
    interfaces: tuple = ()  # tuple[SmartContractInterfaceDecl, ...]
    invocations: tuple = ()  # tuple[InvocationBinding, ...]

    def node(self, node_id: str) -> Optional[Node]:
        for n in self.nodes:
            if n.id == node_id:
                return n
        return None

    def incoming(self, node_id: str):
        return tuple(f for f in self.flows if f.target == node_id)

    def outgoing(self, node_id: str):
        return tuple(f for f in self.flows if f.source == node_id)

    def interface(self, interface_id: str) -> Optional[SmartContractInterfaceDecl]:
        for i in self.interfaces:
            if i.id == interface_id:
                return i
        return None

    def external_tasks(self):
        return tuple(n for n in self.nodes if n.kind in EXTERNAL_TASK_KINDS)

    def tasks(self):
        return tuple(n for n in self.nodes if n.kind in TASK_KINDS)

    def gateways(self):
        return tuple(n for n in self.nodes if n.kind in GATEWAY_KINDS)

    def invocations_of(self, task_id: str):
        return tuple(b for b in self.invocations if b.source_task == task_id)

    def declared_types(self) -> dict:
        """Variable declarations plus every task input, by name.

        A task input may share the name of a declared variable of the same
        type; merging its value into the environment then acts as an
        assignment to that variable.
        """
        types = {v.name: v.type for v in self.variables}
        for n in self.nodes:
            for ti in n.task_inputs:
                types.setdefault(ti.name, ti.type)
        return types


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    ref: str  # node/flow/element id the problem is attached to
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: [{self.ref}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
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


def default_value(type_name: str):
    return {"uint256": 0, "int256": 0, "bool": False, "string": "", "address": ZERO_ADDRESS}[type_name]


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


def sanitize_identifier(name: str) -> str:
    """Display name -> solidity-safe identifier, first word capitalised and
    the rest lowercased ('Create Grain Title' -> 'Create_grain_title')."""
    words = [w for w in "".join(c if c.isalnum() else " " for c in name).split() if w]
    if not words:
        return "_"
    parts = [words[0][0].upper() + words[0][1:]] + [w.lower() for w in words[1:]]
    ident = "_".join(parts)
    if ident[0].isdigit():
        ident = "_" + ident
    return ident


def validate_model(model: ProcessModel) -> ValidationReport:  # noqa: C901
    """Structural and type validation. Returns diagnostics, never raises."""
    diags = []

    def err(ref, msg):
        diags.append(Diagnostic("error", ref, msg))

    def warn(ref, msg):
        diags.append(Diagnostic("warning", ref, msg))

    node_ids = {}
    for n in model.nodes:
        if n.id in node_ids:
            err(n.id, "duplicate node id")
        node_ids[n.id] = n

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
        if v.type not in VALUE_TYPES:
            err(v.name, f"unknown variable type '{v.type}'")
        elif v.initial is not None and not literal_matches(v.type, v.initial):
            err(v.name, f"initial value {v.initial!r} does not match type {v.type}")

    iface_ids = set()
    for itf in model.interfaces:
        if itf.id in iface_ids:
            err(itf.id, "duplicate interface id")
        iface_ids.add(itf.id)
        if itf.contract_address is not None and not is_address(itf.contract_address):
            err(itf.id, f"malformed contract address '{itf.contract_address}'")
        fn_names = set()
        for fn in itf.functions:
            if fn.name in fn_names:
                err(itf.id, f"duplicate function '{fn.name}'")
            fn_names.add(fn.name)
            for direction, params in (("input", fn.inputs), ("output", fn.outputs)):
                pnames = set()
                for p in params:
                    if p.name in pnames:
                        err(itf.id, f"duplicate {direction} parameter '{p.name}' on {fn.name}")
                    pnames.add(p.name)

    if len(model.flows) > 256:
        err(model.id, f"marking exceeds 256 bits ({len(model.flows)} sequence flows)")

    for f in model.flows:
        if f.source not in node_ids:
            err(f.id, f"dangling flow source '{f.source}'")
        if f.target not in node_ids:
            err(f.id, f"dangling flow target '{f.target}'")

    starts = [n for n in model.nodes if n.kind == NodeKind.START_EVENT]
    ends = [n for n in model.nodes if n.kind == NodeKind.END_EVENT]
    if len(starts) != 1:
        err(model.id, f"expected exactly one start event, found {len(starts)}")
    if not ends:
        err(model.id, "no end event")

    # structural degree rules
    for n in model.nodes:
        inc, out = model.incoming(n.id), model.outgoing(n.id)
        if n.kind == NodeKind.START_EVENT:
            if inc:
                err(n.id, "start event has incoming flows")
            if not out:
                err(n.id, "start event has no outgoing flow")
        elif n.kind == NodeKind.END_EVENT:
            if out:
                err(n.id, "end event has outgoing flows")
            if not inc:
                err(n.id, "end event has no incoming flow")
        elif n.kind in TASK_KINDS:
            if len(inc) != 1 or len(out) != 1:
                err(n.id, "tasks must have exactly one incoming and one outgoing flow; "
                          "use gateways for branching")
        else:  # gateways
            if not inc or not out:
                err(n.id, "gateway must have incoming and outgoing flows")
            elif len(inc) > 1 and len(out) > 1:
                err(n.id, "gateway may not join and split at the same time")
            elif len(inc) == 1 and len(out) == 1:
                warn(n.id, "degenerate gateway with one incoming and one outgoing flow")

    # conditions live on XOR-split outgoing flows only
    for f in model.flows:
        src = node_ids.get(f.source)
        is_xor_split = (src is not None and src.kind == NodeKind.XOR_GATEWAY
                        and len(model.outgoing(src.id)) > 1)
        if f.condition is not None and not is_xor_split:
            err(f.id, "condition on a flow that is not an XOR-split branch")
        if f.is_default and (src is None or src.kind != NodeKind.XOR_GATEWAY):
            err(f.id, "default flag on a flow not leaving an XOR gateway")

    types = model.declared_types()
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
                            t = check_expr(f.condition, types)
                            if t != "bool":
                                err(f.id, f"condition must be bool, got {t}")
                        except ExprTypeError as e:
                            err(f.id, f"condition type error: {e}")

    # task inputs
    for n in model.nodes:
        seen = set()
        for ti in n.task_inputs:
            if ti.name in seen:
                err(n.id, f"duplicate task input '{ti.name}'")
            seen.add(ti.name)
            if ti.type not in VALUE_TYPES:
                err(n.id, f"unknown task input type '{ti.type}'")
            declared = {v.name: v.type for v in model.variables}
            if ti.name in declared and declared[ti.name] != ti.type:
                err(n.id, f"task input '{ti.name}' shadows variable of different type")
        if n.task_inputs and n.kind != NodeKind.USER_TASK:
            err(n.id, "only user tasks may declare task inputs")
        if n.script and n.kind != NodeKind.SCRIPT_TASK:
            err(n.id, "only script tasks may carry a script")

    # scripts type-check; assignment targets must be declared variables
    declared_var_names = {v.name for v in model.variables}
    for n in model.nodes:
        for st in n.script:
            if st.target not in declared_var_names:
                err(n.id, f"script assigns undeclared variable '{st.target}'")
                continue
            try:
                t = check_expr(st.value, types)
                target_t = types[st.target]
                if t == "int_const":
                    t = target_t if target_t in ("uint256", "int256") else t
                if t != target_t:
                    err(n.id, f"script assigns {t} to {target_t} variable '{st.target}'")
            except ExprTypeError as e:
                err(n.id, f"script type error: {e}")

    # unique sanitized function names for tasks (codegen + trace lookup)
    seen_idents = {}
    for n in model.tasks():
        ident = sanitize_identifier(n.display_name)
        if ident in seen_idents:
            err(n.id, f"task name '{n.display_name}' collides with "
                      f"'{seen_idents[ident]}' after identifier sanitization")
        seen_idents[ident] = n.display_name

    # invocation bindings
    for b in model.invocations:
        task = node_ids.get(b.source_task)
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
        expected = [p.name for p in fn.inputs]
        if sorted(bound) != sorted(expected):
            err(b.source_task,
                f"input bindings for {b.fn_name} must cover {expected} exactly, got {bound}")
        out_names = {p.name for p in fn.outputs}
        seen_out = set()
        for pb in b.output_bindings:
            if pb.param not in out_names:
                err(b.source_task, f"output binding for unknown return '{pb.param}'")
            if pb.param in seen_out:
                err(b.source_task, f"return '{pb.param}' bound more than once")
            seen_out.add(pb.param)
            if pb.target not in declared_var_names:
                err(b.source_task, f"output bound to undeclared variable '{pb.target}'")
        task_input_names = {ti.name for ti in task.task_inputs}
        for pb in b.input_bindings:
            src = pb.source
            if isinstance(src, Var):
                if src.name == PROCESS_ADDRESS:
                    continue
                if src.name not in types and src.name not in task_input_names:
                    err(b.source_task,
                        f"binding source '{src.name}' is not a variable or task input")
            elif not isinstance(src, Lit):
                err(b.source_task, f"binding for '{pb.param}' must be a variable, "
                                   "task input, processAddress, or literal")

    # reachability (over structurally sane graphs only)
    if not any(d.severity == "error" for d in diags):
        start = starts[0].id
        reach = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for f in model.outgoing(cur):
                if f.target not in reach:
                    reach.add(f.target)
                    frontier.append(f.target)
        for n in model.nodes:
            if n.id not in reach:
                err(n.id, "node not reachable from the start event")
        # backward reachability to some end event
        co_reach = {e.id for e in ends}
        frontier = list(co_reach)
        while frontier:
            cur = frontier.pop()
            for f in model.incoming(cur):
                if f.source not in co_reach:
                    co_reach.add(f.source)
                    frontier.append(f.source)
        for n in model.nodes:
            if n.id in reach and n.id not in co_reach:
                err(n.id, "node cannot reach any end event")

    return ValidationReport(tuple(diags))
