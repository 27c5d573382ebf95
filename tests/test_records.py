"""The immutable records are NamedTuples, each dataclass left in src/
has a reason to stay one, and each exception class in src/ has a reason
to be told apart from its base."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import procforge
from procforge.codegen import SourceUnit
from procforge.harness import Disagreement, NonConforming, Report, TraceEvent
from procforge.interp import Accepted, LogEntry, RecordState, Rejected
from procforge.ir import (
    Assign,
    BinOp,
    Declared,
    Diagnostic,
    FunctionParameter,
    InvocationBinding,
    Lit,
    Node,
    NodeKind,
    ParameterBinding,
    ProcessVariableDecl,
    Scope,
    SequenceFlow,
    SmartContractFunctionDecl,
    SmartContractInterfaceDecl,
    TaskInput,
    UnaryOp,
    ValidationReport,
    Var,
)
from procforge.marking import Branch, ClosureResult, Transition
from procforge.registry import AttributeDecl, FungibleRegistrySpec, NonFungibleRegistrySpec

ADDRESS = "0x" + "ab" * 20
FN = SmartContractFunctionDecl("transfer", (FunctionParameter("to", "address"),),
                               (FunctionParameter("ok", "bool"),))

# one instance of every public record type, with its fields set
RECORDS = [
    Lit(7, "int_const"),
    Var("amount"),
    UnaryOp("!", Var("done")),
    BinOp(">=", Var("amount"), Lit(7, "int_const")),
    Assign("amount", Lit(0, "int_const")),
    TaskInput("amount", "uint256"),
    Node("t_pay", NodeKind.USER_TASK, "Pay", (TaskInput("amount", "uint256"),)),
    SequenceFlow("f1", "g", "t_pay", BinOp("==", Var("x"), Lit(1, "int_const")), False),
    ProcessVariableDecl("amount", "uint256", 3),
    FunctionParameter("to", "address"),
    FN,
    SmartContractInterfaceDecl("i_token", "Token", ADDRESS, (FN,)),
    ParameterBinding("to", Var("processAddress")),
    InvocationBinding("t_pay", "i_token", "transfer", (ParameterBinding("to", Var("payee")),),
                      (ParameterBinding("ok", target="paid"),)),
    Diagnostic("error", "t_pay", "tasks must have exactly one incoming and one outgoing flow"),
    ValidationReport((Diagnostic("warning", "g", "degenerate gateway"),)),
    Declared("addressOfToken", "i_token", "the address 'addressOfToken'", True),
    Scope(("ProcessMonitor",), ("marking",), True),
    FungibleRegistrySpec("Coin", "CN", 2, 100, initially_distributed_accounts=((ADDRESS, 100),)),
    AttributeDecl("weight", "uint256", updatable=True),
    NonFungibleRegistrySpec("Titles", "single", (AttributeDecl("weight", "uint256"),)),
    TraceEvent("Pay", None, ADDRESS),
    NonConforming(2),
    Disagreement(4, "Conforming", "NonConforming(1)", ("Pay", "Ship")),
    Report(7, 3, 1, 75.0, (), 12),
    SourceUnit("Coin.sol", "pragma solidity ^0.5.8;\n"),
    Branch(0x2, Var("ok"), False, bool),
    Transition("g", NodeKind.XOR_GATEWAY, (0x1,), (Branch(0x2), Branch(0x4, is_default=True)),
               (("x", abs),)),
    ClosureResult(0x4, {"x": 2}, ("s_alloc",)),
    Accepted(1, ("s_alloc",)),
    Rejected("NotEnabled", "task 'Pay' not enabled at marking 0x1"),
    LogEntry("Pay", None, ADDRESS, Accepted()),
    RecordState(ADDRESS, {"weight": 7}, (("weight", 7),)),
]

# each dataclass left in src/, and why it is not a NamedTuple
DATACLASSES = {
    "ir.ProcessModel": "caches its lookups in a cached_property",
    "marking.MarkingAutomaton": "caches its task-id table in a cached_property",
    "harness.Conforming": "has no fields, and a NamedTuple without fields is falsy",
    "harness._StateSet": "a mutable graph node with a dict default",
    "harness.ExperimentConfig": "checks its fields in __post_init__",
}


# each exception class in src/, and why the program tells it apart from
# its base: a failure nothing catches, prints or reads by its class is
# raised as its base with its own message
EXCEPTIONS = {
    "bpmn.BpmnParseError": "the CLI catches it",
    "bpmn.ConditionParseError": "carries offset and expected",
    "cli.CliError": "carries the exit code",
    "harness.HarnessError": "the CLI catches it",
    "harness.TraceSyntaxError": "the CLI catches it to name the trace file",
    "interp.RegistryError": "its name maps to the Rejected reason RegistryError",
    "interp.Unauthorized": "criterion 07 names it",
    "interp.InstanceError": "the base of MissingInput and BadArgument, raised for bad "
                            "wiring and unknown tasks",
    "interp.MissingInput": "its name is printed as a Rejected reason",
    "interp.BadArgument": "its name is printed as a Rejected reason",
    "ir.EvalError": "its name maps to the Rejected reason ScriptError, and _fold catches it",
    "ir.ExprTypeError": "validation catches it as a diagnostic",
    "ir.NumberTooLong": "the registry reader tells it apart from JSON that does not decode",
    "marking.MarkingError": "the CLI catches it",
    "marking.NotEnabled": "its name is printed as a Rejected reason",
    "marking.NoBranchTaken": "its name is printed as a Rejected reason",
    "marking.NonTerminatingClosure": "its name is printed as a Rejected reason, and step "
                                     "catches it",
    "registry.RegistrySpecError": "the CLI catches it",
    "registry.InvariantViolation": "carries path",
}


# each record whose fields hold a dict, so that it cannot hash
UNHASHABLE = {
    "ClosureResult": "its env is the dict of variables the closure wrote",
    "RecordState": "its attrs are the dict of attribute values",
}


def _modules():
    return [importlib.import_module(f"procforge.{m.name}")
            for m in pkgutil.iter_modules(procforge.__path__)]


def _classes(module):
    return [cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__]


def test_every_public_record_type_has_a_sample():
    records = {f"{m.__name__}.{cls.__name__}" for m in _modules() for cls in _classes(m)
               if issubclass(cls, tuple) and not cls.__name__.startswith("_")}
    assert records == {f"{type(r).__module__}.{type(r).__name__}" for r in RECORDS}


def test_dataclasses_left_in_src_are_listed_with_their_reason():
    left = {f"{m.__name__.removeprefix('procforge.')}.{cls.__name__}"
            for m in _modules() for cls in _classes(m) if dataclasses.is_dataclass(cls)}
    assert left == set(DATACLASSES)


def test_exception_classes_in_src_are_listed_with_their_reason():
    left = {f"{m.__name__.removeprefix('procforge.')}.{cls.__name__}"
            for m in _modules() for cls in _classes(m) if issubclass(cls, BaseException)}
    assert left == set(EXCEPTIONS)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_equals_and_hashes_as_its_copy(record):
    copy = type(record)(**record._asdict())
    assert copy is not record
    assert copy == record
    if type(record).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)
    assert record._replace(**{record._fields[0]: "other"}) != record


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_repr_names_its_fields(record):
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_truthy(record):
    assert record
