"""The immutable records are NamedTuples, and each dataclass left in src/
has a reason to stay one."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import procforge
from procforge.codegen import SourceUnit
from procforge.harness import Disagreement, NonConforming, Report, TraceEvent
from procforge.interp import Accepted, LogEntry, Rejected
from procforge.ir import (
    Assign,
    BinOp,
    Diagnostic,
    FunctionParameter,
    InvocationBinding,
    Lit,
    Node,
    NodeKind,
    ParameterBinding,
    ProcessVariableDecl,
    SequenceFlow,
    SmartContractFunctionDecl,
    SmartContractInterfaceDecl,
    TaskInput,
    UnaryOp,
    ValidationReport,
    Var,
)
from procforge.marking import ClosureResult
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
    FungibleRegistrySpec("Coin", "CN", 2, 100, initially_distributed_accounts=((ADDRESS, 100),)),
    AttributeDecl("weight", "uint256", updatable=True),
    NonFungibleRegistrySpec("Titles", "single", (AttributeDecl("weight", "uint256"),)),
    TraceEvent("Pay", None, ADDRESS),
    NonConforming(2),
    Disagreement(4, "Conforming", "NonConforming(1)", ("Pay", "Ship")),
    Report(7, 3, 1, 75.0, (), 12),
    SourceUnit("Coin.sol", "^0.5.8", ("Coin",), "pragma solidity ^0.5.8;\n"),
    ClosureResult(0x4, {"x": 2}, ("s_alloc",)),
    Accepted(1, ("s_alloc",)),
    Rejected("NotEnabled", "task 'Pay' not enabled at marking 0x1"),
    LogEntry("Pay", None, ADDRESS, Accepted()),
]

# each dataclass left in src/, and why it is not a NamedTuple
DATACLASSES = {
    "ir.ProcessModel": "caches its lookups in a cached_property",
    "marking.MarkingAutomaton": "caches its task-id table in a cached_property",
    "marking.Branch": "its compiled guard is left out of equality",
    "marking.Transition": "its compiled statements are left out of equality",
    "harness.Conforming": "has no fields, and a NamedTuple without fields is falsy",
    "harness._Prefix": "a mutable trie node with a dict default",
    "harness.ExperimentConfig": "checks its fields in __post_init__",
    "interp.RecordState": "frozen, but its attribute dict cannot hash as a NamedTuple sample must",
}


# each record whose fields hold a dict, so that it cannot hash
UNHASHABLE = {
    "ClosureResult": "its env is the dict of variables the closure wrote",
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
