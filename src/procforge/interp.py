"""In-memory execution of process instances against simulated registries.

One instance mirrors one deployed process contract: a marking word, a
variable environment, an event log, and an own account identity used for
escrow ("deposit to the process") and as Listing-style address(this).
Registry calls bound to a task run atomically with the task: any failure
rolls the whole invocation back. Each registry journals the old value of
every key it writes, so a rollback undoes just the keys an invocation
touched and the registry objects keep their identity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from .ir import (
    EvalError,
    Lit,
    Node,
    PROCESS_ADDRESS,
    ProcessModel,
    ZERO_VALUES,
    addr_key,
    literal_matches,
)
from .marking import (
    MarkingAutomaton,
    MarkingError,
    NotEnabled,
    eager_closure_data,
    fire_external,
)
from .registry import FungibleRegistrySpec, NonFungibleRegistrySpec, initial_balances


class RegistryError(Exception):
    pass


class InsufficientBalance(RegistryError):
    pass


class InsufficientAllowance(RegistryError):
    pass


class Unauthorized(RegistryError):
    pass


class DuplicateRecord(RegistryError):
    pass


class UnknownRecord(RegistryError):
    pass


class InstanceError(Exception):
    pass


class MissingAddressBinding(InstanceError):
    pass


class UnknownRegistryAddress(InstanceError):
    pass


class UnknownTask(InstanceError):
    pass


class MissingInput(InstanceError):
    pass


class BadArgument(InstanceError):
    pass


# ---------------------------------------------------------------------------
# Simulated registries


_MISSING = object()  # journaled as the old value of a key that was absent


def _update_call(attr: str):
    """The function-table call of record_update_<attr>."""
    def call(store: NonFungibleStore, caller: str, record_id: str, value: object):
        store.record_update(caller, record_id, attr, value)
        return ()
    return call


class _Journaled:
    """Registry state that is written only through _write, which journals
    the old value first. rollback(mark) undoes the writes made since mark
    in reverse order, so dict contents and insertion order end up exactly
    as they were; commit() forgets the journal."""

    def __init__(self):
        self._journal: List[Tuple[dict, object, object]] = []

    def _write(self, table: dict, key, value):
        self._journal.append((table, key, table.get(key, _MISSING)))
        table[key] = value

    def mark(self) -> int:
        return len(self._journal)

    def rollback(self, mark: int):
        journal = self._journal
        while len(journal) > mark:
            table, key, old = journal.pop()
            if old is _MISSING:
                del table[key]
            else:
                table[key] = old

    def commit(self):
        self._journal.clear()


class FungibleLedger(_Journaled):
    """ERC-20 style token ledger. sum(balances) == totalSupply always."""

    kind = "token"

    def __init__(self, spec: FungibleRegistrySpec):
        super().__init__()
        self.spec = spec
        self.allowances: Dict[Tuple[str, str], int] = {}
        self.total_supply = spec.total_supply
        self.balances: Dict[str, int] = initial_balances(spec)
        # The simulated ABI, as the emitted contract declares it: function
        # name -> (parameter types, call(ledger, caller, *args) returning
        # the function's outputs). mint and burn exist only when enabled.
        self.functions = dict(self._functions)
        if spec.is_mintable:
            self.functions["mint"] = (("address", "uint256"), FungibleLedger.mint)
        if spec.is_burnable:
            self.functions["burn"] = (("address", "uint256"), FungibleLedger.burn)

    def balance_of(self, account: str) -> int:
        return self.balances.get(addr_key(account), 0)

    def allowance(self, owner: str, spender: str) -> int:
        return self.allowances.get((addr_key(owner), addr_key(spender)), 0)

    def _move(self, frm: str, to: str, amount: int):
        if amount < 0:
            raise RegistryError("negative amount")
        if self.balance_of(frm) < amount:
            raise InsufficientBalance(
                f"{frm} holds {self.balance_of(frm)}, needs {amount}")
        self._write(self.balances, addr_key(frm), self.balance_of(frm) - amount)
        self._write(self.balances, addr_key(to), self.balance_of(to) + amount)

    def transfer(self, caller: str, to: str, amount: int) -> Tuple[bool]:
        self._move(caller, to, amount)
        return (True,)

    def approve(self, caller: str, spender: str, amount: int) -> Tuple[bool]:
        if amount < 0:
            raise RegistryError("negative amount")
        self._write(self.allowances, (addr_key(caller), addr_key(spender)), amount)
        return (True,)

    def transfer_from(self, caller: str, frm: str, to: str, amount: int) -> Tuple[bool]:
        if self.allowance(frm, caller) < amount:
            raise InsufficientAllowance(
                f"allowance {self.allowance(frm, caller)} < {amount}")
        self._move(frm, to, amount)
        key = (addr_key(frm), addr_key(caller))
        self._write(self.allowances, key, self.allowances.get(key, 0) - amount)
        return (True,)

    def mint(self, caller: str, to: str, amount: int) -> Tuple[bool]:
        if addr_key(caller) not in {addr_key(a) for a in self.spec.minter_addresses}:
            raise Unauthorized(f"{caller} is not a minter")
        if amount < 0:
            raise RegistryError("negative amount")
        self._write(self.balances, addr_key(to), self.balance_of(to) + amount)
        self._add_supply(amount)
        return (True,)

    def burn(self, caller: str, frm: str, amount: int) -> Tuple[bool]:
        if addr_key(caller) not in {addr_key(a) for a in self.spec.burner_addresses}:
            raise Unauthorized(f"{caller} is not a burner")
        if self.balance_of(frm) < amount or amount < 0:
            raise InsufficientBalance(f"cannot burn {amount} from {frm}")
        self._write(self.balances, addr_key(frm), self.balance_of(frm) - amount)
        self._add_supply(-amount)
        return (True,)

    def _add_supply(self, delta: int):
        # attributes are the entries of vars(self), so the journal restores
        # total_supply like any balance
        self._write(vars(self), "total_supply", self.total_supply + delta)

    # the functions of every ledger
    _functions = {
        "transfer": (("address", "uint256"), transfer),
        "approve": (("address", "uint256"), approve),
        "transferFrom": (("address", "address", "uint256"), transfer_from),
        "balanceOf": (("address",), lambda lg, caller, account: (lg.balance_of(account),)),
        "allowance": (("address", "address"),
                      lambda lg, caller, owner, spender: (lg.allowance(owner, spender),)),
        "totalSupply": ((), lambda lg, caller: (lg.total_supply,)),
        "name": ((), lambda lg, caller: (lg.spec.name,)),
        "symbol": ((), lambda lg, caller: (lg.spec.symbol,)),
        "decimals": ((), lambda lg, caller: (lg.spec.decimals,)),
    }


@dataclass(frozen=True)
class RecordState:
    owner: str
    attrs: Dict[str, object]
    history: Tuple[Tuple[str, object], ...] = ()


class NonFungibleStore(_Journaled):
    """ERC-721 style record registry keyed by address-typed record ids.
    A record is a frozen value that a change replaces through _write, so
    the journal holds every old record."""

    kind = "record"

    def __init__(self, spec: NonFungibleRegistrySpec):
        super().__init__()
        self.spec = spec
        self.records: Dict[str, RecordState] = {}
        self.process_address: Optional[str] = None  # set when bound to an instance
        # The simulated ABI, as the emitted contract declares it: function
        # name -> (parameter types, call(store, caller, *args) returning the
        # function's outputs). record_ownership_transfer exists only when
        # transfer is enabled, record_update_<attr> only for an updatable
        # attribute.
        self.functions = {
            "record_create": (("address",) + tuple(a.type for a in spec.attributes),
                              NonFungibleStore.record_create),
            "record_get_owner": (("address",),
                                 lambda st, caller, rid: (st.record_get_owner(rid),)),
            "record_get_attrs": (("address",), lambda st, caller, rid: st.record_get_attrs(rid)),
        }
        if spec.is_ownership_transfer_enabled:
            self.functions["record_ownership_transfer"] = (
                ("address", "address"), NonFungibleStore.record_ownership_transfer)
        for a in spec.attributes:
            if a.updatable:
                self.functions["record_update_" + a.name] = (("address", a.type),
                                                             _update_call(a.name))

    def _is_process(self, caller: str) -> bool:
        return (self.process_address is not None
                and addr_key(caller) == addr_key(self.process_address))

    def _get(self, record_id: str) -> RecordState:
        rec = self.records.get(addr_key(record_id))
        if rec is None:
            raise UnknownRecord(f"no record {record_id}")
        return rec

    def record_create(self, caller: str, record_id: str, *values) -> Tuple[()]:
        """The caller owns the new record; the values come in attribute
        declaration order."""
        if self.spec.is_record_creation_restricted_to_bpmn and not self._is_process(caller):
            raise Unauthorized("record creation is restricted to the bound process")
        if addr_key(record_id) in self.records:
            raise DuplicateRecord(f"record {record_id} already exists")
        if len(values) != len(self.spec.attributes):
            raise RegistryError(f"record_create takes {len(self.spec.attributes)} "
                                f"attribute values, got {len(values)}")
        attrs = {a.name: v for a, v in zip(self.spec.attributes, values)}
        history = tuple((a.name, attrs[a.name]) for a in self.spec.attributes
                        if a.history_tracked)
        self._write(self.records, addr_key(record_id),
                    RecordState(owner=caller, attrs=attrs, history=history))
        return ()

    def record_get_owner(self, record_id: str) -> str:
        return self._get(record_id).owner

    def record_get_attrs(self, record_id: str) -> Tuple[object, ...]:
        rec = self._get(record_id)
        return tuple(rec.attrs[a.name] for a in self.spec.attributes)

    def record_update(self, caller: str, record_id: str, attr: str, value: object):
        decl = next((a for a in self.spec.attributes if a.name == attr), None)
        if decl is None:
            raise RegistryError(f"unknown attribute '{attr}'")
        rec = self._get(record_id)
        if self.spec.is_record_creation_restricted_to_bpmn and not self._is_process(caller):
            raise Unauthorized("record updates are restricted to the bound process")
        if self.spec.is_registry_record_access_control_enabled \
                and not self._is_process(caller) and addr_key(caller) != addr_key(rec.owner):
            raise Unauthorized(f"{caller} may not update record {record_id}")
        history = rec.history + ((attr, value),) if decl.history_tracked else rec.history
        self._write(self.records, addr_key(record_id),
                    replace(rec, attrs={**rec.attrs, attr: value}, history=history))

    def record_ownership_transfer(self, caller: str, record_id: str,
                                  new_owner: str) -> Tuple[()]:
        rec = self._get(record_id)
        authorized = addr_key(caller) == addr_key(rec.owner)
        if self.spec.is_ownership_transfer_enabled_to_bpmn and self._is_process(caller):
            authorized = True
        if not authorized:
            raise Unauthorized(f"{caller} may not transfer record {record_id}")
        self._write(self.records, addr_key(record_id), replace(rec, owner=new_owner))
        return ()


Registry = Union[FungibleLedger, NonFungibleStore]


# ---------------------------------------------------------------------------
# Registry call dispatch (simulated contract ABI)


def _dispatch(registry: Registry, fn_name: str, args: List[object],
              caller: str) -> Tuple[object, ...]:
    """Execute one bound contract call and return its outputs as a tuple.
    A call the registry has no function for, or whose arguments do not
    fit that function's parameters, is a RegistryError."""
    entry = registry.functions.get(fn_name)
    if entry is None:
        raise RegistryError(f"{registry.kind} registry has no function '{fn_name}'")
    params, call = entry
    if len(args) != len(params) or not all(map(literal_matches, params, args)):
        raise RegistryError(f"{fn_name} takes ({', '.join(params)}), got {tuple(args)!r}")
    return call(registry, caller, *args)


# ---------------------------------------------------------------------------
# Instance state


def pseudo_address(tag: str) -> str:
    """Deterministic pseudo-address derived from a label."""
    return "0x" + hashlib.sha256(tag.encode("utf-8")).hexdigest()[:40]


class Accepted(NamedTuple):
    fired_alternative: int = 0
    fired_autos: Tuple[str, ...] = ()

    ok = True


class Rejected(NamedTuple):
    reason: str
    detail: str = ""

    ok = False


class LogEntry(NamedTuple):
    task: str
    args: Optional[dict]
    caller: Optional[str]
    outcome: Union[Accepted, Rejected]


def _reason(e: Exception) -> str:
    """The Rejected reason of an exception that rejects an invocation."""
    if isinstance(e, RegistryError):
        return "RegistryError"
    if isinstance(e, EvalError):
        return "ScriptError"
    return type(e).__name__  # MissingInput, BadArgument or a MarkingError


class InstanceState:
    """One running process instance (single-threaded, one invocation at a
    time, mirroring transaction serialization)."""

    def __init__(self, model: ProcessModel, automaton: MarkingAutomaton,
                 address_bindings: Optional[Mapping[str, str]] = None,
                 registries: Optional[Mapping[str, Registry]] = None):
        """Deploy a process instance.

        address_bindings must cover every interface without a hard-coded
        contractAddress (they mirror the generated constructor parameters);
        registries maps addresses to simulated ledgers/stores. Every store
        is bound to the instance's process address.
        """
        self.model = model
        self.automaton = automaton
        self.registries: Dict[str, Registry] = {
            addr_key(a): r for a, r in (registries or {}).items()}
        self.iface_registries: Dict[str, Registry] = {}  # by interface id
        for itf in model.interfaces:
            address = (itf.contract_address if itf.contract_address is not None
                       else (address_bindings or {}).get(itf.id))
            if address is None:
                raise MissingAddressBinding(
                    f"interface '{itf.id}' has no contractAddress and no binding")
            if addr_key(address) not in self.registries:
                raise UnknownRegistryAddress(
                    f"no simulated registry at {address} for interface '{itf.id}'")
            self.iface_registries[itf.id] = self.registries[addr_key(address)]
        self.process_address = pseudo_address(f"process:{model.id}:0")
        for reg in self.registries.values():
            if isinstance(reg, NonFungibleStore):
                reg.process_address = self.process_address

        self.env: Dict[str, object] = {
            v.name: (v.initial if v.initial is not None else ZERO_VALUES[v.type])
            for v in model.variables}
        self._zeros = {name: ZERO_VALUES[t] for name, t in model.declared_types.items()}
        self.event_log: List[LogEntry] = []
        self.marking = automaton.initial_marking
        # close over any auto-transitions enabled straight from the start
        result = eager_closure_data(automaton, self.marking, self.env,
                                    on_fire=self._run_task_invocations)
        self.marking, self.env = result.marking, result.env
        self._commit()

    def _commit(self):
        for reg in self.registries.values():
            reg.commit()

    def registry_at(self, address: str) -> Registry:
        reg = self.registries.get(addr_key(address))
        if reg is None:
            raise UnknownRegistryAddress(f"no simulated registry at {address}")
        return reg

    def _bind_value(self, source, env):
        """The value of a binding source: a literal, processAddress, or a
        variable or task input, which reads as its type's zero until it is
        set, as in the contract's storage."""
        if isinstance(source, Lit):
            return source.value
        if source.name == PROCESS_ADDRESS:
            return self.process_address
        return env.get(source.name, self._zeros[source.name])

    def _run_task_invocations(self, task_id: str, env: Dict[str, object],
                              caller: Optional[str] = None):
        """Execute all contract calls bound to a task, in binding order."""
        for itf, fn, sources, targets in self.model.calls_of(task_id):
            args = [self._bind_value(source, env) for source in sources]
            outputs = _dispatch(self.iface_registries[itf.id], fn.name, args,
                                caller or self.process_address)
            if len(outputs) < len(targets):
                raise RegistryError(f"{fn.name} returns {len(outputs)} value(s), "
                                    f"the interface declares {len(targets)}")
            for p, target, value in zip(fn.outputs, targets, outputs):
                if target is None:
                    continue
                if not literal_matches(p.type, value):
                    raise RegistryError(f"{fn.name} returns {value!r} as {p.type} '{p.name}'")
                env[target] = value

    def _coerce_args(self, task: Node, args: Mapping[str, object]) -> dict:
        """The task's inputs taken from args, each checked against its
        declared type and range. Other keys are ignored."""
        coerced = {}
        for ti in task.task_inputs:
            if ti.name not in args:
                raise MissingInput(f"missing task input '{ti.name}'")
            value = args[ti.name]
            if not literal_matches(ti.type, value):
                raise BadArgument(f"task input '{ti.name}' expects {ti.type}, got {value!r}")
            coerced[ti.name] = value
        return coerced

    def invoke(self, task_name: str, args: Optional[Mapping[str, object]] = None,
               caller: Optional[str] = None) -> Union[Accepted, Rejected]:
        """Attempt one external task invocation.

        Conforming invocations update the marking, run bound registry calls
        and the eager closure atomically; non-conforming ones only grow the
        event log (the generated contracts likewise return the unchanged
        marking instead of reverting).
        """
        task_id = self.automaton.task_id_for(task_name)
        if task_id is None:
            raise UnknownTask(f"'{task_name}' is not an external task of the model")
        task = self.model.node(task_id)

        # the task and the closure fire on a copy of the env holding the
        # args, and fire_external returns a new marking, so only the
        # registries' writes need undoing on rejection
        marks = [(reg, reg.mark()) for reg in self.registries.values()]
        try:
            env = {**self.env, **self._coerce_args(task, args or {})}
            fired = fire_external(self.automaton, self.marking, task_id)
            if fired is None:
                raise NotEnabled(f"task '{task_id}' not enabled at marking {self.marking:#x}")
            marking, alt = fired
            self._run_task_invocations(task_id, env, caller)
            result = eager_closure_data(
                self.automaton, marking, env, on_fire=self._run_task_invocations)
        except (MissingInput, BadArgument, RegistryError, EvalError, MarkingError) as e:
            for reg, mark in marks:
                reg.rollback(mark)
            outcome: Union[Accepted, Rejected] = Rejected(_reason(e), str(e))
        else:
            self._commit()
            self.marking, self.env = result.marking, result.env
            outcome = Accepted(alt, result.fired)
        self.event_log.append(LogEntry(task_name, dict(args) if args else None,
                                       caller, outcome))
        return outcome


# the name cli calls, on which a tracer can wrap instance construction
new_instance = InstanceState
