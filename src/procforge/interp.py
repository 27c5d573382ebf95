"""In-memory execution of process instances against simulated registries.

One instance mirrors one deployed process contract: a marking word, a
variable environment, an event log, and an own account identity used for
escrow ("deposit to the process") and as Listing-style address(this).
Registry calls bound to a task run atomically with the task: any failure
rolls the whole invocation back.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .ir import (
    EvalError,
    Lit,
    Node,
    PROCESS_ADDRESS,
    ProcessModel,
    Var,
    addr_key,
    default_value,
    eval_expr,
)
from .marking import (
    MarkingAutomaton,
    NoBranchTaken,
    NotEnabled,
    eager_closure_data,
    fire_external,
)
from .registry import FungibleRegistrySpec, NonFungibleRegistrySpec


class RegistryError(Exception):
    pass


class InsufficientBalance(RegistryError):
    pass


class InsufficientAllowance(RegistryError):
    pass


class Unauthorized(RegistryError):
    pass


class FeatureDisabled(RegistryError):
    pass


class TransferDisabled(RegistryError):
    pass


class DuplicateRecord(RegistryError):
    pass


class UnknownRecord(RegistryError):
    pass


class AttributeNotUpdatable(RegistryError):
    pass


class InstanceError(Exception):
    pass


class MissingAddressBinding(InstanceError):
    pass


class UnknownRegistryAddress(InstanceError):
    pass


class UnknownTask(InstanceError):
    pass


# ---------------------------------------------------------------------------
# Simulated registries


class FungibleLedger:
    """ERC-20 style token ledger. sum(balances) == totalSupply always."""

    def __init__(self, spec: FungibleRegistrySpec):
        self.spec = spec
        self.balances: Dict[str, int] = {}
        self.allowances: Dict[Tuple[str, str], int] = {}
        self.total_supply = spec.total_supply
        for addr, amount in spec.initially_distributed_accounts:
            self.balances[addr_key(addr)] = self.balances.get(addr_key(addr), 0) + amount

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
        self.balances[addr_key(frm)] = self.balance_of(frm) - amount
        self.balances[addr_key(to)] = self.balance_of(to) + amount

    def transfer(self, caller: str, to: str, amount: int):
        self._move(caller, to, amount)

    def approve(self, caller: str, spender: str, amount: int):
        if amount < 0:
            raise RegistryError("negative amount")
        self.allowances[(addr_key(caller), addr_key(spender))] = amount

    def transfer_from(self, caller: str, frm: str, to: str, amount: int):
        if self.allowance(frm, caller) < amount:
            raise InsufficientAllowance(
                f"allowance {self.allowance(frm, caller)} < {amount}")
        self._move(frm, to, amount)
        key = (addr_key(frm), addr_key(caller))
        self.allowances[key] = self.allowances.get(key, 0) - amount

    def mint(self, caller: str, to: str, amount: int):
        if not self.spec.is_mintable:
            raise FeatureDisabled("token is not mintable")
        if addr_key(caller) not in {addr_key(a) for a in self.spec.minter_addresses}:
            raise Unauthorized(f"{caller} is not a minter")
        if amount < 0:
            raise RegistryError("negative amount")
        self.balances[addr_key(to)] = self.balance_of(to) + amount
        self.total_supply += amount

    def burn(self, caller: str, frm: str, amount: int):
        if not self.spec.is_burnable:
            raise FeatureDisabled("token is not burnable")
        if addr_key(caller) not in {addr_key(a) for a in self.spec.burner_addresses}:
            raise Unauthorized(f"{caller} is not a burner")
        if self.balance_of(frm) < amount or amount < 0:
            raise InsufficientBalance(f"cannot burn {amount} from {frm}")
        self.balances[addr_key(frm)] = self.balance_of(frm) - amount
        self.total_supply -= amount


@dataclass
class RecordState:
    owner: str
    attrs: Dict[str, object]
    history: List[Tuple[str, object]] = field(default_factory=list)


class NonFungibleStore:
    """ERC-721 style record registry keyed by address-typed record ids."""

    def __init__(self, spec: NonFungibleRegistrySpec):
        self.spec = spec
        self.records: Dict[str, RecordState] = {}
        self.process_address: Optional[str] = None  # set when bound to an instance

    def bind_process(self, address: str):
        self.process_address = address

    def _is_process(self, caller: str) -> bool:
        return (self.process_address is not None
                and addr_key(caller) == addr_key(self.process_address))

    def _get(self, record_id: str) -> RecordState:
        rec = self.records.get(addr_key(record_id))
        if rec is None:
            raise UnknownRecord(f"no record {record_id}")
        return rec

    def record_create(self, caller: str, record_id: str, owner: str,
                      attrs: Mapping[str, object]):
        if self.spec.is_record_creation_restricted_to_bpmn and not self._is_process(caller):
            raise Unauthorized("record creation is restricted to the bound process")
        if addr_key(record_id) in self.records:
            raise DuplicateRecord(f"record {record_id} already exists")
        declared = {a.name for a in self.spec.attributes}
        if set(attrs) != declared:
            raise RegistryError(f"attributes {sorted(attrs)} != declared {sorted(declared)}")
        rec = RecordState(owner=owner, attrs=dict(attrs))
        for a in self.spec.attributes:
            if a.history_tracked:
                rec.history.append((a.name, attrs[a.name]))
        self.records[addr_key(record_id)] = rec

    def record_get_owner(self, record_id: str) -> str:
        return self._get(record_id).owner

    def record_get_attrs(self, record_id: str) -> Tuple[object, ...]:
        rec = self._get(record_id)
        return tuple(rec.attrs[a.name] for a in self.spec.attributes)

    def record_update(self, caller: str, record_id: str, attr: str, value: object):
        decl = next((a for a in self.spec.attributes if a.name == attr), None)
        if decl is None:
            raise RegistryError(f"unknown attribute '{attr}'")
        if not decl.updatable:
            raise AttributeNotUpdatable(f"attribute '{attr}' is not updatable")
        rec = self._get(record_id)
        if self.spec.is_record_creation_restricted_to_bpmn and not self._is_process(caller):
            raise Unauthorized("record updates are restricted to the bound process")
        if self.spec.is_registry_record_access_control_enabled \
                and not self._is_process(caller) and addr_key(caller) != addr_key(rec.owner):
            raise Unauthorized(f"{caller} may not update record {record_id}")
        rec.attrs[attr] = value
        if decl.history_tracked:
            rec.history.append((attr, value))

    def record_ownership_transfer(self, caller: str, record_id: str, new_owner: str):
        if not self.spec.is_ownership_transfer_enabled:
            raise TransferDisabled("ownership transfer is disabled")
        rec = self._get(record_id)
        authorized = addr_key(caller) == addr_key(rec.owner)
        if self.spec.is_ownership_transfer_enabled_to_bpmn and self._is_process(caller):
            authorized = True
        if not authorized:
            raise Unauthorized(f"{caller} may not transfer record {record_id}")
        rec.owner = new_owner


Registry = Union[FungibleLedger, NonFungibleStore]


# ---------------------------------------------------------------------------
# Registry call dispatch (simulated contract ABI)


def _dispatch(registry: Registry, fn_name: str, args: List[object],
              caller: str) -> Tuple[object, ...]:
    """Execute one bound contract call and return its outputs as a tuple."""
    if isinstance(registry, FungibleLedger):
        if fn_name == "transfer":
            registry.transfer(caller, *args)
            return (True,)
        if fn_name == "transferFrom":
            registry.transfer_from(caller, *args)
            return (True,)
        if fn_name == "approve":
            registry.approve(caller, *args)
            return (True,)
        if fn_name == "mint":
            registry.mint(caller, *args)
            return (True,)
        if fn_name == "burn":
            registry.burn(caller, *args)
            return (True,)
        if fn_name == "balanceOf":
            return (registry.balance_of(*args),)
        if fn_name == "allowance":
            return (registry.allowance(*args),)
        if fn_name == "totalSupply":
            return (registry.total_supply,)
        if fn_name == "name":
            return (registry.spec.name,)
        if fn_name == "symbol":
            return (registry.spec.symbol,)
        if fn_name == "decimals":
            return (registry.spec.decimals,)
        raise RegistryError(f"token registry has no function '{fn_name}'")

    if fn_name == "record_create":
        record_id, attr_values = args[0], args[1:]
        declared = registry.spec.attributes
        if len(attr_values) != len(declared):
            raise RegistryError(
                f"record_create expects {len(declared)} attribute values")
        registry.record_create(caller, record_id, owner=caller,
                               attrs={a.name: v for a, v in zip(declared, attr_values)})
        return ()
    if fn_name == "record_get_owner":
        return (registry.record_get_owner(*args),)
    if fn_name == "record_get_attrs":
        return registry.record_get_attrs(*args)
    if fn_name == "record_ownership_transfer":
        registry.record_ownership_transfer(caller, *args)
        return ()
    if fn_name.startswith("record_update_"):
        attr = fn_name[len("record_update_"):]
        registry.record_update(caller, args[0], attr, args[1])
        return ()
    raise RegistryError(f"record registry has no function '{fn_name}'")


# ---------------------------------------------------------------------------
# Instance state


def pseudo_address(tag: str) -> str:
    """Deterministic pseudo-address derived from a label."""
    return "0x" + hashlib.sha256(tag.encode("utf-8")).hexdigest()[:40]


@dataclass
class Accepted:
    fired_alternative: int = 0
    fired_autos: Tuple[str, ...] = ()

    ok = True


@dataclass
class Rejected:
    reason: str
    detail: str = ""

    ok = False


@dataclass
class LogEntry:
    task: str
    args: Optional[dict]
    caller: Optional[str]
    outcome: Union[Accepted, Rejected]


class InstanceState:
    """One running process instance (single-threaded, one invocation at a
    time, mirroring transaction serialization)."""

    def __init__(self, model: ProcessModel, automaton: MarkingAutomaton,
                 registries: Dict[str, Registry],  # by address key
                 iface_addresses: Dict[str, str],  # interface id -> address
                 process_address: str):
        self.model = model
        self.automaton = automaton
        self.registries = registries
        self.iface_addresses = iface_addresses
        self.process_address = process_address
        self.types = model.declared_types()
        self.env: Dict[str, object] = {
            v.name: (v.initial if v.initial is not None else default_value(v.type))
            for v in model.variables}
        self.event_log: List[LogEntry] = []
        self.marking = automaton.initial_marking
        # close over any auto-transitions enabled straight from the start
        result = eager_closure_data(automaton, self.marking, self.env, self.types,
                                    on_fire=self._run_task_invocations)
        self.marking, self.env = result.marking, result.env

    @property
    def status(self) -> str:
        if self.marking == 0:
            return "Completed"
        if any(not e.outcome.ok for e in self.event_log):
            return "Running-with-rejections"
        return "Running"

    def registry_at(self, address: str) -> Registry:
        reg = self.registries.get(addr_key(address))
        if reg is None:
            raise UnknownRegistryAddress(f"no simulated registry at {address}")
        return reg

    def _bind_value(self, binding_source, env):
        if isinstance(binding_source, Var):
            if binding_source.name == PROCESS_ADDRESS:
                return self.process_address
            try:
                return eval_expr(binding_source, env, self.types)
            except EvalError as e:
                raise RegistryError(f"unbound binding source: {e}") from e
        if isinstance(binding_source, Lit):
            return binding_source.value
        raise RegistryError(f"unsupported binding source {binding_source!r}")

    def _run_task_invocations(self, task_id: str, env: Dict[str, object],
                              caller: Optional[str] = None):
        """Execute all contract calls bound to a task, in binding order."""
        for inv in self.model.invocations_of(task_id):
            itf = self.model.interface(inv.target_interface)
            address = self.iface_addresses[itf.id]
            registry = self.registry_at(address)
            fn = itf.function(inv.fn_name)
            by_param = {b.param: b for b in inv.input_bindings}
            args = [self._bind_value(by_param[p.name].source, env) for p in fn.inputs]
            outputs = _dispatch(registry, inv.fn_name, args,
                                caller or self.process_address)
            out_index = {p.name: i for i, p in enumerate(fn.outputs)}
            for b in inv.output_bindings:
                env[b.target] = outputs[out_index[b.param]]

    def _coerce_args(self, task: Node, args: Mapping[str, object]) -> dict:
        coerced = {}
        for ti in task.task_inputs:
            if ti.name not in args:
                raise RegistryError(f"missing task input '{ti.name}'")
            coerced[ti.name] = args[ti.name]
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

        snapshot = (self.marking, dict(self.env), copy.deepcopy(self.registries))
        try:
            merged = self._coerce_args(task, args) if args else {}
            marking, env, alt = fire_external(
                self.automaton, self.marking, self.env, task_id, merged)
            self._run_task_invocations(task_id, env, caller)
            result = eager_closure_data(
                self.automaton, marking, env, self.types,
                on_fire=self._run_task_invocations)
            self.marking, self.env = result.marking, result.env
            outcome: Union[Accepted, Rejected] = Accepted(alt, tuple(result.fired))
        except NotEnabled as e:
            outcome = Rejected("NotEnabled", str(e))
        except RegistryError as e:
            self.marking, self.env, self.registries = snapshot
            outcome = Rejected("RegistryError", str(e))
        except EvalError as e:
            self.marking, self.env, self.registries = snapshot
            outcome = Rejected("ScriptError", str(e))
        except NoBranchTaken as e:
            self.marking, self.env, self.registries = snapshot
            outcome = Rejected("NoBranchTaken", str(e))
        self.event_log.append(LogEntry(task_name, dict(args) if args else None,
                                       caller, outcome))
        return outcome


def new_instance(model: ProcessModel, automaton: MarkingAutomaton,
                 address_bindings: Optional[Mapping[str, str]] = None,
                 registries: Optional[Mapping[str, Registry]] = None,
                 instance_seq: int = 0) -> InstanceState:
    """Create a process instance.

    address_bindings must cover every interface without a hard-coded
    contractAddress (they mirror the generated constructor parameters);
    registries maps addresses to simulated ledgers/stores.
    """
    address_bindings = dict(address_bindings or {})
    registries = {addr_key(a): r for a, r in (registries or {}).items()}

    iface_addresses: Dict[str, str] = {}
    for itf in model.interfaces:
        if itf.contract_address is not None:
            iface_addresses[itf.id] = itf.contract_address
        elif itf.id in address_bindings:
            iface_addresses[itf.id] = address_bindings[itf.id]
        else:
            raise MissingAddressBinding(
                f"interface '{itf.id}' has no contractAddress and no binding")
        if addr_key(iface_addresses[itf.id]) not in registries:
            raise UnknownRegistryAddress(
                f"no simulated registry at {iface_addresses[itf.id]} "
                f"for interface '{itf.id}'")

    process_address = pseudo_address(f"process:{model.id}:{instance_seq}")
    for reg in registries.values():
        if isinstance(reg, NonFungibleStore):
            reg.bind_process(process_address)
    return InstanceState(model, automaton, registries, iface_addresses,
                         process_address)
