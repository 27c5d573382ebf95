"""The name check as it was written before the tables held their names
as strings: one Scope of Declared entries per emitted scope, each with
its label formatted, and the function of every node listed with its own
scope of task inputs and locals. It is kept unchanged as the reference
that tests/test_declarations.py holds the string check of procforge.ir
and procforge.registry to: validate_model and parse_registry, run with
these tables and this walk in place of their own, must word, blame and
order every clash alike."""

from functools import lru_cache
from typing import Dict, NamedTuple, Tuple

from procforge.ir import (EXTERNAL_TASK_KINDS, TASK_KINDS, ProcessModel, address_of,
                          contract_name, instance_of, slot)
from procforge.registry import (NonFungibleRegistrySpec, bound_addresses, changed_event,
                                record_contract, registry_contract, setter, updater)


class Declared(NamedTuple):
    """A name an emitted scope declares, with the model ref or attributes[i]
    it comes from, "" for a fixed name. A derived name is made from another
    name of its owner, as addressOf<I> from I."""

    name: str
    owner: str
    label: str = ""
    derived: bool = False


class Scope(NamedTuple):
    """The names one scope declares, at path in its file: () for the file,
    then (contract,) and (contract, member). Struct members and event
    parameters hide no outer name, as nothing reads them bare."""

    path: Tuple[str, ...]
    names: tuple
    hides: bool = True


@lru_cache(maxsize=None)  # called with the emitted code's few fixed lists only
def emitted(*names: str) -> tuple:
    """The emitted code's fixed names."""
    return tuple(Declared(n, "", f"the emitted name '{n}'") for n in names)


def clashes(scopes) -> list:
    """(blamed, how, other) for each name a scope declares twice and each
    declaration hiding a name of an enclosing scope, which comes first in
    scopes. The blame falls on a name the model states rather than on a
    fixed or derived one, else on the later one. A declaration meeting
    itself, in a scope listed twice as the functions of two nodes of one
    name are, is no clash."""
    tables: Dict[Tuple[str, ...], Dict[str, Declared]] = {}
    found = []
    for path, names, hides in scopes:
        own = tables.setdefault(path, {})
        outer = [tables.get(path[:i], {}) for i in range(len(path) - 1, -1, -1)] if hides else []
        for d in names:
            other = own.setdefault(d.name, d)
            same = other is not d
            if not same:
                for table in outer:
                    other = table.get(d.name)
                    if other is not None:
                        break
                else:
                    continue
            if not d.owner or (d.derived and other.owner and not other.derived):
                found.append((other, "collides with" if same else "is hidden by", d))
            else:
                found.append((d, "collides with" if same else "hides", other))
    return found


def process_scopes(model: ProcessModel) -> list:
    """What codegen.gen_process declares in ProcessFactory.sol, scope by
    scope: the contracts, each interface's functions and their parameters,
    ProcessFactory's members, the monitor's, and the parameters and locals
    of the monitor's constructor and of each node's function. Each node's
    function is listed with the local instanceOf<I> of every interface,
    which codegen declares where the task calls I, so that binding a call
    to a task cannot make its inputs clash."""
    monitor, factory, interfaces = "ProcessMonitor", "ProcessFactory", model.interfaces
    local = emitted("preconditionsp") + tuple(Declared(instance_of(i.name), i.id, "the local "
        f"'{instance_of(i.name)}' of interface '{i.name}'", True) for i in interfaces)
    ctor = tuple(Declared(slot(address_of(i.name)), i.id, "the constructor parameter "
                          f"'{slot(address_of(i.name))}' of interface '{i.name}'", True)
                 for i in interfaces if i.contract_address is None)
    scopes = [Scope((), emitted(factory, monitor) + tuple(
        Declared(i.name, i.id, f"interface '{i.name}'") for i in interfaces))]
    for i in interfaces:
        scopes.append(Scope((i.name,), tuple(Declared(f.name, i.id, f"function '{f.name}'")
                                             for f in i.functions)))
        scopes += [Scope((i.name, f.name), tuple(
            Declared(p.name, i.id, f"{way} parameter '{p.name}' on {f.name}")
            for way, params in (("input", f.inputs), ("output", f.outputs)) for p in params))
            for f in i.functions]
    scopes += [Scope((factory,), emitted("createdInstances", "instanceCreated", "createInstance")),
               Scope((factory, "instanceCreated"), emitted("instanceAddress"), False),
               Scope((factory, "createInstance"), emitted("_participants", "instance") + ctor)]
    members = [Declared(address_of(i.name), i.id, f"the address '{address_of(i.name)}' "
                        f"of interface '{i.name}'", True) for i in interfaces]
    owners = {v.name: (v.name, "variable") for v in model.variables}
    for n in model.nodes:
        for ti in n.task_inputs:
            owners.setdefault(ti.name, (n.id, "task input"))
    members += [Declared(slot(name), ref, f"the slot '{slot(name)}' of {what} '{name}'")
                for name, (ref, what) in owners.items()]
    functions = []
    node = model._index.node
    for node_id, name in model.function_names.items():
        n = node[node_id]
        what = f"task '{n.display_name}'" if n.kind in TASK_KINDS else f"{n.kind.value} '{n.id}'"
        members.append(Declared(name, node_id, f"function '{name}' of {what}"))
        inputs = n.task_inputs if n.kind in EXTERNAL_TASK_KINDS else ()
        functions.append(Scope((monitor, name), tuple(
            Declared(ti.name, node_id, f"task input '{ti.name}'") for ti in inputs) + local
            if inputs else local))
    return scopes + [Scope((monitor,), emitted("marking", "taskExecuted", "runAutoTransitions")
                           + tuple(members)),
                     Scope((monitor, "constructor"), ctor),
                     Scope((monitor, "taskExecuted"), emitted("taskName", "success"), False),
                     Scope((monitor, "runAutoTransitions"), emitted("preconditionsp", "previous")),
                     *functions]


# the registry's events, and its functions whose parameters are all fixed
_EVENTS = {e: emitted(*params) for e, params in {
    "Transfer": ("from", "to", "recordId"), "Approval": ("owner", "approved", "recordId"),
    "ApprovalForAll": ("owner", "operator", "approved")}.items()}
_FUNCTIONS = {f: emitted(*params) for f, params in {
    "next_record_id": (), "recordContractOf": ("record_id",),
    "record_get_owner": ("record_id", "record_owner"), "_transfer": ("from", "to", "record_id"),
    "balanceOf": ("owner",), "ownerOf": ("record_id",), "transferFrom": ("from", "to", "record_id"),
    "approve": ("approved", "record_id"), "getApproved": ("record_id",),
    "setApprovalForAll": ("operator", "approved"), "isApprovedForAll": ("owner", "operator")}.items()}


def registry_scopes(spec: NonFungibleRegistrySpec) -> list:
    """What codegen.gen_nonfungible declares in a record registry's unit, in
    either layout, scope by scope: the contracts, the record contract's
    members and the parameters of its constructor and setters, the
    registry's members, the Record struct, and the parameters of the
    registry's events, constructor and functions. A spec's attributes are
    thus checked for both layouts, so that either can be emitted."""
    attrs = [(a, f"attributes[{i}]") for i, a in enumerate(spec.attributes)]
    own = tuple(Declared(a.name, at) for a, at in attrs)
    updatable = [(a, at) for a, at in attrs if a.updatable]
    tracked = [(a, at) for a, at in attrs if a.history_tracked]
    addresses = bound_addresses(spec)
    functions = {**_FUNCTIONS, "record_create": emitted("record_id") + own,
                 "record_get_attrs": emitted("record_id") + own}
    if spec.is_ownership_transfer_enabled:
        functions["record_ownership_transfer"] = emitted("record_id", "new_owner")
    modifiers = [m for m, on in (("onlyProcess", "processAddress" in addresses), (
        "onlyAuthorized", spec.is_registry_function_access_control_enabled)) if on]
    record, registry = record_contract(spec.name), registry_contract(spec.name)
    return [
        Scope((), (Declared(record, "name", derived=True), Declared(registry, "name", derived=True))),
        Scope((record,), emitted("registry", "owner") + own + emitted("onlyRegistry", "setOwner")
              + tuple(Declared(setter(a), at, derived=True) for a, at in updatable)),
        Scope((record, "constructor"), emitted("_owner") + tuple(
            Declared(slot(a.name), at, derived=True) for a, at in attrs)),
        Scope((record, "setOwner"), emitted("new_owner")),
        *(Scope((record, setter(a)), emitted("value")) for a, _ in updatable),
        Scope((registry,), emitted(
            "deployer", *addresses, "Record", "records", "recordExists", "recordContracts",
            "ownedCount", "recordApproval", "operatorApproval", "recordCount", *_EVENTS,
            *modifiers, *functions)
            + tuple(Declared(changed_event(a), at, derived=True) for a, at in tracked)
            + tuple(Declared(updater(a), at, derived=True) for a, at in updatable)),
        Scope((registry, "Record"), emitted("exists", "owner") + own, False),
        *(Scope((registry, e), names, False) for e, names in _EVENTS.items()),
        *(Scope((registry, changed_event(a)), emitted("recordId", "value"), False)
          for a, _ in tracked),
        Scope((registry, "constructor"), emitted(*map(slot, addresses))),
        *(Scope((registry, updater(a)), emitted("record_id", "value")) for a, _ in updatable),
        *(Scope((registry, f), names) for f, names in functions.items())]


_TOKEN_EVENTS = {"Transfer": ("from", "to", "value"), "Approval": ("owner", "spender", "value")}
_TOKEN_FUNCTIONS = {
    "balanceOf": ("account",), "allowance": ("owner", "spender"), "transfer": ("to", "value"),
    "approve": ("spender", "value"), "transferFrom": ("from", "to", "value"),
    "mint": ("to", "value"), "burn": ("from", "value")}


def token_scopes(display_name: str) -> list:
    """What codegen.gen_fungible declares in the unit of a token, scope by
    scope, as if it were both mintable and burnable."""
    name = contract_name(display_name)
    return [Scope((), (Declared(name, "name", f"the contract '{name}'", True),)),
            Scope((name,), emitted("name", "symbol", "decimals", "totalSupply", "balances",
                                   "allowances", "isMinter", "isBurner", *_TOKEN_EVENTS,
                                   *_TOKEN_FUNCTIONS)),
            *(Scope((name, e), emitted(*names), False) for e, names in _TOKEN_EVENTS.items()),
            *(Scope((name, f), emitted(*names)) for f, names in _TOKEN_FUNCTIONS.items())]
