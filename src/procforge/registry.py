"""Fungible / non-fungible asset registry specifications.

Canonical on-disk format is a UTF-8 JSON object with camelCase field names.
Amounts are decimal strings (avoids 53-bit truncation in JSON tooling),
addresses are 0x + 40 hex digits.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Dict, NamedTuple, Optional, Tuple

from .ir import (UINT256_MAX, VALUE_TYPES, Declared, NumberTooLong, Scope, addr_key, clashes,
                 contract_name, emitted, is_address, is_identifier, load_json, slot)

SYMBOL_MAX_LEN = 11
DECIMALS_MAX = 18


class RegistrySpecError(Exception):
    pass


class InvariantViolation(RegistrySpecError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class FungibleRegistrySpec(NamedTuple):
    name: str
    symbol: str
    decimals: int
    total_supply: int
    is_mintable: bool = False
    minter_addresses: Tuple[str, ...] = ()
    is_burnable: bool = False
    burner_addresses: Tuple[str, ...] = ()
    initially_distributed_accounts: Tuple[Tuple[str, int], ...] = ()


class AttributeDecl(NamedTuple):
    name: str
    type: str
    updatable: bool = False
    history_tracked: bool = False


def changed_event(attr: AttributeDecl) -> str:
    """<Name>Changed: the event the emitted registry emits on each write of
    a historyTracked attribute."""
    return attr.name[0].upper() + attr.name[1:] + "Changed"


def setter(attr: AttributeDecl) -> str:
    """set_<name>: the distributed record contract's setter of an updatable attribute."""
    return "set_" + attr.name


def updater(attr: AttributeDecl) -> str:
    """record_update_<name>: the registry function writing an updatable attribute."""
    return "record_update_" + attr.name


def record_contract(name: str) -> str:
    """<Name>Record: the distributed layout's contract of one record."""
    return contract_name(name) + "Record"


def registry_contract(name: str) -> str:
    """<Name>Registry: the emitted record registry contract."""
    return contract_name(name) + "Registry"


class NonFungibleRegistrySpec(NamedTuple):
    name: str
    registry_type: str  # "single" | "distributed"
    attributes: Tuple[AttributeDecl, ...]
    is_ownership_transfer_enabled: bool = False
    is_record_creation_restricted_to_bpmn: bool = False
    is_ownership_transfer_enabled_to_bpmn: bool = False
    is_registry_function_access_control_enabled: bool = False
    is_registry_record_access_control_enabled: bool = False
    is_access_control_by_smart_contract_enabled: bool = False


def bound_addresses(spec: NonFungibleRegistrySpec) -> list:
    """The addresses the emitted registry is built with, in constructor
    order: processAddress when a process creates or transfers its records,
    accessController when a smart contract controls access."""
    bound = spec.is_record_creation_restricted_to_bpmn or spec.is_ownership_transfer_enabled_to_bpmn
    return [a for a, on in (("processAddress", bound), ("accessController",
                            spec.is_access_control_by_smart_contract_enabled)) if on]


# the registry's events, and its functions whose parameters are all fixed
_EVENTS = {"Transfer": ("from", "to", "recordId"), "Approval": ("owner", "approved", "recordId"),
           "ApprovalForAll": ("owner", "operator", "approved")}
_FUNCTIONS = {
    "next_record_id": (), "recordContractOf": ("record_id",),
    "record_get_owner": ("record_id", "record_owner"), "_transfer": ("from", "to", "record_id"),
    "balanceOf": ("owner",), "ownerOf": ("record_id",), "transferFrom": ("from", "to", "record_id"),
    "approve": ("approved", "record_id"), "getApproved": ("record_id",),
    "setApprovalForAll": ("operator", "approved"), "isApprovedForAll": ("owner", "operator")}


def registry_scopes(spec: NonFungibleRegistrySpec) -> list:
    """What codegen.gen_nonfungible declares in a record registry's unit, in
    either layout, scope by scope: the contracts, the record contract's
    members and the parameters of its constructor and setters, the
    registry's members, the Record struct, and the parameters of the
    registry's events, constructor and functions. A spec's attributes are
    thus checked for both layouts, so that either can be emitted."""
    attrs = spec.attributes
    every = range(len(attrs))
    updatable = [i for i in every if attrs[i].updatable]
    tracked = [i for i in every if attrs[i].history_tracked]

    def named(make, indices, derived=True):
        """The names make gives the attributes at indices, and the builder
        of their entries, each owned by its attribute."""
        return tuple(make(attrs[i]) for i in indices), lambda: tuple(
            Declared(make(attrs[i]), f"attributes[{i}]", derived=derived) for i in indices)

    own, own_entries = named(attrgetter("name"), every, False)
    setters, setter_entries = named(setter, updatable)
    slots, slot_entries = named(lambda a: slot(a.name), every)
    events, event_entries = named(changed_event, tracked)
    updaters, updater_entries = named(updater, updatable)
    addresses = bound_addresses(spec)
    record, registry = record_contract(spec.name), registry_contract(spec.name)
    functions = [Scope((registry, f), names) for f, names in _FUNCTIONS.items()] + [
        Scope((registry, f), ("record_id",) + own, True,
              lambda: emitted("record_id") + own_entries())
        for f in ("record_create", "record_get_attrs")]
    if spec.is_ownership_transfer_enabled:
        functions.append(Scope((registry, "record_ownership_transfer"), ("record_id", "new_owner")))
    modifiers = [m for m, on in (("onlyProcess", "processAddress" in addresses), (
        "onlyAuthorized", spec.is_registry_function_access_control_enabled)) if on]
    members = ("deployer", *addresses, "Record", "records", "recordExists", "recordContracts",
               "ownedCount", "recordApproval", "operatorApproval", "recordCount", *_EVENTS,
               *modifiers, *(f.path[1] for f in functions))
    return [
        Scope((), (record, registry), True, lambda: (Declared(record, "name", derived=True),
                                                     Declared(registry, "name", derived=True))),
        Scope((record,), ("registry", "owner") + own + ("onlyRegistry", "setOwner") + setters,
              True, lambda: emitted("registry", "owner") + own_entries()
              + emitted("onlyRegistry", "setOwner") + setter_entries()),
        Scope((record, "constructor"), ("_owner",) + slots, True,
              lambda: emitted("_owner") + slot_entries()),
        Scope((record, "setOwner"), ("new_owner",)),
        *(Scope((record, s), ("value",)) for s in setters),
        Scope((registry,), members + events + updaters, True,
              lambda: emitted(*members) + event_entries() + updater_entries()),
        Scope((registry, "Record"), ("exists", "owner") + own, False,
              lambda: emitted("exists", "owner") + own_entries()),
        *(Scope((registry, e), names, False) for e, names in _EVENTS.items()),
        *(Scope((registry, e), ("recordId", "value"), False) for e in events),
        Scope((registry, "constructor"), tuple(map(slot, addresses))),
        *(Scope((registry, u), ("record_id", "value")) for u in updaters),
        *functions]


_TOKEN_EVENTS = {"Transfer": ("from", "to", "value"), "Approval": ("owner", "spender", "value")}
_TOKEN_FUNCTIONS = {
    "balanceOf": ("account",), "allowance": ("owner", "spender"), "transfer": ("to", "value"),
    "approve": ("spender", "value"), "transferFrom": ("from", "to", "value"),
    "mint": ("to", "value"), "burn": ("from", "value")}
_TOKEN_MEMBERS = ("name", "symbol", "decimals", "totalSupply", "balances", "allowances",
                  "isMinter", "isBurner", *_TOKEN_EVENTS, *_TOKEN_FUNCTIONS)


def token_scopes(display_name: str) -> list:
    """What codegen.gen_fungible declares in the unit of a token, scope by
    scope, as if it were both mintable and burnable."""
    name = contract_name(display_name)
    return [Scope((), (name,), True,
                  lambda: (Declared(name, "name", f"the contract '{name}'", True),)),
            Scope((name,), _TOKEN_MEMBERS),
            *(Scope((name, e), names, False) for e, names in _TOKEN_EVENTS.items()),
            *(Scope((name, f), names) for f, names in _TOKEN_FUNCTIONS.items())]


def _load(doc: str) -> dict:
    try:
        obj = load_json(doc)
    except NumberTooLong as e:
        raise RegistrySpecError(str(e)) from e
    except ValueError as e:
        raise RegistrySpecError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise RegistrySpecError("registry spec must be a JSON object")
    return obj


def _field(obj: dict, name: str, required: bool = True, default=None):
    if name not in obj:
        if required:
            raise RegistrySpecError(f"missing field '{name}'")
        return default
    return obj[name]


def _amount(value, path: str) -> int:
    if not isinstance(value, str):
        raise InvariantViolation(path, "amounts must be decimal strings")
    try:
        n = int(value, 10)
    except ValueError:
        raise InvariantViolation(path, f"not a decimal integer: {value!r}") from None
    if not 0 <= n <= UINT256_MAX:
        raise InvariantViolation(path, "amount out of uint256 range")
    return n


def _address(value, path: str) -> str:
    if not isinstance(value, str) or not is_address(value):
        raise RegistrySpecError(f"{path}: '{value}' is not 0x + 40 hex digits")
    return value


def _bool(obj: dict, name: str, prefix: str = "") -> bool:
    value = _field(obj, name, required=False, default=False)
    if not isinstance(value, bool):
        raise InvariantViolation(prefix + name, "must be a boolean")
    return value


def _address_list(obj: dict, name: str) -> Tuple[str, ...]:
    raw = _field(obj, name, required=False, default=[])
    if not isinstance(raw, list):
        raise InvariantViolation(name, "must be a list of addresses")
    out = tuple(_address(a, f"{name}[{i}]") for i, a in enumerate(raw))
    if len({addr_key(a) for a in out}) != len(out):
        raise InvariantViolation(name, "duplicate address")
    return out


def _distribution_entry(entry, path: str, addresses: list, amounts: list,
                        balances: Dict[str, int]):
    """Check one distribution entry, in the order that decides which error
    is reported, append its address and amount to the lists, and enter the
    amount in balances under the address key."""
    if not isinstance(entry, dict):
        raise InvariantViolation(path, "entries must be {address, amount} objects")
    addr = _address(_field(entry, "address"), path + ".address")
    if addr_key(addr) in balances:
        raise InvariantViolation(path, f"duplicate address {addr}")
    balances[addr_key(addr)] = amount = _amount(_field(entry, "amount"), path + ".amount")
    addresses.append(addr)
    amounts.append(amount)


class _Distribution(Sequence):
    """A checked initial distribution, read as the sequence of its (address
    as the spec writes it, amount) pairs. It holds the addresses and the
    amounts as two lists, so the cyclic garbage collector tracks two
    objects, not a tuple per account; and in balances, read-only, the table
    {lowered address: amount} that initial_balances copies. Iterating zips
    the lists, and an index or a slice builds only the pairs it asks for.
    It equals, hashes and prints as the tuple of its pairs, and a copy or
    pickle is that plain tuple, so a spec holding it compares, hashes and
    is rebuilt by _replace as one holding the tuple. _distribution builds
    it while it checks the addresses, for a parsed spec and for a
    hand-built one alike, so a ledger need not lower them again."""

    __slots__ = ("addresses", "amounts", "balances")

    def __init__(self, addresses: list, amounts: list, balances: Dict[str, int]):
        self.addresses, self.amounts = addresses, amounts
        self.balances = MappingProxyType(balances)

    def __len__(self):
        return len(self.addresses)

    def __iter__(self):
        return zip(self.addresses, self.amounts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(zip(self.addresses[i], self.amounts[i]))
        return self.addresses[i], self.amounts[i]

    def __eq__(self, other):
        if isinstance(other, (tuple, _Distribution)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))

    def __reduce__(self):
        return tuple, (tuple(self),)


_HEX_DIGITS = b"0123456789abcdefABCDEF"


def _distribution_in_bulk(raw: list, total_supply: int) -> Optional[_Distribution]:
    """The initial distribution if every entry passes the checks of
    _distribution_entry and the amounts sum to total_supply, else None.
    Checks all entries at once, each kind of field by one pass over the
    list. A non-dict entry makes itemgetter raise. The addresses are checked
    on their concatenation: every 42nd character from the first is a 0 and
    from the second an x, and deleting the hex digits leaves just those
    x's. Since each address is checked to be 42 characters long, the
    concatenation splits back into the entries; without that check an
    address of 41 characters followed by one of 43 could pass. An amount
    int() parses is negative only if its text holds a -, so the joined
    amounts show the sign of all; amounts that are not negative and sum to
    total_supply, which every caller has checked to lie within uint256, are
    each within it. The addresses are lowered, into the table whose size is
    the duplicate check, only when one holds an upper-case letter, which a
    search per letter finds at the first one; on an all-lower-case list the
    six searches (memchr) cost less than one islower() pass. Deleting only
    the lower-case digits would test the case in the hex pass, but on a
    mixed-case list that pass then keeps a fifth of the bytes, at
    unpredictable places, and is several times slower. The distribution
    keeps the lists of addresses and of amounts built here."""
    try:
        addrs = list(map(itemgetter("address"), raw))
        amounts = list(map(itemgetter("amount"), raw))
        joined = "".join(addrs).encode("ascii")  # a non-str address raises
        signed = "-" in "".join(amounts)  # a non-str amount raises
        values = list(map(int, amounts))  # int(s) is int(s, 10) for a str
    except (KeyError, TypeError, ValueError):  # UnicodeEncodeError is a ValueError
        return None
    del amounts
    n = len(addrs)
    if list(map(len, addrs)).count(42) != n or joined[::42] != b"0" * n \
            or joined[1::42] != b"x" * n or joined.translate(None, _HEX_DIGITS) != b"x" * n:
        return None
    lower = not any(map(joined.__contains__, b"ABCDEF"))
    del joined
    if signed or sum(values) != total_supply:
        return None
    balances = dict(zip(addrs if lower else map(str.lower, addrs), values))  # addr_key
    if len(balances) != n:
        return None
    return _Distribution(addrs, values, balances)


def _distribution(raw: list, total_supply: int) -> _Distribution:
    """Check the initial distribution and its sum, and build its table. Only
    when the check of all entries at once fails does each entry go to
    _distribution_entry, in order, so that the first bad entry raises its
    error; it fills the same two lists and table."""
    dist = _distribution_in_bulk(raw, total_supply)
    if dist is None:
        addresses: list = []
        amounts: list = []
        balances: Dict[str, int] = {}
        for i, e in enumerate(raw):
            _distribution_entry(e, f"initiallyDistributedAccounts[{i}]",
                                addresses, amounts, balances)
        if sum(amounts) != total_supply:
            raise InvariantViolation("initiallyDistributedAccounts",
                                     "distribution ≠ totalSupply")
        dist = _Distribution(addresses, amounts, balances)
    return dist


def initial_balances(spec: FungibleRegistrySpec) -> Dict[str, int]:
    """A new table {lowered address: amount} of the spec's initial
    distribution, in its order. First total_supply must be an exact int (no
    bool) within uint256, as parse_registry checks it before the
    distribution. A parsed spec's table is copied; the pairs of a hand-built
    one go through _distribution first, as JSON entries, so they are refused
    as parse_registry refuses them. As in the emitted constructor, the
    amounts must sum to total_supply, which a spec changed by _replace may
    not."""
    total = spec.total_supply
    if type(total) is not int or not 0 <= total <= UINT256_MAX:
        raise InvariantViolation("totalSupply", "must be an int in uint256 range")
    dist = spec.initially_distributed_accounts
    if not isinstance(dist, _Distribution):
        dist = _distribution([{"address": a, "amount": str(v)} for a, v in dist], total)
    if sum(dist.balances.values()) != total:
        raise InvariantViolation("initiallyDistributedAccounts", "distribution ≠ totalSupply")
    return dist.balances.copy()


def _fungible(obj: dict) -> FungibleRegistrySpec:
    name = _field(obj, "name")
    if not isinstance(name, str) or not name:
        raise InvariantViolation("name", "must be a nonempty string")
    for blamed, how, other in clashes(token_scopes(name)):
        raise InvariantViolation("name", f"{blamed.label} {how} {other.label}")
    symbol = _field(obj, "symbol")
    if not isinstance(symbol, str) or not 1 <= len(symbol) <= SYMBOL_MAX_LEN:
        raise InvariantViolation("symbol", f"must be 1-{SYMBOL_MAX_LEN} characters")
    decimals = _field(obj, "decimals")
    if not isinstance(decimals, int) or isinstance(decimals, bool) \
            or not 0 <= decimals <= DECIMALS_MAX:
        raise InvariantViolation("decimals", f"must be an integer 0-{DECIMALS_MAX}")

    total_supply = _amount(_field(obj, "totalSupply"), "totalSupply")
    is_mintable = _bool(obj, "isMintable")
    is_burnable = _bool(obj, "isBurnable")
    minters = _address_list(obj, "minterAddresses")
    burners = _address_list(obj, "burnerAddresses")
    if is_mintable and not minters:
        raise InvariantViolation("minterAddresses", "isMintable requires minter addresses")
    if not is_mintable and minters:
        raise InvariantViolation("minterAddresses", "minters given but isMintable is false")
    if is_burnable and not burners:
        raise InvariantViolation("burnerAddresses", "isBurnable requires burner addresses")
    if not is_burnable and burners:
        raise InvariantViolation("burnerAddresses", "burners given but isBurnable is false")

    raw_dist = _field(obj, "initiallyDistributedAccounts", required=False, default=[])
    if not isinstance(raw_dist, list):
        raise InvariantViolation("initiallyDistributedAccounts", "must be a list")
    dist = _distribution(raw_dist, total_supply)

    return FungibleRegistrySpec(
        name=name, symbol=symbol, decimals=decimals, total_supply=total_supply,
        is_mintable=is_mintable, minter_addresses=minters,
        is_burnable=is_burnable, burner_addresses=burners,
        initially_distributed_accounts=dist,
    )


def _nonfungible(obj: dict) -> NonFungibleRegistrySpec:
    name = _field(obj, "name")
    if not isinstance(name, str) or not name:
        raise InvariantViolation("name", "must be a nonempty string")
    registry_type = _field(obj, "registryType")
    if registry_type not in ("single", "distributed"):
        raise InvariantViolation("registryType", "must be 'single' or 'distributed'")

    raw_attrs = _field(obj, "attributes")
    if not isinstance(raw_attrs, list) or not raw_attrs:
        raise InvariantViolation("attributes", "at least one attribute is required")
    attrs = []
    for i, entry in enumerate(raw_attrs):
        path = f"attributes[{i}]"
        if not isinstance(entry, dict):
            raise InvariantViolation(path, "entries must be attribute objects")
        aname = _field(entry, "name")
        if not is_identifier(aname):
            raise InvariantViolation(path + ".name", "must be an identifier")
        atype = _field(entry, "type")
        if atype not in VALUE_TYPES:
            raise RegistrySpecError(f"{path}.type: '{atype}'")
        attrs.append(AttributeDecl(
            name=aname, type=atype,
            updatable=_bool(entry, "updatable", path + "."),
            history_tracked=_bool(entry, "historyTracked", path + ".")))

    spec = NonFungibleRegistrySpec(
        name=name,
        registry_type=registry_type,
        attributes=tuple(attrs),
        is_ownership_transfer_enabled=_bool(obj, "isOwnershipTransferEnabled"),
        is_record_creation_restricted_to_bpmn=_bool(obj, "isRecordCreationRestrictedToBPMN"),
        is_ownership_transfer_enabled_to_bpmn=_bool(obj, "isOwnershipTransferEnabledToBPMN"),
        is_registry_function_access_control_enabled=_bool(
            obj, "isRegistryFunctionAccessControlEnabled"),
        is_registry_record_access_control_enabled=_bool(
            obj, "isRegistryRecordAccessControlEnabled"),
        is_access_control_by_smart_contract_enabled=_bool(
            obj, "isAccessControlBySmartContractEnabled"),
    )
    # the first name the emitted unit would declare twice in one scope, or
    # in a scope within another that declares it
    for blamed, _, other in clashes(registry_scopes(spec)):
        if not other.owner.startswith("attributes"):
            message = f"'{blamed.name}' is a name the emitted registry declares"
        elif blamed.derived:
            message = f"brings {blamed.name}, as {other.owner} does"
        elif other.derived:
            message = f"'{blamed.name}' is brought by {other.owner}"
        else:
            raise InvariantViolation(blamed.owner, f"duplicate attribute '{blamed.name}'")
        raise InvariantViolation(blamed.owner + ".name", message)
    if spec.is_ownership_transfer_enabled_to_bpmn and not spec.is_ownership_transfer_enabled:
        raise InvariantViolation("isOwnershipTransferEnabledToBPMN",
                                 "requires isOwnershipTransferEnabled")
    if spec.is_access_control_by_smart_contract_enabled \
            and not (spec.is_registry_function_access_control_enabled
                     or spec.is_registry_record_access_control_enabled):
        raise InvariantViolation("isAccessControlBySmartContractEnabled",
                                 "requires at least one access-control flag")
    return spec


def parse_registry(doc: str):
    """Dispatch on the shape of the document: non-fungible specs carry a
    registryType field, fungible specs a symbol."""
    obj = _load(doc)
    if "registryType" in obj:
        return _nonfungible(obj)
    return _fungible(obj)
