"""Fungible / non-fungible asset registry specifications.

Canonical on-disk format is a UTF-8 JSON object with camelCase field names.
Amounts are decimal strings (avoids 53-bit truncation in JSON tooling),
addresses are 0x + 40 hex digits.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, NamedTuple, Optional, Tuple

from .ir import (UINT256_MAX, VALUE_TYPES, addr_key, contract_name, is_address,
                 is_identifier, load_json)

SYMBOL_MAX_LEN = 11
DECIMALS_MAX = 18


# The names the emitted non-fungible registry declares besides the
# attributes, which an attribute of the name would repeat or hide, refused
# in both layouts (line numbers of codegen.py):
# - owner, exists: members of the single layout's Record struct (217-219);
# - registry, owner, onlyRegistry, setOwner, _owner: the distributed record
#   contract's state variables, modifier, function and constructor
#   parameter, and value, the parameter of its setters, which a setter
#   set_value would assign in place of the attribute (176-208);
# - record_id: the parameter of record_create and record_get_attrs, whose
#   bodies read records, recordExists, recordContracts, Record, ownedCount,
#   recordCount and Transfer under the attributes as parameters or named
#   returns (294-315).
# The distributed layout's record contract <Name>Record, which record_create
# names in "new <Name>Record(msg.sender, ...)" (170, 229), is refused too.
# The constructor parameter _<name> and setter set_<name> of an attribute
# <name>, and the event <Name>Changed of a historyTracked one (161-162),
# must not repeat one another's or an attribute's name either.
RESERVED_ATTRIBUTE_NAMES = frozenset((
    "owner", "exists", "registry", "onlyRegistry", "setOwner", "_owner", "value",
    "record_id", "records", "recordExists", "recordContracts", "Record", "ownedCount",
    "recordCount", "Transfer"))


class RegistrySpecError(Exception):
    pass


class SpecSyntaxError(RegistrySpecError):
    pass


class MissingField(RegistrySpecError):
    pass


class InvariantViolation(RegistrySpecError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class MalformedAddress(RegistrySpecError):
    pass


class UnknownAttributeType(RegistrySpecError):
    pass


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


def _load(doc: str) -> dict:
    try:
        obj = load_json(doc)
    except ValueError as e:
        raise SpecSyntaxError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise SpecSyntaxError("registry spec must be a JSON object")
    return obj


def _field(obj: dict, name: str, required: bool = True, default=None):
    if name not in obj:
        if required:
            raise MissingField(f"missing field '{name}'")
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
        raise MalformedAddress(f"{path}: '{value}' is not 0x + 40 hex digits")
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


def _distribution_entry(entry, path: str, seen: set) -> Tuple[str, int]:
    """Check one distribution entry, in the order that decides which error
    is reported, and add its address key to seen."""
    if not isinstance(entry, dict):
        raise InvariantViolation(path, "entries must be {address, amount} objects")
    addr = _address(_field(entry, "address"), path + ".address")
    if addr_key(addr) in seen:
        raise InvariantViolation(path, f"duplicate address {addr}")
    seen.add(addr_key(addr))
    return addr, _amount(_field(entry, "amount"), path + ".amount")


class _Distribution(tuple):
    """A checked initial distribution: its (address, amount) pairs as the
    spec writes them, and in balances the table {lowered address: amount}
    that initial_balances copies, read-only. parse_registry builds the
    table while it checks the addresses, so a ledger need not lower them
    again. A copy or pickle is a plain tuple of the pairs."""

    def __new__(cls, pairs, balances: Dict[str, int]):
        self = super().__new__(cls, pairs)
        self.balances = MappingProxyType(balances)
        return self

    def __reduce__(self):
        return tuple, (tuple(self),)


_HEX_DIGITS = b"0123456789abcdefABCDEF"


def _distribution_in_bulk(raw: list, total_supply: int) -> Optional[_Distribution]:
    """The initial distribution if every entry passes the checks of
    _distribution_entry and the amounts sum to total_supply, else None.
    Checks all entries at once, each kind of field by one pass over the
    list. The addresses are checked on their concatenation: every 42nd
    character from the first is a 0 and from the second an x, and deleting
    the hex digits leaves just those x's. Since each address is checked to
    be 42 characters long, the concatenation splits back into the entries;
    without that check an address of 41 characters followed by one of 43
    could pass. Each address is lowered exactly once, into the table whose
    size is the duplicate check."""
    if set(map(type, raw)) != {dict}:  # an empty list too: _distribution checks its sum
        return None
    addrs = [e.get("address") for e in raw]
    amounts = [e.get("amount") for e in raw]
    try:
        joined = "".join(addrs).encode("ascii")  # a non-str address raises
        "".join(amounts)  # a non-str amount raises
        values = list(map(int, amounts))  # int(s) is int(s, 10) for a str
    except (TypeError, ValueError):  # UnicodeEncodeError is a ValueError
        return None
    del amounts
    n = len(addrs)
    if list(map(len, addrs)).count(42) != n or joined[::42] != b"0" * n \
            or joined[1::42] != b"x" * n or joined.translate(None, _HEX_DIGITS) != b"x" * n:
        return None
    del joined
    if min(values) < 0 or max(values) > UINT256_MAX or sum(values) != total_supply:
        return None
    balances = dict(zip(map(str.lower, addrs), values))  # addr_key
    if len(balances) != n:
        return None
    return _Distribution(zip(addrs, values), balances)


def _distribution(raw: list, total_supply: int) -> Tuple[Tuple[str, int], ...]:
    """Check the initial distribution and its sum. Only when the check of
    all entries at once fails does each entry go to _distribution_entry,
    in order, so that the first bad entry raises its error."""
    dist = _distribution_in_bulk(raw, total_supply)
    if dist is None:
        seen = set()
        dist = tuple(_distribution_entry(entry, f"initiallyDistributedAccounts[{i}]", seen)
                     for i, entry in enumerate(raw))
        if sum(a for _, a in dist) != total_supply:
            raise InvariantViolation("initiallyDistributedAccounts",
                                     "distribution ≠ totalSupply")
    return dist


def initial_balances(spec: FungibleRegistrySpec) -> Dict[str, int]:
    """A new table {lowered address: amount} of the spec's initial
    distribution, in its order: a copy of the one parse_registry built, or
    else the pairs lowered here. As parse_registry, and as the emitted
    constructor, which sets one balance per entry, it refuses two spellings
    of one address and a sum other than total_supply."""
    dist = spec.initially_distributed_accounts
    if isinstance(dist, _Distribution):
        balances = dist.balances.copy()
    else:
        balances = {addr.lower(): amount for addr, amount in dist}  # addr_key written out
        if len(balances) != len(dist):
            seen = set()
            for i, (addr, _) in enumerate(dist):
                if addr_key(addr) in seen:
                    raise InvariantViolation(f"initiallyDistributedAccounts[{i}]",
                                             f"duplicate address {addr}")
                seen.add(addr_key(addr))
    if sum(balances.values()) != spec.total_supply:
        raise InvariantViolation("initiallyDistributedAccounts", "distribution ≠ totalSupply")
    return balances


def _fungible(obj: dict) -> FungibleRegistrySpec:
    name = _field(obj, "name")
    if not isinstance(name, str) or not name:
        raise InvariantViolation("name", "must be a nonempty string")
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
    reserved = RESERVED_ATTRIBUTE_NAMES | {contract_name(name) + "Record"}
    attrs = []
    seen = set()
    for i, entry in enumerate(raw_attrs):
        path = f"attributes[{i}]"
        if not isinstance(entry, dict):
            raise InvariantViolation(path, "entries must be attribute objects")
        aname = _field(entry, "name")
        if not is_identifier(aname):
            raise InvariantViolation(path + ".name", "must be an identifier")
        if aname in seen:
            raise InvariantViolation(path, f"duplicate attribute '{aname}'")
        if aname in reserved:
            raise InvariantViolation(path + ".name",
                                     f"'{aname}' is a name the emitted registry declares")
        seen.add(aname)
        atype = _field(entry, "type")
        if atype not in VALUE_TYPES:
            raise UnknownAttributeType(f"{path}.type: '{atype}'")
        attrs.append(AttributeDecl(
            name=aname, type=atype,
            updatable=_bool(entry, "updatable", path + "."),
            history_tracked=_bool(entry, "historyTracked", path + ".")))
    # an attribute <name> also brings the record contract's constructor
    # parameter _<name>, updatable, its setter set_<name> and,
    # historyTracked, the event <Name>Changed
    brought: Dict[str, int] = {}
    for i, a in enumerate(attrs):
        setter = ["set_" + a.name] if a.updatable else []
        event = [a.name[0].upper() + a.name[1:] + "Changed"] if a.history_tracked else []
        for other in ["_" + a.name, *setter, *event]:
            if other in brought:
                raise InvariantViolation(f"attributes[{i}].name",
                                         f"brings {other}, as attributes[{brought[other]}] does")
            brought[other] = i
    for i, a in enumerate(attrs):
        if a.name in brought:
            raise InvariantViolation(f"attributes[{i}].name",
                                     f"'{a.name}' is brought by attributes[{brought[a.name]}]")

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
