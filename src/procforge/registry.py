"""Fungible / non-fungible asset registry specifications.

Canonical on-disk format is a UTF-8 JSON object with camelCase field names.
Amounts are decimal strings (avoids 53-bit truncation in JSON tooling),
addresses are 0x + 40 hex digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

from .ir import UINT256_MAX, is_address

ATTRIBUTE_TYPES = ("uint256", "int256", "bool", "address", "string")

SYMBOL_MAX_LEN = 11
DECIMALS_MAX = 18


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


@dataclass(frozen=True)
class FungibleRegistrySpec:
    name: str
    symbol: str
    decimals: int
    total_supply: int
    is_mintable: bool = False
    minter_addresses: Tuple[str, ...] = ()
    is_burnable: bool = False
    burner_addresses: Tuple[str, ...] = ()
    initially_distributed_accounts: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class AttributeDecl:
    name: str
    type: str
    updatable: bool = False
    history_tracked: bool = False


@dataclass(frozen=True)
class NonFungibleRegistrySpec:
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
        obj = json.loads(doc)
    except json.JSONDecodeError as e:
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


def _bool(obj: dict, name: str) -> bool:
    value = _field(obj, name, required=False, default=False)
    if not isinstance(value, bool):
        raise InvariantViolation(name, "must be a boolean")
    return value


def _address_list(obj: dict, name: str) -> Tuple[str, ...]:
    raw = _field(obj, name, required=False, default=[])
    if not isinstance(raw, list):
        raise InvariantViolation(name, "must be a list of addresses")
    out = tuple(_address(a, f"{name}[{i}]") for i, a in enumerate(raw))
    if len({a.lower() for a in out}) != len(out):
        raise InvariantViolation(name, "duplicate address")
    return out


def parse_fungible(doc: str) -> FungibleRegistrySpec:
    obj = _load(doc)

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
    dist = []
    seen = set()
    for i, entry in enumerate(raw_dist):
        path = f"initiallyDistributedAccounts[{i}]"
        if not isinstance(entry, dict):
            raise InvariantViolation(path, "entries must be {address, amount} objects")
        addr = _address(_field(entry, "address"), path + ".address")
        if addr.lower() in seen:
            raise InvariantViolation(path, f"duplicate address {addr}")
        seen.add(addr.lower())
        dist.append((addr, _amount(_field(entry, "amount"), path + ".amount")))
    if sum(a for _, a in dist) != total_supply:
        raise InvariantViolation("initiallyDistributedAccounts",
                                 "distribution ≠ totalSupply")

    return FungibleRegistrySpec(
        name=name, symbol=symbol, decimals=decimals, total_supply=total_supply,
        is_mintable=is_mintable, minter_addresses=minters,
        is_burnable=is_burnable, burner_addresses=burners,
        initially_distributed_accounts=tuple(dist),
    )


def parse_nonfungible(doc: str) -> NonFungibleRegistrySpec:
    obj = _load(doc)

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
    seen = set()
    for i, entry in enumerate(raw_attrs):
        path = f"attributes[{i}]"
        if not isinstance(entry, dict):
            raise InvariantViolation(path, "entries must be attribute objects")
        aname = _field(entry, "name")
        if not isinstance(aname, str) or not aname:
            raise InvariantViolation(path + ".name", "must be a nonempty string")
        if aname in seen:
            raise InvariantViolation(path, f"duplicate attribute '{aname}'")
        seen.add(aname)
        atype = _field(entry, "type")
        if atype not in ATTRIBUTE_TYPES:
            raise UnknownAttributeType(f"{path}.type: '{atype}'")
        attrs.append(AttributeDecl(
            name=aname, type=atype,
            updatable=bool(entry.get("updatable", False)),
            history_tracked=bool(entry.get("historyTracked", False))))

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
        return parse_nonfungible(doc)
    return parse_fungible(doc)


def write_fungible(spec: FungibleRegistrySpec) -> str:
    """Canonical serialization; parse_fungible round-trips on its output."""
    obj = {
        "name": spec.name,
        "symbol": spec.symbol,
        "decimals": spec.decimals,
        "totalSupply": str(spec.total_supply),
        "isMintable": spec.is_mintable,
        "minterAddresses": list(spec.minter_addresses),
        "isBurnable": spec.is_burnable,
        "burnerAddresses": list(spec.burner_addresses),
        "initiallyDistributedAccounts": [
            {"address": a, "amount": str(n)}
            for a, n in spec.initially_distributed_accounts
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def write_nonfungible(spec: NonFungibleRegistrySpec) -> str:
    obj = {
        "name": spec.name,
        "registryType": spec.registry_type,
        "attributes": [
            {"name": a.name, "type": a.type, "updatable": a.updatable,
             "historyTracked": a.history_tracked}
            for a in spec.attributes
        ],
        "isOwnershipTransferEnabled": spec.is_ownership_transfer_enabled,
        "isRecordCreationRestrictedToBPMN": spec.is_record_creation_restricted_to_bpmn,
        "isOwnershipTransferEnabledToBPMN": spec.is_ownership_transfer_enabled_to_bpmn,
        "isRegistryFunctionAccessControlEnabled":
            spec.is_registry_function_access_control_enabled,
        "isRegistryRecordAccessControlEnabled":
            spec.is_registry_record_access_control_enabled,
        "isAccessControlBySmartContractEnabled":
            spec.is_access_control_by_smart_contract_enabled,
    }
    return json.dumps(obj, indent=2) + "\n"
