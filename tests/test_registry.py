import json

import pytest
from hypothesis import given, strategies as st

from procforge.registry import (
    FungibleRegistrySpec,
    InvariantViolation,
    MalformedAddress,
    MissingField,
    NonFungibleRegistrySpec,
    AttributeDecl,
    SpecSyntaxError,
    UnknownAttributeType,
    parse_registry,
)

ADDR1 = "0x" + "1" * 40
ADDR2 = "0x" + "2" * 40

FUNGIBLE = {
    "name": "Lorikeet Coin",
    "symbol": "LRK",
    "decimals": 2,
    "totalSupply": "1000000",
    "isMintable": True,
    "minterAddresses": [ADDR1],
    "initiallyDistributedAccounts": [
        {"address": ADDR1, "amount": "600000"},
        {"address": ADDR2, "amount": "400000"},
    ],
}


def fungible(**kw):
    doc = dict(FUNGIBLE)
    doc.update(kw)
    return json.dumps(doc)


def test_parse_fungible_roundtrip_fields():
    spec = parse_registry(fungible())
    assert spec.symbol == "LRK"
    assert spec.total_supply == 1000000
    assert spec.initially_distributed_accounts == ((ADDR1, 600000), (ADDR2, 400000))
    assert spec.is_mintable and spec.minter_addresses == (ADDR1,)


def test_fungible_missing_field():
    doc = dict(FUNGIBLE)
    del doc["symbol"]
    with pytest.raises(MissingField):
        parse_registry(json.dumps(doc))


def test_fungible_invalid_json():
    with pytest.raises(SpecSyntaxError):
        parse_registry("{nope")
    with pytest.raises(SpecSyntaxError):
        parse_registry("[1]")


def test_symbol_length_bounds():
    with pytest.raises(InvariantViolation):
        parse_registry(fungible(symbol=""))
    with pytest.raises(InvariantViolation):
        parse_registry(fungible(symbol="TOOLONGSYMBL"))
    parse_registry(fungible(symbol="ELEVENCHARS"))  # exactly 11


def test_decimals_bounds():
    with pytest.raises(InvariantViolation):
        parse_registry(fungible(decimals=19))
    with pytest.raises(InvariantViolation):
        parse_registry(fungible(decimals=-1))
    with pytest.raises(InvariantViolation):
        parse_registry(fungible(decimals=True))


def test_amounts_must_be_decimal_strings():
    with pytest.raises(InvariantViolation) as exc:
        parse_registry(fungible(totalSupply=1000000))
    assert "decimal strings" in str(exc.value)
    with pytest.raises(InvariantViolation):
        parse_registry(fungible(totalSupply="0x10"))


def test_distribution_must_sum_to_total_supply():
    bad = [{"address": ADDR1, "amount": "1"}]
    with pytest.raises(InvariantViolation) as exc:
        parse_registry(fungible(initiallyDistributedAccounts=bad))
    assert "totalSupply" in str(exc.value)


def test_duplicate_distribution_address():
    bad = [{"address": ADDR1, "amount": "500000"},
           {"address": ADDR1.upper().replace("0X", "0x"), "amount": "500000"}]
    with pytest.raises(InvariantViolation):
        parse_registry(fungible(initiallyDistributedAccounts=bad))


def test_minters_iff_mintable():
    with pytest.raises(InvariantViolation):
        parse_registry(fungible(isMintable=True, minterAddresses=[]))
    with pytest.raises(InvariantViolation):
        parse_registry(fungible(isMintable=False, minterAddresses=[ADDR1]))


def test_malformed_minter_address():
    with pytest.raises(MalformedAddress):
        parse_registry(fungible(minterAddresses=["bogus"]))


NONFUNGIBLE = {
    "name": "Grain Title",
    "registryType": "single",
    "attributes": [
        {"name": "weight", "type": "uint256", "historyTracked": True},
        {"name": "quality", "type": "uint256"},
    ],
    "isOwnershipTransferEnabled": True,
    "isRecordCreationRestrictedToBPMN": True,
    "isOwnershipTransferEnabledToBPMN": True,
}


def nonfungible(**kw):
    doc = dict(NONFUNGIBLE)
    doc.update(kw)
    return json.dumps(doc)


def test_parse_nonfungible():
    spec = parse_registry(nonfungible())
    assert spec.registry_type == "single"
    assert [a.name for a in spec.attributes] == ["weight", "quality"]
    assert spec.attributes[0].history_tracked
    assert spec.is_ownership_transfer_enabled_to_bpmn


def test_registry_type_values():
    parse_registry(nonfungible(registryType="distributed"))
    with pytest.raises(InvariantViolation):
        parse_registry(nonfungible(registryType="central"))


def test_at_least_one_attribute():
    with pytest.raises(InvariantViolation):
        parse_registry(nonfungible(attributes=[]))


def test_unknown_attribute_type():
    bad = [{"name": "x", "type": "float"}]
    with pytest.raises(UnknownAttributeType):
        parse_registry(nonfungible(attributes=bad))


def test_duplicate_attribute_name():
    bad = [{"name": "x", "type": "uint256"}, {"name": "x", "type": "bool"}]
    with pytest.raises(InvariantViolation):
        parse_registry(nonfungible(attributes=bad))


def test_transfer_to_bpmn_requires_transfer_enabled():
    with pytest.raises(InvariantViolation):
        parse_registry(nonfungible(isOwnershipTransferEnabled=False,
                                   isOwnershipTransferEnabledToBPMN=True))


def test_contract_access_control_requires_some_access_control():
    with pytest.raises(InvariantViolation):
        parse_registry(nonfungible(isAccessControlBySmartContractEnabled=True))


def test_parse_registry_dispatch():
    assert isinstance(parse_registry(fungible()), FungibleRegistrySpec)
    assert isinstance(parse_registry(nonfungible()), NonFungibleRegistrySpec)


# --- the reader reads every field ------------------------------------------

addresses = st.integers(min_value=1, max_value=2**160 - 1).map(
    lambda n: "0x" + format(n, "040x"))


@st.composite
def fungible_specs(draw):
    dist = draw(st.lists(
        st.tuples(addresses, st.integers(min_value=0, max_value=10**9)),
        max_size=4, unique_by=lambda t: t[0]))
    mintable = draw(st.booleans())
    return FungibleRegistrySpec(
        name=draw(st.text(min_size=1, max_size=20,
                          alphabet=st.characters(min_codepoint=32, max_codepoint=126))),
        symbol=draw(st.text(min_size=1, max_size=11, alphabet="ABCDEFGHJK")),
        decimals=draw(st.integers(min_value=0, max_value=18)),
        total_supply=sum(a for _, a in dist),
        is_mintable=mintable,
        minter_addresses=(draw(addresses),) if mintable else (),
        initially_distributed_accounts=tuple(dist),
    )


@given(fungible_specs())
def test_fungible_reader_reads_every_field(spec):
    doc = json.dumps({
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
            for a, n in spec.initially_distributed_accounts],
    })
    assert parse_registry(doc) == spec


def test_nonfungible_reader_reads_every_field():
    doc = json.dumps({
        "name": "Cert",
        "registryType": "distributed",
        "attributes": [
            {"name": "report", "type": "string", "updatable": True, "historyTracked": True},
            {"name": "origin", "type": "string"}],
        "isOwnershipTransferEnabled": True,
        "isRegistryFunctionAccessControlEnabled": True,
        "isAccessControlBySmartContractEnabled": True,
    })
    assert parse_registry(doc) == NonFungibleRegistrySpec(
        name="Cert", registry_type="distributed",
        attributes=(AttributeDecl("report", "string", updatable=True,
                                  history_tracked=True),
                    AttributeDecl("origin", "string")),
        is_ownership_transfer_enabled=True,
        is_registry_function_access_control_enabled=True,
        is_access_control_by_smart_contract_enabled=True)


def test_parse_registry_loads_json_once(monkeypatch):
    calls = []
    real = json.loads

    def counting(doc, *args, **kwargs):
        calls.append(doc)
        return real(doc, *args, **kwargs)

    docs = [fungible(), nonfungible()]
    monkeypatch.setattr(json, "loads", counting)
    assert isinstance(parse_registry(docs[0]), FungibleRegistrySpec)
    assert isinstance(parse_registry(docs[1]), NonFungibleRegistrySpec)
    assert calls == docs
