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
    parse_fungible,
    parse_nonfungible,
    parse_registry,
    write_fungible,
    write_nonfungible,
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
    spec = parse_fungible(fungible())
    assert spec.symbol == "LRK"
    assert spec.total_supply == 1000000
    assert spec.initially_distributed_accounts == ((ADDR1, 600000), (ADDR2, 400000))
    assert spec.is_mintable and spec.minter_addresses == (ADDR1,)


def test_fungible_missing_field():
    doc = dict(FUNGIBLE)
    del doc["symbol"]
    with pytest.raises(MissingField):
        parse_fungible(json.dumps(doc))


def test_fungible_invalid_json():
    with pytest.raises(SpecSyntaxError):
        parse_fungible("{nope")
    with pytest.raises(SpecSyntaxError):
        parse_fungible("[1]")


def test_symbol_length_bounds():
    with pytest.raises(InvariantViolation):
        parse_fungible(fungible(symbol=""))
    with pytest.raises(InvariantViolation):
        parse_fungible(fungible(symbol="TOOLONGSYMBL"))
    parse_fungible(fungible(symbol="ELEVENCHARS"))  # exactly 11


def test_decimals_bounds():
    with pytest.raises(InvariantViolation):
        parse_fungible(fungible(decimals=19))
    with pytest.raises(InvariantViolation):
        parse_fungible(fungible(decimals=-1))
    with pytest.raises(InvariantViolation):
        parse_fungible(fungible(decimals=True))


def test_amounts_must_be_decimal_strings():
    with pytest.raises(InvariantViolation) as exc:
        parse_fungible(fungible(totalSupply=1000000))
    assert "decimal strings" in str(exc.value)
    with pytest.raises(InvariantViolation):
        parse_fungible(fungible(totalSupply="0x10"))


def test_distribution_must_sum_to_total_supply():
    bad = [{"address": ADDR1, "amount": "1"}]
    with pytest.raises(InvariantViolation) as exc:
        parse_fungible(fungible(initiallyDistributedAccounts=bad))
    assert "totalSupply" in str(exc.value)


def test_duplicate_distribution_address():
    bad = [{"address": ADDR1, "amount": "500000"},
           {"address": ADDR1.upper().replace("0X", "0x"), "amount": "500000"}]
    with pytest.raises(InvariantViolation):
        parse_fungible(fungible(initiallyDistributedAccounts=bad))


def test_minters_iff_mintable():
    with pytest.raises(InvariantViolation):
        parse_fungible(fungible(isMintable=True, minterAddresses=[]))
    with pytest.raises(InvariantViolation):
        parse_fungible(fungible(isMintable=False, minterAddresses=[ADDR1]))


def test_malformed_minter_address():
    with pytest.raises(MalformedAddress):
        parse_fungible(fungible(minterAddresses=["bogus"]))


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
    spec = parse_nonfungible(nonfungible())
    assert spec.registry_type == "single"
    assert [a.name for a in spec.attributes] == ["weight", "quality"]
    assert spec.attributes[0].history_tracked
    assert spec.is_ownership_transfer_enabled_to_bpmn


def test_registry_type_values():
    parse_nonfungible(nonfungible(registryType="distributed"))
    with pytest.raises(InvariantViolation):
        parse_nonfungible(nonfungible(registryType="central"))


def test_at_least_one_attribute():
    with pytest.raises(InvariantViolation):
        parse_nonfungible(nonfungible(attributes=[]))


def test_unknown_attribute_type():
    bad = [{"name": "x", "type": "float"}]
    with pytest.raises(UnknownAttributeType):
        parse_nonfungible(nonfungible(attributes=bad))


def test_duplicate_attribute_name():
    bad = [{"name": "x", "type": "uint256"}, {"name": "x", "type": "bool"}]
    with pytest.raises(InvariantViolation):
        parse_nonfungible(nonfungible(attributes=bad))


def test_transfer_to_bpmn_requires_transfer_enabled():
    with pytest.raises(InvariantViolation):
        parse_nonfungible(nonfungible(isOwnershipTransferEnabled=False,
                                      isOwnershipTransferEnabledToBPMN=True))


def test_contract_access_control_requires_some_access_control():
    with pytest.raises(InvariantViolation):
        parse_nonfungible(nonfungible(isAccessControlBySmartContractEnabled=True))


def test_parse_registry_dispatch():
    assert isinstance(parse_registry(fungible()), FungibleRegistrySpec)
    assert isinstance(parse_registry(nonfungible()), NonFungibleRegistrySpec)


# --- canonical writers round-trip -------------------------------------------

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
def test_fungible_writer_roundtrips(spec):
    assert parse_fungible(write_fungible(spec)) == spec


def test_nonfungible_writer_roundtrips():
    spec = NonFungibleRegistrySpec(
        name="Cert", registry_type="distributed",
        attributes=(AttributeDecl("report", "string", updatable=True,
                                  history_tracked=True),
                    AttributeDecl("origin", "string")),
        is_ownership_transfer_enabled=True)
    assert parse_nonfungible(write_nonfungible(spec)) == spec


def test_parse_registry_loads_json_once(monkeypatch):
    from procforge import registry
    calls = []
    real = registry.json.loads

    def counting(doc, *args, **kwargs):
        calls.append(doc)
        return real(doc, *args, **kwargs)

    docs = [fungible(), nonfungible()]
    monkeypatch.setattr(registry.json, "loads", counting)
    assert isinstance(parse_registry(docs[0]), FungibleRegistrySpec)
    assert isinstance(parse_registry(docs[1]), NonFungibleRegistrySpec)
    assert calls == docs
