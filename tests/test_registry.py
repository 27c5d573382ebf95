import copy
import json
import pickle
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from procforge import registry
from procforge.interp import FungibleLedger
from procforge.ir import UINT256_MAX, addr_key
from procforge.registry import (
    FungibleRegistrySpec,
    InvariantViolation,
    MalformedAddress,
    MissingField,
    NonFungibleRegistrySpec,
    RESERVED_ATTRIBUTE_NAMES,
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


GOOD_ENTRY = {"address": ADDR1, "amount": "600000"}
DIST = "initiallyDistributedAccounts"


@pytest.mark.parametrize("second, error, message", [
    ([ADDR2, "400000"], InvariantViolation,
     f"{DIST}[1]: entries must be {{address, amount}} objects"),
    ({"amount": "400000"}, MissingField, "missing field 'address'"),
    ({"address": "0x" + "g" * 40, "amount": "400000"}, MalformedAddress,
     f"{DIST}[1].address: '0x{'g' * 40}' is not 0x + 40 hex digits"),
    ({"address": 7, "amount": "400000"}, MalformedAddress,
     f"{DIST}[1].address: '7' is not 0x + 40 hex digits"),
    ({"address": ADDR2[:-1], "amount": "400000"}, MalformedAddress,
     f"{DIST}[1].address: '{ADDR2[:-1]}' is not 0x + 40 hex digits"),
    ({"address": ADDR1.upper().replace("0X", "0x"), "amount": "400000"}, InvariantViolation,
     f"{DIST}[1]: duplicate address {ADDR1}"),
    ({"address": ADDR2}, MissingField, "missing field 'amount'"),
    ({"address": ADDR2, "amount": 400000}, InvariantViolation,
     f"{DIST}[1].amount: amounts must be decimal strings"),
    ({"address": ADDR2, "amount": "0x10"}, InvariantViolation,
     f"{DIST}[1].amount: not a decimal integer: '0x10'"),
    ({"address": ADDR2, "amount": "-5"}, InvariantViolation,
     f"{DIST}[1].amount: amount out of uint256 range"),
    ({"address": ADDR2, "amount": str(UINT256_MAX + 1)}, InvariantViolation,
     f"{DIST}[1].amount: amount out of uint256 range"),
    ({"address": ADDR2, "amount": "400001"}, InvariantViolation,
     f"{DIST}: distribution ≠ totalSupply"),
], ids=["not-a-dict", "no-address", "malformed-address", "address-not-a-string",
        "address-too-short", "duplicate-in-other-case", "no-amount", "amount-not-a-string",
        "amount-not-decimal", "amount-negative", "amount-above-uint256", "sum-not-total"])
def test_distribution_errors(second, error, message):
    with pytest.raises(error) as exc:
        parse_registry(fungible(initiallyDistributedAccounts=[GOOD_ENTRY, second]))
    assert type(exc.value) is error
    assert str(exc.value) == message


def reference_distribution(raw_dist, total_supply):
    """The distribution check as one entry at a time, through the helpers;
    the order of its tests decides which error is reported."""
    dist = []
    seen = set()
    for i, entry in enumerate(raw_dist):
        path = f"initiallyDistributedAccounts[{i}]"
        if not isinstance(entry, dict):
            raise InvariantViolation(path, "entries must be {address, amount} objects")
        addr = registry._address(registry._field(entry, "address"), path + ".address")
        if addr_key(addr) in seen:
            raise InvariantViolation(path, f"duplicate address {addr}")
        seen.add(addr_key(addr))
        dist.append((addr, registry._amount(registry._field(entry, "amount"),
                                            path + ".amount")))
    if sum(a for _, a in dist) != total_supply:
        raise InvariantViolation("initiallyDistributedAccounts", "distribution ≠ totalSupply")
    return tuple(dist)


def _duplicate_of_an_earlier_address(e, before):
    earlier = [b["address"] for b in before
               if isinstance(b, dict) and isinstance(b.get("address"), str)]
    return {**e, "address": earlier[0].swapcase().replace("0X", "0x")} if earlier else e


# each maps (a valid entry, the entries before it) to a replacement entry,
# which may still be valid: int() takes signs, spaces, underscores and
# other digits
CORRUPTIONS = [
    _duplicate_of_an_earlier_address,
    lambda e, before: _duplicate_of_an_earlier_address({"address": e["address"]}, before),
    lambda e, before: [e["address"], e["amount"]],
    lambda e, before: e["address"],
    lambda e, before: None,
    lambda e, before: {"amount": e["amount"]},
    lambda e, before: {"address": e["address"]},
    lambda e, before: {},
    lambda e, before: {**e, "address": e["address"][:-1]},
    lambda e, before: {**e, "address": e["address"] + "0"},
    lambda e, before: {**e, "address": "0X" + e["address"][2:]},
    lambda e, before: {**e, "address": e["address"][:-1] + "g"},
    lambda e, before: {**e, "address": "0x" + "\u0661" * 40},
    lambda e, before: {**e, "address": int(e["address"], 16)},
    lambda e, before: {**e, "address": None},
    lambda e, before: {**e, "amount": int(e["amount"])},
    lambda e, before: {**e, "amount": None},
    lambda e, before: {**e, "amount": "0x" + e["amount"]},
    lambda e, before: {**e, "amount": "-" + e["amount"]},
    lambda e, before: {**e, "amount": str(UINT256_MAX + int(e["amount"]))},
    lambda e, before: {**e, "amount": str(UINT256_MAX)},
    lambda e, before: {**e, "amount": " +" + e["amount"] + " "},
    lambda e, before: {**e, "amount": "_".join(e["amount"])},
    lambda e, before: {**e, "amount": "\u0663" + e["amount"]},
    lambda e, before: {**e, "amount": ""},
    lambda e, before: {**e, "extra": True},
    # a check of the joined addresses must still see these: an address that
    # holds a second one after a newline (itself, so that the lowered lines
    # hold as many distinct keys as there are entries), one that ends in a
    # newline, an empty one; and an amount of more digits than int() converts
    lambda e, before: {**e, "address": e["address"] + "\n" + e["address"]},
    lambda e, before: {**e, "address": e["address"] + "\n"},
    lambda e, before: {**e, "address": ""},
    lambda e, before: {**e, "amount": "9" * (sys.get_int_max_str_digits() + 1)},
]


@st.composite
def corrupted_distributions(draw):
    """A valid distribution with one or two entries corrupted, and the
    total supply of the valid one."""
    amounts = draw(st.lists(st.integers(min_value=0, max_value=10**12), min_size=1,
                            max_size=12))
    keys = draw(st.lists(st.integers(min_value=0, max_value=2**160 - 1),
                         min_size=len(amounts), max_size=len(amounts), unique=True))
    raw = [{"address": "0x" + format(k, "040x" if k % 2 else "040X"), "amount": str(n)}
           for k, n in zip(keys, amounts)]
    indices = draw(st.lists(st.integers(min_value=0, max_value=len(raw) - 1),
                            min_size=1, max_size=2, unique=True))
    for i in sorted(indices):
        raw[i] = draw(st.sampled_from(CORRUPTIONS))(raw[i], raw[:i])
    return raw, sum(amounts)


@settings(max_examples=300)
@given(corrupted_distributions())
@example(([], 0))
@example(([], 1))
@example(([{"address": ADDR1, "amount": "-5"}, {"address": ADDR2, "amount": "105"}], 100))
def test_distribution_check_matches_the_entry_by_entry_reference(case):
    raw, total = case
    doc = fungible(totalSupply=str(total), initiallyDistributedAccounts=raw)
    try:
        expected = reference_distribution(json.loads(doc)[DIST], total)
    except registry.RegistrySpecError as e:
        with pytest.raises(registry.RegistrySpecError) as exc:
            parse_registry(doc)
        assert (type(exc.value), str(exc.value)) == (type(e), str(e))
    else:
        assert parse_registry(doc).initially_distributed_accounts == expected


# a 41-character address and a 43-character one, the last hex digit of the
# first moved to the front of the second: their concatenation is that of
# two valid addresses, and only the check of each length tells
SPLIT_ADDRESSES = [{"address": ADDR1[:-1], "amount": "600000"},
                   {"address": ADDR1[-1] + ADDR2, "amount": "400000"}]


def test_a_41_and_a_43_character_address_are_not_two_addresses():
    assert "".join(e["address"] for e in SPLIT_ADDRESSES) == ADDR1 + ADDR2
    with pytest.raises(MalformedAddress) as reference:
        reference_distribution(SPLIT_ADDRESSES, 1000000)
    with pytest.raises(MalformedAddress) as exc:
        parse_registry(fungible(initiallyDistributedAccounts=SPLIT_ADDRESSES))
    assert str(exc.value) == str(reference.value) == \
        f"{DIST}[0].address: '{ADDR1[:-1]}' is not 0x + 40 hex digits"


@pytest.mark.parametrize("address", [
    "1x" + "1" * 40, "00" + "1" * 40, "01x" + "1" * 39, "0xx" + "1" * 39,
    "0x" + "1" * 39 + "x", "0x" + "1" * 39 + "\n", "0X" + "1" * 40, "0x" + "1" * 39 + "\u0661",
], ids=["1x", "00", "x-third", "xx", "x-last", "newline-last", "0X", "arabic-indic-digit"])
def test_a_42_character_address_is_checked_at_every_position(address):
    # the second entry is checked on the concatenation of both addresses
    with pytest.raises(MalformedAddress) as exc:
        parse_registry(fungible(initiallyDistributedAccounts=[
            GOOD_ENTRY, {"address": address, "amount": "400000"}]))
    assert str(exc.value) == f"{DIST}[1].address: '{address}' is not 0x + 40 hex digits"


NEWCOMER = "0x" + "9" * 40


@pytest.mark.parametrize("spelling", ["040x", "040X"], ids=["lower-case", "mixed-case"])
def test_a_ledger_from_a_parsed_spec_is_one_from_a_hand_made_spec(spelling):
    pairs = tuple(("0x" + format(0xABC0 * k, spelling if k % 2 else "040x"), 10 * k)
                  for k in range(1, 8))
    parsed = parse_registry(fungible(
        totalSupply=str(sum(n for _, n in pairs)), isMintable=False, minterAddresses=[],
        initiallyDistributedAccounts=[{"address": a, "amount": str(n)} for a, n in pairs]))
    hand = parsed._replace(initially_distributed_accounts=pairs)
    assert type(hand.initially_distributed_accounts) is tuple
    ledgers = FungibleLedger(parsed), FungibleLedger(hand)
    before = list(ledgers[1].balances.items())
    assert before == [(addr_key(a), n) for a, n in pairs]
    assert [list(lg.balances.items()) for lg in ledgers] == [before, before]
    for lg in ledgers:
        mark = lg.mark()
        lg.transfer(pairs[0][0], NEWCOMER, 3)
        lg.transfer(pairs[1][0].upper().replace("0X", "0x"), pairs[0][0], 7)
        assert lg.balance_of(NEWCOMER) == 3 and lg.balance_of(pairs[0][0]) == pairs[0][1] + 4
        lg.rollback(mark)
    assert [list(lg.balances.items()) for lg in ledgers] == [before, before]


def test_two_ledgers_from_one_parsed_spec_share_no_state():
    spec = parse_registry(fungible())
    table = spec.initially_distributed_accounts.balances
    first, second = FungibleLedger(spec), FungibleLedger(spec)
    first.transfer(ADDR1, NEWCOMER, 5)
    assert first.balances == {ADDR1: 599995, ADDR2: 400000, NEWCOMER: 5}
    assert second.balances == dict(table) == {ADDR1: 600000, ADDR2: 400000}
    assert spec == parse_registry(fungible())
    with pytest.raises(TypeError):
        table[ADDR1] = 0


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda spec: pickle.loads(pickle.dumps(spec))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_cloned_parsed_spec_makes_the_same_ledger(clone):
    spec = parse_registry(fungible())
    twin = clone(spec)
    assert twin == spec
    assert FungibleLedger(twin).balances == FungibleLedger(spec).balances


@pytest.mark.parametrize("flag", ["updatable", "historyTracked"])
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_attribute_flags_must_be_booleans(flag, value):
    attrs = [{"name": "weight", "type": "uint256"},
             {"name": "quality", "type": "uint256", flag: value}]
    with pytest.raises(InvariantViolation) as exc:
        parse_registry(nonfungible(attributes=attrs))
    assert str(exc.value) == f"attributes[1].{flag}: must be a boolean"


def test_absent_attribute_flags_are_false():
    attrs = [{"name": "weight", "type": "uint256"},
             {"name": "quality", "type": "uint256", "updatable": True}]
    spec = parse_registry(nonfungible(attributes=attrs))
    assert spec.attributes == (AttributeDecl("weight", "uint256"),
                               AttributeDecl("quality", "uint256", updatable=True))


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


@pytest.mark.parametrize("name", ["", "weight; address public pwned", "2x", "a b", 7,
                                  "return", "mapping", "uint256"])
def test_attribute_names_must_be_identifiers(name):
    # attribute names are emitted as they are, as fields and parameters
    bad = [{"name": "x", "type": "uint256"}, {"name": name, "type": "bool"}]
    with pytest.raises(InvariantViolation) as exc:
        parse_registry(nonfungible(attributes=bad))
    assert str(exc.value) == "attributes[1].name: must be an identifier"


@pytest.mark.parametrize("registry_type", ["single", "distributed"])
@pytest.mark.parametrize("name", sorted(RESERVED_ATTRIBUTE_NAMES))
def test_attribute_names_may_not_repeat_a_name_of_the_emitted_registry(name, registry_type):
    # e.g. an updatable "value" would emit set_value(uint256 value) { value = value; }
    bad = [{"name": "x", "type": "uint256"},
           {"name": name, "type": "uint256", "updatable": True}]
    with pytest.raises(InvariantViolation) as exc:
        parse_registry(nonfungible(registryType=registry_type, attributes=bad))
    assert str(exc.value) == (f"attributes[1].name: '{name}' is a name the emitted "
                              "registry declares")


@pytest.mark.parametrize("registry_type", ["single", "distributed"])
def test_attribute_names_may_not_be_the_record_contract_name(registry_type):
    # the distributed layout's record_create would read its parameter in
    # "new DeedBookRecord(msg.sender, DeedBookRecord)"
    bad = [{"name": "x", "type": "uint256"}, {"name": "DeedBookRecord", "type": "uint256"}]
    with pytest.raises(InvariantViolation) as exc:
        parse_registry(nonfungible(name="Deed Book", registryType=registry_type,
                                   attributes=bad))
    assert str(exc.value) == ("attributes[1].name: 'DeedBookRecord' is a name the emitted "
                              "registry declares")
    assert parse_registry(nonfungible(name="Deed Books", registryType=registry_type,
                                      attributes=bad)).attributes[1].name == "DeedBookRecord"


HISTORY, UPDATABLE = {"historyTracked": True}, {"updatable": True}


@pytest.mark.parametrize("names, flags, message", [
    # both would emit event WeightChanged
    (["weight", "Weight"], HISTORY, "attributes[1].name: brings WeightChanged, "
                                    "as attributes[0] does"),
    (["WeightChanged", "weight"], HISTORY, "attributes[0].name: 'WeightChanged' is brought "
                                           "by attributes[1]"),
    (["weight", "WeightChanged"], {}, None),
    # the record contract's constructor would assign its parameter _weight
    (["_weight", "weight"], {}, "attributes[0].name: '_weight' is brought by attributes[1]"),
    # a state variable and a function set_weight of the record contract
    (["weight", "set_weight"], UPDATABLE, "attributes[1].name: 'set_weight' is brought "
                                          "by attributes[0]"),
    (["weight", "set_weight"], {}, None),
])
def test_attribute_names_may_not_repeat_a_name_another_attribute_brings(names, flags, message):
    attrs = [{"name": n, "type": "uint256", **flags} for n in names]
    for registry_type in ("single", "distributed"):
        doc = nonfungible(registryType=registry_type, attributes=attrs)
        if message is None:
            assert [a.name for a in parse_registry(doc).attributes] == names
            continue
        with pytest.raises(InvariantViolation) as exc:
            parse_registry(doc)
        assert str(exc.value) == message


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
