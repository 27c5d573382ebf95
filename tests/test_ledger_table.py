"""The invariant of a ledger's balances table that simulate --json writes
by: after any sequence of calls, accepted or rejected and undone, every
key is a lowered address and every value an exact int, and the values sum
to the total supply."""

import json

from hypothesis import given, settings, strategies as st

from procforge import cli
from procforge.interp import FungibleLedger, RegistryError, _dispatch, pseudo_address, undo
from procforge.ir import ADDRESS_RE
from procforge.registry import FungibleRegistrySpec

HOLDERS = ["0x" + c * 40 for c in "12ab"]
MINTER, BURNER = "0x" + "c" * 40, "0x" + "D" * 40
PROCESS = pseudo_address("process:ledger:0")
ACCOUNTS = HOLDERS + [MINTER, BURNER, PROCESS, "0x" + "e" * 40]


def mixed_case(address: str, mask: int) -> str:
    """address with each hex letter upper-cased where mask has a 1 bit."""
    return "0x" + "".join(c.upper() if mask >> i & 1 else c.lower()
                          for i, c in enumerate(address[2:]))


addresses = st.builds(mixed_case, st.sampled_from(ACCOUNTS), st.integers(0, 2**40 - 1))
amounts = st.one_of(st.integers(0, 600), st.sampled_from([-1, 2**256, True]))
ARGS = {"transfer": (addresses, amounts),
        "transferFrom": (addresses, addresses, amounts),
        "approve": (addresses, amounts),
        "mint": (addresses, amounts),
        "burn": (addresses, amounts)}
calls = st.sampled_from(sorted(ARGS)).flatmap(
    lambda fn: st.tuples(st.just(fn), st.tuples(*ARGS[fn]).map(list), addresses))


def check_table(ledger: FungibleLedger):
    for key, value in ledger.balances.items():
        assert type(key) is str and ADDRESS_RE.fullmatch(key) and key == key.lower(), key
        assert type(value) is int and value >= 0, (key, value)
    assert sum(ledger.balances.values()) == ledger.total_supply


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 500), min_size=len(HOLDERS), max_size=len(HOLDERS)),
       st.lists(st.tuples(st.lists(calls, min_size=1, max_size=3), st.booleans()),
                max_size=12))
def test_balances_keep_lowered_address_keys_and_int_values(balances, steps):
    ledger = FungibleLedger(FungibleRegistrySpec(
        name="Coin", symbol="C", decimals=0, total_supply=sum(balances),
        is_mintable=True, minter_addresses=(MINTER,),
        is_burnable=True, burner_addresses=(BURNER,),
        initially_distributed_accounts=tuple(zip(HOLDERS, balances))))
    check_table(ledger)
    # each step is one transaction: its calls in turn, undone if one is
    # refused or the step is drawn to be rejected, as invoke undoes them
    for step, rejected in steps:
        mark = len(ledger.journal)
        try:
            for fn, args, caller in step:
                _dispatch(ledger, fn, args, caller)
                check_table(ledger)
        except RegistryError:
            rejected = True
        if rejected:
            undo(ledger.journal, mark)
        else:
            ledger.journal.clear()
        check_table(ledger)


def test_the_written_table_is_json_dumps_of_the_sorted_table():
    # keys out of order: two pseudo_address keys, two addresses that differ
    # only in their last hex digit (one spelt in upper case), and an account
    # the transfer adds after the ledger is built
    dist = ((pseudo_address("b"), 5), ("0x" + "A" * 39 + "9", 7), (pseudo_address("a"), 11),
            ("0x" + "a" * 39 + "1", 13))
    ledger = FungibleLedger(FungibleRegistrySpec(
        name="Coin", symbol="C", decimals=0, total_supply=36,
        initially_distributed_accounts=dist))
    ledger.transfer(dist[0][0], "0x" + "0" * 40, 2)
    assert list(ledger.balances) != sorted(ledger.balances)
    table = {"totalSupply": 36, "balances": dict(sorted(ledger.balances.items()))}
    for pad in ("", "    "):
        assert cli._ledger_json(ledger, pad) == \
            json.dumps(table, indent=2).replace("\n", "\n" + pad)
    empty = FungibleLedger(FungibleRegistrySpec(name="Coin", symbol="C", decimals=0,
                                                total_supply=0))
    assert cli._ledger_json(empty, "") == \
        json.dumps({"totalSupply": 0, "balances": {}}, indent=2)
