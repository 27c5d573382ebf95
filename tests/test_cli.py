import enum
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import procforge
from procforge import cli
from procforge.cli import main
from procforge.harness import MAX_DRAWS, ExperimentConfig
from procforge.interp import pseudo_address

from conftest import FIXTURES

GRAIN = str(FIXTURES / "grain_title.bpmn")
ICO = str(FIXTURES / "ico.bpmn")
LRK = str(FIXTURES / "lrk.json")
TITLE = str(FIXTURES / "grain_title.json")
SWAP = str(FIXTURES / "grain_swap.jsonl")
REFUND = str(FIXTURES / "grain_refund.jsonl")
LRK_TEXT = pathlib.Path(LRK).read_text()
TITLE_TEXT = pathlib.Path(TITLE).read_text()


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", GRAIN, "--registry", LRK,
                       "--registry", TITLE)
    assert code == 0
    assert out.rstrip().endswith("ok")


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", GRAIN, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["diagnostics"] == []


def test_validate_broken_model_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.bpmn"
    bad.write_text((FIXTURES / "grain_title.bpmn").read_text()
                   .replace('targetRef="t_register"', 'targetRef="ghost"', 1))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "dangling" in out


def test_validate_function_named_like_its_interface_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.bpmn"
    old = '<bcext:function name="balanceOf">'
    text = (FIXTURES / "task_outsourcing.bpmn").read_text()
    assert old in text
    bad.write_text(text.replace(old, '<bcext:function name="LorikeetCoin">'
                                     '<bcext:input name="x" type="uint256"/>'
                                     '</bcext:function>' + old, 1))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "function 'LorikeetCoin' hides interface 'LorikeetCoin'" in out
    code, _, _ = run(capsys, "compile", str(bad), "-o", str(tmp_path / "out"))
    assert code == 1 and not (tmp_path / "out").exists()


def test_validate_json_of_names_that_clash_with_emitted_ones_is_pinned(tmp_path, capsys):
    # the name check meets names as sets of strings, and their order must
    # not reach the diagnostics: tests/test_hash_seeds.py runs this under
    # two hash seeds
    text = (FIXTURES / "task_outsourcing.bpmn").read_text()
    requester = '<bcext:input name="requester" type="address"/>'
    for old, new in [('name="LorikeetCoin"', 'name="marking"'),
                     (requester, requester + '<bcext:input name="preconditionsp" '
                                             'type="uint256"/>')]:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    clash = tmp_path / "clash.bpmn"
    clash.write_text(text)
    assert run(capsys, "validate", str(clash), "--json") == (1, """\
{
  "ok": false,
  "diagnostics": [
    {
      "severity": "error",
      "ref": "itf_lrk",
      "message": "interface 'marking' is hidden by the emitted name 'marking'"
    },
    {
      "severity": "error",
      "ref": "t_deposit",
      "message": "task input 'preconditionsp' collides with the emitted name 'preconditionsp'"
    }
  ]
}
""", "")


def test_missing_input_exits_66(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.bpmn")
    assert code == 66
    assert "cannot read" in err


def test_usage_error_exits_64(capsys):
    assert run(capsys, "frobnicate")[0] == 64
    assert run(capsys)[0] == 64
    assert run(capsys, "simulate", GRAIN)[0] == 64  # --trace is required


def test_parser_is_built_once_and_keeps_no_state(capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    assert parser.parse_args(["validate", GRAIN, "--registry", LRK,
                              "--registry", TITLE]).registry == [LRK, TITLE]
    # append copies its default before appending, so the default stays empty
    assert parser.parse_args(["validate", GRAIN]).registry == []
    assert parser.parse_args(["simulate", GRAIN, "--trace", SWAP, "--prefix"]).prefix
    assert not parser.parse_args(["simulate", GRAIN, "--trace", SWAP]).prefix

    _, with_flags, _ = run(capsys, "validate", GRAIN, "--registry", LRK,
                           "--registry", TITLE, "--json")
    assert json.loads(with_flags)["ok"] is True
    assert run(capsys, "validate", GRAIN) == (0, "ok\n", "")


def test_usage_and_help_are_formatted_at_call_time(capsys, monkeypatch):
    cli.build_parser()  # cached before COLUMNS changes
    usages = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code, _, err = run(capsys, "simulate")
        assert code == 64
        usages[columns] = err[:err.index("procforge simulate: error")]
    assert len(usages["200"].splitlines()) == 1
    assert len(usages["40"].splitlines()) > 1
    assert usages["40"].split() == usages["200"].split()

    code, out, _ = run(capsys, "--help")
    assert code == 0
    for command in ("validate", "compile", "simulate", "conformance"):
        assert command in out


def test_one_shot_process_matches_in_process_main(capsys):
    argv = ["validate", ICO, "--registry", LRK]
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(procforge.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "procforge.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0 and out.endswith("ok\n")


@pytest.mark.parametrize("argv", [
    ["validate", GRAIN],
    ["simulate", GRAIN, "--registry", LRK, "--registry", TITLE, "--trace", SWAP],
    ["conformance", GRAIN, "--registry", LRK, "--registry", TITLE],
], ids=["validate", "simulate", "conformance"])
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(procforge.__file__).parent.parent))
    # a pipe with no reader, as "procforge ... | head" leaves once head has
    # its lines
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "procforge.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_a_closed_stdout_leaves_no_descriptor_open(monkeypatch, capsys):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count the open descriptors in")
    argv = ["simulate", GRAIN, "--registry", LRK, "--registry", TITLE, "--trace", SWAP]
    opened = []
    for _ in range(4):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(argv) == 1
            monkeypatch.undo()
        opened.append(len(os.listdir("/proc/self/fd")))
    # the first call may open what later calls reuse
    assert opened[1:] == [opened[0]] * 3, opened
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("model, trace, code, expected", [
    # a raw U+2028 inside a JSON string is no line break
    (ICO, '{"task": "Regist\u2028ration"}\n', 2,
     "  Regist\u2028ration: ?\nclassification: NonConforming(0)\n"),
    # the "\r" of a CRLF line is JSON whitespace
    (GRAIN, pathlib.Path(SWAP).read_text().replace("\n", "\r\n"), 0,
     "classification: Conforming\n"),
    # a line's number counts the "\n"s before it, and no other break
    (ICO, '{"task": "Sale\u2029opened"}\r\n\x0c\n{"task": "x\x85y"}\nnot json\n', 1,
     "error: {trace}: line 4: Expecting value: line 1 column 1 (char 0)\n"),
], ids=["u2028-in-a-string", "crlf", "error-line-counts-newlines"])
def test_trace_lines_end_at_newline_only(tmp_path, capsys, model, trace, code, expected):
    path = tmp_path / "t.jsonl"
    path.write_bytes(trace.encode())
    got, out, err = run(capsys, "simulate", model, "--registry", LRK, "--registry", TITLE,
                        "--trace", str(path))
    assert got == code
    assert expected.format(trace=path) in out + err


def test_compile_writes_units(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    code, out, _ = run(capsys, "compile", GRAIN, "--registry", LRK,
                       "--registry", TITLE, "-o", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["GrainTitleRegistry.sol", "LorikeetCoin.sol",
                     "ProcessFactory.sol"]
    assert all(str(out_dir / n) in out for n in names)


@pytest.mark.parametrize("registries, clash", [
    (["token"], "ProcessFactory.sol"),  # a token named "Process Factory"
    ([LRK, LRK], "LorikeetCoin.sol"),
], ids=["token-and-process", "one-spec-twice"])
def test_compile_refuses_two_units_of_one_file_name(tmp_path, capsys, registries, clash):
    token = tmp_path / "token.json"
    token.write_text(json.dumps({**json.loads(pathlib.Path(LRK).read_text()),
                                 "name": "Process Factory"}))
    argv = [a for r in registries for a in ("--registry", str(token) if r == "token" else r)]
    out_dir = tmp_path / "gen"
    code, out, err = run(capsys, "compile", GRAIN, *argv, "-o", str(out_dir))
    assert (code, out) == (1, "")
    assert err == f"error: two generated units are both named {clash}\n"
    assert not out_dir.exists()


def test_compile_dump_automaton(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    code, out, _ = run(capsys, "compile", GRAIN, "-o", str(out_dir),
                       "--dump-automaton", "--json")
    assert code == 0
    files = json.loads(out)["files"]
    assert str(out_dir / "automaton.txt") in files
    assert "flows: 18" in (out_dir / "automaton.txt").read_text()


def test_simulate_swap_trace(capsys):
    code, out, _ = run(capsys, "simulate", GRAIN, "--registry", LRK,
                       "--registry", TITLE, "--trace", SWAP)
    assert code == 0
    assert "classification: Conforming" in out
    assert "final marking: 0x0" in out
    assert out.count("Accepted") == 8


def test_simulate_refund_restores_buyer(capsys):
    code, out, _ = run(capsys, "simulate", GRAIN, "--registry", LRK,
                       "--registry", TITLE, "--trace", REFUND, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["classification"] == "Conforming"
    ledger = next(v for v in obj["registries"].values() if "balances" in v)
    assert ledger["balances"]["0x" + "2" * 40] == 200000


JSON_ESCAPES = '"\\\n\t\x00\x7f\u00e9\u4e2d\U0001f600'
big_ints = st.integers(min_value=-2**300, max_value=2**300)
json_keys = st.one_of(st.text(), st.text(alphabet=JSON_ESCAPES),
                     st.integers(), st.booleans(), st.none(), st.floats())
json_scalars = st.one_of(big_ints, st.booleans(), st.none(), st.text(), st.floats(),
                         st.fractions())


@settings(max_examples=300)
@given(st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(json_keys, inner, max_size=5)),
    max_leaves=40))
@example({"a": [{"b": "x\ny", "c": {}}, []], "c": {1: [2, {"d": None}]},
          "e": {"f": {"0xab": 1, 'q"': 2}}})
@example({"": {"": []}})
@example([{"a": {"b": 1}}])
def test_indented_json_is_json_dumps_byte_for_byte(obj):
    assert cli._json_indented(obj) == json.dumps(obj, indent=2, default=str)


class Level(enum.IntEnum):
    # Enum's text, "Level.HIGH", where json writes the int 2
    HIGH = 2
    __str__ = enum.Enum.__str__
    __format__ = enum.Enum.__format__


@settings(max_examples=300)
@given(st.dictionaries(st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6),
                       big_ints, max_size=8),
       st.dictionaries(st.text(alphabet=JSON_ESCAPES, min_size=1, max_size=3), big_ints,
                       max_size=2),
       st.lists(st.sampled_from([True, False, Level.HIGH]), max_size=2))
def test_indented_json_of_str_to_int_dicts_is_json_dumps_byte_for_byte(obj, escaped, others):
    obj.update(escaped)
    obj.update((f"other{i}", value) for i, value in enumerate(others))
    for o in (obj, {"balances": obj}):
        assert cli._json_indented(o) == json.dumps(o, indent=2, default=str)


def test_indented_json_rejects_the_keys_json_rejects():
    for obj in ({(1, 2): 0}, {"flat": {(1, 2): 0}}, {(1, 2): {"nested": 0}}):
        with pytest.raises(TypeError) as exc:
            json.dumps(obj, indent=2, default=str)
        with pytest.raises(TypeError) as ours:
            cli._json_indented(obj)
        assert str(ours.value) == str(exc.value)


def test_simulate_json_on_a_large_ledger_is_json_dumps(tmp_path, capsys):
    rng = random.Random(3)
    spec = json.loads((FIXTURES / "lrk.json").read_text())
    accounts = spec["initiallyDistributedAccounts"]
    while len(accounts) < 1000:
        digits = "%040x" % rng.getrandbits(160)
        accounts.append({"address": "0x" + (digits.upper() if rng.random() < 0.5 else digits),
                         "amount": str(rng.randint(1, 10**6))})
    spec["totalSupply"] = str(sum(int(a["amount"]) for a in accounts))
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "simulate", GRAIN, "--registry", str(ledger),
                       "--registry", TITLE, "--trace", SWAP, "--json")
    assert code == 0
    obj = json.loads(out)
    # line by line, so that a failure reports the first differing line
    assert out.split("\n") == (json.dumps(obj, indent=2) + "\n").split("\n")
    (lrk,) = (r for r in obj["registries"].values() if "balances" in r)
    balances = lrk["balances"]
    assert len(balances) >= 1000
    assert list(balances) == sorted(balances)
    # the swap: the buyer's deposit goes into escrow, and the model's price
    # (500) from there to its farmer, an account the spec lacks
    (interest,) = (e for e in map(json.loads, pathlib.Path(SWAP).read_text().splitlines())
                   if "deposit" in e["args"])
    buyer, deposit = interest["args"]["buyer"].lower(), interest["args"]["deposit"]
    farmer, price = "0x" + "1" * 40, 500
    expected = {a["address"].lower(): int(a["amount"]) for a in accounts}
    expected[buyer] -= deposit
    expected[GRAIN_PROCESS] = deposit - price
    expected[farmer] = price
    assert balances == expected
    assert lrk["totalSupply"] == int(spec["totalSupply"])


OUTSOURCING = str(FIXTURES / "task_outsourcing.bpmn")


def simulate_ledger(capsys, tmp_path, trace_text, ledger_text=LRK_TEXT):
    """Simulate the outsourcing model on one ledger in both modes, and
    return the exit code, the --json text and the ledger in it. The text
    must be json.dumps(indent=2) of what it holds, and text mode must give
    the same exit code, totalSupply and (account, balance) rows."""
    (tmp_path / "ledger.json").write_text(ledger_text)
    (tmp_path / "trace.jsonl").write_text(trace_text)
    argv = ["simulate", OUTSOURCING, "--registry", str(tmp_path / "ledger.json"),
            "--trace", str(tmp_path / "trace.jsonl")]
    code, out, _ = run(capsys, *argv, "--json")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    (ledger,) = json.loads(out)["registries"].values()
    text_code, text, _ = run(capsys, *argv)
    assert text_code == code
    header = text.index("  ledger ")
    rows = [line.strip().split(": ") for line in text[header:].splitlines()[1:]]
    assert [(a, int(b)) for a, b in rows] == list(ledger["balances"].items())
    assert text[header:].splitlines()[0].endswith(f"totalSupply={ledger['totalSupply']}")
    return code, out, ledger


def test_simulate_writes_an_empty_ledger_as_json_does(tmp_path, capsys):
    spec = json.loads(LRK_TEXT)
    spec.update(totalSupply="0", initiallyDistributedAccounts=[])
    trace = (FIXTURES / "outsourcing_correct.jsonl").read_text()
    code, out, ledger = simulate_ledger(capsys, tmp_path, trace, json.dumps(spec))
    assert code == 2  # the deposit is refused, and its transfer undone
    assert ledger == {"totalSupply": 0, "balances": {}}
    assert '"balances": {}\n' in out


def test_simulate_lists_a_paid_account_in_sorted_order(tmp_path, capsys):
    # the worker enters the ledger after the spec's accounts, when paid
    worker = "0x" + "4" * 40
    assert worker not in LRK_TEXT
    trace = (FIXTURES / "outsourcing_correct.jsonl").read_text()
    code, _, ledger = simulate_ledger(capsys, tmp_path, trace)
    assert code == 0
    assert list(ledger["balances"]) == sorted(ledger["balances"])
    assert list(ledger["balances"])[2] == worker and ledger["balances"][worker] == 300


def test_simulate_lists_a_mixed_case_account_lower_cased(tmp_path, capsys):
    requester = "0xAbCdEf0123456789aBcDeF0123456789AbCdEf01"
    # a deposit short of the price is refunded to the requester
    trace = json.dumps({"task": "Deposit payment",
                        "args": {"amount": 250, "requester": requester},
                        "caller": "0x" + "5" * 40}) + "\n"
    code, _, ledger = simulate_ledger(capsys, tmp_path, trace)
    assert code == 0
    assert ledger["balances"][requester.lower()] == 250
    assert requester not in ledger["balances"]
    assert list(ledger["balances"]) == sorted(ledger["balances"])


def test_simulate_shuffled_trace_exits_2(tmp_path, capsys):
    lines = (FIXTURES / "grain_swap.jsonl").read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "simulate", GRAIN, "--registry", LRK,
                       "--registry", TITLE, "--trace", str(bad))
    assert code == 2
    assert "NonConforming(" in out


def test_simulate_prefix_mode(tmp_path, capsys):
    head = tmp_path / "head.jsonl"
    head.write_text("".join(
        (FIXTURES / "grain_swap.jsonl").read_text().splitlines(True)[:3]))
    assert run(capsys, "simulate", GRAIN, "--registry", LRK, "--registry",
               TITLE, "--trace", str(head))[0] == 2
    assert run(capsys, "simulate", GRAIN, "--registry", LRK, "--registry",
               TITLE, "--trace", str(head), "--prefix")[0] == 0


def test_simulate_unknown_task_in_data_mode_exits_2(tmp_path, capsys):
    trace = tmp_path / "bogus.jsonl"
    trace.write_text('{"task": "Bogus", "args": {}}\n'
                     + (FIXTURES / "grain_swap.jsonl").read_text())
    code, out, _ = run(capsys, "simulate", GRAIN, "--registry", LRK,
                       "--registry", TITLE, "--trace", str(trace))
    assert code == 2
    assert "classification: NonConforming(0)" in out


def test_script_reading_a_variable_set_earlier_in_the_closure(tmp_path, capsys):
    # the data-free closure must not evaluate scripts: `tokens` is bound
    # only by the statement before it
    model = tmp_path / "ico.bpmn"
    model.write_text((FIXTURES / "ico.bpmn").read_text().replace(
        "tokens = amount * rate; amountRaised = amountRaised + amount",
        "tokens = 5; amountRaised = tokens + 1"))
    code, out, _ = run(capsys, "validate", str(model))
    assert code == 0 and out.rstrip().endswith("ok")
    code, out, _ = run(capsys, "conformance", str(model), "--seed", "1",
                       "--mutants", "20")
    assert code == 0 and "correctness: 100%" in out
    trace = tmp_path / "invest.jsonl"
    trace.write_text('{"task": "Investment received"}\n')
    code, out, _ = run(capsys, "simulate", str(model), "--trace", str(trace),
                       "--prefix")
    assert code == 0 and "classification: Conforming" in out


def test_simulate_angelic_when_args_missing(tmp_path, capsys):
    bare = tmp_path / "bare.jsonl"
    names = [json.loads(l)["task"]
             for l in (FIXTURES / "grain_swap.jsonl").read_text().splitlines()]
    bare.write_text("".join(json.dumps({"task": n}) + "\n" for n in names))
    code, out, _ = run(capsys, "simulate", GRAIN, "--trace", str(bare))
    assert code == 0
    assert "classification: Conforming" in out
    assert "final marking" not in out  # no data-mode state report


def test_conformance_summary(capsys, tmp_path):
    report = tmp_path / "r.json"
    code, out, _ = run(capsys, "conformance", GRAIN, "--seed", "42",
                       "--mutants", "20", "--report", str(report))
    assert code == 0
    assert "tasks: 12" in out
    assert "gateways: 3" in out
    assert "traces: 42 (conforming:" in out
    assert "seed: 42" in out
    assert "correctness: 100%" in out
    obj = json.loads(report.read_text())
    assert obj["seed"] == 42 and obj["correctnessPct"] == 100.0


def test_conformance_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("PROCFORGE_SEED", "9")
    code, out, _ = run(capsys, "conformance", GRAIN, "--mutants", "5")
    assert code == 0 and "seed: 9" in out
    monkeypatch.setenv("PROCFORGE_SEED", "nope")
    assert run(capsys, "conformance", GRAIN, "--mutants", "5")[0] == 64


def test_conformance_json_deterministic(capsys):
    _, out1, _ = run(capsys, "conformance", GRAIN, "--seed", "3",
                     "--mutants", "10", "--json")
    _, out2, _ = run(capsys, "conformance", GRAIN, "--seed", "3",
                     "--mutants", "10", "--json")
    a, b = json.loads(out1), json.loads(out2)
    a.pop("elapsedMs"), b.pop("elapsedMs")
    assert a == b


def test_conformance_bad_config_exits_64(capsys):
    assert run(capsys, "conformance", GRAIN, "--bases", "0")[0] == 64
    assert run(capsys, "conformance", GRAIN, "--mutants", "-1") \
        == (64, "", "error: mutants per base must be nonnegative\n")


@pytest.mark.parametrize("bases, mutants", [("1", str(10**6 + 1)), ("2", str(5 * 10**5 + 1)),
                                            ("2", "1" + "0" * 20), ("3", "333334")])
def test_conformance_refuses_more_draws_than_its_bound(capsys, bases, mutants):
    # refused before any draw: the call used to draw until memory ran out
    assert run(capsys, "conformance", GRAIN, "--bases", bases, "--mutants", mutants) \
        == (64, "", "error: bases times mutants per base must be at most 1000000\n")


def test_conformance_takes_draws_up_to_its_bound():
    assert ExperimentConfig(base_traces=2, mutants_per_base=MAX_DRAWS // 2)
    assert ExperimentConfig(base_traces=MAX_DRAWS + 1, mutants_per_base=0)


ICO = str(FIXTURES / "ico.bpmn")
INVESTOR = "0x" + "2" * 40


@pytest.mark.parametrize("args, reason", [
    ({"amount": "abc", "investor": INVESTOR}, "BadArgument"),
    ({"amount": -5, "investor": INVESTOR}, "BadArgument"),
    ({"amount": 5, "investor": "nobody"}, "BadArgument"),
    ({}, "MissingInput"),
    ({"amount": 2**255, "investor": INVESTOR}, "ScriptError"),  # amount * rate overflows
])
def test_simulate_checks_trace_arguments(tmp_path, capsys, args, reason):
    trace = tmp_path / "invest.jsonl"
    trace.write_text(json.dumps({"task": "Investment received", "args": args}) + "\n")
    code, out, _ = run(capsys, "simulate", ICO, "--registry", LRK, "--trace", str(trace),
                       "--prefix")
    assert code == 2
    assert f"Investment received: Rejected ({reason})" in out
    # nothing changed: neither the marking, the variables nor the ledger
    assert "final marking: 0x1" in out
    assert "amountRaised = 0" in out and "tokens = 0" in out
    assert "0x" + "2" * 40 + ": 200000" in out


def _loop_model(tmp_path, bpmn):
    model = tmp_path / "loop.bpmn"
    model.write_text(bpmn)
    return str(model)


def test_simulate_nonterminating_closure_after_task_exits_2(tmp_path, capsys):
    from modelgen import toggle_loop_bpmn
    model = _loop_model(tmp_path, toggle_loop_bpmn(after_task=True))
    trace = tmp_path / "go.jsonl"
    trace.write_text(json.dumps({"task": "Go", "args": {}, "caller": "0x" + "6" * 40}) + "\n")
    code, out, _ = run(capsys, "simulate", model, "--registry", LRK, "--trace", str(trace))
    assert code == 2
    assert "Go: Rejected (NonTerminatingClosure)" in out
    # the transfer bound to "Go" is rolled back with the closure
    assert "0x6666666666666666666666666666666666666666: 600000" in out
    assert "0x" + "1" * 40 not in out


def test_simulate_nonterminating_initial_closure_exits_1(tmp_path, capsys):
    from modelgen import toggle_loop_bpmn
    model = _loop_model(tmp_path, toggle_loop_bpmn(after_task=False))
    trace = tmp_path / "done.jsonl"
    trace.write_text(json.dumps({"task": "Done", "args": {}}) + "\n")
    code, out, err = run(capsys, "simulate", model, "--trace", str(trace))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "closure exceeded 36 firings" in err


@pytest.mark.parametrize("prefix", [[], ["--prefix"]])
@pytest.mark.parametrize("args", [None, {}])
def test_simulate_rejects_a_task_whose_closure_never_settles(tmp_path, capsys, args, prefix):
    # data mode rejects the event when its closure exceeds the cap; the
    # data-free replayer drops the firing, as no sweep ends where it began
    from modelgen import spinning_loop_bpmn
    model = _loop_model(tmp_path, spinning_loop_bpmn(after_task=True))
    trace = tmp_path / "go.jsonl"
    event = {"task": "Go", "caller": "0x" + "6" * 40}
    trace.write_text(json.dumps(event if args is None else dict(event, args=args)) + "\n")
    code, out, err = run(capsys, "simulate", model, "--registry", LRK, "--trace", str(trace),
                         *prefix)
    assert code == 2 and err == ""
    assert ("Go: ?" if args is None else "Go: Rejected (NonTerminatingClosure)") in out
    assert "classification: NonConforming(0)" in out


@pytest.mark.parametrize("prefix", [[], ["--prefix"]])
@pytest.mark.parametrize("args", [None, {}])
def test_simulate_initial_closure_that_never_settles_exits_1(tmp_path, capsys, args, prefix):
    from modelgen import spinning_loop_bpmn
    model = _loop_model(tmp_path, spinning_loop_bpmn(after_task=False))
    trace = tmp_path / "go.jsonl"
    trace.write_text(json.dumps({"task": "Go"} if args is None else
                                {"task": "Go", "args": args}) + "\n")
    code, out, err = run(capsys, "simulate", model, "--trace", str(trace), *prefix)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "initial closure failed" in err


@pytest.mark.parametrize("prefix", [[], ["--prefix"]])
def test_conformance_on_closures_that_never_settle(tmp_path, capsys, prefix):
    from modelgen import spinning_loop_bpmn
    model = _loop_model(tmp_path, spinning_loop_bpmn(after_task=True))
    code, out, err = run(capsys, "conformance", model, "--json", *prefix)
    if prefix:
        assert code == 0 and err == ""
        # the replayer rejects "Go" wherever it comes first, as the chain reverts it
        report = json.loads(out)
        assert {d["replayer"] for d in report["disagreements"]} <= {"NonConforming(0)"}
    else:
        # no trace ends with the zero marking, so there is no base to check
        assert code == 1 and out == ""
        assert err == "error: no conforming base trace\n"
    model = _loop_model(tmp_path, spinning_loop_bpmn(after_task=False))
    code, out, err = run(capsys, "conformance", model, *prefix)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "initial closure failed" in err


def test_conformance_text_prints_the_disagreements_of_the_json_report(tmp_path, capsys):
    # the replayer drops "Go", whose closure never settles; the oracle takes it
    from modelgen import spinning_loop_bpmn
    argv = ["conformance", _loop_model(tmp_path, spinning_loop_bpmn(after_task=True)),
            "--prefix", "--bases", "1", "--mutants", "3"]
    disagreements = json.loads(run(capsys, *argv, "--json")[1])["disagreements"]
    assert [d["traceIndex"] for d in disagreements] == [1, 2, 3]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert [line for line in out.splitlines() if line.startswith("  disagreement")] == [
        f"  disagreement at trace {d['traceIndex']}: replayer={d['replayer']} "
        f"oracle={d['oracle']}" for d in disagreements]


def test_simulate_parked_initial_closure_leaves_done_not_enabled(tmp_path, capsys):
    from modelgen import counting_loop_bpmn
    model = _loop_model(tmp_path, counting_loop_bpmn(after_task=False))
    trace = tmp_path / "done.jsonl"
    trace.write_text(json.dumps({"task": "Done", "args": {}}) + "\n")
    code, out, _ = run(capsys, "simulate", model, "--trace", str(trace))
    # the second sweep ends where it began: the token stays on the loop-back flow
    assert code == 2
    assert "Done: Rejected (NotEnabled)" in out
    assert "final marking: 0x8\n" in out and "  x = 2\n" in out


def test_simulate_parked_closure_after_task_accepts_it(tmp_path, capsys):
    from modelgen import counting_loop_bpmn
    model = _loop_model(tmp_path, counting_loop_bpmn(after_task=True))
    trace = tmp_path / "go.jsonl"
    trace.write_text(json.dumps({"task": "Go", "args": {}, "caller": "0x" + "6" * 40}) + "\n")
    code, out, _ = run(capsys, "simulate", model, "--registry", LRK, "--trace", str(trace),
                       "--prefix")
    assert code == 0
    assert "Go: Accepted" in out
    assert "final marking: 0x10\n" in out and "  x = 2\n" in out
    assert "0x1111111111111111111111111111111111111111: 5\n" in out
    assert "0x6666666666666666666666666666666666666666: 599995\n" in out


OUTSOURCING = str(FIXTURES / "task_outsourcing.bpmn")
CORRECT = str(FIXTURES / "outsourcing_correct.jsonl")
REQUESTER = "0x" + "5" * 40


@pytest.mark.parametrize("line", ['{"task": ["Deposit payment"]}',
                                  '{"task": "Deposit payment", "caller": 5}',
                                  '{"task": "Deposit payment", "caller": "0x+' + "f" * 39 + '"}'],
                         ids=["task-not-a-string", "caller-not-a-string", "caller-malformed"])
def test_simulate_rejects_malformed_trace_fields(tmp_path, capsys, line):
    trace = tmp_path / "t.jsonl"
    trace.write_text(line + "\n")
    code, out, err = run(capsys, "simulate", OUTSOURCING, "--registry", LRK,
                         "--trace", str(trace))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "line 1" in err


@pytest.mark.parametrize("edits", [
    # transfer declared with an extra input
    [('<bcext:input name="amount" type="uint256"/>\n          <bcext:output',
      '<bcext:input name="amount" type="uint256"/>\n          '
      '<bcext:input name="memo" type="uint256"/>\n          <bcext:output'),
     ('<bcext:bindIn param="amount"', '<bcext:bindIn param="memo" source="1"/>'
                                      '<bcext:bindIn param="amount"')],
    # balanceOf declared with two returns, the second bound: the deposit is undone
    [('<bcext:output name="balance" type="uint256"/>',
      '<bcext:output name="balance" type="uint256"/><bcext:output name="more" type="uint256"/>'),
     ('return="balance"', 'return="more"')],
    # an address where the ledger takes an amount
    [('<bcext:input name="amount" type="uint256"/>\n          <bcext:output',
      '<bcext:input name="amount" type="address"/>\n          <bcext:output'),
     ('<bcext:bindIn param="amount" source="amount"/>',
      '<bcext:bindIn param="amount" source="requester"/>'),
     ('source="price"', 'source="worker"'), ('source="escrowBalance"', 'source="worker"')],
    # a uint256 balance declared as an address: the deposit is undone
    [('<bcext:output name="balance" type="uint256"/>',
      '<bcext:output name="balance" type="address"/>'),
     ('<bcext:variable name="escrowBalance" type="uint256"/>',
      '<bcext:variable name="escrowBalance" type="uint256"/>'
      '<bcext:variable name="held" type="address"/>'),
     ('target="escrowBalance"', 'target="held"')],
], ids=["extra-input", "missing-return", "address-as-amount", "int-as-address"])
def test_simulate_rejects_calls_the_registry_cannot_take(tmp_path, capsys, edits):
    text = (FIXTURES / "task_outsourcing.bpmn").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    model = tmp_path / "m.bpmn"
    model.write_text(text)
    assert run(capsys, "validate", str(model))[0] == 0
    code, out, err = run(capsys, "simulate", str(model), "--registry", LRK,
                         "--trace", CORRECT)
    assert code == 2 and err == ""
    assert "Deposit payment: Rejected (RegistryError)" in out
    assert f"{REQUESTER}: 200000" in out
    assert "final marking: 0x1" in out


LRK_ADDRESS = "0xD3E4EBe81b55EA73b559da31ADf2CAc3b254ea11"
BALANCE_OF_FN = """        <bcext:function name="balanceOf">
          <bcext:input name="account" type="address"/>
          <bcext:output name="balance" type="uint256"/>
        </bcext:function>
"""


@pytest.mark.parametrize("address", [LRK_ADDRESS, LRK_ADDRESS.lower()],
                         ids=["same-spelling", "lower-case"])
def test_interfaces_naming_one_contract_address_share_its_registry(tmp_path, capsys, address):
    # balanceOf moves to a second interface of the same token, which the
    # deposit check calls: on chain both call one contract
    text = (FIXTURES / "task_outsourcing.bpmn").read_text()
    view = ('<bcext:smartContractInterface id="itf_view" name="LorikeetView"\n'
            f'          contractAddress="{address}">\n{BALANCE_OF_FN}'
            '      </bcext:smartContractInterface>\n')
    check = '<bcext:invocation sourceTask="s_check" targetInterface="itf_lrk"'
    for old, new in [(BALANCE_OF_FN, ""), ("      </bcext:smartContractInterface>\n",
                                           "      </bcext:smartContractInterface>\n" + view),
                     (check, check.replace("itf_lrk", "itf_view"))]:
        assert text.count(old) == 1
        text = text.replace(old, new)
    model = tmp_path / "m.bpmn"
    model.write_text(text)
    assert run(capsys, "validate", str(model)) == (0, "ok\n", "")
    code, out, err = run(capsys, "simulate", str(model), "--registry", LRK, "--trace", CORRECT)
    assert (code, err) == (0, "") and "classification: Conforming" in out
    outputs = []
    for m in (str(model), OUTSOURCING):
        code, out, _ = run(capsys, "simulate", m, "--registry", LRK, "--trace", CORRECT, "--json")
        assert code == 0
        outputs.append({k: json.loads(out)[k] for k in ("registries", "variables", "events")})
    assert outputs[0] == outputs[1]


def test_simulate_failed_call_in_initial_closure_exits_1(tmp_path, capsys):
    # "Pay worker" runs straight after the start event, before the process
    # holds any LRK
    text = (FIXTURES / "task_outsourcing.bpmn").read_text()
    model = tmp_path / "m.bpmn"
    model.write_text(text.replace('sourceRef="start" targetRef="t_deposit"',
                                  'sourceRef="start" targetRef="s_pay"', 1)
                         .replace('sourceRef="s_pay" targetRef="end_done"',
                                  'sourceRef="s_pay" targetRef="t_deposit"', 1)
                         .replace('sourceRef="t_work" targetRef="s_pay"',
                                  'sourceRef="t_work" targetRef="end_done"', 1))
    assert run(capsys, "validate", str(model))[0] == 0
    trace = tmp_path / "t.jsonl"
    trace.write_text(json.dumps({"task": "Deposit payment", "args": {}}) + "\n")
    code, out, err = run(capsys, "simulate", str(model), "--registry", LRK,
                         "--trace", str(trace))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "initial closure failed" in err


GRAIN_TEXT = pathlib.Path(GRAIN).read_text()
MINT_FN = ('<bcext:function name="mint"><bcext:input name="to" type="address"/>'
           '<bcext:input name="amount" type="uint256"/>'
           '<bcext:output name="success" type="bool"/></bcext:function>')
INTEREST_CALL = ('<bcext:invocation sourceTask="t_interest" targetInterface="itf_lrk"\n'
                 '                        fnName="transfer">')
UPDATE_WEIGHT_FN = ('<bcext:function name="record_update_weight">'
                    '<bcext:input name="record_id" type="address"/>'
                    '<bcext:input name="value" type="uint256"/></bcext:function>')
UPDATE_WEIGHT_CALL = ('<bcext:invocation sourceTask="t_swap" targetInterface="itf_title" '
                      'fnName="record_update_weight">'
                      '<bcext:bindIn param="record_id" source="titleId"/>'
                      '<bcext:bindIn param="value" source="grainWeight"/></bcext:invocation>')
# the swap's third call, the second to the title registry
UPDATE_WEIGHT_EDITS = [('<bcext:function name="record_get_owner">',
                        UPDATE_WEIGHT_FN + '<bcext:function name="record_get_owner">'),
                       ('<bcext:invocation sourceTask="t_refund"',
                        UPDATE_WEIGHT_CALL + '<bcext:invocation sourceTask="t_refund"')]
NO_TRANSFER_TITLE = TITLE_TEXT.replace('"isOwnershipTransferEnabled": true',
                                       '"isOwnershipTransferEnabled": false').replace(
    '"isOwnershipTransferEnabledToBPMN": true', '"isOwnershipTransferEnabledToBPMN": false')
GRAIN_PROCESS = pseudo_address("process:grain_title:0")
# the --json output of a trace rejected at the swap, whichever call is refused
SWAP_REJECTED = "ae8b888070a72362e53fdc242a2ae0820752a6d9671f3e0f2d542c8bd9537ad3"


@pytest.mark.parametrize("model_edits, title, failing, digest", [
    # lrk.json is not mintable
    ([('<bcext:function name="balanceOf">', MINT_FN + '<bcext:function name="balanceOf">'),
      (INTEREST_CALL, INTEREST_CALL.replace('"transfer"', '"mint"'))],
     TITLE_TEXT, "Interest to buy title expressed",
     "0a6093385e62718defc5586a161c7f717f138cd2eda02e1390371e592f207fcf"),
    # weight is not updatable; the call follows the swap's two others
    (UPDATE_WEIGHT_EDITS, TITLE_TEXT, "Asset Swap", SWAP_REJECTED),
    # ownership transfer is disabled
    ([], NO_TRANSFER_TITLE, "Asset Swap", SWAP_REJECTED),
], ids=["mint-not-mintable", "update-not-updatable", "transfer-disabled"])
def test_a_bound_call_to_a_function_the_spec_disables_is_rejected(
        tmp_path, capsys, model_edits, title, failing, digest):
    # as the emitted registry has no such function, the call reverts, and
    # the whole invocation with it
    text = GRAIN_TEXT
    for old, new in model_edits:
        assert old in text
        text = text.replace(old, new)
    model, spec = tmp_path / "m.bpmn", tmp_path / "title.json"
    model.write_text(text)
    spec.write_text(title)
    argv = ["simulate", str(model), "--registry", LRK, "--registry", str(spec), "--trace", SWAP]
    assert run(capsys, "validate", *argv[1:-2])[0] == 0
    code, out, err = run(capsys, *argv)
    assert code == 2 and err == ""
    assert f"  {failing}: Rejected (RegistryError)\n" in out
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2 and err == ""
    registries = json.loads(out)["registries"]
    # the title is still the process's, and nobody was paid
    assert registries["0xa9998dbe75d795556ea821e37cd2de1f373bfd91"]["0x" + "3" * 40]["owner"] \
        == GRAIN_PROCESS
    balances = registries["0xd3e4ebe81b55ea73b559da31adf2cac3b254ea11"]["balances"]
    assert "0x" + "1" * 40 not in balances
    assert balances.get(GRAIN_PROCESS, 0) == (0 if failing.startswith("Interest") else 500)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_record_interface_declaring_balance_of_matches_record_spec(tmp_path, capsys):
    # the emitted record registry has a balanceOf too
    old = '<bcext:function name="record_get_owner">'
    text = (FIXTURES / "grain_title.bpmn").read_text()
    assert old in text
    model = tmp_path / "m.bpmn"
    model.write_text(text.replace(old, '<bcext:function name="balanceOf">'
                                       '<bcext:input name="owner" type="address"/>'
                                       '<bcext:output name="count" type="uint256"/>'
                                       '</bcext:function>' + old))
    code, out, _ = run(capsys, "simulate", str(model), "--registry", LRK,
                       "--registry", TITLE, "--trace", SWAP)
    assert code == 0
    assert "classification: Conforming" in out


def test_unbound_interfaces_take_the_first_unused_spec_of_their_kind(tmp_path, capsys):
    unbound = str(FIXTURES / "grain_title_unbound.bpmn")
    argv = ["simulate", unbound, "--registry", TITLE, "--registry", LRK,
            "--trace", SWAP, "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    registries = json.loads(out)["registries"]
    # the i-th spec sits at registry:<i>, whatever the interface order
    assert list(registries) == [pseudo_address("registry:1"), pseudo_address("registry:0")]
    assert registries[pseudo_address("registry:1")]["totalSupply"] == 1000000
    assert list(registries[pseudo_address("registry:0")]) == ["0x" + "3" * 40]
    # a spec that no interface takes is built but not deployed
    code, out_extra, _ = run(capsys, *argv, "--registry", str(FIXTURES / "certificate.json"))
    assert code == 0 and out_extra == out
    assert pseudo_address("registry:2") not in out_extra
    code, out, err = run(capsys, "simulate", unbound, "--registry", LRK, "--trace", SWAP)
    assert code == 1 and out == ""
    assert err == "error: no registry spec matches interface 'GrainTitleRegistry'\n"


# task t2 is named "Foo" and the later task t1 is named "t2"
NAME_IS_ANOTHER_ID = """<?xml version="1.0" encoding="UTF-8"?>
<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="defs_names">
  <process id="names">
    <startEvent id="start"/>
    <userTask id="t2" name="Foo"/>
    <userTask id="t1" name="t2"/>
    <endEvent id="end"/>
    <sequenceFlow id="f1" sourceRef="start" targetRef="t2"/>
    <sequenceFlow id="f2" sourceRef="t2" targetRef="t1"/>
    <sequenceFlow id="f3" sourceRef="t1" targetRef="end"/>
  </process>
</definitions>
"""


def test_display_name_beats_task_id(tmp_path, capsys):
    model = tmp_path / "names.bpmn"
    model.write_text(NAME_IS_ANOTHER_ID)
    code, out, _ = run(capsys, "conformance", str(model), "--seed", "1", "--json")
    report = json.loads(out)
    assert code == 0 and report["correctnessPct"] == 100 and report["disagreements"] == []
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"task": "Foo", "args": {}}\n{"task": "t2", "args": {}}\n')
    code, out, _ = run(capsys, "simulate", str(model), "--trace", str(trace))
    assert code == 0 and "classification: Conforming" in out


# no user or default task: the only conforming trace is the empty one
SCRIPT_ONLY = """<?xml version="1.0" encoding="UTF-8"?>
<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"
             xmlns:bcext="urn:procforge:bcext:1" id="defs_script">
  <process id="script_only">
    <extensionElements>
      <bcext:variables>
        <bcext:variable name="x" type="uint256"/>
      </bcext:variables>
    </extensionElements>
    <startEvent id="start"/>
    <scriptTask id="s"><script>x = 1</script></scriptTask>
    <endEvent id="end"/>
    <sequenceFlow id="f1" sourceRef="start" targetRef="s"/>
    <sequenceFlow id="f2" sourceRef="s" targetRef="end"/>
  </process>
</definitions>
"""


def test_conformance_without_external_tasks_exits_1(tmp_path, capsys):
    model = tmp_path / "script.bpmn"
    model.write_text(SCRIPT_ONLY)
    assert run(capsys, "validate", str(model))[0] == 0
    assert run(capsys, "conformance", str(model), "--mutants", "0")[0] == 0
    # no task name to add, nothing to remove or swap: no mutant exists
    code, out, err = run(capsys, "conformance", str(model))
    assert code == 1 and out == ""
    assert err == "error: no mutant distinct from the base traces\n"


def xor_bpmn(branches: int) -> str:
    """start, an XOR split to the user tasks T00, T01, ..., an XOR join and
    end; the flow to task i is guarded x == i, and the last one's is the
    default."""
    parts = []
    for i in range(branches):
        t = f"t{i:02d}"
        parts.append(f'<userTask id="{t}" name="T{i:02d}"/>')
        if i == branches - 1:
            parts.append(f'<sequenceFlow id="in{i}" sourceRef="split" targetRef="{t}" '
                         'default="true"/>')
        else:
            parts.append(f'<sequenceFlow id="in{i}" sourceRef="split" targetRef="{t}">'
                         f'<conditionExpression>x == {i}</conditionExpression></sequenceFlow>')
        parts.append(f'<sequenceFlow id="out{i}" sourceRef="{t}" targetRef="join"/>')
    body = "\n    ".join(parts)
    return f"""<?xml version="1.0" encoding="UTF-8"?>
<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"
             xmlns:bcext="urn:procforge:bcext:1" id="defs_xor">
  <process id="xor">
    <extensionElements>
      <bcext:variables>
        <bcext:variable name="x" type="uint256"/>
      </bcext:variables>
    </extensionElements>
    <startEvent id="start"/>
    <exclusiveGateway id="split"/>
    <exclusiveGateway id="join"/>
    <endEvent id="end"/>
    <sequenceFlow id="f1" sourceRef="start" targetRef="split"/>
    <sequenceFlow id="f2" sourceRef="join" targetRef="end"/>
    {body}
  </process>
</definitions>
"""


@pytest.mark.parametrize("options, totals", [
    # as prefixes the bases are () and T00, ..., T10: the one edit of ()
    # that gives no base adds T11, one draw in 36, so each of the 250
    # mutants of () is the conforming prefix T11
    (["--prefix", "--bases", "12"], {"conforming": 12 + 250, "nonConforming": 2750}),
    # with T11 a base too, every edit of () gives a base: () has no
    # mutant, and the other 12 bases give 250 each
    (["--prefix", "--bases", "13"], {"conforming": 13, "nonConforming": 3000}),
    # the bases T00, ..., T11: no mutant of them conforms
    (["--bases", "12"], {"conforming": 12, "nonConforming": 3000}),
], ids=["prefix", "prefix-exhausts-a-base", "strict"])
def test_conformance_draws_until_every_edit_gives_a_base(tmp_path, capsys, options, totals):
    model = tmp_path / "xor12.bpmn"
    model.write_text(xor_bpmn(12))
    code, out, _ = run(capsys, "conformance", str(model), *options, "--seed", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["totals"] == totals
    assert report["correctnessPct"] == 100 and report["disagreements"] == []


@pytest.mark.parametrize("command, target", [
    (["conformance", GRAIN, "--mutants", "5", "--report"], "{dir}"),
    (["compile", GRAIN, "-o"], "{file}"),
    (["compile", GRAIN, "-o"], "{file}/sub"),
], ids=["report-is-a-directory", "output-is-a-file", "output-under-a-file"])
def test_unwritable_output_is_one_error_line(tmp_path, capsys, command, target):
    (tmp_path / "f").write_text("")
    path = target.format(dir=tmp_path, file=tmp_path / "f")
    code, out, err = run(capsys, *command, path)
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# Input that is not UTF-8, nested too deeply or otherwise malformed: one
# error line and exit 1, never a traceback


ICO_TEXT = (FIXTURES / "ico.bpmn").read_text()
DEEP_CONDITION = ICO_TEXT.replace("amountRaised >= cap",
                                  "(" * 400 + "amountRaised >= cap" + ")" * 400, 1)
FLAT_CONDITION = ICO_TEXT.replace("amountRaised >= cap",
                                  "amountRaised" + " + 1" * 3000 + " >= cap", 1)
DEEP_JSON = "[" * 100000 + "]" * 100000
LONE_SURROGATE_SPEC = (FIXTURES / "lrk.json").read_text().replace(
    '"name": "Lorikeet Coin"', '"name": "\\ud800"', 1)


@pytest.mark.parametrize("model, spec, trace, reason", [
    (b"\xff" + ICO_TEXT.encode(), None, None, "m.bpmn: not UTF-8 (byte 0)"),
    (ICO_TEXT.encode(), b'{"name": "\xff"}', None, "s.json: not UTF-8 (byte 10)"),
    (ICO_TEXT.encode(), None, b'{"task": "\xff"}\n', "t.jsonl: not UTF-8 (byte 10)"),
    (DEEP_CONDITION.encode(), None, None, "expression nested deeper than 32 levels"),
    (FLAT_CONDITION.encode(), None, None, "expression nested deeper than 32 levels"),
    (ICO_TEXT.replace("amountRaised >= cap", "amountRaised >= " + "1" * 5000, 1).encode(),
     None, None, "integer literal has too many digits"),
    (ICO_TEXT.replace('initial="0"', 'initial="' + "1" * 5000 + '"', 1).encode(), None, None,
     "integer literal of 5000 characters has too many digits"),
    (ICO_TEXT.encode(), DEEP_JSON.encode(), None, "s.json: invalid JSON: nested too deeply"),
    (ICO_TEXT.encode(), None, ('{"task": "x", "args": ' + DEEP_JSON + "}\n").encode(),
     "t.jsonl: line 1: nested too deeply"),
    (ICO_TEXT.encode(), LONE_SURROGATE_SPEC.encode(), None, "a string holds a lone surrogate"),
    (ICO_TEXT.replace("</script>", "</script><script>tokens = 0</script>", 1).encode(), None,
     None, "scriptTask 's_alloc' has a second script"),
    (ICO_TEXT.encode(), pathlib.Path(LRK).read_bytes(), b'{"task": "\\udc00", "args": {}}\n',
     "t.jsonl: line 1: a string holds a lone surrogate"),
], ids=["model-not-utf8", "spec-not-utf8", "trace-not-utf8", "400-parentheses",
        "3000-term-sum", "5000-digit-literal", "5000-digit-initial", "deep-json-spec",
        "deep-json-trace", "lone-surrogate-spec", "second-script", "lone-surrogate-trace"])
def test_malformed_input_is_one_error_line(tmp_path, capsys, model, spec, trace, reason):
    (tmp_path / "m.bpmn").write_bytes(model)
    (tmp_path / "t.jsonl").write_bytes(trace or b'{"task": "Investment received"}\n')
    argv = ["simulate", str(tmp_path / "m.bpmn"), "--trace", str(tmp_path / "t.jsonl")]
    if spec is not None:
        (tmp_path / "s.json").write_bytes(spec)
        argv += ["--registry", str(tmp_path / "s.json")]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err


LONG_NUMBER = "9" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("spec, trace, line", [
    (None, '{"task": "Investment received", "args": {"amount": %s}}\n' % LONG_NUMBER,
     "t.jsonl: line 1: a number has more than %d digits"),
    (LRK_TEXT.replace('"decimals": 2,', '"decimals": %s,' % LONG_NUMBER, 1), None,
     "s.json: a number has more than %d digits"),
], ids=["trace-line", "spec-field"])
def test_over_long_json_number_is_the_tools_own_error(tmp_path, capsys, spec, trace, line):
    """valid JSON that the program does not read: neither invalid JSON nor
    Python's advice on its limit"""
    (tmp_path / "m.bpmn").write_text(ICO_TEXT)
    (tmp_path / "t.jsonl").write_text(trace or '{"task": "Investment received"}\n')
    argv = ["simulate", str(tmp_path / "m.bpmn"), "--trace", str(tmp_path / "t.jsonl")]
    if spec is not None:
        assert LONG_NUMBER in spec
        (tmp_path / "s.json").write_text(spec)
        argv += ["--registry", str(tmp_path / "s.json")]
    message = line % sys.get_int_max_str_digits()
    assert run(capsys, *argv) == (1, "", f"error: {tmp_path}/{message}\n")


A6 = "0x" + "66" * 20
AB = "0x" + "ab" * 20


@pytest.mark.parametrize("model, spec, line", [
    (ICO_TEXT.replace("</definitions>", '<process id="other"/></definitions>'), None,
     "m.bpmn: multiple process elements; expected exactly one"),
    (ICO_TEXT.replace("<process ", "<collaboration ").replace("</process>", "</collaboration>"),
     None, "m.bpmn: no process element found"),
    (ICO_TEXT.replace("<endEvent ", "<bcext:timer/><endEvent "), None,
     "m.bpmn: unknown bcext element 'timer'"),
    (ICO_TEXT.replace("<endEvent ", '<x:note xmlns:x="urn:other"/><endEvent '), None,
     "m.bpmn: foreign element '{urn:other}note' inside process"),
    (ICO_TEXT, LRK_TEXT.replace('"minterAddresses": []', f'"minterAddresses": "{A6}"'),
     "s.json: minterAddresses: must be a list of addresses"),
    (ICO_TEXT, json.dumps({**json.loads(LRK_TEXT), "initiallyDistributedAccounts":
                           {"address": A6, "amount": "1000000"}}),
     "s.json: initiallyDistributedAccounts: must be a list"),
    # addresses that differ only in case are one address
    (ICO_TEXT, LRK_TEXT.replace('"isBurnable": false', '"isBurnable": true').replace(
        '"burnerAddresses": []', f'"burnerAddresses": ["{AB}", "0x{AB[2:].upper()}"]'),
     "s.json: burnerAddresses: duplicate address"),
    (ICO_TEXT, LRK_TEXT.replace('"Lorikeet Coin"', '""'),
     "s.json: name: must be a nonempty string"),
    (ICO_TEXT, TITLE_TEXT.replace('"Grain Title"', '""'),
     "s.json: name: must be a nonempty string"),
    (ICO_TEXT, LRK_TEXT.replace('"isBurnable": false', '"isBurnable": true'),
     "s.json: burnerAddresses: isBurnable requires burner addresses"),
    (ICO_TEXT, LRK_TEXT.replace('"burnerAddresses": []', f'"burnerAddresses": ["{A6}"]'),
     "s.json: burnerAddresses: burners given but isBurnable is false"),
    (ICO_TEXT, TITLE_TEXT.replace('{"name": "weight", "type": "uint256", "updatable": false, '
                                  '"historyTracked": true}', '"weight"'),
     "s.json: attributes[0]: entries must be attribute objects"),
], ids=["multiple-processes", "no-process", "unknown-bcext", "foreign-element",
        "minters-not-a-list", "distribution-not-a-list", "duplicate-burner", "empty-fungible-name",
        "empty-nonfungible-name", "burnable-without-burners", "burners-not-burnable",
        "attribute-not-an-object"])
def test_reader_error_is_one_error_line(tmp_path, monkeypatch, capsys, model, spec, line):
    (tmp_path / "m.bpmn").write_text(model)
    argv = ["validate", "m.bpmn"]
    if spec is not None:
        assert spec not in (LRK_TEXT, TITLE_TEXT)
        (tmp_path / "s.json").write_text(spec)
        argv += ["--registry", "s.json"]
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {line}\n")


# Model defects that the BPMN reader builds into the model as written: each
# is a validate diagnostic at its ref, and every command exits 1 with the
# report


ITF_LRK2 = '<bcext:smartContractInterface id="itf_lrk2" name="LorikeetCoin"/>'
MODEL_DEFECTS = {  # name: (old, new, ref of the diagnostic)
    "duplicate-node-id": ('<userTask id="t_claim" name="Tokens claimed"/>',
                          '<userTask id="t_claim" name="Tokens claimed"/>'
                          '<userTask id="t_claim" name="Tokens claimed again"/>', "t_claim"),
    "duplicate-flow-id": ('id="f7"', 'id="f6"', "f6"),
    "interface-id-is-a-node-id": ("itf_lrk", "g_cap", "g_cap"),
    "malformed-address": ('name="LorikeetCoin">', 'name="LorikeetCoin" contractAddress="0x123">',
                          "itf_lrk"),
    "unknown-task": ('sourceTask="t_claim"', 'sourceTask="ghost"', "ghost"),
    "unknown-interface": ('targetInterface="itf_lrk"', 'targetInterface="ghost"', "t_claim"),
    "function-name-collision": ('name="Allocate tokens"', 'name="G cap"', "g_cap"),
    "duplicate-interface-name": ("</bcext:smartContractInterface>",
                                 "</bcext:smartContractInterface>" + ITF_LRK2, "itf_lrk2"),
    # a type is emitted as it is written, so this one adds a function pwn
    "parameter-type": ('<bcext:output name="success" type="bool"/>',
                       '<bcext:output name="success" type="bool); function pwn() external; '
                       'function x(uint256"/>', "itf_lrk"),
    # the emitted task function would read and assign its parameter marking
    "reserved-task-input": ('<bcext:input name="investor" type="address"/>',
                            '<bcext:input name="investor" type="address"/>'
                            '<bcext:input name="marking" type="uint256"/>', "t_invest"),
    # the emitted parameter _tokens would hide the slot that s_alloc writes
    "task-input-hides-a-slot": ('<userTask id="t_claim" name="Tokens claimed"/>',
                                '<userTask id="t_claim" name="Tokens claimed"><extensionElements>'
                                '<bcext:input name="_tokens" type="uint256"/>'
                                '</extensionElements></userTask>', "t_claim"),
    # the interface type would shadow the global that a string comparison
    # of the emitted ProcessMonitor calls, keccak256(abi.encodePacked(...))
    "interface-named-keccak256": ('name="LorikeetCoin">', 'name="keccak256">', "itf_lrk"),
}
DEFECT_MODELS = {name: ICO_TEXT.replace(old, new) for name, (old, new, _) in MODEL_DEFECTS.items()}


@pytest.mark.parametrize("defect", list(MODEL_DEFECTS))
def test_model_defects_are_validate_diagnostics(tmp_path, capsys, defect):
    model, trace = tmp_path / "m.bpmn", tmp_path / "t.jsonl"
    model.write_text(DEFECT_MODELS[defect])
    trace.write_text('{"task": "Investment received"}\n')
    ref = MODEL_DEFECTS[defect][2]
    code, out, err = run(capsys, "validate", str(model), "--json")
    assert code == 1 and err == ""
    assert {"severity": "error", "ref": ref} in [
        {"severity": d["severity"], "ref": d["ref"]} for d in json.loads(out)["diagnostics"]]
    for command, *extra in (["validate"], ["compile", "-o", str(tmp_path / "out")],
                            ["simulate", "--trace", str(trace)], ["conformance"]):
        code, out, err = run(capsys, command, str(model), "--registry", LRK, *extra)
        assert code == 1 and f"error: [{ref}] " in out + err, command
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("defect", ["parameter-type", "reserved-task-input",
                                    "task-input-hides-a-slot", "interface-named-keccak256"])
def test_validate_and_compile_report_one_error(tmp_path, capsys, defect):
    model = tmp_path / "m.bpmn"
    model.write_text(DEFECT_MODELS[defect])
    for command, *extra in (["validate"], ["compile", "-o", str(tmp_path / "out")]):
        code, out, err = run(capsys, command, str(model), *extra)
        assert code == 1 and (out + err).count("error: ") == 1, command
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# Fuzzing the CLI boundary: whatever the input files hold, main returns
# one of the documented exit codes and no exception escapes


INVESTOR = "0x" + "1" * 40
# each fixture model with the registry specs it needs and events of traces
# that run it (two made up here, as no trace of ico or quality_tracing is kept)
FIXTURE_CASES = [
    (name, [(FIXTURES / spec).read_text() for spec in specs],
     [json.loads(line) for t in trace_files for line in (FIXTURES / t).read_text().splitlines()]
     + events)
    for name, specs, trace_files, events in [
        ("grain_title", ["lrk.json", "grain_title.json"],
         ["grain_swap.jsonl", "grain_refund.jsonl"], []),
        ("grain_title_unbound", ["lrk.json", "grain_title.json"], ["grain_swap.jsonl"], []),
        ("ico", ["lrk.json"], [],
         [{"task": "Investment received", "args": {"amount": 5, "investor": INVESTOR}},
          {"task": "Tokens claimed", "args": {}, "caller": INVESTOR}]),
        ("quality_tracing", ["certificate.json"], [],
         [{"task": "Goods produced", "args": {"batchReport": "ok"}},
          {"task": "Inspection performed", "args": {"verdict": "pass"}}]),
        ("task_outsourcing", ["lrk.json"],
         ["outsourcing_correct.jsonl", "outsourcing_wrong.jsonl"], []),
    ]]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)
# values that mean something somewhere in a model, a spec or a trace
tokens = st.sampled_from([
    "", "0", "-1", "7", "1" * 80, "0x" + "1" * 40, "0x" + "5" * 40, "true", "false",
    "uint256", "int256", "bool", "address", "string", "single", "distributed",
    "amount", "price", "x", "processAddress", "record_create", "record_update_weight",
    "transfer", "balanceOf", "start", "end", "t_deposit", "g_split", "Deposit payment",
    "x + 1", "a &amp;&amp; !b", "(x", "1 / 0", "-x", '"s"', "x := 1"]) | st.text(max_size=8)
VALUE_RE = re.compile(r'"([^"]*)"|>([^<]+)<')


def _mutated_model(draw, text: str) -> bytes:
    """text with a few attribute values, texts or lines replaced, dropped
    or repeated."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        op = draw(st.sampled_from(["value", "value", "drop-line", "repeat-line"]))
        if op == "value":
            m = draw(st.sampled_from(list(VALUE_RE.finditer(text))))
            g = 1 if m.group(1) is not None else 2
            text = text[:m.start(g)] + draw(tokens) + text[m.end(g):]
        else:
            lines = text.splitlines()
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [] if op == "drop-line" else [lines[k]] * 2
            text = "\n".join(lines)
    return text.encode("utf-8", "surrogatepass")


def _mutated_spec(draw, text: str) -> bytes:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40))
    spec = json.loads(text)
    for key in draw(st.lists(st.sampled_from(sorted(spec)), max_size=2)
                    if draw(st.integers(0, 2)) == 0 else st.just([])):
        if draw(st.booleans()):
            spec.pop(key, None)
        else:
            spec[key] = draw(json_values | tokens)
    return json.dumps(spec).encode()


def _mutated_trace(draw, events) -> bytes:
    lines = []
    for event in draw(st.lists(st.sampled_from(events), max_size=6)):
        event = dict(event)
        for key in draw(st.lists(st.sampled_from(["task", "args", "caller"]), max_size=2)
                        if draw(st.integers(0, 3)) == 0 else st.just([])):
            event[key] = draw(json_values | tokens
                              | st.dictionaries(tokens, json_values | tokens, max_size=3))
        lines.append(json.dumps(event) if draw(st.integers(0, 9)) else draw(st.text(max_size=20)))
    return "\n".join(lines).encode("utf-8", "surrogatepass")


@st.composite
def cli_inputs(draw):
    """(model, registry specs, trace) drawn from one fixture case."""
    name, specs, events = draw(st.sampled_from(FIXTURE_CASES))
    model = _mutated_model(draw, (FIXTURES / f"{name}.bpmn").read_text())
    specs = [_mutated_spec(draw, spec) for spec in specs if draw(st.integers(0, 9))]
    return model, specs, _mutated_trace(draw, events)


ico = ICO_TEXT.encode()
lrk = (FIXTURES / "lrk.json").read_bytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=st.sampled_from(["validate", "compile", "simulate", "conformance"]),
       inputs=cli_inputs(),
       flags=st.lists(st.sampled_from(["--json", "--prefix"]), unique=True))
@example(command="validate", inputs=(b"\xff" + ico, [], b""), flags=[])
@example(command="validate", inputs=(DEEP_CONDITION.encode(), [], b""), flags=[])
@example(command="validate", inputs=(FLAT_CONDITION.encode(), [], b""), flags=[])
@example(command="validate", inputs=(ico, [DEEP_JSON.encode()], b""), flags=[])
@example(command="compile", inputs=(ico, [LONE_SURROGATE_SPEC.encode()], b""), flags=[])
@example(command="simulate", flags=[], inputs=(
    ico, [lrk], b'{"task": "Investment received", "args": {"amount": "\\ud800"}}'))
@example(command="compile", inputs=(DEFECT_MODELS["malformed-address"].encode(), [lrk], b""),
         flags=[])
@example(command="simulate", flags=["--json"], inputs=(
    DEFECT_MODELS["unknown-interface"].encode(), [lrk], b'{"task": "Tokens claimed", "args": {}}'))
@example(command="conformance", flags=[], inputs=(
    DEFECT_MODELS["duplicate-flow-id"].encode(), [lrk], b""))
def test_cli_exits_with_a_documented_code_on_any_input(capsys, command, inputs, flags):
    model, specs, trace = inputs
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        (work / "m.bpmn").write_bytes(model)
        (work / "t.jsonl").write_bytes(trace)
        argv = [command, str(work / "m.bpmn")] + [
            f for f in flags if command in ("simulate", "conformance") or f == "--json"]
        for i, spec in enumerate(specs):
            (work / f"s{i}.json").write_bytes(spec)
            argv += ["--registry", str(work / f"s{i}.json")]
        if command == "compile":
            argv += ["-o", str(work / "out")]
        elif command == "simulate":
            argv += ["--trace", str(work / "t.jsonl")]
        elif command == "conformance":
            argv += ["--mutants", "5"]
        code = main(argv)
        capsys.readouterr()
    assert code in (0, 1, 2, 64, 66)
