import json

import pytest

from procforge.cli import main

from conftest import FIXTURES

GRAIN = str(FIXTURES / "grain_title.bpmn")
LRK = str(FIXTURES / "lrk.json")
TITLE = str(FIXTURES / "grain_title.json")
SWAP = str(FIXTURES / "grain_swap.jsonl")
REFUND = str(FIXTURES / "grain_refund.jsonl")


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


def test_missing_input_exits_66(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.bpmn")
    assert code == 66
    assert "cannot read" in err


def test_usage_error_exits_64(capsys):
    assert run(capsys, "frobnicate")[0] == 64
    assert run(capsys)[0] == 64
    assert run(capsys, "simulate", GRAIN)[0] == 64  # --trace is required


def test_compile_writes_units(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    code, out, _ = run(capsys, "compile", GRAIN, "--registry", LRK,
                       "--registry", TITLE, "-o", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["GrainTitleRegistry.sol", "LorikeetCoin.sol",
                     "ProcessFactory.sol"]
    assert all(str(out_dir / n) in out for n in names)


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


ICO = str(FIXTURES / "ico.bpmn")
INVESTOR = "0x" + "2" * 40


@pytest.mark.parametrize("args, reason", [
    ({"amount": "abc", "investor": INVESTOR}, "BadArgument"),
    ({"amount": -5, "investor": INVESTOR}, "BadArgument"),
    ({"amount": 5, "investor": "nobody"}, "BadArgument"),
    ({}, "MissingInput"),
])
def test_simulate_checks_trace_arguments(tmp_path, capsys, args, reason):
    trace = tmp_path / "invest.jsonl"
    trace.write_text(json.dumps({"task": "Investment received", "args": args}) + "\n")
    code, out, _ = run(capsys, "simulate", ICO, "--registry", LRK, "--trace", str(trace),
                       "--prefix")
    assert code == 2
    assert f"Investment received: Rejected ({reason})" in out


def _loop_model(tmp_path, after_task):
    from modelgen import counting_loop_bpmn
    model = tmp_path / "loop.bpmn"
    model.write_text(counting_loop_bpmn(after_task))
    return str(model)


def test_simulate_nonterminating_closure_after_task_exits_2(tmp_path, capsys):
    model = _loop_model(tmp_path, after_task=True)
    trace = tmp_path / "go.jsonl"
    trace.write_text(json.dumps({"task": "Go", "args": {}, "caller": "0x" + "6" * 40}) + "\n")
    code, out, _ = run(capsys, "simulate", model, "--registry", LRK, "--trace", str(trace))
    assert code == 2
    assert "Go: Rejected (NonTerminatingClosure)" in out
    assert "0x6666666666666666666666666666666666666666: 600000" in out


def test_simulate_nonterminating_initial_closure_exits_1(tmp_path, capsys):
    model = _loop_model(tmp_path, after_task=False)
    trace = tmp_path / "done.jsonl"
    trace.write_text(json.dumps({"task": "Done", "args": {}}) + "\n")
    code, out, err = run(capsys, "simulate", model, "--trace", str(trace))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "closure exceeded" in err


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
