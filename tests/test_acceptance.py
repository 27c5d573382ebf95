"""End-to-end acceptance checks, one test per shipping criterion.

Each test is self-contained and asserts exact values (zero tolerance);
run with -v to get one pass/fail line per criterion.
"""

import json
import random
import re
import shutil
import subprocess
import time
from pathlib import Path

import pytest

from procforge import codegen, harness
from procforge.cli import main
from procforge.harness import _saturate, step
from procforge.interp import FungibleLedger, RegistryError, Unauthorized
from procforge.ir import NodeKind
from procforge.marking import compile_marking, eager_closure_nondet, enabled_external
from procforge.registry import FungibleRegistrySpec

from conftest import FIXTURES, GOLDEN, load_model
from modelgen import random_model

SRC = Path(__file__).resolve().parent.parent / "src" / "procforge"
DOCS = Path(__file__).resolve().parent.parent / "docs"

FIXTURE_REGISTRIES = {
    "grain_title": ["lrk.json", "grain_title.json"],
    "ico": ["lrk.json"],
    "quality_tracing": ["certificate.json"],
    "task_outsourcing": ["lrk.json"],
}


def _cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _compile_fixture(name, out_dir):
    argv = ["compile", str(FIXTURES / f"{name}.bpmn"), "-o", str(out_dir)]
    for reg in FIXTURE_REGISTRIES[name]:
        argv += ["--registry", str(FIXTURES / reg)]
    assert main(argv) == 0


def test_criterion_01_conformance_502_traces_full_agreement(grain_model,
                                                            grain_automaton):
    cfg = harness.ExperimentConfig(base_traces=2, mutants_per_base=250, seed=42)
    started = time.monotonic()
    report = harness.run_experiment(grain_model, grain_automaton, cfg)
    elapsed = time.monotonic() - started
    total = report.conforming + report.non_conforming
    assert total == 502
    assert report.correctness_pct == 100.0
    assert report.disagreements == ()
    assert elapsed < 10.0


def test_criterion_02_summary_reports_12_tasks_3_gateways(capsys):
    code, out = _cli(capsys, "conformance", str(FIXTURES / "grain_title.bpmn"),
                     "--seed", "42")
    assert code == 0
    assert "tasks: 12" in out
    assert "gateways: 3" in out
    assert "traces: 502" in out


def test_criterion_03_title_creation_masks_popcount_2_and_1(grain_model,
                                                            grain_automaton):
    text = codegen.gen_process(grain_model, grain_automaton).rendered_text
    body = text.split("function Create_grain_title")[1].split("function ")[0]
    pre = int(re.search(r"preconditionsp & (0x[0-9a-f]+) == \1", body).group(1), 16)
    post = int(re.search(r"\|\s*(0x[0-9a-f]+);", body).group(1), 16)
    assert bin(pre).count("1") == 2
    assert bin(post).count("1") == 1
    auto = next(t for t in grain_automaton.autos if t.node_id == "s_createtitle")
    assert pre == auto.pre_alternatives[0]
    assert post == auto.branches[0].post


def test_criterion_04_interface_address_vs_constructor_parameter():
    bound = load_model("grain_title")
    text = codegen.gen_process(bound, compile_marking(bound)).rendered_text
    assert len(re.findall(r"address addressOf\w+ = 0x[0-9a-fA-F]{40};", text)) == 2
    assert "_addressOf" not in text
    assert "constructor() public" in text

    unbound = load_model("grain_title_unbound")
    text_u = codegen.gen_process(unbound, compile_marking(unbound)).rendered_text
    assert not re.search(r"address addressOf\w+ = 0x", text_u)
    # one address parameter per unbound interface, on monitor and factory alike
    monitor_ctor = re.search(r"contract ProcessMonitor.*?constructor\(([^)]*)\)",
                             text_u, re.S).group(1)
    assert monitor_ctor.count("_addressOf") == 2
    assert len(re.findall(r"address _addressOf\w+", monitor_ctor)) == 2


def test_criterion_05_golden_outputs_byte_identical(tmp_path):
    for name, golden_dir in sorted((n, GOLDEN / n) for n in FIXTURE_REGISTRIES):
        run1, run2 = tmp_path / name / "a", tmp_path / name / "b"
        _compile_fixture(name, run1)
        _compile_fixture(name, run2)
        produced = sorted(p.name for p in run1.iterdir())
        assert produced == sorted(p.name for p in golden_dir.iterdir())
        for file_name in produced:
            bytes1 = (run1 / file_name).read_bytes()
            assert bytes1 == (run2 / file_name).read_bytes()
            assert bytes1 == (golden_dir / file_name).read_bytes()


@pytest.mark.skipif(shutil.which("solc") is None,
                    reason="no Solidity compiler on PATH")
def test_criterion_06_golden_sources_compile_with_solc(tmp_path):
    for sol in sorted(GOLDEN.rglob("*.sol")):
        proc = subprocess.run(
            ["solc", "--bin", str(sol)], capture_output=True, text=True)
        assert proc.returncode == 0, f"{sol.name}:\n{proc.stderr}"


def test_criterion_07_ledger_conservation_over_10000_sequences():
    actors = ["0x" + c * 40 for c in "123456789a"]
    minter, burner = actors[8], actors[9]
    rng = random.Random(2024)
    for _ in range(10_000):
        lg = FungibleLedger(FungibleRegistrySpec(
            name="Coin", symbol="C", decimals=0, total_supply=1000,
            initially_distributed_accounts=((actors[0], 600), (actors[1], 400)),
            is_mintable=True, minter_addresses=(minter,),
            is_burnable=True, burner_addresses=(burner,)))
        for _ in range(rng.randrange(1, 9)):
            op = rng.randrange(5)
            a, b = rng.choice(actors), rng.choice(actors)
            amount = rng.randrange(0, 1500)
            try:
                if op == 0:
                    lg.transfer(a, b, amount)
                elif op == 1:
                    lg.approve(a, b, amount)
                elif op == 2:
                    lg.transfer_from(a, b, rng.choice(actors), amount)
                elif op == 3:
                    lg.mint(a, b, amount)
                    assert a.lower() == minter  # unauthorized must not get here
                else:
                    lg.burn(a, b, amount)
                    assert a.lower() == burner
            except RegistryError:
                pass
            assert sum(lg.balances.values()) == lg.total_supply
        with pytest.raises(Unauthorized):
            lg.mint(actors[0], actors[1], 1)
        with pytest.raises(Unauthorized):
            lg.burn(actors[0], actors[0], 1)


def _external_tasks(model):
    out = {}
    for n in model.nodes:
        if n.kind not in (NodeKind.USER_TASK, NodeKind.DEFAULT_TASK):
            continue
        inc = model.incoming(n.id)[0].id
        produced = frozenset(f.id for f in model.outgoing(n.id))
        out[n.display_name] = (inc, produced)
    return out


def _assert_fold_unfold_equivalent(model, depth):
    """Walk the folded automaton and the raw token-game oracle in lockstep.

    Comparing enabled-task sets and completion possibility at every
    reachable state pair is equivalent to comparing the classification of
    every individual trace up to the given length."""
    a = compile_marking(model)
    tasks = _external_tasks(model)
    budget = [10**6]

    start = next(n for n in model.nodes if n.kind == NodeKind.START_EVENT)
    init = frozenset(f.id for f in model.outgoing(start.id))
    root = (eager_closure_nondet(a, a.initial_marking),
            _saturate(model, {init}, budget))

    explored = {}
    stack = [(root, depth)]
    while stack:
        (folded, oracle), left = stack.pop()
        if explored.get((folded, oracle), -1) >= left:
            continue
        explored[(folded, oracle)] = left

        enabled_folded = {a.external_names[tid]
                          for m in folded for tid, _ in enabled_external(a, m)}
        enabled_oracle = {name for name, (inc, _) in tasks.items()
                          if any(inc in m for m in oracle)}
        assert enabled_folded == enabled_oracle, model.id
        assert (0 in folded) == (frozenset() in oracle), model.id
        if left == 0:
            continue

        for name in enabled_folded:
            nxt = step(a, folded, a.task_id_for(name))
            inc, produced = tasks[name]
            fired = {(m - {inc}) | produced for m in oracle if inc in m}
            stack.append(((nxt, _saturate(model, fired, budget)), left - 1))


def test_criterion_08_fold_unfold_equivalence_on_200_random_models():
    rng = random.Random(77)
    started = time.monotonic()
    for _ in range(200):
        model = random_model(rng, max_flows=10)
        _assert_fold_unfold_equivalent(model, depth=8)
    assert time.monotonic() - started < 60.0


def test_criterion_09_escrow_and_swap_end_states(capsys):
    lrk = str(FIXTURES / "lrk.json")
    requester, worker = "0x" + "5" * 40, "0x" + "4" * 40
    farmer, buyer = "0x" + "1" * 40, "0x" + "2" * 40

    def balances(model, trace, *registries):
        argv = ["simulate", str(FIXTURES / model), "--trace",
                str(FIXTURES / trace), "--json"]
        for r in registries:
            argv += ["--registry", str(FIXTURES / r)]
        code, out = _cli(capsys, *argv)
        assert code == 0
        return json.loads(out)["registries"]

    regs = balances("task_outsourcing.bpmn", "outsourcing_correct.jsonl", "lrk.json")
    ledger = next(v for v in regs.values() if "balances" in v)
    assert ledger["balances"][worker] == 300  # exactly the price
    assert ledger["balances"][requester] == 200000 - 300

    regs = balances("task_outsourcing.bpmn", "outsourcing_wrong.jsonl", "lrk.json")
    ledger = next(v for v in regs.values() if "balances" in v)
    assert ledger["balances"][requester] == 200000  # fully refunded
    assert worker not in ledger["balances"]

    regs = balances("grain_title.bpmn", "grain_swap.jsonl",
                    "lrk.json", "grain_title.json")
    ledger = next(v for v in regs.values() if "balances" in v)
    records = next(v for v in regs.values() if "balances" not in v)
    (record,) = records.values()
    assert record["owner"] == buyer
    assert ledger["balances"][farmer] == 500
    assert ledger["balances"][buyer] == 200000 - 500

    regs = balances("grain_title.bpmn", "grain_refund.jsonl",
                    "lrk.json", "grain_title.json")
    ledger = next(v for v in regs.values() if "balances" in v)
    assert ledger["balances"][buyer] == 200000  # unchanged


def test_criterion_10_gas_figures_are_reference_data_only():
    reference = DOCS / "gas_reference.md"
    assert reference.is_file()
    assert "makes no assertions" in reference.read_text()
    for module in sorted(SRC.rglob("*.py")):
        assert not re.search(r"\bgas\b", module.read_text(), re.I), module.name
