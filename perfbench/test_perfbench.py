"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from procforge import bpmn, ir  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric_with_its_unit(name, trace):
    out = run.run(name, seed=3, seconds=0.05, trace=trace, tiny=True)
    result = out["result"]
    assert out["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = units("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_outputs_other_seed_other_inputs():
    a = run.run("compile-wide", seed=5, seconds=0.01, trace=False, tiny=True)
    b = run.run("compile-wide", seed=5, seconds=0.01, trace=False, tiny=True)
    c = run.run("compile-wide", seed=6, seconds=0.01, trace=False, tiny=True)
    assert a["digest"] == b["digest"] != c["digest"]


def test_wrong_expected_verdict_raises_error_rate(monkeypatch):
    real = workloads.fixture_traces

    def wrong(rng):
        traces = real(rng)
        traces["outsourcing_correct"].label = "NonConforming(0)"
        return traces

    monkeypatch.setattr(workloads, "fixture_traces", wrong)
    out = run.run("simulate-ledger", seed=3, seconds=0.01, trace=False, tiny=True)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("outsourcing_correct" in f for f in out["failures"])


@pytest.mark.parametrize("flows", [3, 17, 64, 256])
def test_block_models_validate_with_exact_flow_count(flows):
    rng = random.Random(flows)
    for k in range(5):
        model = bpmn.parse_bpmn(gen.block_model_bpmn(rng, flows, f"m{k}"))
        assert ir.validate_model(model).ok
        assert len(model.flows) == flows


@pytest.mark.parametrize("n", [2, 5])
def test_chain_shape(n):
    model = bpmn.parse_bpmn(gen.chain_bpmn(n, random.Random(n)))
    assert ir.validate_model(model).ok
    assert len(model.flows) == 3 * n + 2
    assert len(model.external_tasks()) == 2 * n


def test_ledger_spec_distributes_total_supply():
    text, balances = gen.ledger_spec(random.Random(1), 100, {"0x" + "2" * 40: 7})
    spec = json.loads(text)
    assert len(spec["initiallyDistributedAccounts"]) == 100 == len(balances)
    assert int(spec["totalSupply"]) == sum(balances.values())
    assert balances["0x" + "2" * 40] == 7


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
