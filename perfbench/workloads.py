"""The four workloads: seeded inputs, the CLI calls of one cycle, and the
check each call's output must pass.

A workload's `prepare` writes every input into a work directory and
returns the calls of one cycle. Each call carries a check that raises
CheckFailed on a wrong output and otherwise returns the units of work the
call completed plus the bytes that go into the output digest.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import gen

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"

FIXTURE_REGISTRIES = {
    "ico": ["lrk.json"],
    "quality_tracing": ["certificate.json"],
    "task_outsourcing": ["lrk.json"],
    "grain_title": ["lrk.json", "grain_title.json"],
}

# Base traces the experiment can draw (at most its default 2): ico and
# quality_tracing are single sequences with one complete trace each.
FIXTURE_BASES = {"ico": 1, "quality_tracing": 1, "task_outsourcing": 2, "grain_title": 2}

REQUESTER, WORKER = "0x" + "5" * 40, "0x" + "4" * 40
FARMER, BUYER = "0x" + "1" * 40, "0x" + "2" * 40


class CheckFailed(Exception):
    pass


def expect(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


@dataclass
class Call:
    label: str
    argv: List[str]
    # (exit code, stdout) -> (units of work done, bytes for the digest)
    check: Callable[[int, str], Tuple[int, bytes]]
    before: Callable[[], None] = lambda: None  # untimed preparation


@dataclass
class Workload:
    name: str
    unit: str  # what one unit of work is
    prepare: Callable[[Path, int, bool], List[Call]]  # (work dir, seed, tiny)


def copy_fixtures(work: Path, names) -> None:
    for name in names:
        shutil.copyfile(FIXTURES / name, work / name)


# ---------------------------------------------------------------------------
# conformance-fixtures / conformance-parallel


def check_conformance(total: int):
    def check(code: int, out: str):
        expect(code == 0, f"exit {code}")
        report = json.loads(out)
        expect(report["correctnessPct"] == 100, "correctness below 100%")
        expect(report["disagreements"] == [], "replayer and oracle disagree")
        expect(sum(report["totals"].values()) == total, "wrong trace total")
        del report["elapsedMs"]
        return total, json.dumps(report, sort_keys=True).encode()
    return check


def conformance_call(label: str, model: Path, registries: List[Path], seed: int,
                     bases: int, tiny: bool) -> Call:
    argv = ["conformance", str(model), "--json", "--seed", str(seed)]
    for r in registries:
        argv += ["--registry", str(r)]
    mutants = 250
    if tiny:
        mutants = 5
        argv += ["--mutants", str(mutants)]
    return Call(label, argv, check_conformance(bases * (1 + mutants)))


def prepare_conformance_fixtures(work: Path, seed: int, tiny: bool) -> List[Call]:
    rng = random.Random(seed)
    names = list(FIXTURE_REGISTRIES)[:2] if tiny else list(FIXTURE_REGISTRIES)
    copy_fixtures(work, {f"{n}.bpmn" for n in names}
                  | {r for n in names for r in FIXTURE_REGISTRIES[n]})
    calls = []
    for _ in range(2 if tiny else 4):
        run_seed = rng.randrange(2**31)
        for n in names:
            calls.append(conformance_call(
                n, work / f"{n}.bpmn", [work / r for r in FIXTURE_REGISTRIES[n]],
                run_seed, FIXTURE_BASES[n], tiny))
    return calls


def prepare_conformance_parallel(work: Path, seed: int, tiny: bool) -> List[Call]:
    rng = random.Random(seed)
    calls = []
    for n in ((2, 3) if tiny else (3, 4, 5)):
        path = work / f"chain{n}.bpmn"
        path.write_text(gen.chain_bpmn(n, rng), encoding="utf-8")
        calls.append(conformance_call(f"chain{n}", path, [], rng.randrange(2**31), 2, tiny))
    return calls


# ---------------------------------------------------------------------------
# simulate-ledger


def check_simulate(dt: gen.DataTrace):
    def check(code: int, out: str):
        expect(code == dt.exit_code, f"{dt.name}: exit {code}, expected {dt.exit_code}")
        obj = json.loads(out)
        expect(obj["classification"] == dt.label,
               f"{dt.name}: {obj['classification']}, expected {dt.label}")
        outcomes = [e["outcome"] for e in obj["events"]]
        rejected = [False] if dt.exit_code else []
        expect(outcomes == [True] * dt.accepted + rejected,
               f"{dt.name}: event outcomes {outcomes}")
        registries = obj["registries"].values()
        (ledger,) = [r for r in registries if "balances" in r]
        balances = ledger["balances"]
        expect(sum(balances.values()) == ledger["totalSupply"],
               f"{dt.name}: balances do not sum to totalSupply")
        for account, amount in dt.balances.items():
            expect(balances.get(account, 0) == amount,
                   f"{dt.name}: {account} holds {balances.get(account, 0)}, expected {amount}")
        for account in dt.absent:
            expect(account not in balances, f"{dt.name}: {account} should hold nothing")
        if dt.record_owner is not None:
            (records,) = [r for r in registries if "balances" not in r]
            owners = [rec["owner"] for rec in records.values()]
            expect(owners == [dt.record_owner], f"{dt.name}: record owners {owners}")
        return len(outcomes), out.encode()
    return check


def fixture_traces(rng: random.Random) -> Dict[str, gen.DataTrace]:
    """The four fixture traces with their criterion-09 end states. The
    grain weights and quality are seeded; they move no tokens."""
    def read(name):
        return gen.read_trace((FIXTURES / name).read_text(encoding="utf-8"))

    def seeded_grain(events):
        gross = rng.randint(10_000, 20_000)
        values = {"quality": rng.randint(1, 10), "weightGross": gross,
                  "weightTare": rng.randint(1_000, gross - 1)}
        return [{**e, "args": {k: values.get(k, v) for k, v in e["args"].items()}}
                for e in events]

    grain, outsourcing = "grain_title.bpmn", "task_outsourcing.bpmn"
    conforming = ("Conforming", 0)
    return {t.name: t for t in [
        gen.DataTrace("grain_swap", grain, seeded_grain(read("grain_swap.jsonl")),
                      *conforming, 8, {FARMER: 500, BUYER: 200_000 - 500},
                      record_owner=BUYER),
        gen.DataTrace("grain_refund", grain, seeded_grain(read("grain_refund.jsonl")),
                      *conforming, 8, {BUYER: 200_000}),
        gen.DataTrace("outsourcing_correct", outsourcing, read("outsourcing_correct.jsonl"),
                      *conforming, 2, {WORKER: 300, REQUESTER: 200_000 - 300}),
        gen.DataTrace("outsourcing_wrong", outsourcing, read("outsourcing_wrong.jsonl"),
                      *conforming, 1, {REQUESTER: 200_000}, absent=(WORKER,)),
    ]}


def prepare_simulate_ledger(work: Path, seed: int, tiny: bool) -> List[Call]:
    rng = random.Random(seed)
    accounts = 50 if tiny else 10_000
    n_out, n_grain = (2, 1) if tiny else (12, 9)
    copy_fixtures(work, ["grain_title.bpmn", "task_outsourcing.bpmn", "grain_title.json"])
    spec, balances = gen.ledger_spec(
        rng, accounts, {"0x" + "6" * 40: 600_000, BUYER: 200_000, REQUESTER: 200_000})
    (work / "ledger.json").write_text(spec, encoding="utf-8")
    fixtures = fixture_traces(rng)
    payers = sorted(balances.keys() - {BUYER, REQUESTER})

    traces = list(fixtures.values())
    grain_preds = gen.task_predecessors((work / "grain_title.bpmn").read_text(encoding="utf-8"))
    for name, kind in (("grain_swap", "swap"), ("grain_refund", "drop")):
        ft = fixtures[name]
        traces += gen.not_enabled_variants(name, ft.model, ft.events, grain_preds, kind)
    for k in range(n_out):
        payer = rng.choice(payers)
        traces.append(gen.overdraft_variant(
            f"outsourcing{k}", "task_outsourcing.bpmn", fixtures["outsourcing_correct"].events,
            "Deposit payment", "amount", "requester", payer, balances[payer], rng))
    for k in range(n_grain):
        payer = rng.choice(payers)
        traces.append(gen.overdraft_variant(
            f"grain{k}", "grain_title.bpmn", fixtures["grain_swap"].events,
            "Interest to buy title expressed", "deposit", "buyer", payer, balances[payer], rng))
    # the cheapest call first: it doubles as the warm-up
    traces.sort(key=lambda t: t.name != "outsourcing_correct")

    calls = []
    for dt in traces:
        path = work / f"{dt.name}.jsonl"
        path.write_text(gen.write_trace(dt.events), encoding="utf-8")
        argv = ["simulate", str(work / dt.model), "--trace", str(path), "--json",
                "--registry", str(work / "ledger.json")]
        if dt.model == "grain_title.bpmn":
            argv += ["--registry", str(work / "grain_title.json")]
        calls.append(Call(dt.name, argv, check_simulate(dt)))
    return calls


# ---------------------------------------------------------------------------
# compile-wide

FLOW_LADDER = (64, 96, 128, 160, 192, 224, 256)


def check_validate(code: int, out: str):
    expect(code == 0, f"validate exit {code}")
    expect(out.rstrip().endswith("ok"), "validate did not report ok")
    return 0, b""


def check_compile(out_dir: Path, golden: Optional[Path] = None):
    def check(code: int, out: str):
        expect(code == 0, f"compile exit {code}")
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        expect(bool(files), "compile wrote no files")
        if golden is not None:
            expected = {p.name: p.read_bytes() for p in sorted(golden.iterdir())}
            expect(files == expected, f"{out_dir.name}: output differs from {golden}")
        return 1, b"".join(name.encode() + b"\0" + data for name, data in files.items())
    return check


def model_calls(label: str, model: Path, registries: List[Path], out_dir: Path,
                golden: Optional[Path] = None) -> List[Call]:
    regs = [a for r in registries for a in ("--registry", str(r))]
    return [
        Call(f"{label}:validate", ["validate", str(model), *regs], check_validate),
        Call(f"{label}:compile", ["compile", str(model), *regs, "-o", str(out_dir)],
             check_compile(out_dir, golden),
             before=lambda: shutil.rmtree(out_dir, ignore_errors=True)),
    ]


def prepare_compile_wide(work: Path, seed: int, tiny: bool) -> List[Call]:
    rng = random.Random(seed)
    calls = []
    for copy in ("a",) if tiny else ("a", "b"):
        for flows in (16, 32) if tiny else FLOW_LADDER:
            label = f"m{flows:03d}{copy}"
            path = work / f"{label}.bpmn"
            path.write_text(gen.block_model_bpmn(rng, flows, label), encoding="utf-8")
            calls += model_calls(label, path, [], work / "out" / label)
    copy_fixtures(work, {f"{n}.bpmn" for n in FIXTURE_REGISTRIES}
                  | {r for regs in FIXTURE_REGISTRIES.values() for r in regs})
    for name, regs in FIXTURE_REGISTRIES.items():
        calls += model_calls(name, work / f"{name}.bpmn", [work / r for r in regs],
                             work / "out" / name, GOLDEN / name)
    return calls


WORKLOADS = {w.name: w for w in [
    Workload("conformance-fixtures", "traces", prepare_conformance_fixtures),
    Workload("conformance-parallel", "traces", prepare_conformance_parallel),
    Workload("simulate-ledger", "events", prepare_simulate_ledger),
    Workload("compile-wide", "models", prepare_compile_wide),
]}
