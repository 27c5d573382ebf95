"""procforge benchmark: drives the real CLI (cli.main, in-process) over one
named workload and prints the metrics as one JSON object on its last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, closed loop: each CLI call starts when the
previous one has returned. A cycle is the workload's fixed list of calls;
cycles repeat until S seconds have passed. Every call's output is checked.

--trace 0 reports the end-to-end metrics (tracing off), with times
corrected for the machine's speed (see speed.py); the summary line beside
them gives the uncorrected wall figures. --trace 1 repeats
pairs of one untraced and one traced cycle, and reports the per-layer
metrics of the traced cycles (medians over the pairs); the spans are
written to .perfbench/spans-NAME.tsv.

--workload all runs every workload, each in its own process, in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import spans
import speed
from workloads import ROOT, WORKLOADS, Call, CheckFailed

SETUPS = 5  # set-ups per run; setup_s is their median
MODULES = ("cli", "bpmn", "codegen", "harness", "interp")

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MiB"}

Window = Tuple[float, float]  # perf_counter at the start and end of a timed span


def fresh_import() -> Dict[str, object]:
    """Import procforge from the checkout's src/, dropping any earlier copy
    so each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "procforge" or m.startswith("procforge.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"procforge.{m}") for m in MODULES}


class Runner:
    """Runs calls through cli.main and keeps what the checks found."""

    def __init__(self, modules):
        self.modules = modules
        self.attempted = 0
        self.failures: List[str] = []
        self.digests: Dict[int, bytes] = {}  # call index -> digest part of cycle 1
        self.windows: Dict[int, List[Window]] = defaultdict(list)
        self.items: Dict[int, int] = {}
        self.timing = True  # off for traced cycles and the warm-up

    def call(self, index: int, call: Call) -> Window:
        """One checked CLI call; returns when it started and ended."""
        call.before()
        out, err = io.StringIO(), io.StringIO()
        main = self.modules["cli"].main
        self.attempted += 1
        a = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(call.argv)
        except Exception as e:  # a traceback from the CLI fails this call
            self.failures.append(f"{call.label}: {type(e).__name__}: {e}")
            return a, time.perf_counter()
        b = time.perf_counter()
        try:
            items, part = call.check(code, out.getvalue())
            if self.digests.setdefault(index, part) != part:
                raise CheckFailed("output differs from the first cycle's")
        except (CheckFailed, ValueError, KeyError, TypeError) as e:
            self.failures.append(f"{call.label}: {e} {err.getvalue().strip()}")
            return a, b
        if self.timing:
            self.windows[index].append((a, b))
        self.items[index] = items
        return a, b

    def cycle(self, calls: List[Call]) -> float:
        """One pass over the calls; returns the wall seconds spent in them."""
        return sum(b - a for a, b in (self.call(i, c) for i, c in enumerate(calls)))

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in sorted(self.digests):
            h.update(self.digests[i])
        return h.hexdigest()


def set_up(workload, seed: int, tiny: bool, scratch: Path):
    """Import, generate and write the inputs, make one warm-up call.
    Returns (timed windows, modules, calls, runner)."""
    t0 = time.perf_counter()
    modules = fresh_import()
    work = Path(tempfile.mkdtemp(dir=scratch))
    calls = workload.prepare(work, seed, tiny)
    runner = Runner(modules)
    t1 = time.perf_counter()
    runner.timing = False
    warm_up = runner.call(0, calls[0])
    runner.timing = True
    return [(t0, t1), warm_up], modules, calls, runner


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    workload = WORKLOADS[name]
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    with contextlib.ExitStack() as stack:
        stack.callback(shutil.rmtree, work_root, ignore_errors=True)
        # timings are corrected for machine speed, except in traced runs,
        # whose spans are compared with each other only
        sampler = None if trace else stack.enter_context(speed.SpeedSampler())
        setups = []
        failures, attempted = [], 0
        for _ in range(1 if trace else SETUPS):
            windows, modules, calls, runner = set_up(workload, seed, tiny, work_root)
            setups.append(windows)
            failures += runner.failures
            attempted += runner.attempted
        runner.failures, runner.attempted = [], 0

        passes = []
        started = time.perf_counter()
        if not trace:
            while not passes or time.perf_counter() - started < seconds:
                passes.append(runner.cycle(calls))
        else:
            span_file = scratch / f"spans-{name}.tsv"
            while not passes or time.perf_counter() - started < seconds:
                untraced = runner.cycle(calls)
                tracer = spans.Tracer()
                spans.install(tracer, modules)
                runner.timing = False
                try:
                    traced = runner.cycle(calls)
                finally:
                    tracer.unwrap()
                    runner.timing = True
                passes.append(spans.layer_metrics(tracer, traced, untraced))
                tracer.write_tsv(span_file, len(passes), append=len(passes) > 1)
        failures += runner.failures
        attempted += runner.attempted

    def nominal(ws: List[Window]) -> float:
        return sum(sampler.seconds(a, b) if sampler else b - a for a, b in ws)

    rows = []  # label, calls, median seconds, median wall seconds, units of work
    for i, call in enumerate(calls):
        ws = runner.windows[i]
        if ws:
            rows.append((call.label, len(ws), statistics.median(nominal([w]) for w in ws),
                         statistics.median(b - a for a, b in ws), runner.items[i]))
    items = sum(r[4] for r in rows)
    if trace:
        values = spans.median_metrics(passes)
        units = spans.LAYER_METRICS
    else:
        values = {
            "setup_s": statistics.median(nominal(ws) for ws in setups),
            "items_per_s": items / sum(r[2] for r in rows) if rows else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    wall = {"setup_wall_s": statistics.median(sum(b - a for a, b in ws) for ws in setups),
            "items_per_wall_s": items / sum(r[3] for r in rows) if rows else 0.0}
    if sampler:
        wall["machine_speed"] = speed.REF_KERNEL_S / statistics.median(sampler.durations)
    return {
        "rows": rows, "cycles": len(passes), "digest": runner.digest(),
        "unit": workload.unit, "failures": failures, "wall": wall,
        "result": {"correct": not failures and attempted > 0,
                   "attempted": attempted, "failed": len(failures),
                   "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}},
    }


def report(name: str, seed: int, out: dict) -> None:
    res = out["result"]
    print(f"workload {name}  seed {seed}  cycles {out['cycles']}")
    for label, n, median_s, median_wall_s, items in out["rows"]:
        print(f"  {label:<26} calls {n:>4}  median {median_s * 1e3:10.3f} ms "
              f"(wall {median_wall_s * 1e3:10.3f} ms)  {out['unit']} {items}")
    for failure in out["failures"][:10]:
        print(f"  FAILED {failure}", file=sys.stderr)
    summary = {"workload": name, "digest": out["digest"],
               "error_rate": res["failed"] / res["attempted"] if res["attempted"] else 1.0,
               **out["wall"]}
    if "items_per_s" in res["metrics"]:
        summary[f"{out['unit']}_per_s"] = res["metrics"]["items_per_s"]["value"]
    print("summary " + json.dumps(summary))
    print(json.dumps(res))


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        importlib.import_module("procforge.cli")
    except ImportError as e:
        print(f"cannot import procforge from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
