"""Command-line entry point.

Commands: validate, compile, simulate, conformance. Exit codes:
0 ok / conforming, 1 validation or component failure, 2 non-conforming
trace, 64 usage error, 66 unreadable input. All commands are
non-interactive and deterministic given their inputs and the seed
(--seed, falling back to the PROCFORGE_SEED environment variable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import bpmn, codegen, harness, interp
from .ir import ProcessModel, ValidationReport, validate_model
from .marking import MarkingAutomaton, compile_marking, dump_automaton
from .registry import FungibleRegistrySpec, RegistrySpecError, parse_registry

EX_OK = 0
EX_FAIL = 1
EX_NONCONFORMING = 2
EX_USAGE = 64
EX_NOINPUT = 66


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror}", EX_NOINPUT) from e


def _load_model(path: str) -> Tuple[ProcessModel, ValidationReport]:
    text = _read(path)
    try:
        model = bpmn.parse_bpmn(text)
    except bpmn.BpmnParseError as e:
        raise CliError(f"{path}: {e}", EX_FAIL) from e
    return model, validate_model(model)


def _load_registry_specs(paths: List[str]):
    specs = []
    for p in paths:
        try:
            specs.append((p, parse_registry(_read(p))))
        except RegistrySpecError as e:
            raise CliError(f"{p}: {e}", EX_FAIL) from e
    return specs


def _print_report(report: ValidationReport, as_json: bool, out) -> None:
    if as_json:
        obj = {"ok": report.ok,
               "diagnostics": [{"severity": d.severity, "ref": d.ref,
                                "message": d.message} for d in report.diagnostics]}
        print(json.dumps(obj, indent=2), file=out)
    else:
        for d in report.diagnostics:
            print(d, file=out)
        print("ok" if report.ok else
              f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)",
              file=out)


def cmd_validate(args) -> int:
    model, report = _load_model(args.model)
    for path, _spec in _load_registry_specs(args.registry):
        if not args.json:
            print(f"{path}: ok")
    _print_report(report, args.json, sys.stdout)
    return EX_OK if report.ok else EX_FAIL


def cmd_compile(args) -> int:
    model, report = _load_model(args.model)
    if not report.ok:
        _print_report(report, args.json, sys.stderr)
        return EX_FAIL
    specs = _load_registry_specs(args.registry)
    automaton = compile_marking(model)

    units = []
    for _path, spec in specs:
        if isinstance(spec, FungibleRegistrySpec):
            units.append(codegen.gen_fungible(spec))
        else:
            units.append(codegen.gen_nonfungible(spec))
    units.append(codegen.gen_process(model, automaton))

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for unit in units:
        target = out_dir / unit.file_name
        target.write_text(unit.rendered_text, encoding="utf-8", newline="\n")
        written.append(str(target))
    if args.dump_automaton:
        target = out_dir / "automaton.txt"
        target.write_text(dump_automaton(automaton), encoding="utf-8", newline="\n")
        written.append(str(target))
    if args.json:
        print(json.dumps({"files": written}, indent=2))
    else:
        for w in written:
            print(w)
    return EX_OK


def _build_instance(model: ProcessModel, automaton: MarkingAutomaton,
                    specs) -> interp.InstanceState:
    """Wire simulated registries to the model's interfaces.

    Interfaces with a hard-coded contractAddress keep it; the rest are bound
    to deterministic pseudo-addresses (one per spec, in order)."""
    registries: Dict[str, interp.Registry] = {}
    spec_objs = [s for _, s in specs]
    by_index = []
    for i, spec in enumerate(spec_objs):
        reg = (interp.FungibleLedger(spec) if isinstance(spec, FungibleRegistrySpec)
               else interp.NonFungibleStore(spec))
        by_index.append((spec, reg))

    # match specs to interfaces by declared function names
    bindings: Dict[str, str] = {}
    taken = set()
    for itf in model.interfaces:
        fn_names = {f.name for f in itf.functions}
        fungible_like = bool(fn_names & {"transfer", "transferFrom", "approve",
                                         "balanceOf", "mint", "burn"})
        for i, (spec, reg) in enumerate(by_index):
            if i in taken:
                continue
            if fungible_like != isinstance(spec, FungibleRegistrySpec):
                continue
            address = itf.contract_address or interp.pseudo_address(f"registry:{i}")
            registries[address] = reg
            if itf.contract_address is None:
                bindings[itf.id] = address
            taken.add(i)
            break
        else:
            raise CliError(f"no registry spec matches interface '{itf.name}'", EX_FAIL)
    return interp.new_instance(model, automaton, bindings, registries)


def cmd_simulate(args) -> int:
    model, report = _load_model(args.model)
    if not report.ok:
        _print_report(report, args.json, sys.stderr)
        return EX_FAIL
    specs = _load_registry_specs(args.registry)
    try:
        trace = harness.parse_trace(_read(args.trace))
    except harness.TraceSyntaxError as e:
        raise CliError(f"{args.trace}: {e}", EX_FAIL) from e
    automaton = compile_marking(model)

    data_mode = bool(trace) and all(ev.args is not None for ev in trace)
    instance = _build_instance(model, automaton, specs) if data_mode else None
    verdict = harness.classify(model, automaton, trace, strict=not args.prefix,
                               instance=instance)
    if data_mode:
        events_out = [(e.task, e.outcome) for e in instance.event_log]
    else:
        events_out = [(ev.task, None) for ev in trace]

    if args.json:
        obj = {
            "classification": verdict.label(),
            "events": [{"task": t, "outcome": (o.ok if o is not None else None)}
                       for t, o in events_out],
            "finalMarking": instance.marking if instance else None,
            "variables": instance.env if instance else None,
            "registries": _registry_dump(instance) if instance else None,
        }
        print(json.dumps(obj, indent=2, default=str))
    else:
        for t, o in events_out:
            status = "?" if o is None else ("Accepted" if o.ok else f"Rejected ({o.reason})")
            print(f"  {t}: {status}")
        print(f"classification: {verdict.label()}")
        if data_mode:
            print(f"final marking: {instance.marking:#x}")
            for name, value in sorted(instance.env.items()):
                print(f"  {name} = {value}")
            for address, reg in sorted(instance.registries.items()):
                if isinstance(reg, interp.FungibleLedger):
                    print(f"  ledger {address} totalSupply={reg.total_supply}")
                    for acct, bal in sorted(reg.balances.items()):
                        print(f"    {acct}: {bal}")
                else:
                    print(f"  records {address}")
                    for rid, rec in sorted(reg.records.items()):
                        print(f"    {rid}: owner={rec.owner} attrs={rec.attrs}")
    return EX_OK if verdict.ok else EX_NONCONFORMING


def _registry_dump(instance: interp.InstanceState):
    out = {}
    for address, reg in sorted(instance.registries.items()):
        if isinstance(reg, interp.FungibleLedger):
            out[address] = {"totalSupply": reg.total_supply,
                            "balances": dict(sorted(reg.balances.items()))}
        else:
            out[address] = {rid: {"owner": rec.owner, "attrs": rec.attrs}
                            for rid, rec in sorted(reg.records.items())}
    return out


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PROCFORGE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"PROCFORGE_SEED is not an integer: {env!r}", EX_USAGE) from None
    return 0


def cmd_conformance(args) -> int:
    model, report = _load_model(args.model)
    if not report.ok:
        _print_report(report, args.json, sys.stderr)
        return EX_FAIL
    _load_registry_specs(args.registry)  # validated for early failure only
    automaton = compile_marking(model)
    try:
        cfg = harness.ExperimentConfig(
            base_traces=args.bases, mutants_per_base=args.mutants,
            seed=_seed(args), strict=not args.prefix)
    except ValueError as e:
        raise CliError(str(e), EX_USAGE) from e
    try:
        result = harness.run_experiment(model, automaton, cfg)
    except harness.HarnessError as e:
        raise CliError(str(e), EX_FAIL) from e

    report_json = harness.report_to_json(result)
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(report_json, encoding="utf-8", newline="\n")

    tasks = len(model.tasks())
    gateways = len(model.gateways())
    total = result.conforming + result.non_conforming
    if args.json:
        print(report_json, end="")
    else:
        print(f"tasks: {tasks}")
        print(f"gateways: {gateways}")
        print(f"traces: {total} "
              f"(conforming: {result.conforming}, "
              f"non-conforming: {result.non_conforming})")
        print(f"seed: {result.seed}")
        print(f"correctness: {result.correctness_pct:g}%")
        print(f"elapsed: {result.elapsed_ms} ms")
        for d in result.disagreements:
            print(f"  disagreement at trace {d.trace_index}: "
                  f"replayer={d.replayer} oracle={d.oracle}")
    return EX_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="procforge",
        description="BPMN process models with asset registries: validation, "
                    "Solidity generation, simulation, trace conformance.")
    sub = p.add_subparsers(dest="command", metavar="command")

    def common(sp):
        sp.add_argument("model", help="BPMN 2.0 XML process model")
        sp.add_argument("--registry", action="append", default=[],
                        metavar="SPEC.json", help="asset registry spec (repeatable)")
        sp.add_argument("--json", action="store_true", help="machine-readable stdout")

    sp = sub.add_parser("validate", help="check a model and registry specs")
    common(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("compile", help="generate Solidity sources")
    common(sp)
    sp.add_argument("-o", "--output", default="out", help="output directory")
    sp.add_argument("--dump-automaton", action="store_true",
                    help="also write the marking mask table")
    sp.set_defaults(fn=cmd_compile)

    sp = sub.add_parser("simulate", help="replay a trace against the model")
    common(sp)
    sp.add_argument("--trace", required=True, metavar="t.jsonl")
    sp.add_argument("--prefix", action="store_true",
                    help="accept conforming prefixes (default: the trace must "
                         "complete the process)")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("conformance", help="randomized trace experiment")
    common(sp)
    sp.add_argument("--seed", type=int, default=None,
                    help="PRNG seed (default: $PROCFORGE_SEED or 0)")
    sp.add_argument("--bases", type=int, default=2, help="number of base traces")
    sp.add_argument("--mutants", type=int, default=250, help="mutants per base trace")
    sp.add_argument("--report", metavar="out.json", help="write the JSON report here")
    sp.add_argument("--prefix", action="store_true", help="prefix conformance")
    sp.set_defaults(fn=cmd_conformance)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; 2 means non-conforming here
        return EX_USAGE if e.code else EX_OK
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EX_USAGE
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
