"""Command-line entry point.

Commands: validate, compile, simulate, conformance. Exit codes:
0 ok / conforming, 1 validation or component failure, 2 non-conforming
trace, 64 usage error, 66 unreadable input. All commands are
non-interactive and deterministic given their inputs and the seed
(--seed, falling back to the PROCFORGE_SEED environment variable).
Every --json output is exactly json.dumps(indent=2) of what it holds;
simulate writes each ledger's balances from the ledger's own table.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import bpmn, codegen, harness, interp
from .ir import EvalError, ProcessModel, ValidationReport, addr_key, validate_model
from .marking import MarkingAutomaton, MarkingError, compile_marking, dump_automaton
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
    except UnicodeDecodeError as e:
        raise CliError(f"{path}: not UTF-8 (byte {e.start})", EX_FAIL) from e


def _write(path: Path, text: str) -> None:
    """Write text to path, creating its missing parent directories."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as e:
        raise CliError(f"cannot write {e.filename or path}: {e.strerror}", EX_FAIL) from e


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
    names = set()
    for unit in units:
        if unit.file_name in names:
            raise CliError(f"two generated units are both named {unit.file_name}", EX_FAIL)
        names.add(unit.file_name)

    out_dir = Path(args.output)
    written = []
    for unit in units:
        target = out_dir / unit.file_name
        _write(target, unit.rendered_text)
        written.append(str(target))
    if args.dump_automaton:
        target = out_dir / "automaton.txt"
        _write(target, dump_automaton(automaton))
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

    Each interface takes the first unused registry of its kind: an
    interface declaring a record_ function is a record registry's. An
    interface naming a contractAddress already taken shares its registry.
    Interfaces with a hard-coded contractAddress keep it; the rest are bound
    to deterministic pseudo-addresses (one per spec, in order)."""
    unused = [(i, interp.FungibleLedger(spec) if isinstance(spec, FungibleRegistrySpec)
               else interp.NonFungibleStore(spec))
              for i, (_, spec) in enumerate(specs)]
    registries: Dict[str, interp.Registry] = {}
    bindings: Dict[str, str] = {}
    for itf in model.interfaces:
        if itf.contract_address is not None and addr_key(itf.contract_address) in registries:
            continue
        kind = "record" if any(f.name.startswith("record_") for f in itf.functions) else "token"
        pick = next((entry for entry in unused if entry[1].kind == kind), None)
        if pick is None:
            raise CliError(f"no registry spec matches interface '{itf.name}'", EX_FAIL)
        unused.remove(pick)
        i, reg = pick
        address = itf.contract_address or interp.pseudo_address(f"registry:{i}")
        registries[addr_key(address)] = reg
        if itf.contract_address is None:
            bindings[itf.id] = address
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
    instance = None
    if data_mode:
        try:
            instance = _build_instance(model, automaton, specs)
        except (MarkingError, EvalError, interp.RegistryError) as e:
            raise CliError(f"{args.model}: initial closure failed: {e}", EX_FAIL) from e
        verdict = harness.replay_data(instance, trace, strict=not args.prefix)
        events_out = [(e.task, e.outcome) for e in instance.event_log]
    else:
        try:
            verdict = harness.classify(automaton, tuple(ev.task for ev in trace),
                                       strict=not args.prefix)
        except MarkingError as e:
            raise CliError(f"{args.model}: initial closure failed: {e}", EX_FAIL) from e
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
        print(_json_indented(obj))
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


def _json_indented(obj, pad: str = "") -> str:
    """json.dumps(obj, indent=2, default=str), byte for byte, for a value
    written at the indent pad, where a FungibleLedger stands for the object
    {"totalSupply": ..., "balances": {account: balance, ...}} of its
    accounts in ascending order (_ledger_json). Dicts of str keys are
    walked; every other value is json's own text, its lines indented by
    pad: json escapes a newline in a string, so its only raw newlines are
    those it indents with."""
    if isinstance(obj, interp.FungibleLedger):
        return _ledger_json(obj, pad)
    if not isinstance(obj, dict) or set(map(type, obj)) != {str}:
        return json.dumps(obj, indent=2, default=str).replace("\n", "\n" + pad)
    inner = pad + "  "
    body = (",\n" + inner).join(f"{json.dumps(k)}: {_json_indented(v, inner)}"
                                 for k, v in obj.items())
    return f"{{\n{inner}{body}\n{pad}}}"


def _ledger_json(ledger: interp.FungibleLedger, pad: str) -> str:
    """The ledger's totalSupply and balances as json.dumps(indent=2) writes
    them at the indent pad, the balances as one sort of their lines, each
    formatted from the ledger's own table. It writes each key and value as
    it is, which json does too: every key is the addr_key (0x and 40 hex
    digits, lowered) of an address checked by _distribution, by _dispatch's
    ABI typing or, for a caller, by InstanceState.invoke, or else the
    instance's pseudo_address, and the total and every balance are exact
    ints within uint256, as initial_balances checks them, mint refuses to
    pass 2**256 - 1 and burn to go below 0. The lines sort in the order of
    their keys, since every character of a key sorts above the quote that
    ends it."""
    inner, row = pad + "  ", pad + "    "
    balances = ledger.balances
    table = f",\n{row}".join(sorted([f'"{k}": {v}' for k, v in balances.items()]))
    table = f"{{\n{row}{table}\n{inner}}}" if balances else "{}"
    return (f'{{\n{inner}"totalSupply": {ledger.total_supply},'
            f'\n{inner}"balances": {table}\n{pad}}}')


def _registry_dump(instance: interp.InstanceState):
    """The registries by address, ascending: a ledger as itself, for
    _json_indented to write, and a record store as its records."""
    return {address: reg if isinstance(reg, interp.FungibleLedger) else
            {rid: {"owner": rec.owner, "attrs": rec.attrs}
             for rid, rec in sorted(reg.records.items())}
            for address, reg in sorted(instance.registries.items())}


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PROCFORGE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"PROCFORGE_SEED is not an integer: {env!r}", EX_USAGE) from None
    return harness.ExperimentConfig.seed


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
    except MarkingError as e:
        raise CliError(f"{args.model}: initial closure failed: {e}", EX_FAIL) from e

    report_json = harness.report_to_json(result)
    if args.report:
        _write(Path(args.report), report_json)

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


@functools.cache
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
    defaults = harness.ExperimentConfig  # the one owner of the experiment defaults
    sp.add_argument("--seed", type=int, default=None,
                    help=f"PRNG seed (default: $PROCFORGE_SEED or {defaults.seed})")
    sp.add_argument("--bases", type=int, default=defaults.base_traces, help="number of base traces")
    sp.add_argument("--mutants", type=int, default=defaults.mutants_per_base,
                    help="mutants per base trace")
    sp.add_argument("--report", metavar="out.json", help="write the JSON report here")
    sp.add_argument("--prefix", action="store_true", help="prefix conformance")
    sp.set_defaults(fn=cmd_conformance)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """Run one procforge command on argv (default sys.argv[1:]) and return
    its exit code. May be called repeatedly in one process: the parser is
    built on the first call only, and parsing leaves it unchanged."""
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
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except BrokenPipeError:
        # the reader of stdout has gone; the flush at shutdown would raise
        # again, so it goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
