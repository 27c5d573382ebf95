"""Seeded input generators for the benchmark.

Everything here is written without importing procforge, so the inputs and
the verdicts expected for them do not depend on the code under test:

- chain(n): an AND split into n branches of two user tasks each;
- random block-structured models of an exact flow count, written as BPMN
  XML with bcext variables, task inputs, scripts and guarded XOR branches;
- a fungible registry spec with many accounts;
- data traces derived from the fixture traces, each with the verdict it
  must get, known from how it was built.
"""

from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple
from xml.sax.saxutils import escape

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
BCEXT_NS = "urn:procforge:bcext:1"

WORDS = ("Review", "Approve", "Inspect", "Record", "Ship", "Sign", "Check",
         "Weigh", "Audit", "Load", "Label", "Seal", "Pack", "Store", "Quote")


def _document(process_id: str, body: List[str]) -> str:
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<definitions xmlns="{BPMN_NS}" xmlns:bcext="{BCEXT_NS}"',
        f'             id="defs_{process_id}" targetNamespace="urn:perfbench">',
        f'  <process id="{process_id}">',
        *("    " + line for line in body),
        "  </process>",
        "</definitions>",
        "",
    ])


def _flow(fid: str, src: str, dst: str, condition: Optional[str] = None,
          default: bool = False) -> str:
    attrs = f'id="{fid}" sourceRef="{src}" targetRef="{dst}"'
    if default:
        attrs += ' default="true"'
    if condition is None:
        return f"<sequenceFlow {attrs}/>"
    return (f"<sequenceFlow {attrs}><conditionExpression>{escape(condition)}"
            f"</conditionExpression></sequenceFlow>")


def chain_bpmn(n: int, rng: random.Random) -> str:
    """start -> AND split -> n branches of 2 user tasks -> AND join -> end.

    3n + 2 flows and (2n)! / 2^n conforming traces. Task names are seeded,
    so the seed decides which interleavings sort first and become bases."""
    words = rng.sample(WORDS, n)
    body = ['<startEvent id="start"/>', '<parallelGateway id="split"/>']
    flows = [_flow("f_start", "start", "split")]
    for i, word in enumerate(words):
        body.append(f'<userTask id="a{i}" name="{word} part {i}"/>')
        body.append(f'<userTask id="b{i}" name="{word} done {i}"/>')
        flows += [_flow(f"f_a{i}", "split", f"a{i}"),
                  _flow(f"f_b{i}", f"a{i}", f"b{i}"),
                  _flow(f"f_j{i}", f"b{i}", "join")]
    body += ['<parallelGateway id="join"/>', '<endEvent id="end"/>']
    flows.append(_flow("f_end", "join", "end"))
    return _document(f"chain{n}", body + flows)


# ---------------------------------------------------------------------------
# Random block-structured models


_VARS = ("v0", "v1", "v2", "v3")


class _Blocks:
    """Builds nodes and flows of nested blocks; each block has one entry and
    one exit node. Flow counts per block kind are exact, so a model can be
    grown to a given number of flows."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.nodes: List[str] = []
        self.flows: List[str] = []
        self.n = 0

    def _id(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def flow(self, src: str, dst: str, condition: Optional[str] = None,
             default: bool = False):
        self.flows.append(_flow(self._id("f"), src, dst, condition, default))

    def task(self) -> Tuple[str, str]:
        rng = self.rng
        nid = self._id("t")
        name = f"{rng.choice(WORDS)} item {self.n}"
        if rng.random() < 0.3:
            script = f"{rng.choice(_VARS)} = {rng.choice(_VARS)} + {rng.randint(1, 9)}"
            self.nodes.append(f'<scriptTask id="{nid}" name="{name}">'
                              f"<script>{escape(script)}</script></scriptTask>")
        elif rng.random() < 0.3:
            self.nodes.append(
                f'<userTask id="{nid}" name="{name}"><extensionElements>'
                f'<bcext:input name="in{self.n}" type="uint256"/>'
                f"</extensionElements></userTask>")
        else:
            self.nodes.append(f'<userTask id="{nid}" name="{name}"/>')
        return nid, nid

    def _guard(self) -> str:
        rng = self.rng
        v, c = rng.choice(_VARS), rng.randint(0, 20)
        return rng.choice((f"{v} > {c}", f"{v} == {c}", "flag",
                           f"{v} <= {c} && !flag"))

    def block(self, depth: int) -> Tuple[str, str]:
        rng = self.rng
        kind = "task" if depth <= 0 else rng.choice(("task", "seq", "and", "xor", "xor"))
        if kind == "task":
            return self.task()
        if kind == "seq":
            first, prev = self.block(depth - 1)
            for _ in range(rng.randint(1, 2)):
                i, o = self.block(depth - 1)
                self.flow(prev, i)
                prev = o
            return first, prev
        tag = "parallelGateway" if kind == "and" else "exclusiveGateway"
        split, join = self._id("g"), self._id("g")
        self.nodes += [f'<{tag} id="{split}"/>', f'<{tag} id="{join}"/>']
        for k in range(rng.randint(2, 3)):
            i, o = self.block(depth - 1)
            if kind == "and":
                self.flow(split, i)
            elif k == 0:
                self.flow(split, i, default=True)
            else:
                self.flow(split, i, condition=self._guard())
            self.flow(o, join)
        return split, join


def block_model_bpmn(rng: random.Random, flows: int, process_id: str) -> str:
    """A valid block-structured model with exactly `flows` sequence flows
    (at least 3): a top-level sequence of random nested blocks, padded with
    single tasks."""
    if flows < 3:
        raise ValueError("a model needs at least 3 flows")
    b = _Blocks(rng)
    prev = "start"
    misses = 0
    while misses < 4:
        mark_nodes, mark_flows, mark_n = len(b.nodes), len(b.flows), b.n
        i, o = b.block(rng.randint(1, 3))
        # +1 for the link into this block, +1 for the final flow to the end
        if len(b.flows) + 2 > flows:
            del b.nodes[mark_nodes:], b.flows[mark_flows:]
            b.n = mark_n
            misses += 1
            continue
        b.flow(prev, i)
        prev = o
    while len(b.flows) + 1 < flows:
        i, o = b.task()
        b.flow(prev, i)
        prev = o
    b.flow(prev, "end")
    variables = ['<bcext:variables>']
    variables += [f'  <bcext:variable name="{v}" type="uint256" initial="{rng.randint(0, 20)}"/>'
                  for v in _VARS]
    variables += ['  <bcext:variable name="flag" type="bool"/>', "</bcext:variables>"]
    body = (["<extensionElements>", *("  " + v for v in variables), "</extensionElements>",
             '<startEvent id="start"/>', '<endEvent id="end"/>']
            + b.nodes + b.flows)
    return _document(process_id, body)


# ---------------------------------------------------------------------------
# Registry spec


def ledger_spec(rng: random.Random, accounts: int,
                fixed: Dict[str, int]) -> Tuple[str, Dict[str, int]]:
    """An LRK token spec whose distribution holds `fixed` plus random
    accounts up to `accounts` in all. Returns the JSON text and the initial
    balance of every account, keyed by lower-case address."""
    balances = {a.lower(): amount for a, amount in fixed.items()}
    while len(balances) < accounts:
        balances.setdefault("0x%040x" % rng.getrandbits(160), rng.randint(1, 10**6))
    spec = {
        "name": "Lorikeet Coin", "symbol": "LRK", "decimals": 2,
        "totalSupply": str(sum(balances.values())),
        "isMintable": False, "minterAddresses": [],
        "isBurnable": False, "burnerAddresses": [],
        "initiallyDistributedAccounts": [
            {"address": a, "amount": str(v)} for a, v in balances.items()],
    }
    return json.dumps(spec, indent=1), balances


# ---------------------------------------------------------------------------
# Data traces with known verdicts


@dataclass
class DataTrace:
    name: str
    model: str  # fixture model file name
    events: List[dict]
    label: str  # expected classification label
    exit_code: int
    accepted: int  # events accepted before the verdict
    # balance the ledger must show afterwards, by lower-case address
    balances: Dict[str, int]
    absent: Tuple[str, ...] = ()  # accounts the ledger must not hold
    record_owner: Optional[str] = None


def read_trace(text: str) -> List[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def write_trace(events: List[dict]) -> str:
    return "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)


def task_predecessors(bpmn_text: str) -> Dict[str, str]:
    """Task name -> name of the task its one incoming flow comes from, for
    tasks fed directly by another task. Such a task cannot be enabled
    before its predecessor has fired."""
    process = next(ET.fromstring(bpmn_text).iter(f"{{{BPMN_NS}}}process"))
    names = {}
    for el in process:
        if el.tag.split("}")[1] in ("task", "userTask", "scriptTask"):
            names[el.get("id")] = el.get("name")
    return {names[f.get("targetRef")]: names[f.get("sourceRef")]
            for f in process.iter(f"{{{BPMN_NS}}}sequenceFlow")
            if f.get("sourceRef") in names and f.get("targetRef") in names}


def rejected_at(i: int) -> Tuple[str, int, int]:
    return f"NonConforming({i})", 2, i


def not_enabled_variants(name: str, model: str, events: List[dict],
                         preds: Dict[str, str], kind: str) -> List[DataTrace]:
    """Every swap (kind "swap") or every removal (kind "drop") of event i
    that lands the task of event i+1 at position i before its direct
    predecessor has fired: the trace is rejected at i with NotEnabled and
    no registry call runs."""
    out = []
    for i in range(len(events) - 1):
        if preds.get(events[i + 1]["task"]) != events[i]["task"]:
            continue
        if kind == "swap":
            variant = list(events)
            variant[i], variant[i + 1] = variant[i + 1], variant[i]
        else:
            variant = events[:i] + events[i + 1:]
        out.append(DataTrace(f"{name}-{kind}{i}", model, variant, *rejected_at(i), {}))
    return out


def overdraft_variant(name: str, model: str, events: List[dict], task: str,
                      amount_arg: str, payer_arg: str, payer: str, balance: int,
                      rng: random.Random) -> DataTrace:
    """At the event `task`, `payer` deposits more than it holds, so the
    registry call fails and the invocation rolls back, leaving the payer's
    balance as it was."""
    events = list(events)
    i = next(k for k, e in enumerate(events) if e["task"] == task)
    args = {**events[i]["args"], amount_arg: balance + rng.randint(1, 10**6),
            payer_arg: payer}
    events[i] = {**events[i], "args": args, "caller": payer}
    return DataTrace(f"{name}-overdraft", model, events, *rejected_at(i),
                     {payer: balance})
