"""The CLI's output on every fixture, pinned by one digest: the argv, exit
code, stdout and stderr of each run, and the files compile writes. The
runs use relative paths in a scratch working directory, so the digest does
not depend on where the repository lives. Timings are masked."""

import hashlib
import json
import re
import shutil

from procforge.cli import main

from conftest import FIXTURES

SPECS = {
    "grain_title": ["lrk.json", "grain_title.json"],
    "grain_title_unbound": ["lrk.json", "grain_title.json"],
    "ico": ["lrk.json"],
    "quality_tracing": ["certificate.json"],
    "task_outsourcing": ["lrk.json"],
}
TRACES = {
    "grain_swap.jsonl": "grain_title",
    "grain_refund.jsonl": "grain_title",
    "outsourcing_correct.jsonl": "task_outsourcing",
    "outsourcing_wrong.jsonl": "task_outsourcing",
}
CONFORMANCE_MODELS = ["grain_title", "ico", "quality_tracing", "task_outsourcing"]
FLAGS = [[], ["--json"], ["--prefix"], ["--json", "--prefix"]]
TIMING = re.compile(r'(?<="elapsedMs": )\d+|(?<=elapsed: )\d+(?= ms)')

DIGEST = "8c6d01409fbb2d14a1ea7d80ed278a5539d5391f1ebc11aaa3df5dc07bca2a26"


def model_args(model):
    return [model + ".bpmn"] + [arg for spec in SPECS[model] for arg in ("--registry", spec)]


def runs():
    for model in SPECS:
        for flags in ([], ["--json"]):
            yield ["validate", *model_args(model), *flags]
    for model in SPECS:
        yield ["compile", *model_args(model), "--dump-automaton", "-o", "out-" + model]
    for trace, model in TRACES.items():
        for flags in FLAGS:
            yield ["simulate", *model_args(model), "--trace", trace, *flags]
    for model in CONFORMANCE_MODELS:
        for seed in ("0", "7", "42"):
            for flags in FLAGS:
                yield ["conformance", *model_args(model), "--seed", seed, *flags]


def test_fixture_cli_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    for path in FIXTURES.iterdir():
        shutil.copy(path, tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PROCFORGE_SEED", raising=False)
    digest = hashlib.sha256()
    for argv in runs():
        code = main(argv)
        cap = capsys.readouterr()
        record = [argv, code, TIMING.sub("N", cap.out), TIMING.sub("N", cap.err)]
        if argv[0] == "compile":
            record.append(sorted((p.name, p.read_text(encoding="utf-8"))
                                 for p in (tmp_path / argv[-1]).iterdir()))
        digest.update(json.dumps(record).encode("utf-8") + b"\n")
    assert digest.hexdigest() == DIGEST
