"""The CLI's output on two generated block models, pinned by one digest:
the argv, exit code, stdout and stderr of `validate --json` and
`compile --dump-automaton`, and the files compile writes.

The models in block_models/ were written once by
perfbench/gen.block_model_bpmn (random.Random(7), 64 and 256 flows). They
hold scripts, guards, default flows, task inputs and folded gateways in
numbers the fixtures lack."""

import hashlib
import json
import pathlib
import shutil

from procforge.cli import main

MODELS = pathlib.Path(__file__).resolve().parent / "block_models"

DIGEST = "89eebaeb7670a8ca1bff201219e097d826e60245314f86b0190bf77699be2cf9"


def runs():
    for model in ("m064", "m256"):
        yield ["validate", model + ".bpmn", "--json"]
        yield ["compile", model + ".bpmn", "--dump-automaton", "-o", "out-" + model]


def test_block_model_cli_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    for path in MODELS.iterdir():
        shutil.copy(path, tmp_path)
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for argv in runs():
        code = main(argv)
        cap = capsys.readouterr()
        record = [argv, code, cap.out, cap.err]
        if argv[0] == "compile":
            record.append(sorted((p.name, p.read_text(encoding="utf-8"))
                                 for p in (tmp_path / argv[-1]).iterdir()))
        digest.update(json.dumps(record).encode("utf-8") + b"\n")
    assert digest.hexdigest() == DIGEST
