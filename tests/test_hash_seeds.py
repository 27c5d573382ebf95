"""No pinned output depends on the hash seed: the tests that pin outputs byte
for byte pass in pytest subprocesses under PYTHONHASHSEED=0 and =1, as
tests/test_pytest_settings.py runs pytest. A set of strings iterated on its
way to an output orders that output by the seed, which the suite's own run
leaves random; these two runs fix it to two values."""

import os
import subprocess
import sys
from pathlib import Path

import procforge

ROOT = Path(__file__).resolve().parent.parent

PINNED = [
    "tests/test_cli_digest.py",
    "tests/test_block_model_digest.py",
    "tests/test_acceptance.py::test_criterion_05_golden_outputs_byte_identical",
    "tests/test_codegen.py::test_registry_text_is_pinned_for_every_accepted_flag_combination",
    "tests/test_cli.py::test_validate_json_of_names_that_clash_with_emitted_ones_is_pinned",
]


def test_pinned_outputs_hold_under_two_hash_seeds():
    src = str(Path(procforge.__file__).resolve().parent.parent)
    runs = {seed: subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), *PINNED],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        for seed in ("0", "1")}
    try:
        for seed, proc in runs.items():
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0, f"PYTHONHASHSEED={seed}:\n{out}"
            assert f"{len(PINNED)} passed" in out, out
    finally:
        for proc in runs.values():
            proc.kill()
            proc.communicate()
