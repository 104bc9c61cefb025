"""The real processes: the CLI module and the demo scripts, run as a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CIPHER_AUTOPSY_FIXTURES", None)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_cli_module_success():
    proc = run("-m", "cipher_autopsy.cli", "keygen", "--seed", "9")
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert doc["km_self_inverse"] is True and len(doc["key_hex"]) == 8


@pytest.mark.parametrize(
    "argv,code",
    [(["encrypt", "--alg", "nope"], 2), (["attack", "fixed-points"], 3)],
)
def test_cli_module_error_is_one_json_line(argv, code):
    proc = run("-m", "cipher_autopsy.cli", *argv)
    assert (proc.returncode, proc.stdout) == (code, "")
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["code"] == code


@pytest.mark.parametrize(
    "script",
    [
        [str(ROOT / "scripts" / "run_attacks.py")],
        ["-m", "cipher_autopsy.cli", "report", "--seed", "1"],
        [str(ROOT / "scripts" / "find_demo_curve.py")],
    ],
)
def test_demo_script_runs(script):
    proc = run(*script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
