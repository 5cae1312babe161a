"""A fixed corpus of CLI commands, pinned byte for byte.

Each case is one or more commands run in-process, in order, in a fresh
working directory. For each command the exit code and the sha256 of
stdout, stderr and the ``--out`` file (if any) must equal the pins in
``cli_corpus.json``. A change that means to keep the CLI's behaviour
keeps every pin; one that changes an output on purpose regenerates the
pins and says which cases moved:

    PYTHONPATH=src python tests/test_cli_corpus.py

Argparse usage errors are left out: their text differs between Python
versions.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

PINS = Path(__file__).resolve().with_name("cli_corpus.json")

CASES = {
    "construct-rational": [["construct", "--set", "9/25"]],
    "construct-rational-out": [["construct", "--set", "9/25,4", "--out", "art.json"]],
    "construct-negative-first": [["construct", "--set=-1/8,4/25"]],
    "construct-three-denominators": [["construct", "--set", "1/49,8/27,4/121"]],
    "construct-integer": [["construct", "--set", "4,8,36", "--variant", "integer"]],
    "construct-empty": [["construct", "--set", ""]],
    "construct-not-powers": [["construct", "--set", "5,9/25"]],
    "construct-duplicates": [["construct", "--set", "4,4/1"]],
    "construct-unparsable": [["construct", "--set", "1/0"]],
    "construct-integer-non-integer": [["construct", "--set", "9/25", "--variant", "integer"]],
    "construct-capacity": [["construct", "--set", "4/9", "--kappa-cap", "1"]],
    "construct-bad-policy": [["construct", "--set", "4/9", "--t-max", "-1"]],
    "verify-rational": [["verify", "--set", "9/25", "--height", "30"]],
    "verify-rational-workers": [["verify", "--set", "9/25", "--height", "30", "--workers", "2"]],
    "verify-rational-progress": [["verify", "--set", "9/25,4", "--height", "12", "--progress"]],
    "verify-rational-workers-progress": [
        ["verify", "--set", "-1/8,4", "--height", "12", "--workers", "2", "--progress"]
    ],
    "verify-integer": [["verify", "--set", "4,8,36", "--variant", "integer", "--bound", "100"]],
    "verify-integer-workers-progress": [
        ["verify", "--set", "0,1,-8", "--variant", "integer", "--bound", "60",
         "--workers", "2", "--progress"]
    ],
    "verify-empty": [["verify", "--set", "", "--height", "5"]],
    "verify-empty-integer": [["verify", "--set", "", "--variant", "integer", "--bound", "20"]],
    "verify-wrong-window": [["verify", "--set", "9/25", "--bound", "10"]],
    "verify-zero-workers": [["verify", "--set", "9/25", "--height", "3", "--workers", "0"]],
    "verify-missing-file": [["verify", "--artifacts", "nope.json", "--height", "5"]],
    "roundtrip-rational": [
        ["construct", "--set", "9/25,4", "--out", "art.json"],
        ["verify", "--artifacts", "art.json", "--height", "15"],
    ],
    "roundtrip-rational-t-max": [
        ["construct", "--set=25/4", "--t-max", "5", "--out", "art.json"],
        ["verify", "--artifacts", "art.json", "--height", "3"],
    ],
    "roundtrip-two-deltas": [
        ["construct", "--set=-27/8,-64/27", "--out", "art.json"],
        ["verify", "--artifacts", "art.json", "--height", "3"],
    ],
    "roundtrip-integer": [
        ["construct", "--set", "4,8", "--variant", "integer", "--out", "art.json"],
        ["verify", "--artifacts", "art.json", "--bound", "50", "--workers", "2"],
    ],
    "roundtrip-empty": [
        ["construct", "--set", "", "--out", "art.json"],
        ["verify", "--artifacts", "art.json", "--height", "5"],
    ],
    "trace-ok": [["trace", "--set", "9/25", "--x", "1/2"]],
    "trace-undersized-k": [["trace", "--set", "1/289", "--x", "20/289", "--k", "4"]],
    "trace-bad-k": [["trace", "--set", "9/25", "--x", "1/2", "--k", "6"]],
    "oracle-lebesgue": [["oracle", "lebesgue", "--bound", "300", "--n-max", "9",
                         "--expect", "paper"]],
    "oracle-lebesgue-workers": [["oracle", "lebesgue", "--bound", "300", "--n-max", "9",
                                 "--workers", "2"]],
    "oracle-catalan": [["oracle", "catalan", "--base-bound", "30", "--exp-bound", "8",
                        "--expect", "paper"]],
    "oracle-fermat": [["oracle", "fermat", "--bound", "30", "--n-max", "5", "--expect", "paper"]],
    "oracle-fermat-2cn-workers": [["oracle", "fermat", "--bound", "30", "--n-max", "5",
                                   "--variant", "2cn", "--workers", "2"]],
    "oracle-recurrence": [["oracle", "recurrence", "--a", "1", "--b", "1", "--alpha", "2",
                           "--beta", "1", "--t-max", "20"]],
    "oracle-gamma": [["oracle", "gamma", "--gamma", "9", "--t-max", "20"]],
    "power-yes": [["power", "-8/27"]],
    "power-no": [["power", "12"]],
    "power-unparsable": [["power", "x/2"]],
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(steps) -> list[dict]:
    """Run each command of a case in the current directory; one record per command."""
    from power_forge.cli import main

    records = []
    for argv in steps:
        out_file = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        records.append({
            "exit": code,
            "stdout": _digest(out.getvalue().encode()),
            "stderr": _digest(err.getvalue().encode()),
            "out": _digest(out_file.read_bytes()) if out_file and out_file.exists() else None,
        })
    return records


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("POWER_FORGE_WORKERS", raising=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_corpus(name, in_tmp):
    pins = json.loads(PINS.read_text())
    assert run_case(CASES[name]) == pins[name]


def test_every_case_is_pinned():
    assert sorted(json.loads(PINS.read_text())) == sorted(CASES)


def _write_pins() -> None:
    """Rerun every case, write the pins and name each case whose pins moved."""
    import tempfile

    os.environ.pop("POWER_FORGE_WORKERS", None)
    old = json.loads(PINS.read_text()) if PINS.exists() else {}
    home = os.getcwd()
    pins = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                pins[name] = run_case(CASES[name])
            finally:
                os.chdir(home)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    moved = [name for name in sorted(pins.keys() | old.keys()) if pins.get(name) != old.get(name)]
    for name in moved:
        print(f"moved: {name}")
    print(f"wrote {len(pins)} cases to {PINS}; {len(moved)} moved")


if __name__ == "__main__":
    _write_pins()
