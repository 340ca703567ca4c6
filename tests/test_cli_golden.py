"""Byte-for-byte pins of the CLI's output on every shipped fixture.

Each entry of `cli_golden.json` is the sha256 of one run's exit code, stdout
and stderr: the `--json` report of every command (keyed "<command> <file>"),
and its human-readable text, plain and with `--trace` (keyed "<command>
<file> [plain]" and "<command> <file> [trace]").  Runs go through `cli.main`
in-process, with the fixtures directory as the working directory and the
bare file name as the argument, so that the report's `input` field does not
depend on where the package lives.  Regenerate (only for an intended output
change, listed in CHANGES.md) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from cocycle_lab import cli

FIXTURES = os.path.join(os.path.dirname(cli.__file__), "fixtures")
GOLDEN = os.path.join(os.path.dirname(__file__), "cli_golden.json")
COMMANDS = (["validate"], ["center"], ["twisted-center"], ["quotient"], ["decompose"],
            ["verdict"], ["simplicity"], ["torus"], ["heisenberg"], ["tf"],
            ["product", "--n1", "1"])
NAMES = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".problem"))
# output mode -> its flags; the json keys carry no mode tag
MODES = {"json": ["--json"], "plain": [], "trace": ["--trace"]}


def key(command, name, mode="json"):
    tag = "" if mode == "json" else f" [{mode}]"
    return f"{' '.join(command)} {name}{tag}"


def digest(command, name, mode="json"):
    """sha256 of (exit code, stdout, stderr) of one run; the working
    directory must be FIXTURES."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command[:1] + MODES[mode] + [name] + command[1:])
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_golden_covers_every_command_and_fixture():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(NAMES) == 10
    assert sorted(golden) == sorted(key(c, n, m) for c in COMMANDS for n in NAMES
                                    for m in MODES)


def changed_outputs(command, mode, monkeypatch):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    monkeypatch.delenv("COCYCLE_LAB_CASE_BUDGET", raising=False)
    monkeypatch.chdir(FIXTURES)
    return [n for n in NAMES if digest(command, n, mode) != golden[key(command, n, mode)]]


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(command, monkeypatch):
    changed = changed_outputs(command, "json", monkeypatch)
    assert not changed, f"output changed on {changed}"


@pytest.mark.parametrize("mode", ["plain", "trace"])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_human_output_matches_golden(command, mode, monkeypatch):
    changed = changed_outputs(command, mode, monkeypatch)
    assert not changed, f"{mode} output changed on {changed}"


if __name__ == "__main__":
    os.environ.pop("COCYCLE_LAB_CASE_BUDGET", None)
    here = os.getcwd()
    os.chdir(FIXTURES)
    table = {key(c, n, m): digest(c, n, m) for c in COMMANDS for n in NAMES for m in MODES}
    os.chdir(here)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
