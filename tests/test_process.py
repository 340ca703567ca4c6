"""The CLI at its process boundary.

``python -m cocycle_lab.cli`` ends through ``cli.run``, which flushes both
streams and leaves without the interpreter's teardown; a process must still
write what ``cli.main`` writes in-process, and exit with the code it returns.
Under ``--json`` every outcome but an internal error (and a usage error)
writes exactly one report whose ``exit_code`` is the status.
"""

import json
import os
import subprocess
import sys

import pytest

from cocycle_lab import cli

FIXTURES = os.path.join(os.path.dirname(cli.__file__), "fixtures")
SRC = os.path.dirname(os.path.dirname(cli.__file__))
NAMES = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".problem"))
# the golden matrix's commands (tests/test_cli_golden.py)
COMMANDS = (["validate"], ["center"], ["twisted-center"], ["quotient"], ["decompose"],
            ["verdict"], ["simplicity"], ["torus"], ["heisenberg"], ["tf"],
            ["product", "--n1", "1"])


def in_process(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


PROCESS_RUNS = ([["verdict", "--json", n] for n in NAMES]
                + [["decompose", "--trace", n] for n in NAMES]
                + [["verdict", "no-such-file.problem"],         # exit 1
                   ["heisenberg", "--json", "g3.problem"],      # exit 2
                   # argparse prints the help and leaves stdout unflushed
                   ["verdict", "--help"]])


@pytest.mark.parametrize("argv", PROCESS_RUNS, ids=" ".join)
def test_a_process_writes_and_exits_as_main_returns(argv, capsys, monkeypatch):
    monkeypatch.delenv("COCYCLE_LAB_CASE_BUDGET", raising=False)
    monkeypatch.chdir(FIXTURES)
    # stdout on a pipe is block-buffered unless PYTHONUNBUFFERED says otherwise
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-m", "cocycle_lab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    got = (proc.returncode, proc.stdout, proc.stderr)
    assert got == in_process(argv, capsys)
    assert got[1] or got[2]  # something was written, and it reached the pipes


@pytest.mark.parametrize("budget", [[], ["--case-budget", "1"]], ids=["default", "budget-1"])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_every_json_outcome_is_one_report_with_the_status(command, budget, capsys, monkeypatch,
                                                          tmp_path):
    """On every fixture and on an unreadable path (a directory), stdout is
    one JSON document whose exit_code is the status; none is an internal
    error."""
    monkeypatch.delenv("COCYCLE_LAB_CASE_BUDGET", raising=False)
    for path in [os.path.join(FIXTURES, n) for n in NAMES] + [str(tmp_path)]:
        code, out, err = in_process(command[:1] + ["--json", path] + command[1:] + budget,
                                    capsys)
        report = json.loads(out)
        assert (report["command"], report["input"]) == (command[0], path)
        assert report["exit_code"] == code and code in (0, 1, 2), (path, err)
        assert "internal error" not in out + err
        if err:  # the stderr line's message is the report's error
            assert err == f"{'error' if code == 1 else 'undecided'}: {report['error']}\n"

