"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import chain
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-fixtures", "lib-fixtures", "chain-free")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "3",
         "--seconds", "1", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300)


def result(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two smoke runs of every workload with tracing on."""
    return {w: [result(bench("--workload", w, "--trace", "1", "--smoke"))
                for _ in range(2)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    out = bench("--workload", workload, "--trace", "0", "--smoke")
    res = result(out)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert "failed_ratio 0.0 ratio" in out.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_counts_repeat(
        traced, workload):
    first, second = traced[workload]
    assert first["correct"] and first["failed"] == 0
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert ({k: first["metrics"][k] for k in counts}
            == {k: second["metrics"][k] for k in counts})
    assert first["metrics"]["decision.decide.incl_ms"]["value"] > 0


def test_spans_cover_every_binding():
    """Each call of a wrapped function, whichever module's name for it the
    caller used, is counted once: compare with a profiler's call events."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import cocycle_lab.cli as cli
    finally:
        sys.path.pop(0)
    fixture = os.path.join(ROOT, "src", "cocycle_lab", "fixtures",
                           "heis-1-2.problem")
    codes = tracer.originals()
    seen = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            name = codes[frame.f_code]
            seen[name] = seen.get(name, 0) + 1

    rec = tracer.Tracer()
    undo = tracer.install(rec)
    sys.setprofile(profile)
    try:
        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                assert cli.main(["verdict", "--json", fixture]) == 0
            finally:
                sys.stdout = stdout
    finally:
        sys.setprofile(None)
        undo()
    assert dict(rec.calls) == seen
    assert rec.calls["cocycles.validate_cocycle"] >= 2  # _load and decide


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "lib-fixtures", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_chain_reference_counts():
    assert [chain.edge_covers(n) for n in chain.SIZES] == [1, 2, 3, 5, 8]
    assert chain.instance_sets(7, 2) == chain.instance_sets(7, 2)
