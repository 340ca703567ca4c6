"""cocycle-lab benchmark: seeded closed-loop workloads with exact answers.

Run from the repository root:

    python3 perfbench/run.py --workload chain-free --seed 1 --seconds 30 --trace 0

One client sends the next problem when the previous verdict returns.  Every
verdict is checked against a reference that does not come from the engine's
current run (`fixtures/expected.json`, or the hand derivation in chain.py).
Each metric is printed by name with its unit; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
`--trace 1` the per-layer metrics, from a separate run that wraps the
engine's public functions (tracer.py).  `--smoke` runs one short pass of
everything, for tests.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import chain
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "cocycle_lab", "fixtures")
WORK = os.path.join(ROOT, ".perfbench_work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# The workload's environment: no case-budget override, a fixed hash seed,
# the checkout's sources on the path, and byte-code caching as installed.
UNPINNED = ("COCYCLE_LAB_CASE_BUDGET", "PYTHONDONTWRITEBYTECODE",
            "PYTHONOPTIMIZE", "PYTHONSTARTUP")
PINNED = {"PYTHONHASHSEED": "0", "PYTHONPATH": SRC}

SETUP_SAMPLES = 11  # set-ups per run; setup_s is their median
PROBE_SAMPLES = 5  # process-start and import-time probes per traced run
CURVE_SAMPLES = 3  # timings per size for the chain.n*_ms curve
# chain-free instance sets, one torus per size each; cycle k uses set
# k mod CHAIN_SETS.  Costs differ by up to a fifth between sets, so a
# run draws a fresh set for about every cycle it has time for.
CHAIN_SETS = 20
FALLBACK_NOTE = "generic recursion left cases unresolved"
# On a shared virtual machine each CPU can run slower or faster for seconds
# at a time, by up to a factor of two (seen on a 2-vCPU VM).  Operations take
# the allowed CPUs in turn, so that every run samples all of them alike.
CPUS = sorted(os.sched_getaffinity(0))


def pin(i):
    """Put this process, and the children it starts, on the i-th allowed
    CPU in turn; on all of them again for None."""
    os.sched_setaffinity(0, CPUS if i is None else {CPUS[i % len(CPUS)]})


def pinned_env():
    env = {k: v for k, v in os.environ.items() if k not in UNPINNED}
    env.update(PINNED)
    return env


def trace_sha256(trace):
    blob = json.dumps(trace, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def walk(node):
    yield node
    for branch in node["branches"]:
        if branch["child"]:
            yield from walk(branch["child"])


def verdicts(decision, p):
    """One operation: both verdicts of a problem, through the module so that
    a traced run sees the calls."""
    return (decision.decide(p.cocycle, p.context),
            decision.decide_simplicity(p.cocycle, p.context))


def chain_check(item, outcome):
    v, (simple, branches, _) = outcome
    n = item[0][1]
    return [f"n={n}: {m}" for m in chain.mismatches(
        n, v.certificate.to_dict(), simple, [b.verdict for b in branches])]


def fixture_refs():
    with open(os.path.join(FIXTURES, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    return [(name, os.path.join(FIXTURES, name + ".problem"), rec)
            for name, rec in sorted(expected.items())]


def fixture_mismatches(rec, verdict):
    """Differences between a `--json` verdict and its expected.json pin."""
    out = [f"{key} {verdict[key]} != {rec[key]}"
           for key in ("z_stable", "simple") if verdict[key] != rec[key]]
    if trace_sha256(verdict["trace"]) != rec["trace_sha256"]:
        out.append("trace_sha256 differs")
    return out


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Items, a seeded order per cycle, one timed operation and its check."""

    def __init__(self, seed, smoke):
        self.seed = seed
        self.smoke = smoke
        self.mods = {}

    def import_engine(self, *names):
        for name in names:
            self.mods[name] = importlib.import_module(f"cocycle_lab.{name}")

    def cycle(self, k):
        items = list(self.items)
        random.Random(f"{self.name}-{self.seed}-{k}").shuffle(items)
        return items

    def close(self):
        pass


class CliFixtures(Workload):
    """A fresh `verdict --json` process per fixture: what a CLI user pays."""

    name = "cli-fixtures"

    def setup(self):
        self.import_engine("cli")
        self.items = fixture_refs()
        for _, path, _ in self.items:  # parsed as each CLI call will
            self.mods["cli"].load_problem(path)
        self.max_rss_kb = 0

    def run(self, item):
        proc = subprocess.Popen(
            [sys.executable, "-m", "cocycle_lab.cli", "verdict", "--json",
             item[1]], cwd=ROOT, env=pinned_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        with proc.stdout:
            text = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return proc.returncode, text

    def trace_pass(self):
        out = []
        for item in self.cycle(0):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.mods["cli"].main(["verdict", "--json", item[1]])
            out.append((item, (code, buf.getvalue())))
        return out

    def check(self, item, outcome):
        name, _, rec = item
        code, text = outcome
        # exit 2 is the CLI's honest "undecided", correct where it is pinned
        want = 2 if rec["z_stable"] == "Undecided" else 0
        if code != want:
            return [f"{name}: exit {code} != {want}: {text[-300:]}"]
        return [f"{name}: {m}" for m in
                fixture_mismatches(rec, json.loads(text)["verdict"])]

    def trace_of(self, outcome):
        return json.loads(outcome[1])["verdict"]["trace"]

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024


class InProcess(Workload):
    """decide() and decide_simplicity() called in this process."""

    def run(self, item):
        return verdicts(self.mods["decision"], item[1])

    def trace_pass(self):
        loaded = dict(self.load())
        items = [(key, loaded[key]) for key, _ in self.cycle(0)]
        return [(item, self.run(item)) for item in items]

    def trace_of(self, outcome):
        return outcome[0].certificate.to_dict()

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class LibFixtures(InProcess):
    """The ten shipped fixtures, in-process, in seeded order."""

    name = "lib-fixtures"

    def setup(self):
        self.import_engine("decision", "problem")
        self.refs = {name: rec for name, _, rec in fixture_refs()}
        self.items = self.load()

    def load(self):
        load = self.mods["problem"].load_problem
        return [(name, load(path)) for name, path, _ in fixture_refs()]

    def check(self, item, outcome):
        v, (simple, _, _) = outcome
        verdict = {"z_stable": v.z_stable, "simple": simple,
                   "trace": v.certificate.to_dict()}
        return [f"{item[0]}: {m}" for m in
                fixture_mismatches(self.refs[item[0]], verdict)]


class ChainFree(InProcess):
    """Chain tori Z^3..Z^7 with free parameters: the case-split family."""

    name = "chain-free"
    dir = None

    def setup(self):
        self.import_engine("decision", "problem")
        sets = chain.instance_sets(self.seed, 1 if self.smoke else CHAIN_SETS)
        os.makedirs(WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=WORK)
        self.paths = []
        for k, texts in enumerate(sets):
            for n, text in texts.items():
                path = os.path.join(self.dir, f"chain{k}-n{n}.problem")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                self.paths.append(((k, n), path))
        self.sets = len(sets)
        self.items = self.load(range(self.sets))

    def load(self, sets=(0,)):
        load = self.mods["problem"].load_problem
        return [(key, load(path)) for key, path in self.paths
                if key[0] in sets]

    def cycle(self, k):
        items = [item for item in self.items if item[0][0] == k % self.sets]
        random.Random(f"{self.name}-{self.seed}-{k}").shuffle(items)
        return items

    def check(self, item, outcome):
        return chain_check(item, outcome)

    def close(self):
        if self.dir:
            shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


WORKLOADS = {w.name: w for w in (CliFixtures, LibFixtures, ChainFree)}


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, check, item, outcome):
        try:
            errors = check(item, outcome)
        except (KeyError, ValueError, TypeError) as e:
            errors = [f"unreadable outcome: {e!r}"]
        self.count(errors)
        return not errors

    def count(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            if self.failed <= 5:
                print("FAILED " + "; ".join(errors), file=sys.stderr)


def timed_op(wl, item, tally):
    """Latency in seconds of one verdict, or None if it crashed or was wrong."""
    t0 = perf_counter()
    try:
        outcome = wl.run(item)
    except Exception:  # a crash is a failed operation, not the end
        tally.count([f"{item[0]} crashed:\n{traceback.format_exc()}"])
        return None
    dt = perf_counter() - t0
    return dt if tally.check(wl.check, item, outcome) else None


def setup_seconds(args):
    """Median set-up time of fresh processes, each timing its own set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    try:
        # the first set-up in a fresh checkout also compiles byte code
        for i in range(1 if args.smoke else SETUP_SAMPLES + 1):
            pin(i)
            out = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), check=True,
                                 capture_output=True, text=True, timeout=120)
            if i or args.smoke:
                samples.append(float(out.stdout.split()[-1]))
    finally:
        pin(None)
    return statistics.median(samples)


def central(latencies):
    """The median, as the mean of the middle tenth of the sorted samples.

    For an even count the median is the midpoint of the two middle samples;
    widening that to a tenth keeps a gap between the costs of two problems
    at the 50% point from making the value jump between runs."""
    s = sorted(latencies)
    lo = int(len(s) * 0.45)
    return statistics.fmean(s[lo:max(lo + 1, math.ceil(len(s) * 0.55))])


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it; the maximum when there are too few."""
    s = sorted(latencies)
    beyond = 10 if len(s) > 10 else 0
    rank = len(s) - beyond  # 1-based rank of the reported sample
    return s[rank - 1], 100.0 * rank / len(s), beyond


def end_to_end(wl, args):
    setup = setup_seconds(args)
    tally = Tally()
    for item in wl.cycle(-1):  # warm-up cycle, checked but not timed
        timed_op(wl, item, tally)
    latencies = []
    t_start = perf_counter()
    k = 0
    try:
        while True:
            for item in wl.cycle(k):
                pin(tally.attempted)
                dt = timed_op(wl, item, tally)
                if dt is not None:
                    latencies.append(dt)
            k += 1
            if args.smoke or perf_counter() - t_start >= args.seconds:
                break
    finally:
        pin(None)
    wall = perf_counter() - t_start
    if not latencies:
        raise SystemExit("no operation succeeded")
    busy = sum(latencies)
    value, pct, beyond = tail(latencies)
    metrics = {
        "verdict_p50_ms": central(latencies) * 1e3,
        "verdict_tail_ms": value * 1e3,
        "verdicts_per_s": len(latencies) / busy,
        "setup_s": setup,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    notes = {
        "verdict_tail_ms": f"p{pct:.2f}: {beyond} of {len(latencies)} "
                           f"samples beyond",
        "verdicts_per_s": f"{len(latencies)} verdicts, {busy:.2f} s busy "
                          f"of {wall:.2f} s measured",
        "setup_s": f"median of {1 if args.smoke else SETUP_SAMPLES} set-ups",
    }
    print(f"failed_ratio {tally.failed / tally.attempted} ratio "
          f"({tally.failed} of {tally.attempted} attempted)")
    return tally, metrics, notes


def run_passes(wl, tally, budget, smoke, before=None, after=None):
    """Whole passes (at least two) until `budget` seconds have gone."""
    times, passes = [], []
    t_start = perf_counter()
    while len(times) < 2 or (not smoke and perf_counter() - t_start < budget):
        if before:
            before()
        t0 = perf_counter()
        results = wl.trace_pass()
        times.append(perf_counter() - t0)
        if after:
            after()
        for item, outcome in results:
            tally.check(wl.check, item, outcome)
        passes.append(results)
    return times, passes


def decision_counts(wl, results):
    traces = [wl.trace_of(outcome) for _, outcome in results]
    nodes = [node for t in traces for node in walk(t)]
    return {"decision.nodes": len(nodes),
            "decision.max_level": max(node["level"] for node in nodes),
            "decision.fallbacks": sum(
                any(FALLBACK_NOTE in note for note in t["notes"])
                for t in traces)}


def layer_values(snap):
    out = {}
    for name, calls in snap["calls"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_ms"] = snap["self_s"][name] * 1e3
        out[f"{name}.incl_ms"] = snap["incl_s"][name] * 1e3
        layer = name.split(".")[0]
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + calls
        out[f"{layer}.self_ms"] = (out.get(f"{layer}.self_ms", 0.0)
                                   + snap["self_s"][name] * 1e3)
    out.update(snap["counts"])
    return out


def probe_ms(cmd, samples, parse):
    values = []
    for _ in range(samples):
        t0 = perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), check=True,
                             capture_output=True, text=True, timeout=60)
        values.append(parse(out, perf_counter() - t0))
    return statistics.median(values)


def import_ms(out, _):
    # python -X importtime: "import time: self [us] | cumulative | package"
    for line in out.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "cocycle_lab.cli":
            return int(fields[1]) / 1e3
    raise ValueError("cocycle_lab.cli missing from the import-time report")


def chain_curve(seed, samples, tally):
    """Median milliseconds of one chain-torus verdict per size n."""
    problem = importlib.import_module("cocycle_lab.problem")
    decision = importlib.import_module("cocycle_lab.decision")
    out = {}
    for n, text in chain.instance_sets(seed, 1)[0].items():
        item = ((0, n), problem.parse_problem(text))
        times = []
        for _ in range(samples):
            t0 = perf_counter()
            outcome = verdicts(decision, item[1])
            times.append(perf_counter() - t0)
            tally.check(chain_check, item, outcome)
        out[f"chain.n{n}_ms"] = statistics.median(times) * 1e3
    return out


def src_lines():
    pkg = os.path.join(SRC, "cocycle_lab")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def per_layer(wl, args):
    tally = Tally()
    budget = args.seconds / 3
    plain, _ = run_passes(wl, tally, budget, args.smoke)
    rec = tracer.Tracer()
    snaps = []
    undo = tracer.install(rec)
    try:
        traced, passes = run_passes(wl, tally, budget, args.smoke,
                                    before=rec.reset,
                                    after=lambda: snaps.append(rec.snapshot()))
    finally:
        undo()
    per_pass = [dict(layer_values(snap), **decision_counts(wl, results))
                for snap, results in zip(snaps, passes)]
    metrics = {}
    for key in set().union(*per_pass):
        values = [p.get(key, 0) for p in per_pass]
        if isinstance(values[0], int):
            if len(set(values)) != 1:  # counts must repeat exactly
                tally.count([f"{key} differs between passes: {values}"])
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    samples = 1 if args.smoke else PROBE_SAMPLES
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(plain))
    metrics["process.start_ms"] = probe_ms(
        [sys.executable, "-c", "pass"], samples, lambda _, dt: dt * 1e3)
    metrics["cli.import_ms"] = probe_ms(
        [sys.executable, "-X", "importtime", "-c", "import cocycle_lab.cli"],
        samples, import_ms)
    metrics.update(chain_curve(args.seed, 1 if args.smoke else CURVE_SAMPLES,
                               tally))
    metrics["src_lines"] = src_lines()
    print(f"{len(plain)} untraced and {len(traced)} traced passes")
    return tally, metrics, {}


def defaults(names):
    """Calls and times of wrapped functions that a workload never reached."""
    spans = set(tracer.originals().values())
    spans |= {name.split(".")[0] for name in spans}
    out = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if span in spans and kind in ("calls", "self_ms", "incl_ms"):
            out[name] = 0 if kind == "calls" else 0.0
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one short pass of everything (for tests)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if any(os.environ.get(k) != v for k, v in PINNED.items()) or any(
            k in os.environ for k in UNPINNED):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], pinned_env())
    if not os.path.isfile(os.path.join(FIXTURES, "expected.json")):
        print(f"error: no cocycle-lab sources under {SRC}", file=sys.stderr)
        return 1
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    try:
        t0 = perf_counter()
        wl.setup()
        if args.setup_probe:
            print(perf_counter() - t0)
            return 0
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        tally, values, notes = (per_layer if args.trace else end_to_end)(
            wl, args)
    finally:
        wl.close()
    values = dict(defaults([m["name"] for m in wanted]), **values)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = notes.get(m["name"])
        print(f"{m['name']} {values[m['name']]} {m['unit']}"
              + (f" ({note})" if note else ""))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
