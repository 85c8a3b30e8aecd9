"""Benchmark of treebraid: the tree-to-Delta ladder, Delta recognition
through the CLI, and the verification layer.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one by one

For one workload: compile the package's bytecode, as an install would,
make the inputs from the seed (prepare.py), then run
timed passes over them, each in a fresh process (passes.py), until
--seconds have passed and at least MIN_PASSES passes have run, plus
set-up-only processes up to SETUP_SAMPLES set-up times.  Every pass's
answers are checked (checks.py) outside the timed region.  The last
line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over the
passes: wall_s (one pass, from the first call into treebraid to the
last answer), setup_s (process start to that first call) and
peak_rss_mb (peak resident set of a pass process).  With --trace 1
untraced and traced passes alternate; the metrics are the per-layer
figures of the traced passes (tracer.py), with import_s and the
tracing overhead.

Exits 2 without a result when the treebraid sources are not beside the
benchmark, and 1 when a pass process fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import prepare  # noqa: E402
from checks import Checker  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 15
PASS_TIMEOUT_S = 150
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def spawn(inputs, out, trace=False, setup_only=False):
    """Run passes.py once and return its result; waits for the process."""
    argv = [sys.executable, str(HERE / "passes.py"), "--inputs", str(inputs),
            "--out", str(out)]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(argv + ["--spawned-at", repr(spawned_at)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("pass process exited %d" % proc.returncode)
    return json.loads(Path(out).read_text())


def run_workload(workload, seed, seconds, trace):
    if not (prepare.SRC / "treebraid" / "__init__.py").is_file():
        print("treebraid sources not found under %s" % prepare.SRC,
              file=sys.stderr)
        return 2
    run_dir = prepare.WORK / "runs" / ("%s-%d-%d" % (workload, seed,
                                                     os.getpid()))
    try:
        # bytecode as an installed package has it, so that set-up does not
        # depend on whether an earlier process left a __pycache__ behind
        if not compileall.compile_dir(str(prepare.SRC / "treebraid"),
                                      quiet=1):
            raise SystemExit("treebraid does not compile")
        prepare.prepare(workload, seed, run_dir)
        expect = json.loads((run_dir / "expect.json").read_text())
        out = run_dir / "pass.json"
        plain, traced = [], []

        def enough():
            if trace:
                return plain and traced
            return len(plain) >= MIN_PASSES

        started = time.monotonic()
        while not enough() or time.monotonic() - started < seconds:
            use_trace = trace and len(traced) < len(plain)
            (traced if use_trace else plain).append(
                spawn(run_dir, out, trace=use_trace))
        setups = [r["setup_s"] for r in plain + traced]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(run_dir, out, setup_only=True)["setup_s"])
        checker = Checker(workload, expect)
        attempted = failed = 0
        unexpected = []
        for result in plain + traced:
            a, f, u = checker.check(result["answers"])
            attempted, failed = attempted + a, failed + f
            unexpected += u
        for line in sorted(set(unexpected)):
            print("wrong answer: %s" % line, file=sys.stderr)
        if trace:
            metrics = layer_metrics(plain, traced)
        else:
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in plain),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                 for r in plain),
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                       for k, v in metrics.items()}
        print(json.dumps({"correct": not unexpected, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def layer_metrics(plain, traced):
    """Medians over the traced passes of every per-layer figure, with
    import_s and the overhead of tracing on wall_s."""
    names = traced[0]["layers"].keys()
    out = {k: statistics.median(r["layers"][k] for r in traced)
           for k in names}
    out["import_s"] = statistics.median(r["import_s"] for r in plain + traced)
    wall = statistics.median(r["wall_s"] for r in plain)
    out["trace.overhead"] = (statistics.median(r["wall_s"] for r in traced)
                             / wall - 1.0)
    for name in traced[0].get("missing", []):
        print("trace target missing: %s" % name, file=sys.stderr)
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in out.items()}


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "overhead")):
        return "ratio"
    return "count"


def run_all(seed, seconds, trace):
    """Every workload in its own process, one summary line each."""
    results = {}
    for workload in prepare.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("%s: exited %d" % (workload, proc.returncode))
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[workload] = res
        figures = "  ".join("%s %.4g %s" % (k, m["value"], m["unit"])
                            for k, m in sorted(res["metrics"].items()))
        print("%-9s correct=%s attempted=%d failed=%d  %s"
              % (workload, res["correct"], res["attempted"], res["failed"],
                 figures))
    print(json.dumps(results))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=prepare.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
