"""Benchmark of the amalgam calculator: three seeded workloads, checked.

    python3 perfbench/run.py --workload corner-sweep --seed 1 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from src/. With
--trace 0 the last line of output is a JSON object holding the end-to-end
metrics of BENCHMARK.json; with --trace 1 it holds the per-layer metrics,
measured by wrapping the package's entry points from outside (tracing.py).
Times are in reference seconds, wall-clock time scaled by the speed of a
reference loop run between operations (refclock.py); the wall-clock figures
are printed above the result line. The exit code is 0 only when every
output checked out.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from refclock import RefClock  # noqa: E402
from tracing import OperandSampler, Tracer, time_per_call  # noqa: E402
from workloads import WORKLOADS, seeded  # noqa: E402

MODULES = ("scalars", "words", "boundary", "fmalg", "engine", "matrix",
           "config", "dsl", "cli")
SETUP_REPEATS = 9
DEFAULT_SEED = 1
HASH_SEED = "0"
clock = time.perf_counter


def load_amalgam():
    """Import the package afresh, so each set-up pays for its imports."""
    for name in list(sys.modules):
        if name == "amalgam" or name.startswith("amalgam."):
            del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module("amalgam." + name)
               for name in MODULES}
    return SimpleNamespace(MODULES=MODULES, **modules)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def leaf_timings(am, seed):
    """ns per QC and ReducedWord product, on operands sampled from short
    slices of the corner-sweep and boundary-dual inputs."""
    ref = RefClock()
    sampler = OperandSampler(am.scalars.QC, "__mul__")
    try:
        _, model = WORKLOADS["corner-sweep"].setup(
            am, seeded(seed, "corner-sweep"))
        am.matrix.family_freeness_report(model, max_len=2, n_limit=2,
                                         i_values=(2, 3), kappas=(1,))
    finally:
        qc_pairs = sampler.close()
    sampler = OperandSampler(am.words.ReducedWord, "__mul__")
    try:
        product, words = WORKLOADS["boundary-dual"].setup(
            am, seeded(seed, "boundary-dual"))
        for letters in words[:20]:  # every word of length <= 2
            product.expectation(letters)
            product.oracle_expectation(letters)
    finally:
        word_pairs = sampler.close()
    return {
        "scalars.qc_mul_ns": time_per_call(am.scalars.QC.__mul__, qc_pairs,
                                           ref),
        "words.mul_ns": time_per_call(am.words.ReducedWord.__mul__,
                                      word_pairs, ref),
    }


def measure(workload, seed, seconds, trace):
    """Set up, run, check; returns (result dict, human-readable lines)."""
    lines = []
    setups = []
    wall_setups = []
    ref = RefClock()
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the modules of the last set-up are garbage now
        ref.probe()
        t0 = clock()
        am = load_amalgam()
        fixture = workload.setup(am, seeded(seed, workload.name))
        t1 = clock()
        ref.probe()
        setups.append(ref.span(t0, t1))
        wall_setups.append(t1 - t0)
    ref = RefClock()
    phase = workload.run(fixture, seconds, workload.min_ops, ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.verify(fixture, phase)
    ops_per_s = phase.attempted / phase.reference_s
    attempted, failed = phase.attempted, phase.failed
    notes = list(phase.notes)
    lines.append("set-up: median %.4f s wall of %d" % (
        statistics.median(wall_setups), SETUP_REPEATS))
    lines.append("timed phase: %d operations in %.3f s wall, %.3f reference "
                 "s, %d failed; the host ran at %.3f wall s per reference s"
                 % (phase.attempted, phase.elapsed, phase.reference_s,
                    phase.failed, ref.wall_per_reference()))

    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "query_p50_ms": statistics.median(phase.latencies) * 1e3,
            "query_tail_ms": percentile(phase.latencies,
                                        workload.tail_percentile) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        lines.append("query_tail_ms is p%g of %d latency samples"
                     % (workload.tail_percentile, len(phase.latencies)))
    else:
        tracer = Tracer()
        traced_ref = RefClock()
        tracer.install(am)
        try:
            traced_ref.probe()  # the traced set-up is measured too
            traced_fixture = workload.setup(am, seeded(seed, workload.name))
            traced = workload.run(traced_fixture, 0, workload.min_ops,
                                  traced_ref)
        finally:
            tracer.uninstall()
        workload.verify(traced_fixture, traced)
        attempted += traced.attempted
        failed += traced.failed
        notes += traced.notes
        metrics = tracer.summary(traced_ref.at)
        metrics["trace.overhead"] = \
            traced.attempted / traced.reference_s / ops_per_s
        metrics.update(leaf_timings(am, seed))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / ("spans-%s-seed%d.bin" % (workload.name, seed))
        tracer.write(span_file)
        lines.append("traced phase: %d operations in %.3f s wall, %d spans "
                     "written to %s" % (traced.attempted, traced.elapsed,
                                        tracer.span_count(),
                                        span_file.relative_to(ROOT)))
    lines.extend("note: " + note for note in notes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(args):
    if not __debug__:
        raise SystemExit("error: run with asserts on (no -O); the package "
                         "validates its inputs with assert")
    if not (SRC / "amalgam" / "__init__.py").is_file():
        raise SystemExit("error: no amalgam package under %s" % SRC)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # set and dict orders decide the order of the package's exact
        # arithmetic and so the time of a long word; a fixed hash seed
        # repeats them from run to run (the seed's inputs still vary them)
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    units = {m["name"]: m["unit"]
             for m in benchmark_spec()["per_layer" if args.trace
                                       else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    result, lines = measure(workload, args.seed, args.seconds, args.trace)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise SystemExit("error: measured metrics %s do not match "
                         "BENCHMARK.json" % sorted(set(metrics) ^ set(units)))
    print("perfbench workload=%s seed=%d seconds=%d trace=%d python=%s "
          "nproc=%d asserts=on" % (args.workload, args.seed, args.seconds,
                                   args.trace, platform.python_version(),
                                   os.cpu_count()))
    for line in lines:
        print("  " + line)
    for name in sorted(metrics):
        print("  %-28s %14.6g %s" % (name, metrics[name], units[name]))
    print("  %-28s %14.6g share (%d of %d)" % (
        "failed_share", result["failed"] / result["attempted"],
        result["failed"], result["attempted"]))
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in sorted(metrics)}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_workload(name, seed, seconds, trace, check=True):
    """Run one workload in a process of its own; returns the result parsed
    from the last line of its output, and the whole output. A run that
    prints no result stops the caller, and with `check` so does a nonzero
    exit."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{") or \
            (check and proc.returncode != 0):
        raise SystemExit("error: workload %s seed %d failed:\n%s"
                         % (name, seed, proc.stdout))
    return json.loads(lines[-1]), proc.stdout


def run_all(args):
    """Every workload in its own process, then one table."""
    results = {}
    for name in WORKLOADS:
        results[name], output = run_workload(
            name, args.seed, args.seconds, args.trace, check=False)
        sys.stdout.write(output)
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print("%-28s" % "metric" + "".join("%16s" % w for w in results))
    for metric in names + ["failed_share"]:
        row = []
        for r in results.values():
            if metric == "failed_share":
                row.append("%16.6g" % (r["failed"] / r["attempted"]))
            else:
                row.append("%16.6g" % r["metrics"][metric]["value"])
        print("%-28s" % metric + "".join(row))
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {w: r["metrics"] for w, r in results.items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        help="length of the timed phase; default run_seconds "
                             "of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
