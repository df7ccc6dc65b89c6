"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/spread.py --workload boundary-dual --seeds 1-10

Runs the benchmark once per seed and prints, for each metric, the median and
the distance between the first and third quartile as a share of the median
(statistics.quantiles with n=4), next to the metric's bound. Each seed's line
ends with how fast the host ran during its timed phase.
"""

import argparse
import json
import statistics
from pathlib import Path

from run import run_workload

HERE = Path(__file__).resolve().parent


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in args.seeds:
        result, output = run_workload(args.workload, seed, seconds, 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        host = [line.rpartition(";")[2].strip() for line in
                output.splitlines() if "wall s per reference s" in line]
        print("seed %d: %s (%s)" % (seed, " ".join(
            "%s=%.6g" % (name, metric["value"])
            for name, metric in result["metrics"].items()), *host),
            flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print("%-16s median %12.6g  spread %.4f  bound %.2f"
              % (name, med, (q3 - q1) / med, bounds[name]))


if __name__ == "__main__":
    main()
