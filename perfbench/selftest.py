"""Self-test of the benchmark: exact counts repeat, verdicts agree.

    python3 perfbench/selftest.py [--seed 1] [--workload NAME ...]

For each workload, makes two traced runs with one seed and one with the next
seed. Every count metric (`*_calls`, `*_built`, `act_refined`,
`cylfn_max_depth`) must be identical across the two runs with one seed, and
the second seed must give the same verdict (correct, and the same number of
failed checks). These counts are the ones a change may cite as exact.
Exits 1 when any of this does not hold.
"""

import argparse

from run import run_workload
from workloads import WORKLOADS

COUNT_SUFFIXES = ("_calls", "_built", ".act_refined", ".cylfn_max_depth")


def counts(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if name.endswith(COUNT_SUFFIXES)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    args = parser.parse_args()
    ok = True
    for name in args.workload:
        first, again, other = (
            run_workload(name, seed, 1, 1, check=False)[0]
            for seed in (args.seed, args.seed, args.seed + 1))
        same = counts(first) == counts(again)
        verdict = (first["correct"], first["failed"]) == \
            (other["correct"], other["failed"])
        for metric, value in sorted(counts(first).items()):
            note = "" if counts(again)[metric] == value else \
                "  MISMATCH: %s" % counts(again)[metric]
            print("%-14s %-26s %12d%s" % (name, metric, value, note))
        print("%-14s counts repeat with seed %d: %s; seed %d verdict "
              "(correct=%s failed=%d) matches: %s"
              % (name, args.seed, "yes" if same else "NO", args.seed + 1,
                 other["correct"], other["failed"],
                 "yes" if verdict else "NO"), flush=True)
        ok = ok and same and verdict and first["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
