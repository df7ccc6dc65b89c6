"""Corner-model survey: moments, covariance, and family freeness.

Builds the k-fold amplified two-face model over a cyclic base and runs the
three sweeps, printing one summary line per report.  The freeness window
is guarded: stacked shift exponents reach max_len * n_max, so the base
cycle must be longer than that.
"""

import argparse

from amalgam.matrix import (
    covariance_report, cyclic_model, family_freeness_report,
    moment_vanishing_report,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--core-size", type=int, default=11)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--max-len", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=2)
    args = parser.parse_args()

    try:
        model = cyclic_model(core_size=args.core_size, k=args.k)
    except ValueError as exc:
        parser.error(str(exc))
    i_values = tuple(i for i in (2, 3) if i <= args.k)

    report = moment_vanishing_report(
        model, n_limit=min(args.n_max, args.core_size - 1),
        i_values=i_values, kappa_limit=min(4, args.core_size - 1))
    print("moments    %s: %d checked, %s"
          % (model.fixture_line(), report.checked,
             "ok" if report.passed else "FAILED"))

    report = covariance_report(model, k_values=(args.k,),
                               n_limit=args.n_max, i_values=i_values)
    print("covariance base=%d shift_order=%d k in [%d]: %d checked, %s"
          % (args.core_size, model.face_b.alpha.order(), args.k,
             report.checked, "ok" if report.passed else "FAILED"))

    try:
        report = family_freeness_report(model, max_len=args.max_len,
                                        n_limit=args.n_max,
                                        i_values=i_values, kappas=(1,))
    except ValueError as exc:
        print("freeness   skipped: %s" % exc)
        return 1
    print("freeness   %s: %d words, %d shapes, %d violations"
          % (model.fixture_line(), report.words_checked, report.shape_checks,
             len(report.violations)))
    for path, value in report.violations[:5]:
        print("  families %s: E = %r" % (path, value))
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
