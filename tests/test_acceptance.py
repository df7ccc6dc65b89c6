"""Acceptance battery: the twelve criteria at acceptance sizes.

Each sweep is defined once, criteria 01-05 and 10-12 in `amalgam.battery`
and 06-09 as `amalgam.matrix` reports; `amalgam suite67` runs the same
functions at configured sizes. A test here calls one at its acceptance size
and pins its counts, so a shrunken sweep fails. The brute-force oracles are
the series tail of criterion 02, here, and the transitive closure of
criterion 10, the `closure_oracle` fixture of conftest.py. Each test prints
`criterion NN <slug>: PASS/FAIL (details)` before asserting, so -s shows the
scoreboard. All comparisons are exact, criterion 11 too: it checks the
modular flow grade by grade, which covers every real t at once.
"""

import time
from fractions import Fraction

from amalgam import battery
from amalgam.boundary import complement_series, complement_series_tail
from amalgam.engine import CrossedFace, FreeProduct
from amalgam.matrix import (
    bracket_law_report, covariance_report, cyclic_model,
    family_freeness_report, moment_vanishing_report,
    reduction_identities_report,
)
from amalgam.words import Alphabet

AB = Alphabet(("a", "b"), 1)
ABC = Alphabet(("a", "b", "c"), 1)


def _report(num, name, ok, detail, t0):
    line = "criterion %02d %s: %s (%s, %.2fs)" % (
        num, name, "PASS" if ok else "FAIL", detail, time.time() - t0)
    print(line)
    assert ok, line


def test_criterion_01_measure_exactness():
    t0 = time.time()
    small = battery.measure_exactness(AB, 6)
    large = battery.measure_exactness(ABC, 6)
    ok = small.passed and large.passed and \
        (small.checked, large.checked) == (1456, 23436)
    _report(1, "measure-exactness", ok, "n=2: %d and n=3: %d cylinders to "
            "depth 6" % (small.checked, large.checked), t0)


def test_criterion_02_complement_series():
    t0 = time.time()
    report = battery.series_closure(AB, 8)
    ok = report.passed and report.checked == 16 and \
        report.values == [Fraction(5, 6), Fraction(17, 18)]
    for m in range(1, 9):
        tail = Fraction(1, 2) * Fraction(1, 3) ** m
        ok = ok and 1 - complement_series(AB, 1, m) == tail
        ok = ok and complement_series_tail(AB, 1, m) == tail
    _report(2, "complement-series", ok, "5/6, 17/18, tails to M=8 exact", t0)


def test_criterion_03_splice_factorization():
    t0 = time.time()
    report = battery.splice_factorization(AB, 4)
    _report(3, "splice-factorization", report.passed and report.checked ==
            1440, "%d (word, cylinder) pairs" % report.checked, t0)


def test_criterion_04_ratio_set():
    # the cocycle identity is pure reduced-word arithmetic, so its full
    # quadratic sweep runs at n = 2 only to stay inside the time budget
    t0 = time.time()
    small = battery.ratio_powers(AB, 5, 2)
    large = battery.ratio_powers(ABC, 5, 0)
    ok = small.passed and large.passed and \
        (small.checked, large.checked) == (88128, 135000) and \
        small.values == large.values == [-2, -1, 0, 1, 2]
    _report(4, "ratio-set", ok, "n=2 exponents %s; n=3 exponents %s"
            % (small.values, large.values), t0)


def test_criterion_05_oracle_agreement():
    t0 = time.time()
    product = FreeProduct(CrossedFace("A", AB, 1, 16),
                          CrossedFace("B", AB, 2, 16))
    report = battery.oracle_agreement(product, 5)
    _report(5, "oracle-agreement", report.passed and report.checked == 1364,
            "%d words of length <= 5, dual routes" % report.checked, t0)


def test_criterion_06_corner_moments():
    t0 = time.time()
    report = moment_vanishing_report(cyclic_model(core_size=5, k=3),
                                     n_limit=2, i_values=(2, 3),
                                     kappa_limit=4)
    _report(6, "corner-moments", report.passed and report.checked == 80,
            "%d moments on %s" % (report.checked, report.fixture), t0)


def test_criterion_07_family_freeness():
    t0 = time.time()
    report = family_freeness_report(cyclic_model(core_size=11, k=3),
                                    max_len=4, n_limit=2, i_values=(2, 3),
                                    kappas=(1,))
    ok = report.passed and \
        (report.words_checked, report.shape_checks) == (27870, 90)
    _report(7, "family-freeness", ok, "%d alternating words, %d "
            "side-condition shapes"
            % (report.words_checked, report.shape_checks), t0)


def test_criterion_08_covariance():
    t0 = time.time()
    report = covariance_report(cyclic_model(core_size=5, k=3),
                               k_values=(2, 3, 4), n_limit=2, i_values=(2, 3))
    # k = 2 admits corner index 2 only; k = 3 and 4 admit both indices
    ok = report.passed and report.checked == 5 * 5 + 2 * (5 * 5 * 2)
    _report(8, "covariance", ok,
            "%d conjugations over k in {2,3,4}" % report.checked, t0)


def test_criterion_09_bracket_laws():
    t0 = time.time()
    model = cyclic_model(core_size=5, k=3)
    laws = bracket_law_report(model, k_values=(2, 3, 4))
    reductions = reduction_identities_report(model, k_values=(2, 3, 4),
                                             n_limit=2)
    ok = laws.passed and reductions.passed and \
        (laws.checked, reductions.checked) == (9028, 964)
    _report(9, "bracket-laws", ok, "%d unit laws, %d reduction checks"
            % (laws.checked, reductions.checked), t0)


def test_criterion_10_join_ergodicity(closure_oracle):
    t0 = time.time()
    report = battery.join_ergodicity()
    ok = report.passed and report.checked == 255 and all(
        joined.pairs == closure_oracle(r1, r2)
        for r1, r2, joined in report.values)
    _report(10, "join-ergodicity", ok,
            "%d relation pairs over |X| <= 4" % report.checked, t0)


def test_criterion_11_modular_scaling():
    t0 = time.time()
    report = battery.modular_scaling()
    ok = report.passed and report.checked == 356 and \
        report.values == [2, Fraction(1, 4)]
    _report(11, "modular-scaling", ok, "%d exact grade checks, grades %s"
            % (report.checked, ",".join(map(str, report.values))), t0)


def test_criterion_12_adv_intertwining():
    t0 = time.time()
    report = battery.intertwining()
    _report(12, "adv-intertwining", report.passed and report.checked == 812,
            "%d partial isometries across all relations on 4 points"
            % report.checked, t0)
