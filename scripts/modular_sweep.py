"""Modular phase sweep on a weighted four-point base.

    PYTHONPATH=src python scripts/modular_sweep.py [SAMPLES]

Shows the phase (w_x/w_y)^{it} picked up by each matrix unit under the
modular flow, evaluated in floats from the exact spectrum, then runs the
exact grade-by-grade check of criterion 11, which holds for every real t.
SAMPLES random t compare the float display against the closed-form phase
exp(i t log(w_x/w_y)); that gap is reported, not gated. Exit 0 when the
exact check passes.
"""

import cmath
import math
import random
import sys
from fractions import Fraction

from amalgam.battery import modular_scaling
from amalgam.fmalg import (
    FiniteBase, FiniteRelation, FMElement, coefficient_gap, modular_scale,
    modular_spectrum, normalizing_groupoid,
)

WEIGHTS = {"p0": Fraction(1, 2), "p1": Fraction(1, 4),
           "p2": Fraction(1, 8), "p3": Fraction(1, 8)}


def phase_table(relation, t):
    print("t = %+.3f" % t)
    for (x, y) in sorted(relation.pairs):
        if x >= y:
            continue
        unit = FMElement.unit(relation, x, y)
        (ratio,) = modular_spectrum(unit)
        value = modular_scale(unit, t)[(x, y)]
        print("  e[%s,%s] grade %-4s -> phase %+.6f%+.6fi  (arg %+.4f)"
              % (x, y, ratio, value.real, value.imag, cmath.phase(value)))


def main(argv):
    samples = int(argv[1]) if len(argv) > 1 else 40
    base = FiniteBase.weighted(WEIGHTS.items())
    full = FiniteRelation.full(base)
    phase_table(full, 1.0)
    phase_table(full, -2.5)

    rng = random.Random(7)
    ones = FMElement(full, {pair: 1 for pair in full.pairs})
    worst = 0.0
    for _ in range(samples):
        t = rng.uniform(-25.0, 25.0)
        closed = {(x, y): cmath.exp(1j * t * math.log(WEIGHTS[x] / WEIGHTS[y]))
                  for (x, y) in full.pairs}
        worst = max(worst, coefficient_gap(modular_scale(ones, t), closed))

    report = modular_scaling()
    count = len(normalizing_groupoid(full))
    print("\nexact grade checks, every real t: %d, %s"
          % (report.checked, "passed" if report.passed else "FAILED"))
    print("float display against exp(i t log r) over %d random t: "
          "worst gap %.3e" % (samples, worst))
    print("normalizing partial isometries on the full relation: %d" % count)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
