"""Time measured against a reference loop run in the same process.

On the shared 2-vCPU Intel Xeon VM this benchmark was written on, a process
runs at two speeds that differ by up to 1.8x, switching every few seconds
to minutes, while it keeps its CPU (CPU time follows wall time). A run of
tens of seconds can sit wholly in either state, so the wall-clock figures
of one run say as much about the host as about the program.

A `RefClock` therefore runs a short fixed loop of stdlib code (the probe:
Fraction arithmetic in a dict keyed by tuples, the instruction mix of the
package, none of its code) between operations, every PROBE_INTERVAL_S,
and turns wall-clock stamps into reference seconds. The time between two
probes is multiplied by a speed, and the probes' own time counts as none.
The speed is the median over the SMOOTHING probes around that time of
(REFERENCE_PROBE_S / probe duration) ** SENSITIVITY:

- the median, because one probe reads up to 10% off the speed around it,
  while the median of a few still follows a switch of the host within a
  second or so;
- the power, because the package's code slows less than a tight loop when
  the host slows. In two calibration runs, short chunks of the three
  workloads were interleaved with probes for three minutes each; the power
  that left the least spread in chunk times was 0.7 to 1, by workload and
  run, and SENSITIVITY sits in the middle.

A reference second is thus a second of a host that runs the probe in
REFERENCE_PROBE_S, about what that VM takes in its fast state. A change to
the package changes the time of its operations, not the probe's; the probe
runs with the garbage collector off, so the package's gc settings do not
reach it either.

Usage: call `probe()` before the first stamp and after the last, `tick()`
between operations (it probes when PROBE_INTERVAL_S has passed), take
stamps with `clock`, and convert them with `at(stamp)` or `span(t0, t1)`.
"""

import gc
import statistics
import time
from array import array
from bisect import bisect_right
from fractions import Fraction

clock = time.perf_counter

REFERENCE_PROBE_S = 1.2e-3
PROBE_INTERVAL_S = 0.25  # a probe costs 4-8 ms, so 1.5-3% of a phase
PROBE_REPEATS = 3  # a probe keeps the fastest, so one interrupt is ignored
SMOOTHING = 6  # probes whose median speed scales the time between two
SENSITIVITY = 0.85
ZERO = Fraction(0)


def _reference_work():
    table = {}
    for i in range(400):
        key = (i % 37, i % 11)
        table[key] = table.get(key, ZERO) + Fraction(i, 7)
    return table


class RefClock:
    def __init__(self):
        self.begins = array("d")  # wall-clock start of each probe
        self.ends = array("d")    # wall-clock end of each probe
        self.speeds = array("d")  # reference seconds per wall second
        self._due = 0.0
        # reference time at each probe end, and the speed that holds from
        # there to the next probe; rebuilt when probes were added
        self._ref = array("d")
        self._rates = array("d")

    def probe(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            begin = best = None
            for _ in range(PROBE_REPEATS):
                t0 = clock()
                _reference_work()
                t1 = clock()
                begin = t0 if begin is None else begin
                best = t1 - t0 if best is None else min(best, t1 - t0)
        finally:
            if enabled:
                gc.enable()
        self.begins.append(begin)
        self.ends.append(t1)
        self.speeds.append((REFERENCE_PROBE_S / best) ** SENSITIVITY)
        self._due = t1 + PROBE_INTERVAL_S

    def tick(self):
        if clock() >= self._due:
            self.probe()

    def _rebuild(self):
        ref, rates = array("d", [0.0]), array("d")
        half = SMOOTHING // 2
        for k in range(len(self.ends) - 1):
            rate = statistics.median(
                self.speeds[max(0, k + 1 - half):k + 1 + half])
            rates.append(rate)
            ref.append(ref[k] + (self.begins[k + 1] - self.ends[k]) * rate)
        self._ref, self._rates = ref, rates

    def at(self, stamp):
        """Reference time of a wall-clock stamp taken between two probes."""
        if len(self._ref) != len(self.ends):
            self._rebuild()
        k = bisect_right(self.ends, stamp) - 1
        if k < 0:
            return 0.0
        if k >= len(self._rates):
            return self._ref[-1]
        gap = min(stamp - self.ends[k], self.begins[k + 1] - self.ends[k])
        return self._ref[k] + gap * self._rates[k]

    def span(self, t0, t1):
        return self.at(t1) - self.at(t0)

    def wall_per_reference(self):
        """Median wall seconds per reference second over the probes, which
        says how fast the host ran: 1 at the reference speed."""
        ordered = sorted(self.speeds)
        return 1 / ordered[len(ordered) // 2] if ordered else float("nan")
