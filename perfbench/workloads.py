"""The three benchmark workloads, written against amalgam's public API.

Each workload turns a seed into inputs (`setup`), runs operations
(`run`) and checks every result (`run` and `verify`).
`run(fixture, seconds, min_ops, ref)` keeps going until both `seconds` of
wall-clock time have passed and `min_ops` operations are done; sweeps always
finish the sweep they are in, so `run(fixture, 0, 0, ref)` is one sweep and
a traced run can repeat the same work. Checks that need more calls into the
package wait for `verify`, so that they are neither timed nor traced.

Between operations a run calls `ref.tick()`, and it reports its elapsed time
and latencies in the reference seconds of that RefClock (refclock.py), so
that they do not follow the speed swings of the host.

What a run keeps in memory for itself is at most 16 bytes of stamps and 8
bytes of latency per operation plus a bounded amount, so that peak_rss_mb
measures the package rather than the benchmark.
"""

import contextlib
import io
import random
import time
from array import array
from dataclasses import dataclass, field
from itertools import product as iproduct

clock = time.perf_counter


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0
    # latency samples and the time of the phase, in reference seconds
    latencies: array = field(default_factory=lambda: array("d"))
    reference_s: float = 0.0
    elapsed: float = 0.0  # wall-clock seconds
    notes: list = field(default_factory=list)
    # checks left to verify: stream index -> [answer, times it was given]
    pending: dict = field(default_factory=dict)

    def fail(self, note, count=1):
        self.failed += count
        if len(self.notes) < 5:
            self.notes.append(note)


class Workload:
    name = ""
    tail_percentile = 99.0
    min_ops = 0

    def verify(self, fixture, phase):
        """Count the failures among phase.pending into phase.failed."""


def reference_latencies(ref, marks):
    """Reference seconds of each (start, end) pair of wall-clock stamps."""
    at = ref.at
    return array("d", (at(marks[i + 1]) - at(marks[i])
                       for i in range(0, len(marks), 2)))


# -- corner-sweep -------------------------------------------------------------

CORNER_CONFIG = """\
[base]
points = {points}
classes = {{{c0} {c1}}} {{{c2} {c3}}}

[alpha]
cycles = ({cycle})

[limits]
k = 3
n_max = 2
max_len = 4
"""
CORNER_WORDS = 27870
CORNER_SHAPES = 90
# a latency sample of the sweep is the time per word over a block of this
# many consecutive words; single words shift between short and long with
# the state of the host (p95/p50 of single words read 1.4 on a slow host
# and 1.9 on a fast one), blocks much less
WORD_BLOCK = 100


class CornerSweep(Workload):
    """Criterion 07: family freeness on the 11-point cyclic corner model."""

    name = "corner-sweep"
    # 278 blocks a sweep, 28 beyond p90. p95 spread 23% over ten seeds:
    # the heaviest blocks follow the host's state more than the rest
    tail_percentile = 90.0

    def setup(self, am, rng):
        # relabelling the points gives an isomorphic model: same verdict,
        # same counts, same work
        labels = ["p%d" % n for n in rng.sample(range(100, 1000), 11)]
        listed = list(labels)
        rng.shuffle(listed)
        text = CORNER_CONFIG.format(
            points=" ".join(listed), c0=labels[0], c1=labels[1],
            c2=labels[2], c3=labels[3], cycle=" ".join(labels))
        config = am.config.parse_config(text)
        return am, config.corner_model()

    def run(self, fixture, seconds, min_ops, ref):
        am, model = fixture
        phase = Phase()
        stamps = array("d")
        tick = ref.tick

        class StampedAmbient(am.engine.MAmbient):
            # freeness_check asks for one expectation per word, with one
            # normal-form product in between: consecutive stamps time a word
            def expect(self, x):
                stamps.append(clock())
                tick()
                return super().expect(x)

        plain = am.matrix.MAmbient
        am.matrix.MAmbient = StampedAmbient
        ref.probe()
        start = clock()
        try:
            while True:
                del stamps[:]
                try:
                    report = am.matrix.family_freeness_report(
                        model, max_len=4, n_limit=2, i_values=(2, 3),
                        kappas=(1,))
                except AssertionError as exc:
                    # a side-condition shape failed inside the sweep
                    phase.attempted += CORNER_WORDS
                    phase.fail("shape check failed: %s" % exc, CORNER_WORDS)
                else:
                    words = report.words_checked
                    phase.attempted += words
                    if words != CORNER_WORDS or \
                            report.shape_checks != CORNER_SHAPES:
                        phase.fail("sweep gave %d words, %d shapes"
                                   % (words, report.shape_checks), words)
                    else:
                        phase.failed += len(report.violations)
                end = clock()
                ref.probe()
                marks = array("d", map(ref.at, stamps))
                phase.latencies.extend(
                    (marks[i + WORD_BLOCK] - marks[i]) / WORD_BLOCK
                    for i in range(0, len(marks) - WORD_BLOCK, WORD_BLOCK))
                phase.elapsed = end - start
                if phase.elapsed >= seconds and phase.attempted >= min_ops:
                    phase.reference_s = ref.span(start, end)
                    return phase
        finally:
            am.matrix.MAmbient = plain


# -- boundary-dual ------------------------------------------------------------

BOUNDARY_CONFIG = """\
[alphabet]
block1 = a
block2 = b

[limits]
depth = 16
"""
BOUNDARY_MAX_LEN = 5


class BoundaryDual(Workload):
    """Criterion 05: every word of length <= 5 over four boundary
    generators, by the expectation recursion and by the crossed oracle."""

    name = "boundary-dual"

    def setup(self, am, rng):
        config = am.config.parse_config(BOUNDARY_CONFIG)
        product = config.boundary_product()
        dsl = am.dsl
        # the seed draws the sign of each generator; the cylinder
        # indicators O(b) and O(a b) follow, so every draw is an automorphic
        # image of the criterion-05 set and the work per word is fixed
        a = rng.choice(("a", "a'"))
        b = rng.choice(("b", "b'"))
        word_a = dsl.word_value(dsl.parse(a, config), config)
        word_b = dsl.word_value(dsl.parse(b, config), config)
        cyl_1 = dsl.cylinder_value(dsl.parse("O(%s)" % b, config))
        cyl_2 = dsl.cylinder_value(dsl.parse("O(%s %s)" % (a, b), config))
        face_a, face_b = product.face("A"), product.face("B")
        cylfn = am.engine.CylFn
        identity = am.words.ReducedWord.identity(config.alphabet)
        gens = [("A", face_a.unitary(word_a)),
                ("B", face_b.unitary(word_b)),
                ("A", face_a.element({word_a: cylfn.indicator(cyl_1)})),
                ("B", face_b.element({identity: cylfn.indicator(cyl_2)}))]
        words = [[gens[i] for i in combo]
                 for length in range(1, BOUNDARY_MAX_LEN + 1)
                 for combo in iproduct(range(len(gens)), repeat=length)]
        return product, words

    def run(self, fixture, seconds, min_ops, ref):
        product, words = fixture
        phase = Phase()
        marks = array("d")
        ref.probe()
        start = clock()
        while True:
            for letters in words:
                t0 = clock()
                recursion = product.expectation(letters)
                oracle = product.oracle_expectation(letters)
                agree = recursion == oracle
                marks.append(t0)
                marks.append(clock())
                ref.tick()
                phase.attempted += 1
                if not agree:
                    phase.fail("recursion and oracle differ on a word of "
                               "length %d" % len(letters))
            end = clock()
            phase.elapsed = end - start
            if phase.elapsed >= seconds and phase.attempted >= min_ops:
                break
        ref.probe()
        phase.latencies = reference_latencies(ref, marks)
        phase.reference_s = ref.span(start, end)
        return phase


# -- query-mix ----------------------------------------------------------------

LETTERS = ("a", "a'", "b", "b'")

# one block of the closed-loop stream holds one query of each command form
# the mix covers; the seed draws the arguments and the order in a block.
# No usage data exists, so every form has the same weight: the proportions
# are this stated choice, not measured traffic.
QUERY_KINDS = ("measure", "rn", "series", "moment-boundary", "oracle",
               "haar-boundary", "moment-corner", "haar-corner", "join",
               "ergodic")
STREAM_LENGTH = 4000


def _reduced_word(rng, length):
    out = []
    while len(out) < length:
        letter = rng.choice(LETTERS)
        if out and out[-1][0] == letter[0] and out[-1] != letter:
            continue
        out.append(letter)
    return out


def _boundary_expr(rng):
    factors = []
    for _ in range(rng.randint(2, 4)):
        if rng.random() < 0.4:
            factors.append("O(%s)" % " ".join(
                _reduced_word(rng, rng.randint(1, 2))))
        else:
            factors.append(rng.choice(LETTERS))
    return " ".join(factors)


def _corner_unitary(n, i):
    core = "u" if n == 1 else "u^%d" % n
    return "A[e]{1,%d} B[%s]{%d,1}" % (i, core, i)


class Deck:
    """Draws the points of a grid in seeded shuffled rounds, so that every
    stretch of the stream holds each point about equally often."""

    def __init__(self, rng, grid):
        self.rng, self.grid, self.cards = rng, list(grid), []

    def draw(self):
        if not self.cards:
            self.cards = list(self.grid)
            self.rng.shuffle(self.cards)
        return self.cards.pop()


# corner queries cost the most, so their arguments come from decks:
# core power n, bracket index i, and for moments the exponent kappa
CORNER_UNITARIES = list(iproduct(range(-2, 3), (2, 3)))
CORNER_MOMENTS = [(n, i, kappa) for n, i in CORNER_UNITARIES
                  for kappa in (-4, -3, -2, -1, 1, 2, 3, 4)]


def make_query(kind, rng, decks):
    """(argv after the global options, expected moment value or None)."""
    if kind == "measure":
        return ["measure", "O(%s)" % " ".join(
            _reduced_word(rng, rng.randint(1, 4)))], None
    if kind == "rn":
        gamma = _reduced_word(rng, rng.randint(1, 2))
        prefix = _reduced_word(rng, len(gamma) + rng.randint(1, 2))
        return ["rn", " ".join(gamma), "O(%s)" % " ".join(prefix)], None
    if kind == "series":
        return ["series", str(rng.choice((1, 2))),
                str(rng.randint(1, 6))], None
    if kind == "moment-boundary":
        return ["moment", _boundary_expr(rng)], "oracle"
    if kind == "oracle":
        return ["oracle", _boundary_expr(rng)], None
    if kind == "haar-boundary":
        return ["haar", " ".join(_reduced_word(rng, rng.randint(1, 2))),
                "3"], None
    if kind == "moment-corner":
        # a nonzero power of a corner word inside the shift window has
        # expectation zero by construction
        n, i, kappa = decks[kind].draw()
        return ["moment", "(%s)^%d" % (_corner_unitary(n, i), kappa)], "0"
    if kind == "haar-corner":
        return ["haar", _corner_unitary(*decks[kind].draw()), "3"], None
    if kind in ("join", "ergodic"):
        return [kind], None
    raise ValueError("unknown query kind %r" % kind)


def _fields(output, record):
    for line in output.splitlines():
        bits = line.split()
        if bits and bits[0] == "record=" + record:
            return dict(bit.split("=", 1) for bit in bits[1:])
    return {}


class QueryMix(Workload):
    """A closed loop of one client sending short CLI commands in process."""

    name = "query-mix"
    # p97.5 spread 15% over ten seeds, p90 half as much
    tail_percentile = 90.0
    min_ops = 400

    def setup(self, am, rng):
        decks = {"moment-corner": Deck(rng, CORNER_MOMENTS),
                 "haar-corner": Deck(rng, CORNER_UNITARIES)}
        stream = []
        while len(stream) < STREAM_LENGTH:
            block = list(QUERY_KINDS)
            rng.shuffle(block)
            stream.extend(make_query(kind, rng, decks) for kind in block)
        return am.cli.main, stream

    @staticmethod
    def ask(main, argv):
        """Run one command; (exit code or None when it raised, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["--format", "machine"] + argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed query, not a crash
                code = None
        return code, out.getvalue()

    def run(self, fixture, seconds, min_ops, ref):
        main, stream = fixture
        phase = Phase()
        marks = array("d")
        ref.probe()
        start = t1 = clock()
        while phase.elapsed < seconds or phase.attempted < min_ops:
            index = phase.attempted % len(stream)
            argv, expected = stream[index]
            t0 = clock()
            code, output = self.ask(main, argv)
            t1 = clock()
            marks.append(t0)
            marks.append(t1)
            phase.attempted += 1
            phase.elapsed = t1 - start
            if not self.check(phase, index, expected, code, output):
                phase.fail("failed: %s -> %r" % (" ".join(argv),
                                                 output.strip()))
            ref.tick()
        ref.probe()
        phase.latencies = reference_latencies(ref, marks)
        phase.reference_s = ref.span(start, t1)
        return phase

    @staticmethod
    def check(phase, index, expected, code, output):
        """The checks that need no further call into the package. A
        boundary moment is kept, once per stream index, for `verify`."""
        if code != 0 or " ok=no" in output or not output.strip():
            return False
        if expected is None:
            return True
        value = _fields(output, "moment").get("value")
        if value is None:
            return False
        if expected == "0":
            # a nonzero power of a corner word in the shift window
            return value == "0"
        kept = phase.pending.setdefault(index, [value, 0])
        if value != kept[0]:
            return False  # the same query answered differently before
        kept[1] += 1
        return True

    def verify(self, fixture, phase):
        # independent route for boundary moments: the crossed-product
        # oracle, asked once per kept query after the timed loop
        main, stream = fixture
        for index, (value, times) in phase.pending.items():
            expr = stream[index][0][1]
            code, output = self.ask(main, ["oracle", expr])
            oracle = _fields(output, "oracle").get("oracle") \
                if code == 0 else None
            if value != oracle:
                phase.fail("moment %s = %s, oracle %s" % (expr, value, oracle),
                           times)


WORKLOADS = {w.name: w for w in (CornerSweep(), BoundaryDual(), QueryMix())}


def seeded(seed, workload):
    return random.Random("%s/%d" % (workload, seed))
