"""Print a transcript of the command line tool over a fixed command list.

    PYTHONHASHSEED=0 python scripts/transcript.py > transcript.txt

Each command runs in process through `amalgam.cli.main`; the transcript
gives its argv, exit code, stdout and stderr. Two checkouts that print the
same transcript answer every listed command alike. `scripts/transcript.txt`
holds the output of the current code, so piping a fresh run into
`diff -u scripts/transcript.txt -` checks that a change kept the outputs
byte-identical, and shows the commands whose output changed. The list holds
the README examples, one or more of every command form, relations built
from configured classes, `suite67` in both formats and under three more
size mappings (`--max-len 2`, `--depth 3` and a weighted three-generator
config), depth sweeps of `moment`, `oracle`, `haar` and `freeness boundary`
over boundary expressions drawn from a fixed seed, an `rn` sweep: every
reduced word of length 1 or 2 against every cylinder one letter deeper, and
late additions at the end, so that the earlier commands keep their places;
among the last are the complement series table over three alphabets, the
corner freeness survey at two word lengths and argparse's own refusals. Every
refused input is a command of the list, so this file is the one place a
refusal message is written; a new one is appended. A refusal named by the
rule it breaks is listed as `refused(name, ...)`, which records it in
REFUSALS; tests/test_cli.py runs each named one again.
"""

import contextlib
import io
import os
import random
import shlex
import sys
import tempfile

from amalgam import cli
from amalgam.words import Alphabet, sphere

SEED = 20
EXPRESSIONS = 150
DEPTHS = range(2, 7)
LETTERS = ("a", "a'", "b", "b'")
AB = Alphabet(("a", "b"), 1)

CONFIGS = {
    "bad.cfg": "[limits]\nbogus = 3\n",
    "weights.cfg": "[base]\npoints = p q r\n[state]\nweights = 5 5 1\n",
    "abc.cfg": "[alphabet]\nblock1 = a c\nblock2 = b\n",
    # free ranks 3 and 4 for the complement series table
    "rank3.cfg": "[alphabet]\nblock1 = a\nblock2 = b c\n",
    "rank4.cfg": "[alphabet]\nblock1 = a\nblock2 = b c d\n",
    # relations built from [base] classes
    "repeat.cfg": "[base]\npoints = p q r\nclasses = {p p q}\n",
    "overlap.cfg": "[base]\npoints = p q r\nclasses = {p q} {q r}\n",
    "offbase.cfg": "[base]\npoints = p q r\nclasses = {p w}\n",
    "three.cfg": "[base]\npoints = p q r s t u v\n"
                 "classes = {p q} {s r} {u t}\n[alpha]\ncycles = (q s)\n",
    "mass.cfg": "[base]\npoints = p q r s\nclasses = {q p}\n"
                "[state]\nweights = 1/2 1/4 1/8 1/8\n[alpha]\ncycles = (r q)\n",
    "zero.cfg": "[base]\npoints = p q\n[state]\nweights = 1/0 1\n",
    "typo.cfg": "[base]\nclasses_ = {x0 x1}\n",
    "twice.cfg": "[base]\npoints = p q r\nclasses = {p q}\nclasses = {q r}\n",
    "resection.cfg": "[limits]\ndepth = 3\n[limits]\ndepth = 5\n",
    "offcycle.cfg": "[base]\npoints = p q r\n[alpha]\ncycles = (p z)\n",
    "short.cfg": "[base]\npoints = p q r\nclasses = {p q}\n"
                 "[limits]\nn_max = 3\n",
    # three generators over a weighted base
    "custom.cfg": "[alphabet]\nblock1 = a c\nblock2 = b\n"
                  "[base]\npoints = p q r s\nclasses = {p q}\n"
                  "[state]\nweights = 1/2 1/6 1/6 1/6\n"
                  "[alpha]\ncycles = (p q r s)\n[limits]\ndepth = 5\nk = 2\n",
    "letters26.cfg": "[alphabet]\nblock1 = a b c d e1 f g h i j k l m\n"
                     "block2 = n o p q r s t u v w x y z\n",
    "deep.cfg": "[limits]\ndepth = 1501\n",
    "nmax.cfg": "[limits]\nn_max = 17\n",
    "kappa.cfg": "[limits]\nkappa_max = 17\n",
    "wide.cfg": "[base]\npoints = %s\n"
                % " ".join("x%d" % i for i in range(23)),
    "five.cfg": "[alphabet]\nblock1 = a c f\nblock2 = b d\n",
    # refused configurations, one per rule
    "no-points.cfg": "[base]\npoints =\n",
    "repeated-cycle-point.cfg": "[base]\npoints = p q r\n"
                                "[alpha]\ncycles = (p q p)\n",
    "duplicate-generator.cfg": "[alphabet]\nblock1 = a\nblock2 = a\n",
    "uppercase-generator.cfg": "[alphabet]\nblock1 = A\n",
    "reserved-e.cfg": "[alphabet]\nblock1 = e\nblock2 = b\n",
    "unreduced-configured.cfg": "[alphabet]\nblock1 = a\nblock2 = b\n",
    "k-bound.cfg": "[limits]\nk = 9\n",
    "long-limit.cfg": "[limits]\ndepth = %s\n" % ("1" * 5000),
}

REFUSALS = {}  # the rule a refused command breaks -> its argv, in order


def refused(name, *argv):
    """The argv of a refused command, named in REFUSALS by its rule."""
    if REFUSALS.setdefault(name, argv) != argv:
        raise ValueError("two refused commands are named %r" % name)
    return list(argv)


FIXED = [
    # README examples
    ["measure", "O(a b)"],
    ["--format", "machine", "series", "1", "2"],
    ["--format", "machine", "moment", "(A[e]{1,2} B[u]{2,1})^2"],
    # one of each command form
    ["measure", "O(e)"],
    ["--format", "machine", "measure", "O(a b' a)"],
    ["rn", "a", "O(a b)"],
    ["--format", "machine", "rn", "a b", "O(b' a')"],
    ["series", "2", "4"],
    ["--format", "machine", "moment", "O(a) b O(b') a'"],
    ["--format", "machine", "moment", "a b a' b'"],
    ["--format", "machine", "oracle", "a b O(a) b' a'"],
    ["--format", "machine", "haar", "a b", "3"],
    ["--format", "machine", "moment", "~B[u^2]{3,1} A[e]{1,3}"],
    ["--format", "machine", "moment", "e[x0,x1] A[d[x0]]{1,1}"],
    ["--format", "machine", "haar", "A[e]{1,3} B[u^-2]{3,1}", "4"],
    ["haar", "A[e]{1,2}", "2"],
    ["--format", "machine", "join"],
    ["ergodic"],
    ["--format", "machine", "--config", "abc.cfg", "measure", "O(c b)"],
    refused("budget-product", "--depth", "2", "moment", "O(a b a) a"),
    refused("budget-lone-moment", "--depth", "2", "moment", "O(a b a)"),
    ["--depth", "2", "oracle", "O(a b a)"],
    # input errors
    refused("unknown-key", "--config", "bad.cfg", "join"),
    refused("missing-config", "--config", "missing.cfg", "join"),
    refused("bad-state", "--config", "weights.cfg", "ergodic"),
    refused("unresolved-letter", "measure", "O(a q)"),
    refused("mixed-atoms", "moment", "a A[e]{1,2}"),
    ["moment", "(a b"],
    refused("unreduced-measure", "measure", "O(a a')"),
    refused("unreduced-rn", "rn", "a", "O(b b')"),
    refused("unreduced-moment", "moment", "O(a a') b"),
    refused("unreduced-past-e", "measure", "O(a e a')"),
    refused("overlap-join", "--config", "overlap.cfg", "join"),
    ["--config", "offbase.cfg", "join"],
    refused("kmax-zero", "haar", "a", "0"),
    refused("terms-negative", "series", "1", "-3"),
    refused("zeroth-plain-shift", "moment", "A[u]{1,2}^0"),
    refused("zeroth-bad-slot", "moment", "A[e]{9,1}^0"),
    refused("zeroth-too-deep", "--depth", "2", "moment", "O(a b a)^0"),
    # relations from config classes
    ["--format", "machine", "--config", "repeat.cfg", "join"],
    ["--format", "machine", "--config", "repeat.cfg", "ergodic"],
    ["--format", "machine", "--config", "three.cfg", "join"],
    ["--format", "machine", "--config", "three.cfg", "ergodic"],
    ["--format", "machine", "--config", "mass.cfg", "join"],
    ["--format", "machine", "--config", "mass.cfg", "ergodic"],
    ["--format", "machine", "--config", "mass.cfg", "moment", "e[q,p] e[p,q]"],
    ["--format", "machine", "--config", "three.cfg", "moment",
     "e[q,s] e[s,q] A[d[q]]{1,1}"],
    ["--format", "machine", "--config", "three.cfg", "haar",
     "A[e[p,q]]{1,2} B[u]{2,1}", "2"],
    # the freeness sweeps and the battery
    ["--format", "machine", "freeness", "boundary"],
    ["--format", "machine", "freeness", "corner"],
    ["freeness", "corner"],
    ["suite67"],
    ["--format", "machine", "suite67"],
    # the battery under other size mappings
    ["--format", "machine", "--max-len", "2", "suite67"],
    ["--format", "machine", "--depth", "3", "suite67"],
    ["--format", "machine", "--config", "custom.cfg", "suite67"],
]


def reduced_word(rng, length):
    out = []
    while len(out) < length:
        letter = rng.choice(LETTERS)
        if out and out[-1][0] == letter[0] and out[-1] != letter:
            continue  # the inverse of the last letter
        out.append(letter)
    return " ".join(out)


def boundary_expr(rng):
    factors = []
    for _ in range(rng.randint(2, 4)):
        if rng.random() < 0.4:
            factors.append("O(%s)" % reduced_word(rng, rng.randint(1, 3)))
        else:
            factors.append(rng.choice(LETTERS))
    expr = " ".join(factors)
    if rng.random() < 0.2:
        expr = "(%s)^%d" % (expr, rng.choice((-2, 2)))
    return expr


def commands():
    rng = random.Random(SEED)
    exprs = [boundary_expr(rng) for _ in range(EXPRESSIONS)]
    out = list(FIXED)
    for expr in exprs:
        for depth in DEPTHS:
            for command in (["moment", expr], ["oracle", expr],
                            ["haar", expr, "2"]):
                out.append(["--format", "machine", "--depth", str(depth)]
                           + command)
    for expr in exprs:
        for kmax in ("3", "4"):
            out.append(["--format", "machine", "haar", expr, kmax])
    for depth in range(3, 11):
        for max_len in range(3, 6):
            out.append(["--format", "machine", "--depth", str(depth),
                        "--max-len", str(max_len), "freeness", "boundary"])
    for length in (1, 2):
        for word in sphere(AB, length):
            for prefix in sphere(AB, length + 1):
                out.append(["--format", "machine", "rn", word.render(),
                            "O(%s)" % prefix.render()])
    out.append(["rn", "a b", "O(a)"])  # a cylinder too shallow for the word
    # overlapping classes fail at parse time, so also for a command that
    # never builds the relation; a zero denominator is a bad weight; a
    # large shift power moves each point once
    out += [refused("overlap-measure", "--config", "overlap.cfg", "measure",
                    "O(a)"),
            ["--config", "zero.cfg", "ergodic"],
            ["--format", "machine", "moment", "B[u^1000000]{1,2}"]]
    # a misspelt config key is an error, not a silent default; a slot index
    # above k fails where it is read
    out += [["--config", "typo.cfg", "join"],
            ["moment", "A[e]{1,4}"]]
    # a repeated key or section is an error too; a bad limit names itself
    out += [["--config", "twice.cfg", "join"],
            ["--config", "resection.cfg", "measure", "O(a)"],
            ["--max-len", "0", "join"],
            ["--depth", "0", "measure", "O(a)"]]
    # long cancelling products merge 1,200 seams; nesting past the
    # parser's bound is an input error
    corner = "A[e]{1,2} B[u]{2,1}"
    out += [["--format", "machine", "moment", "(a b)^600 ~((a b)^600)"],
            ["--format", "machine", "moment",
             "(%s)^600 ~((%s)^600)" % (corner, corner)],
            refused("nesting-parentheses", "moment",
                    "(" * 101 + "a" + ")" * 101)]
    # a 1,201-letter translate meets the depth budget, not the stack; a
    # third block, the unit and the zeroth power of a cylinder, and a cycle
    # point off the base
    out += [refused("deep-translate", "moment", "a^1200 O(b)"),
            ["--format", "machine", "--depth", "1300", "moment",
             "a^1200 O(b)"],
            refused("third-block", "series", "3", "2"),
            ["--format", "machine", "moment", "e"],
            ["--format", "machine", "moment", "O(a)^0"],
            refused("off-base-cycle", "--config", "offcycle.cfg", "join")]
    # a battery over a shift of order 3 fits its windows to it; a point
    # pair in neither relation, an unknown point and an unclosed core are
    # input errors; a sweep past the word bound is refused
    out += [["--format", "machine", "--config", "short.cfg", "suite67"],
            refused("unit-off-both", "--config", "three.cfg", "moment",
                    "e[p,v]"),
            refused("unresolved-point", "moment", "e[x0,zz]"),
            refused("unclosed-core", "moment", "A[e}"),
            refused("sweep-bound", "--max-len", "1200", "freeness",
                    "boundary")]
    # counts given on the command line are bounded, so none of these runs
    # on; a value too long to print is an input error, not a traceback
    out += [refused("letters-identity", "moment", "e^100000000"),
            refused("letters-corner", "moment", "A[e]{1,1}^-100000000"),
            refused("letters-rn", "rn", "a^100000000", "O(b)"),
            refused("haar-window", "haar", "a", "100000000"),
            refused("terms-bound", "series", "1", "100000000"),
            ["series", "1", "10000"],
            refused("too-long-to-print", "--config", "letters26.cfg",
                    "measure", "O(%s)" % " ".join(["a n"] * 1300))]
    # a number is refused at its position past nine digits, and the depth
    # budget is bounded on the command line and in a config file
    out += [refused("long-number", "moment", "a^" + "1" * 5000),
            refused("depth-bound", "--depth", "6000", "oracle",
                    "a^4999 O(b)"),
            refused("depth-bound-config", "--config", "deep.cfg", "join")]
    # the exponent window, the base and suite67's alphabet are bounded, and
    # the corner power window is no key; series over 26 generators no
    # longer builds its 6.9 * 10^9 cylinders
    out += [refused("n-max-bound", "--config", "nmax.cfg", "join"),
            ["--config", "kappa.cfg", "join"],
            refused("point-bound", "--config", "wide.cfg", "join"),
            refused("suite67-generators", "--config", "five.cfg", "suite67"),
            ["--format", "machine", "--config", "letters26.cfg", "series",
             "1", "6"]]
    # malformed expressions and commands given the wrong kind of argument
    out += [refused("no-expression", "moment", ")"),
            refused("empty-cylinder", "measure", "O()"),
            refused("rn-cylinder-word", "rn", "O(a)", "O(a b)"),
            refused("bad-point", "moment", "e[(,x0]"),
            refused("bad-character", "moment", "a $"),
            refused("bad-exponent", "moment", "a^x"),
            refused("unknown-name", "moment", "C"),
            refused("no-core", "moment", "A[1]{1,1}"),
            refused("unit-off-relation", "moment", "A[e[x1,x2]]{1,1}"),
            refused("oracle-corner", "oracle", "A[e]{1,2}"),
            refused("measure-word", "measure", "a")]
    # an unchecked cycle (p q p) made `join` loop in Permutation.orbits;
    # every e in an expression is the identity, so a generator named e
    # could never be addressed: O(e) measured the whole space
    out += [refused("no-points", "--config", "no-points.cfg", "join"),
            refused("repeated-cycle-point", "--config",
                    "repeated-cycle-point.cfg", "join"),
            refused("duplicate-generator", "--config",
                    "duplicate-generator.cfg", "series", "1", "2"),
            refused("uppercase-generator", "--config",
                    "uppercase-generator.cfg", "join"),
            refused("reserved-e-measure", "--config", "reserved-e.cfg",
                    "measure", "O(e)"),
            refused("reserved-e-rn", "--config", "reserved-e.cfg", "rn", "e",
                    "O(e b)")]
    # an empty haar window checked nothing and a negative series window
    # summed nothing, yet both printed a record; no reduced point starts
    # with a a' under a configured alphabet either; a lone cylinder atom
    # still meets the budget
    out += [refused("kmax-negative", "haar", "A[e]{1,2}", "-2"),
            refused("terms-negative-block2", "series", "2", "-1"),
            refused("unreduced-configured", "--config",
                    "unreduced-configured.cfg", "measure", "O(a a')"),
            refused("budget-lone-haar", "--depth", "2", "haar", "O(a b a)",
                    "1")]
    # one letter past the bound, each ^ alone far below it; past CPython's
    # int conversion limit a config limit was called not an integer, and
    # argparse's own message for a bad int printed the whole value
    out += [refused("letters-past-bound", "moment", "(a^100)^50 a"),
            refused("haar-letters", "haar", "a b", "2501"),
            refused("k-bound", "--config", "k-bound.cfg", "join"),
            refused("long-limit", "--config", "long-limit.cfg", "join"),
            refused("long-option", "--depth", "1" * 5000, "join"),
            refused("long-argument", "series", "1", "1" * 5000)]
    # suite67 fits its windows to a shift of order 3, the corner sweep
    # refuses it; adjoints nest under the parser's bound as parentheses do
    out += [["--config", "short.cfg", "freeness", "corner"],
            refused("nesting-adjoints", "moment", "~" * 101 + "a")]
    # rn folds its word with dsl.evaluate, which evaluates the base of a
    # zeroth power before it drops it, so a cylinder there is refused
    out.append(refused("rn-zeroth-cylinder", "rn", "O(a)^0", "O(a b)"))
    # the complement series table over free ranks 3 and 4 and a fat first
    # block, and the corner freeness survey at two word lengths
    out += [["--format", "machine", "--config", name, "series", "1", str(m)]
            for name in ("rank3.cfg", "rank4.cfg", "abc.cfg")
            for m in range(1, 9)]
    out += [["--format", "machine", "--max-len", str(n), "freeness", "corner"]
            for n in (2, 3)]
    # a word of length 1 cannot alternate, so a sweep to length 1 checked
    # nothing and passed
    out.append(refused("max-len-one", "--max-len", "1", "freeness",
                       "boundary"))
    # record shapes once probed only by a test
    out += [["--format", "machine", "measure", "O(a b a)"],
            ["--format", "machine", "series", "2", "3"],
            ["--format", "machine", "moment", "~(a b)^2"]]
    # one grammar reads every integer, and argparse's own errors are one
    # line each: an unknown command, a missing argument, a bad choice and
    # an unrecognised option
    out += [refused("option-not-integer", "--depth", "x", "join"),
            refused("argument-not-integer", "haar", "a", "x"),
            refused("digit-separator", "--depth", "1_0", "join"),
            refused("unknown-command", "bogus"),
            refused("missing-argument", "haar", "a"),
            refused("bad-choice", "freeness", "sideways"),
            refused("bad-format", "--format", "xml", "join"),
            refused("unrecognised-option", "join", "--bogus")]
    # the zeroth power of a word is the identity
    out.append(["--format", "machine", "rn", "a^0", "O(b)"])
    return out


def run(argv):
    """(exit code, stdout, stderr) of one command, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def block(argv, code, out, err):
    """The transcript text of one command and its result."""
    return "$ amalgam %s\nexit %s\n--- stdout\n%s--- stderr\n%s\n" % (
        shlex.join(argv), code, out, err)


def transcript(argvs, stream):
    for argv in argvs:
        stream.write(block(argv, *run(argv)))


def write_configs(directory):
    for name, text in CONFIGS.items():
        with open(os.path.join(directory, name), "w") as handle:
            handle.write(text)


def main():
    argvs = commands()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # the configuration files are named relative to the working
        # directory, so no temporary path reaches the transcript
        write_configs(tmp)
        os.chdir(tmp)
        try:
            transcript(argvs, sys.stdout)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
