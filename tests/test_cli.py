"""Expression language round trips, config parsing, CLI exit codes."""

import ast
import importlib.util
import io
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam
from amalgam import cli, dsl, engine
from amalgam.cli import main
from amalgam.config import ConfigError, default_config, parse_config
from amalgam.dsl import (
    Adjoint, BracketAtom, CylinderAtom, DslError, Power, Product, UnitAtom,
    WordAtom,
)
from amalgam.words import ReducedWord, ball

CFG = default_config()


# -- expression language -----------------------------------------------------------

ROUND_TRIP_CORPUS = [
    "a",
    "e",
    "a'",
    "a b' a",
    "O(e)",
    "O(a b a)",
    "~a",
    "~~b",
    "a^3",
    "b^-2",
    "(a b)^2",
    "~(a b')",
    "(a^2)^3",
    "(~a)^-1",
    "e[x0,x1]",
    "A[e]{1,2}",
    "B[u]{2,1}",
    "B[u^-3]{1,3}",
    "A[e[x2,x3]]{2,2}",
    "A[d[x4]]{1,1}",
    "(A[e]{1,2} B[u]{2,1})^2",
    "~B[u^2]{3,1} A[e]{1,3}",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_round_trip_corpus(text):
    expr = dsl.parse(text, CFG)
    rendered = dsl.render(expr)
    assert dsl.parse(rendered, CFG) == expr
    # rendering is a fixed point after one pass
    assert dsl.render(dsl.parse(rendered, CFG)) == rendered


def _letter_atoms():
    alphabet = CFG.alphabet
    atoms = [WordAtom(ReducedWord.identity(alphabet))]
    for letter in alphabet.letters():
        atoms.append(WordAtom(ReducedWord.from_letters(alphabet, (letter,))))
    return atoms


_POINTS = st.sampled_from(CFG.base.points[:4])
_CORES = st.one_of(
    st.just(("one",)),
    st.integers(-3, 3).map(lambda n: ("shift", n)),
    st.builds(lambda x: ("diag", x), _POINTS),
    st.builds(lambda x, y: ("unit", x, y), _POINTS, _POINTS),
)
_ATOMS = st.one_of(
    st.sampled_from(_letter_atoms()),
    st.sampled_from([CylinderAtom(w) for w in ball(CFG.alphabet, 2)]),
    st.builds(UnitAtom, _POINTS, _POINTS),
    st.builds(BracketAtom, st.sampled_from(("A", "B")), _CORES,
              st.integers(1, 3), st.integers(1, 3)),
)


def _extend(children):
    # the parser flattens bare products, so products never nest directly
    flat = children.filter(lambda node: not isinstance(node, Product))
    return st.one_of(
        st.builds(Adjoint, children),
        st.builds(Power, children, st.integers(-3, 3)),
        st.lists(flat, min_size=2, max_size=3).map(
            lambda factors: Product(tuple(factors))),
    )


EXPRS = st.recursive(_ATOMS, _extend, max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(EXPRS)
def test_round_trip_generated(expr):
    assert dsl.parse(dsl.render(expr), CFG) == expr


@settings(max_examples=100, deadline=None)
@given(EXPRS)
def test_machine_text_has_no_spaces(expr):
    assert " " not in dsl.machine_text(expr)


def test_parse_errors_carry_positions():
    with pytest.raises(DslError, match="line 1, column 3"):
        dsl.parse("a q", CFG)
    with pytest.raises(DslError, match="trailing input"):
        dsl.parse("a )", CFG)
    with pytest.raises(DslError, match="slot indices"):
        dsl.parse("A[e]{0,1}", CFG)
    # each slot index is checked where it is read, so the message names it
    with pytest.raises(DslError,
                       match="^line 1, column 8: slot indices start at 1$"):
        dsl.parse("A[e]{1,-1}", CFG)
    with pytest.raises(DslError,
                       match="^line 1, column 8: slot index 4 is above k = 3$"):
        dsl.parse("A[e]{1,4}", CFG)
    with pytest.raises(DslError, match="bracket core"):
        dsl.parse("A[q]{1,1}", CFG)
    with pytest.raises(DslError, match="mixes"):
        dsl.domain(dsl.parse("a A[e]{1,1}", CFG))


@pytest.mark.parametrize("text, message", [
    ("a\n  @", "line 2, column 3: unexpected character '@'"),
    ("a\n\n  q", "line 3, column 3: unresolved identifier 'q'"),
    ("A[e]{1,\n 9}", "line 2, column 2: slot index 9 is above k = 3"),
], ids=["tokenizer", "parser", "slot-index"])
def test_parse_errors_count_lines(text, message):
    # a position past a newline counts lines from 1 and restarts columns
    with pytest.raises(DslError) as caught:
        dsl.parse(text, CFG)
    assert str(caught.value) == message


@pytest.mark.parametrize("text, letters", [
    ("e", 1), ("a b' a", 3), ("O(a b)", 2), ("A[u^9]{1,2} e[x0,x1]", 2),
    ("~(a b)^-3", 6), ("O(a)^0", 1), ("(a^100)^50", 5000),
])
def test_letter_count(text, letters):
    # x^n counts x |n| times, so nested powers multiply; an expression at
    # the bound parses (one more letter is an INPUT_ERRORS row)
    assert dsl.letter_count(dsl.parse(text, CFG)) == letters


def test_word_value_folds_products():
    expr = dsl.parse("a b (a b)^-1", CFG)
    assert dsl.word_value(expr, CFG).is_identity()
    expr = dsl.parse("~(a b)", CFG)
    assert dsl.word_value(expr, CFG) == \
        ReducedWord.parse(CFG.alphabet, "b' a'")


# -- configuration -----------------------------------------------------------------

CUSTOM = """\
[alphabet]
block1 = a c
block2 = b

[base]
points = p q r s
classes = {p q}

[state]
weights = 1/2 1/6 1/6 1/6

[alpha]
cycles = (p q r s)

[limits]
depth = 5
k = 2
"""


def test_parse_config_custom():
    cfg = parse_config(CUSTOM)
    assert cfg.alphabet.names == ("a", "c", "b")
    assert cfg.alphabet.block_sizes() == (2, 1)
    assert cfg.base.points == ("p", "q", "r", "s")
    assert cfg.base.weight("p") == Fraction(1, 2)
    assert cfg.alpha.mapping["p"] == "q" and cfg.alpha.order() == 4
    assert cfg.plain_relation().classes() == (("p", "q"), ("r",), ("s",))
    assert (cfg.depth, cfg.k) == (5, 2)
    # unspecified limits keep their defaults
    assert (cfg.n_max, cfg.kappa_max, cfg.max_len) == (2, 4, 4)


def test_default_config_is_consistent():
    cfg = default_config()
    assert cfg.alphabet.names == ("a", "b")
    assert len(cfg.base.points) == 11
    assert cfg.alpha.order() == 11
    assert sum(cfg.base.weight(p) for p in cfg.base.points) == 1
    # the built-in text states only the classes; the rest are the defaults
    assert repr(cfg.plain_relation()) == \
        "{x0 x1}+{x10}+{x2 x3}+{x4}+{x5}+{x6}+{x7}+{x8}+{x9}"
    assert (cfg.depth, cfg.k, cfg.n_max, cfg.kappa_max, cfg.max_len) == \
        (8, 3, 2, 4, 4)


def test_default_config_is_shared_and_frozen():
    cfg = default_config()
    assert default_config() is cfg
    with pytest.raises(FrozenInstanceError):
        cfg.max_len = 2


def test_corner_model_is_built_once_per_config():
    cfg = default_config()
    assert cfg.corner_model() is cfg.corner_model()
    other = replace(cfg, k=2)
    assert other.corner_model().k == 2 and cfg.corner_model().k == 3


@pytest.mark.parametrize("text,match", [
    ("[bogus]\nx = 1\n", "unknown section"),
    ("[limits]\nk = 1\n", "at least 2"),
    ("[limits]\nwidth = 3\n", "unknown key"),
    # a misspelt key in any section is an error, not a silent default
    ("[alphabet]\nblok1 = a c\n", r"^unknown key in \[alphabet\]: blok1$"),
    ("[base]\nclases = {x0 x1}\n", r"^unknown key in \[base\]: clases$"),
    ("[state]\nweight = 1\n", r"^unknown key in \[state\]: weight$"),
    ("[alpha]\ncycle = (x0 x1)\n", r"^unknown key in \[alpha\]: cycle$"),
    ("[limits]\nmax-len = 3\n", r"^unknown key in \[limits\]: max-len$"),
    ("[limits]\ndepth = soon\n", "must be an integer"),
    ("[base]\npoints = p p\n", "distinct"),
    ("[base]\npoints = p q\nclasses = {p z}\n", "not in the base"),
    ("[base]\npoints = p q\n[alpha]\ncycles = (p z)\n", "not in the base"),
    ("[base]\npoints = p q\nclasses = {p q} junk\n", "unparsed text"),
    ("[base]\npoints = p q\n[state]\nweights = 1/2\n", "one weight per"),
    ("[base]\npoints = p q\n[state]\nweights = 1/0 1\n", "bad weight: 1/0$"),
    ("[base]\npoints = p q\n[state]\nweights = 1 x\n", "bad weight: x$"),
    ("[base]\npoints = p q r\nclasses = {p q} {q r}\n",
     "^point in two classes$"),
    ("stray line\n", "line 1"),
    # a repeated key or section is an error, not a silent last-one-wins
    ("[base]\npoints = p q r\nclasses = {p q}\nclasses = {q r}\n",
     r"^line 4: repeated key in \[base\]: classes$"),
    ("[limits]\ndepth = 3\n[limits]\ndepth = 5\n",
     r"^line 3: repeated section: \[limits\]$"),
    ("[limits]\nk = 0\n", r"^k must be at least 2, not 0$"),
    ("[limits]\nn_max = 0\n", r"^n_max must be at least 1, not 0$"),
    ("[limits]\nkappa_max = -2\n", r"^kappa_max must be at least 1, not -2$"),
])
def test_parse_config_rejects(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


# -- command line ------------------------------------------------------------------

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_frozen(capsys):
    code, out, _ = run(capsys, "--format", "machine", "measure", "O(a b)")
    assert code == 0
    assert out.strip() == \
        "record=measure cylinder=O(a.b) value=1/12 refinement=1/12 ok=yes"


def test_series_frozen(capsys):
    code, out, _ = run(capsys, "--format", "machine", "series", "1", "2")
    assert code == 0
    assert "partial=17/18" in out and "tail=1/18" in out and "ok=yes" in out


def test_moment_frozen(capsys):
    code, out, _ = run(capsys, "--format", "machine", "moment",
                       "(A[e]{1,2} B[u]{2,1})^2")
    assert code == 0
    assert out.strip() == "record=moment expr=(A[e]{1,2}.B[u]{2,1})^2 value=0"


def test_moment_identity_word(capsys):
    code, out, _ = run(capsys, "--format", "machine", "moment", "a a'")
    assert code == 0
    assert out.strip() == "record=moment expr=a.a' value=1*O(e)"


@pytest.mark.parametrize("expr", ["a b O(a) b' a'", "A[e]{1,1}"],
                         ids=["boundary", "corner"])
def test_moment_value_is_the_values_repr(capsys, expr):
    # one text form: the record prints the value's own repr, spaces as '.'
    parsed = dsl.parse(expr, CFG)
    if dsl.domain(parsed) == "boundary":
        context = dsl.BoundaryContext(CFG.boundary_product())
    else:
        context = dsl.CornerContext(CFG.corner_model())
    value = context.expect(dsl.evaluate(parsed, context))
    assert not value.is_zero()
    code, out, _ = run(capsys, "--format", "machine", "moment", expr)
    assert code == 0
    assert out.split()[-1] == "value=" + repr(value).replace(" ", ".")


def test_emit_prints_a_value_with_spaces_as_one_token():
    word = ReducedWord.parse(CFG.alphabet, "a b'")
    record = cli.Record("probe", [("word", word)], ok=True)
    for fmt, text in [("machine", "record=probe word=a.b' ok=yes\n"),
                      ("human", "probe\n  word = a.b'\n  ok = yes\n")]:
        out = io.StringIO()
        cli.emit([record], fmt, out)
        assert out.getvalue() == text


def test_rn_frozen(capsys):
    code, out, _ = run(capsys, "--format", "machine", "rn", "a", "O(b a' b)")
    assert code == 0
    assert "exponent=-1" in out and "ratio=1/3" in out and "ok=yes" in out


def test_oracle_agrees(capsys):
    code, out, _ = run(capsys, "--format", "machine", "oracle", "O(a) a b a'")
    assert code == 0
    assert "ok=yes" in out
    assert out.strip() == \
        "record=oracle expr=O(a).a.b.a' engine=0 oracle=0 ok=yes"


def test_haar_pass_and_fail(capsys):
    code, out, _ = run(capsys, "--format", "machine", "haar", "a b", "3")
    assert code == 0 and "failed_exponents=none" in out
    code, out, _ = run(capsys, "--format", "machine", "haar", "O(a)", "1")
    assert code == 1
    assert "unitary=no" in out and "ok=no" in out
    code, out, _ = run(capsys, "--format", "machine", "haar",
                       "A[e]{1,3} B[u^-2]{3,1}", "4")
    assert code == 0
    assert out.strip() == "record=haar expr=A[e]{1,3}.B[u^-2]{3,1} kmax=4 " \
        "unitary=yes failed_exponents=none ok=yes"
    code, out, _ = run(capsys, "--format", "machine", "haar", "A[e]{1,2}", "2")
    assert code == 1
    assert "unitary=no" in out and "ok=no" in out


@pytest.mark.parametrize("word", ["a b", "A[e]{1,2} B[u]{2,1}"],
                         ids=["boundary", "corner"])
def test_long_cancelling_product(capsys, word):
    # 1,200 seams merge one after another; each is a step of a loop in
    # the word product, not a stack frame
    one = CFG.boundary_product().d_one() if word == "a b" \
        else CFG.corner_model().corner_identity().d_part
    code, out, err = run(capsys, "--format", "machine", "moment",
                         "(%s)^600 ~((%s)^600)" % (word, word))
    assert code == 0 and err == ""
    assert out.split()[-1] == "value=" + repr(one).replace(" ", ".")


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("~", "")],
                         ids=["parentheses", "adjoints"])
def test_nesting_bound(capsys, opening, closing):
    bound = dsl._NESTING_BOUND
    expr = opening * bound + "a" + closing * bound
    assert run(capsys, "moment", expr)[0] == 0
    expr = opening * (bound + 1) + "a" + closing * (bound + 1)
    assert run(capsys, "moment", expr) == (
        2, "", "error: line 1, column %d: %r nested deeper than %d levels\n"
        % (bound + 1, opening, bound))


def test_freeness_boundary(capsys):
    code, out, _ = run(capsys, "--format", "machine", "--max-len", "3",
                       "freeness", "boundary")
    assert code == 0
    assert "violations=0" in out


def test_join_and_ergodic(capsys):
    code, out, _ = run(capsys, "--format", "machine", "join")
    assert code == 0 and "ergodic=yes" in out
    code, out, _ = run(capsys, "--format", "machine", "ergodic")
    assert code == 0
    assert "class_count=1" in out and "class_masses=1" in out


def test_series_accepts_zero_terms(capsys):
    # the smallest haar window, K = 1, runs in test_haar_pass_and_fail
    code, out, _ = run(capsys, "--format", "machine", "series", "1", "0")
    assert code == 0 and "terms=0" in out and "ok=yes" in out


@pytest.mark.parametrize("key", ["max_len", "depth"])
@pytest.mark.parametrize("value", ["-1", "0"])
@pytest.mark.parametrize("command", [("freeness", "boundary"), ("suite67",)],
                         ids=["freeness", "suite67"])
def test_limit_overrides_are_validated(capsys, tmp_path, key, value, command):
    # a flag and a config file line are checked alike, and the message
    # names the limit and its value
    err = "error: %s must be at least 1, not %s\n" % (key, value)
    flag = "--" + key.replace("_", "-")
    assert run(capsys, flag, value, *command) == (2, "", err)
    cfg = tmp_path / "limits.cfg"
    cfg.write_text("[limits]\n%s = %s\n" % (key, value))
    assert run(capsys, "--config", str(cfg), *command) == (2, "", err)


def test_identity_letter_allowed_in_cylinder(capsys):
    for text, shown in (("O(e)", "O(e) value=1 "), ("O(e a)", "O(a) value=1/4 ")):
        code, out, _ = run(capsys, "--format", "machine", "measure", text)
        assert code == 0 and "cylinder=" + shown in out


OFF_BASE_CYCLE = "[base]\npoints = p q r\n[alpha]\ncycles = (p z)\n"
THREE_CLASSES = ("[base]\npoints = p q r s t u v\n"
                 "classes = {p q} {s r} {u t}\n[alpha]\ncycles = (q s)\n")
OVERLAP = "[base]\npoints = p q r\nclasses = {p q} {q r}\n"
RESERVED_E = "[alphabet]\nblock1 = e\nblock2 = b\n"
RESERVED_E_ERROR = "bad alphabet: generator name e is reserved for the identity"
TWENTY_SIX = ("[alphabet]\nblock1 = a b c d e1 f g h i j k l m\n"
              "block2 = n o p q r s t u v w x y z\n")

# Every refused input, one row each: (id, config text or None, argv, exit
# code, the one stderr line after "error: "). A row's config is read from
# <id>.cfg in the working directory, so no message holds a temporary path.
# Each rule is checked once, by the parser or by the constructor that owns
# it; every row runs in process and again under python -O, which strips
# assert (test_input_error_under_optimize).
INPUT_ERRORS = [
    ("no-expression", None, ("moment", ")"), 2,
     "line 1, column 1: expected an expression"),
    ("empty-cylinder", None, ("measure", "O()"), 2,
     "line 1, column 3: expected a group word"),
    ("rn-cylinder-word", None, ("rn", "O(a)", "O(a b)"), 2,
     "expected a group word"),
    ("bad-point", None, ("moment", "e[(,x0]"), 2,
     "line 1, column 3: expected a base point"),
    ("bad-character", None, ("moment", "a $"), 2,
     "line 1, column 3: unexpected character '$'"),
    ("bad-exponent", None, ("moment", "a^x"), 2,
     "line 1, column 3: expected an integer"),
    ("unknown-name", None, ("moment", "C"), 2,
     "line 1, column 1: unknown name 'C'"),
    ("no-core", None, ("moment", "A[1]{1,1}"), 2,
     "line 1, column 3: expected a bracket core"),
    ("unit-off-relation", None, ("moment", "A[e[x1,x2]]{1,1}"), 2,
     "e[x1,x2] is not in the A face relation"),
    ("oracle-corner", None, ("oracle", "A[e]{1,2}"), 2,
     "the oracle command needs a boundary expression"),
    ("measure-word", None, ("measure", "a"), 2, "expected a cylinder O(...)"),
    ("third-block", None, ("series", "3", "2"), 2,
     "block must be 1 or 2, not 3"),
    ("no-points", "[base]\npoints =\n", ("join",), 2,
     "base points must be distinct and nonempty"),
    ("off-base-cycle", OFF_BASE_CYCLE, ("join",), 2,
     "bad cycles: cycle point z is not in the base"),
    ("unit-off-both", THREE_CLASSES, ("moment", "e[p,v]"), 2,
     "e[p,v] is not in either face relation"),
    ("unresolved-point", None, ("moment", "e[x0,zz]"), 2,
     "line 1, column 6: unresolved identifier 'zz'"),
    ("unclosed-core", None, ("moment", "A[e}"), 2,
     "line 1, column 4: expected ']'"),
    # the translate O(a^1200 b) is refused by the budget, not the stack
    ("deep-translate", None, ("moment", "a^1200 O(b)"), 3,
     "cylinder depth 1201 exceeds budget 8"),
    # about 4 * 3^1199 words: refused before the sweep starts
    ("sweep-bound", None, ("--max-len", "1200", "freeness", "boundary"), 2,
     "a freeness sweep to length 1200 has more than 1000000 words"),
    ("unresolved-letter", None, ("measure", "O(a q)"), 2,
     "line 1, column 5: unresolved identifier 'q'"),
    ("mixed-atoms", None, ("moment", "a A[e]{1,2}"), 2,
     "expression mixes boundary and corner atoms"),
    ("unknown-key", "[limits]\nbogus = 3\n", ("join",), 2,
     "unknown key in [limits]: bogus"),
    ("missing-config", None, ("--config", "missing.cfg", "join"), 2,
     "[Errno 2] No such file or directory: 'missing.cfg'"),
    # the plain relation is built when the file is read, so a command that
    # never uses it refuses overlapping classes too
    ("overlap-measure", OVERLAP, ("measure", "O(a)"), 2,
     "point in two classes"),
    ("overlap-join", OVERLAP, ("join",), 2, "point in two classes"),
    ("bad-state", "[base]\npoints = p q r\n[state]\nweights = 5 5 1\n",
     ("ergodic",), 2, "bad state: weights must sum to 1"),
    # an unchecked cycle (p q p) made `join` loop in Permutation.orbits
    ("repeated-cycle-point",
     "[base]\npoints = p q r\n[alpha]\ncycles = (p q p)\n", ("join",), 2,
     "bad cycles: repeated point in a cycle"),
    ("duplicate-generator", "[alphabet]\nblock1 = a\nblock2 = a\n",
     ("series", "1", "2"), 2, "bad alphabet: duplicate generator"),
    ("uppercase-generator", "[alphabet]\nblock1 = A\n", ("join",), 2,
     "bad alphabet: generator name must be lowercase: 'A'"),
    # every e in an expression is the identity, so a generator named e
    # could never be addressed: O(e) measured the whole space
    ("reserved-e-measure", RESERVED_E, ("measure", "O(e)"), 2,
     RESERVED_E_ERROR),
    ("reserved-e-rn", RESERVED_E, ("rn", "e", "O(e b)"), 2, RESERVED_E_ERROR),
    # an empty haar window checked nothing and a negative series window
    # summed nothing, yet both printed a record
    ("kmax-zero", None, ("haar", "a", "0"), 2,
     "kmax must be at least 1, not 0"),
    ("kmax-negative", None, ("haar", "A[e]{1,2}", "-2"), 2,
     "kmax must be at least 1, not -2"),
    ("terms-negative", None, ("series", "1", "-3"), 2,
     "terms must be at least 0, not -3"),
    ("terms-negative-block2", None, ("series", "2", "-1"), 2,
     "terms must be at least 0, not -1"),
    # no reduced point starts with a a', so the prefix is an input error,
    # not the whole space
    ("unreduced-measure", None, ("measure", "O(a a')"), 2,
     "line 1, column 5: cylinder prefix is not reduced: "
     "a' cancels the letter before it"),
    ("unreduced-rn", None, ("rn", "a", "O(b b')"), 2,
     "line 1, column 5: cylinder prefix is not reduced: "
     "b' cancels the letter before it"),
    ("unreduced-moment", None, ("moment", "O(a a') b"), 2,
     "line 1, column 5: cylinder prefix is not reduced: "
     "a' cancels the letter before it"),
    ("unreduced-past-e", None, ("measure", "O(a e a')"), 2,
     "line 1, column 7: cylinder prefix is not reduced: "
     "a' cancels the letter before it"),
    ("unreduced-configured", "[alphabet]\nblock1 = a\nblock2 = b\n",
     ("measure", "O(a a')"), 2,
     "line 1, column 5: cylinder prefix is not reduced: "
     "a' cancels the letter before it"),
    # a cylinder atom with no arithmetic on it still meets the budget
    ("budget-product", None, ("--depth", "2", "moment", "O(a b a) a"), 3,
     "cylinder depth 3 exceeds budget 2"),
    ("budget-lone-moment", None, ("--depth", "2", "moment", "O(a b a)"), 3,
     "cylinder depth 3 exceeds budget 2"),
    ("budget-lone-haar", None, ("--depth", "2", "haar", "O(a b a)", "1"), 3,
     "cylinder depth 3 exceeds budget 2"),
    # x^0 is the unit only for an x that exists: the base fails as it
    # would alone
    ("zeroth-plain-shift", None, ("moment", "A[u]{1,2}^0"), 2,
     "the plain face has no shift unitary"),
    ("zeroth-bad-slot", None, ("moment", "A[e]{9,1}^0"), 2,
     "line 1, column 6: slot index 9 is above k = 3"),
    ("zeroth-too-deep", None, ("--depth", "2", "moment", "O(a b a)^0"), 3,
     "cylinder depth 3 exceeds budget 2"),
    # counts on the command line are bounded; unbounded, each of these
    # was still running after 10 s
    ("letters-identity", None, ("moment", "e^100000000"), 2,
     "expression unfolds to more than 5000 letters"),
    ("letters-corner", None, ("moment", "A[e]{1,1}^-100000000"), 2,
     "expression unfolds to more than 5000 letters"),
    ("letters-rn", None, ("rn", "a^100000000", "O(b)"), 2,
     "expression unfolds to more than 5000 letters"),
    # one letter past the bound; each ^ alone stays far below it
    ("letters-past-bound", None, ("moment", "(a^100)^50 a"), 2,
     "expression unfolds to more than 5000 letters"),
    ("haar-window", None, ("haar", "a", "100000000"), 2,
     "haar to kmax 100000000 unfolds to more than 5000 letters"),
    ("haar-letters", None, ("haar", "a b", "2501"), 2,
     "haar to kmax 2501 unfolds to more than 5000 letters"),
    ("terms-bound", None, ("series", "1", "100000000"), 2,
     "terms must be at most 1000, not 100000000"),
    ("k-bound", "[limits]\nk = 9\n", ("join",), 2,
     "k must be at most 8, not 9"),
    # a measure of 1/(52 * 51^2599): more digits than CPython prints
    ("too-long-to-print", TWENTY_SIX,
     ("measure", "O(%s)" % " ".join(["a n"] * 1300)), 2,
     "record measure has a value too long to print"),
]
ROW_IDS = [row[0] for row in INPUT_ERRORS]


def row_argv(directory, row):
    """The row's argv; its config, if any, is written to <id>.cfg in
    directory."""
    name, config, argv = row[:3]
    if config is None:
        return list(argv)
    (directory / (name + ".cfg")).write_text(config)
    return ["--config", name + ".cfg", *argv]


@pytest.mark.parametrize("row", INPUT_ERRORS, ids=ROW_IDS)
def test_input_error_exit_code_and_message(capsys, tmp_path, monkeypatch, row):
    argv = row_argv(tmp_path, row)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (row[3], "", "error: %s\n" % row[4])


@pytest.mark.parametrize("bound, code", [(48, 0), (47, 2)])
def test_freeness_sweep_bound(capsys, monkeypatch, bound, code):
    # four one-letter families: 12 words of length 2 and 36 of length 3
    monkeypatch.setattr(engine, "FREENESS_WORD_BOUND", bound)
    got, out, err = run(capsys, "--format", "machine", "--max-len", "3",
                        "freeness", "boundary")
    assert got == code
    if code == 0:
        assert " words=48 " in out and err == ""
    else:
        assert (out, err) == ("", "error: a freeness sweep to length 3 has "
                                  "more than 47 words\n")


@pytest.mark.parametrize("config, freeness", [
    ("[base]\npoints = p q r\nclasses = {p q}\n[limits]\nn_max = 3\n",
     "max_len=2 words=54 "),
    ("[base]\npoints = p q r\n[alpha]\ncycles =\n", "max_len=4 words=6 "),
], ids=["order-3", "order-1"])
def test_suite67_fits_its_windows_to_a_short_shift(capsys, tmp_path, config,
                                                   freeness):
    # the freeness record cuts its exponent window to leave words of length
    # 2, then takes a word length that keeps the stacked exponents below
    # the order: the record checks words, not none
    path = tmp_path / "short.cfg"
    path.write_text(config)
    code, out, err = run(capsys, "--config", str(path), "--format",
                         "machine", "suite67")
    lines = out.splitlines()
    assert code == 0 and err == "" and len(lines) == 14
    assert all(line.endswith(" ok=yes") for line in lines)
    assert "record=corner_freeness " + freeness in out


@pytest.mark.parametrize("argv, value", [
    (("moment", "e"), "1*O(e)"),
    (("moment", "O(a)^0"), "1*O(e)"),
    (("--depth", "1300", "moment", "a^1200 O(b)"), "0"),
], ids=["identity", "zeroth-power", "deep-translate"])
def test_moment_value(capsys, argv, value):
    code, out, err = run(capsys, "--format", "machine", *argv)
    assert code == 0 and err == ""
    assert out.split()[-1] == "value=" + value


def test_repeated_calls_answer_alike(capsys, tmp_path):
    # main keeps its parser, the default config and that config's corner
    # model for the process: no call may change the answer of a later one
    probes = [("--format", "machine", "haar", "A[e]{1,3} B[u^-2]{3,1}", "4"),
              ("--format", "machine", "freeness", "boundary")]

    def answers():
        return [run(capsys, *argv) for argv in probes]

    first = answers()
    assert [code for code, _, _ in first] == [0, 0]
    assert "max_len=4 " in first[1][1]
    with pytest.raises(SystemExit) as exc:  # an argparse usage error
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert answers() == first
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[limits]\nmax_len = 3\n")
    assert run(capsys, "--config", str(cfg), "join")[0] == 0
    assert answers() == first
    assert run(capsys, "--max-len", "2", "freeness", "corner")[0] == 0
    assert answers() == first


def test_config_file_is_read_on_every_call(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    argv = ("--config", str(cfg), "--format", "machine", "freeness",
            "boundary")
    for max_len in (2, 3, 2):
        cfg.write_text("[limits]\nmax_len = %d\n" % max_len)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "max_len=%d " % max_len in out


def test_internal_error_exits_with_four(capsys, monkeypatch):
    def broken(args, config):
        raise AssertionError("invariant broke")

    monkeypatch.setitem(cli.COMMANDS, "join", broken)
    code, out, err = run(capsys, "join")
    assert code == 4 and out == ""
    assert err == "error: internal: invariant broke\n"


SRC = Path(amalgam.__file__).resolve().parents[1]

# cheap commands covering every exit code but 2; one process each with and
# without -O must print the same
SAME_UNDER_OPTIMIZE = [
    ["measure", "O(a b)"],
    ["rn", "a", "O(a b)"],
    ["series", "1", "2"],
    ["moment", "O(a) b O(b') a'"],
    ["moment", "(A[e]{1,2} B[u]{2,1})^2"],
    ["oracle", "a b O(a) b' a'"],
    ["haar", "A[e]{1,3} B[u^-2]{3,1}", "4"],
    ["haar", "A[e]{1,2}", "2"],
    ["--max-len", "2", "freeness", "boundary"],
    ["--max-len", "2", "suite67"],
    ["join"],
    ["ergodic"],
    ["--depth", "2", "moment", "O(a b a) a"],
    ["--depth", "2", "moment", "O(a b a)"],
]

RUN_ALL = """
import contextlib, io, json, sys
from amalgam.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "machine"] + argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def optimize_runs(tmp_path_factory):
    """[code, stdout, stderr] of each SAME_UNDER_OPTIMIZE command, then of
    each INPUT_ERRORS row: one list from a plain process, one from python
    -O, which strips assert."""
    home = tmp_path_factory.mktemp("optimize")
    argvs = SAME_UNDER_OPTIMIZE + [row_argv(home, row) for row in INPUT_ERRORS]
    runs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", RUN_ALL, json.dumps(argvs)],
            capture_output=True, text=True, timeout=60, check=True, cwd=home,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0"))
        runs.append(json.loads(proc.stdout))
    return runs


def test_optimize_flag_changes_nothing(optimize_runs):
    plain, optimized = optimize_runs
    assert {code for code, _, _ in plain[:len(SAME_UNDER_OPTIMIZE)]} == \
        {0, 1, 3}
    for argv, want, got in zip(SAME_UNDER_OPTIMIZE, plain, optimized):
        assert got == want, argv


@pytest.mark.parametrize("row", INPUT_ERRORS, ids=ROW_IDS)
def test_input_error_under_optimize(optimize_runs, row):
    got = optimize_runs[1][len(SAME_UNDER_OPTIMIZE) + ROW_IDS.index(row[0])]
    assert got == [row[3], "", "error: %s\n" % row[4]]


def test_no_source_depends_on_optimize():
    # python -O drops assert statements and makes __debug__ false, so no
    # behaviour of the package may rest on either
    for path in sorted(SRC.joinpath("amalgam").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            assert not isinstance(node, ast.Assert), where
            assert not (isinstance(node, ast.Name)
                        and node.id == "__debug__"), where


def test_custom_config_changes_alphabet(capsys, tmp_path):
    path = tmp_path / "three.cfg"
    path.write_text(CUSTOM)
    code, out, _ = run(capsys, "--config", str(path), "--format", "machine",
                       "measure", "O(a b)")
    assert code == 0
    # three generators: 1/6 for the first letter, 1/5 per further letter
    assert "value=1/30" in out


def test_human_format_shape(capsys):
    code, out, _ = run(capsys, "measure", "O(a b)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "measure"
    assert all(line.startswith("  ") and " = " in line for line in lines[1:])


def test_machine_lines_are_flat_records(capsys):
    probes = [
        ["--format", "machine", "measure", "O(a b a)"],
        ["--format", "machine", "series", "2", "3"],
        ["--format", "machine", "moment", "~(a b)^2"],
        ["--format", "machine", "join"],
        ["--format", "machine", "rn", "a b", "O(b' a' b)"],
        ["--format", "machine", "oracle", "a b O(a) b' a'"],
        ["--format", "machine", "haar", "A[e]{1,3} B[u^-2]{3,1}", "4"],
        ["--format", "machine", "freeness", "corner"],
    ]
    for argv in probes:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        for line in out.strip().splitlines():
            pieces = line.split(" ")
            assert pieces[0].startswith("record=")
            for piece in pieces:
                key, sep, value = piece.partition("=")
                assert sep == "=" and key and value


SUITE67_LIGHT = """\
record=measure_exactness depth=4 cylinders=160 ok=yes
record=series_closure terms=6 frozen=5/6,17/18 ok=yes
record=splice_factorization pairs=364 ok=yes
record=ratio_powers exponents=-2,-1,0,1,2 ok=yes
record=oracle_agreement words=84 ok=yes
record=corner_moments checked=80 fixture=base=11,k=3,shift_order=11 ok=yes
record=corner_freeness max_len=2 words=170 shapes=90 violations=0 ok=yes
record=covariance checked=165 ok=yes
record=reduction_identities checked=402 ok=yes
record=bracket_laws checked=2516 ok=yes
record=join_ergodicity pairs=255 ok=yes
record=modular_scaling checks=356 ok=yes
record=intertwining isometries=812 ok=yes
record=suite67 checks=13 failed=0 ok=yes
"""


def test_suite67_light(capsys):
    # every record name and work count of the twelve criteria
    assert run(capsys, "--format", "machine", "--max-len", "2", "suite67") == \
        (0, SUITE67_LIGHT, "")


def load_script(name):
    path = SRC.parent / "scripts" / (name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_transcript_script_first_commands(capsys):
    transcript = load_script("transcript")
    transcript.main(["20"])
    out = capsys.readouterr().out
    assert out.count("$ amalgam ") == 20
    assert out.startswith("$ amalgam measure 'O(a b)'\nexit 0\n--- stdout\n"
                          "measure\n  cylinder = O(a.b)\n  value = 1/12\n")
    assert "exit 0" in out and "exit 4" not in out


def test_modular_sweep_script_runs(capsys):
    assert load_script("modular_sweep").main(["modular_sweep", "2"]) == 0
    out = capsys.readouterr().out
    assert "e[p0,p1] grade 2 " in out
    assert "exact grade checks, every real t: 356, passed" in out


def test_corner_report_script_runs(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["corner_report.py", "--max-len", "2"])
    assert load_script("corner_report").main() == 0
    out = capsys.readouterr().out
    assert "freeness   base=11 k=3 shift_order=11: 170 words, 90 shapes, " \
        "0 violations\n" in out


def test_series_table_script_runs(capsys):
    assert load_script("series_table").main(["series_table", "3"]) == 0
    out = capsys.readouterr().out
    assert "    2  17/18        1/18         10\n" in out
