"""Expression language round trips, config parsing, CLI exit codes."""

import ast
import difflib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam
from amalgam import cli, dsl, engine
from amalgam.cli import main
from amalgam.config import (
    LIMITS, ConfigError, RunConfig, default_config, parse_config,
)
from amalgam.dsl import (
    Adjoint, BracketAtom, CylinderAtom, DslError, Power, Product, UnitAtom,
    WordAtom,
)
from amalgam.fmalg import join
from amalgam.words import ReducedWord, ball

CFG = default_config()
SRC = Path(amalgam.__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "transcript", SRC.parent / "scripts" / "transcript.py")
TRANSCRIPT = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(TRANSCRIPT)
CONFIGS = TRANSCRIPT.CONFIGS  # config texts the transcript runs with
ARGVS = TRANSCRIPT.commands()
# named refused inputs: each is a transcript command, named where the
# transcript lists it, whose block in scripts/transcript.txt is the one
# copy of its exit code and message
REFUSALS = TRANSCRIPT.REFUSALS


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
    # the bound parses (one more letter is a refused transcript command)
    assert dsl.letter_count(dsl.parse(text, CFG)) == letters


class LetterCounter:
    """A context that evaluates an expression to the letters it multiplies:
    an atom gives the letters of its word, at least one, and a product adds
    its factors' letters."""

    def atom(self, node):
        word = getattr(node, "word", None)
        return (0 if word is None else len(word.letters)) or 1

    def mul(self, left, right):
        return left + right

    def adjoint(self, count):
        return count

    def one(self):
        return 0


def _exponents(expr):
    if isinstance(expr, Product):
        return [n for factor in expr.factors for n in _exponents(factor)]
    if isinstance(expr, Power):
        return [expr.n] + _exponents(expr.inner)
    if isinstance(expr, Adjoint):
        return _exponents(expr.inner)
    return []


@settings(max_examples=200, deadline=None)
@given(EXPRS)
def test_letter_count_bounds_what_evaluation_multiplies(expr):
    # LETTER_BOUND caps evaluation through letter_count; a zeroth power
    # evaluates its base, then drops it
    count = dsl.evaluate(expr, LetterCounter())
    if 0 in _exponents(expr):
        assert count <= dsl.letter_count(expr)
    else:
        assert count == dsl.letter_count(expr)


def test_word_value_folds_products():
    expr = dsl.parse("a b (a b)^-1", CFG)
    assert dsl.word_value(expr, CFG).is_identity()
    expr = dsl.parse("~(a b)", CFG)
    assert dsl.word_value(expr, CFG) == \
        ReducedWord.parse(CFG.alphabet, "b' a'")


# -- configuration -----------------------------------------------------------------

def test_parse_config_custom():
    # trailing comments and blank lines are skipped
    cfg = parse_config(CONFIGS["custom.cfg"].replace("\n", "  # note\n\n"))
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


def test_relations_are_built_once_per_config():
    cfg = default_config()
    joined = cfg.joined_relation
    assert cfg.joined_relation is joined
    assert joined == join(cfg.plain, cfg.alpha.orbit_relation())
    other = replace(cfg, depth=3)
    assert other.joined_relation is not joined
    assert other.joined_relation == joined


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
    # the passing haar records are golden transcript blocks
    code, out, _ = run(capsys, "--format", "machine", "haar", "O(a)", "1")
    assert code == 1
    assert "unitary=no" in out and "ok=no" in out
    code, out, _ = run(capsys, "--format", "machine", "haar", "A[e]{1,2}", "2")
    assert code == 1
    assert "unitary=no" in out and "ok=no" in out


@pytest.mark.parametrize("name, opening, closing",
                         [("parentheses", "(", ")"), ("adjoints", "~", "")],
                         ids=["parentheses", "adjoints"])
def test_nesting_bound(capsys, name, opening, closing):
    # the bound parses; one level more is a refused transcript command
    bound = dsl._NESTING_BOUND
    expr = opening * bound + "a" + closing * bound
    assert run(capsys, "moment", expr)[0] == 0
    argv = list(REFUSALS["nesting-" + name])
    assert argv == ["moment", opening + expr + closing]
    assert TRANSCRIPT.block(argv, *run(capsys, *argv)) == \
        BLOCKS[ARGVS.index(argv)]


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


def test_parse_config_admits_the_bounds():
    cfg = parse_config(
        "[base]\npoints = %s\n[limits]\nk = 8\nn_max = 16\n"
        "kappa_max = 16\ndepth = 1500\n"
        % " ".join("x%d" % i for i in range(22)))
    assert (len(cfg.base.points), cfg.k, cfg.n_max, cfg.kappa_max,
            cfg.depth) == (22, 8, 16, 16, 1500)


def test_every_integer_limit_is_one_row_of_the_table():
    # a new int field of RunConfig is checked only through a row of LIMITS
    ints = [field.name for field in fields(RunConfig) if field.type is int]
    assert sorted(name for name, _, _ in LIMITS) == sorted(ints)
    for name, least, most in LIMITS:
        refused = [(least - 1, "least", least)]
        if most is not None:
            refused.append((most + 1, "most", most))
        for value, side, bound in refused:
            message = "%s must be at %s %d, not %d" % (name, side, bound,
                                                       value)
            with pytest.raises(ConfigError, match="^%s$" % message):
                parse_config("[limits]\n%s = %d\n" % (name, value))


@pytest.mark.parametrize("config, argv, built", [
    (None, ("series", "1", "6"), True),
    # 2 * (1 + 2 * 249) = 998 cylinders, then 1,002
    (None, ("series", "2", "249"), True),
    (None, ("series", "2", "250"), False),
    # 26 * (1 + 26 + 650) = 17,602 cylinders
    (CONFIGS["letters26.cfg"], ("series", "1", "2"), False),
], ids=["default-6", "at-bound", "past-bound", "letters26"])
def test_series_measures_a_small_decomposition(capsys, tmp_path, monkeypatch,
                                               config, argv, built):
    # the cross-check builds the decomposition only up to
    # SERIES_CYLINDER_BOUND cylinders, counted in closed form first
    calls = []
    plain = cli.complement_decomposition
    monkeypatch.setattr(cli, "complement_decomposition",
                        lambda *args: calls.append(args) or plain(*args))
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = ("--config", str(tmp_path / "run.cfg")) + argv
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("ok = yes\n")
    assert len(calls) == built


@pytest.mark.parametrize("key", ["max_len", "depth"])
@pytest.mark.parametrize("value", ["-1", "0"])
@pytest.mark.parametrize("command", [("freeness", "boundary"), ("suite67",)],
                         ids=["freeness", "suite67"])
def test_limit_overrides_are_validated(capsys, tmp_path, key, value, command):
    # a flag and a config file line are checked alike, and the message
    # names the limit, its least value and the value given
    least = next(least for name, least, _ in LIMITS if name == key)
    err = "error: %s must be at least %d, not %s\n" % (key, least, value)
    flag = "--" + key.replace("_", "-")
    assert run(capsys, flag, value, *command) == (2, "", err)
    cfg = tmp_path / "limits.cfg"
    cfg.write_text("[limits]\n%s = %s\n" % (key, value))
    assert run(capsys, "--config", str(cfg), *command) == (2, "", err)


def test_identity_letter_allowed_in_cylinder(capsys):
    for text, shown in (("O(e)", "O(e) value=1 "), ("O(e a)", "O(a) value=1/4 ")):
        code, out, _ = run(capsys, "--format", "machine", "measure", text)
        assert code == 0 and "cylinder=" + shown in out


@pytest.mark.parametrize("name", REFUSALS)
def test_input_error_exit_code_and_message(capsys, tmp_path, monkeypatch,
                                           name):
    # run in process, the refusal prints its transcript block
    argv = list(REFUSALS[name])
    TRANSCRIPT.write_configs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code in (2, 3)
    assert TRANSCRIPT.block(argv, code, out, err) == BLOCKS[ARGVS.index(argv)]


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
    (CONFIGS["short.cfg"], "max_len=2 words=54 "),
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


def slow(argv, block):
    # the five suite67 runs that answer, bar the --max-len 2 one, take about
    # 2 s of the transcript's 4 s: CI diffs them with the whole transcript,
    # and tests/test_acceptance.py checks their criteria
    return (argv[-1] == "suite67" and "--max-len" not in argv
            and "\nexit 0\n" in block)


def split_blocks(text):
    """A transcript's blocks, one per command, each from its $ line."""
    return re.split(r"(?m)^(?=\$ amalgam )", text)[1:]


BLOCKS = split_blocks((SRC.parent / "scripts" / "transcript.txt").read_text())
GOLDEN = [(argv, block) for argv, block in zip(ARGVS, BLOCKS)
          if not slow(argv, block)]
RUN_TRANSCRIPT = """
import json, sys, transcript
transcript.transcript(json.load(sys.stdin), sys.stdout)
"""


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """The transcript blocks of every command that is not slow, from two
    interpreters started together: a plain one with PYTHONHASHSEED=0 and a
    python -O one, which strips assert, with PYTHONHASHSEED=1, so no output
    may rest on assert or hash order."""
    home = tmp_path_factory.mktemp("golden")
    TRANSCRIPT.write_configs(home)
    argvs = [argv for argv, _ in GOLDEN]
    path = os.pathsep.join([str(SRC), str(SRC.parent / "scripts")])
    procs = []
    for flags, seed in (([], "0"), (["-O"], "1")):
        out = home / ("seed%s.txt" % seed)
        stdin_path = home / ("argvs%s.json" % seed)
        stdin_path.write_text(json.dumps(argvs))
        with open(stdin_path) as stdin, open(out, "w") as stdout:
            procs.append((out, subprocess.Popen(
                [sys.executable, *flags, "-c", RUN_TRANSCRIPT], stdin=stdin,
                stdout=stdout, stderr=subprocess.STDOUT, cwd=home,
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))))
    runs = []
    for out, proc in procs:
        code = proc.wait(timeout=120)
        assert code == 0, out.read_text()[-2000:]
        runs.append(split_blocks(out.read_text()))
    return runs


@pytest.mark.parametrize("run_index", [0, 1], ids=["plain", "optimize"])
def test_golden_transcript(golden_runs, run_index):
    # byte identity with scripts/transcript.txt; a change that alters output
    # on purpose regenerates it with
    #   PYTHONHASHSEED=0 PYTHONPATH=src python scripts/transcript.py \
    #       > scripts/transcript.txt
    assert len(BLOCKS) == len(ARGVS), "scripts/transcript.txt is stale"
    got = golden_runs[run_index]
    for (argv, want), block in zip(GOLDEN, got):
        if block != want:
            pytest.fail("first command that differs: amalgam %s\n%s" % (
                shlex.join(argv), "".join(difflib.unified_diff(
                    want.splitlines(True), block.splitlines(True),
                    "scripts/transcript.txt", "this run"))), pytrace=False)
    assert len(got) == len(GOLDEN)


@pytest.mark.parametrize("name", REFUSALS)
def test_input_error_under_optimize(golden_runs, name):
    # the python -O run, which strips assert, prints the same refusal
    index = [argv for argv, _ in GOLDEN].index(list(REFUSALS[name]))
    assert golden_runs[1][index] == GOLDEN[index][1]


def test_every_refusal_is_one_error_line():
    # a refused input, exit 2 (bad input) or 3 (over the depth budget),
    # prints nothing on stdout and one "error: " line on stderr; the golden
    # diff pins each message
    shape = re.compile(r"\$ amalgam ([^\n]*)\nexit (\d+)\n"
                       r"--- stdout\n(.*)--- stderr\n(.*)\n", re.S)
    parsed = (shape.fullmatch(block).groups() for block in BLOCKS)
    refused = [(argv, out, err) for argv, code, out, err in parsed
               if code in ("2", "3")]
    assert refused
    for argv, out, err in refused:
        assert out == "" and re.fullmatch(r"error: [^\n]+\n", err), \
            "amalgam " + argv


def test_no_source_depends_on_optimize():
    # python -O drops assert statements and makes __debug__ false, so no
    # behaviour of the package may rest on either
    for path in sorted(SRC.joinpath("amalgam").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            assert not isinstance(node, ast.Assert), where
            assert not (isinstance(node, ast.Name)
                        and node.id == "__debug__"), where


# the two display helpers that evaluate modular phases in floats; no
# command calls them
FLOAT_HELPERS = {("fmalg.py", "modular_scale"),
                 ("fmalg.py", "coefficient_gap")}


def test_floats_stay_in_the_display_helpers():
    # every value the package computes is exact: no float or complex
    # constant and no float() or complex() call outside the helpers
    helpers, exempt = set(), set()
    for path in sorted(SRC.joinpath("amalgam").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and (path.name, node.name) in FLOAT_HELPERS):
                helpers.add((path.name, node.name))
                exempt.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            assert not (isinstance(node, ast.Constant)
                        and isinstance(node.value, (float, complex))), where
            assert not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in ("float", "complex")), where
    assert helpers == FLOAT_HELPERS  # no exemption outlives its helper


def test_custom_config_changes_alphabet(capsys, tmp_path):
    path = tmp_path / "three.cfg"
    path.write_text(CONFIGS["custom.cfg"])
    code, out, _ = run(capsys, "--config", str(path), "--format", "machine",
                       "measure", "O(a b)")
    assert code == 0
    # three generators: 1/6 for the first letter, 1/5 per further letter
    assert "value=1/30" in out


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
