"""Command-line front end.

One command per invocation; structured reports in a human or a machine
rendering (one record per line, key=value pairs). A value prints as its
text, rationals as p/q, with each space as '.' so that it is one token. The
exit status is 0 when every asserted check passes, 1 when one fails, 2 on
bad input, 3 when a cylinder depth budget is exceeded and 4 on an internal
error.
"""

import argparse
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

from . import battery, dsl
from .boundary import (
    act, complement_decomposition, complement_series, complement_series_tail,
    cylinder_measure, refine, rn_exponent, rn_ratio,
)
from .config import default_config, load_config
from .engine import (
    CylFn, DepthBudgetExceeded, MAmbient, freeness_check, haar_check,
)
from .fmalg import is_ergodic, join
from .matrix import (
    bracket_law_report, covariance_report, family_freeness_report,
    moment_vanishing_report, reduction_identities_report,
)
from .words import ReducedWord

SERIES_TERM_BOUND = 1000  # about 0.25 s at the bound


@dataclass
class Record:
    name: str
    fields: list
    ok: object = None  # True/False for asserted checks, None for plain facts


def _yes(flag):
    return "yes" if flag else "no"


# -- report emission --------------------------------------------------------------

def emit(records, fmt, out=None):
    """Print the records; each value is one token, a space printing as '.'.
    Every record is rendered before any is written, so a value too long to
    print leaves no half-written report."""
    lines = []
    for record in records:
        try:
            fields = [(key, str(value).replace(" ", "."))
                      for key, value in record.fields]
        except ValueError as exc:
            # CPython prints no int of more than 4,300 digits by default
            raise ValueError("record %s has a value too long to print"
                             % record.name) from exc
        if record.ok is not None:
            fields.append(("ok", _yes(record.ok)))
        if fmt == "machine":
            lines.append(" ".join(["record=%s" % record.name]
                                  + ["%s=%s" % field for field in fields]))
        else:
            lines.append(record.name)
            lines += ["  %s = %s" % field for field in fields]
    lines.append("")
    (sys.stdout if out is None else out).write("\n".join(lines))


# -- individual commands -----------------------------------------------------------

def cmd_measure(args, config):
    expr = dsl.parse(" ".join(args.expr), config)
    prefix = dsl.cylinder_value(expr)
    value = cylinder_measure(prefix)
    refined = sum(map(cylinder_measure, refine(prefix, len(prefix) + 1)),
                  Fraction(0))
    return [Record("measure", [
        ("cylinder", dsl.machine_text(expr)),
        ("value", value),
        ("refinement", refined),
    ], ok=(refined == value))]


def cmd_rn(args, config):
    gamma = dsl.word_value(dsl.parse(args.word, config), config)
    prefix = dsl.cylinder_value(dsl.parse(args.cylinder, config))
    exponent = rn_exponent(gamma, prefix)
    ratio = rn_ratio(gamma, prefix)
    moved = act(gamma, prefix)
    exact = moved.measure() == ratio * cylinder_measure(prefix)
    return [Record("rn", [
        ("word", gamma),
        ("cylinder", "O(%s)" % prefix),
        ("exponent", exponent),
        ("ratio", ratio),
    ], ok=exact)]


def cmd_series(args, config):
    alphabet, block = config.alphabet, args.block
    if args.terms < 0:
        raise ValueError("terms must be at least 0, not %d" % args.terms)
    if args.terms > SERIES_TERM_BOUND:
        raise ValueError("terms must be at most %d, not %d"
                         % (SERIES_TERM_BOUND, args.terms))
    partial = complement_series(alphabet, block, args.terms)
    tail = complement_series_tail(alphabet, block, args.terms)
    ok = partial + tail == 1
    if args.terms <= 6:
        decomposition = complement_decomposition(alphabet, block, args.terms)
        ok = ok and decomposition.measure() == partial
    return [Record("series", [
        ("block", block),
        ("terms", args.terms),
        ("partial", partial),
        ("tail", tail),
    ], ok=ok)]


def _context_for(expr, config):
    kind = dsl.domain(expr)
    if kind == "boundary":
        return kind, dsl.BoundaryContext(config.boundary_product())
    return kind, dsl.CornerContext(config.corner_model())


def cmd_moment(args, config):
    expr = dsl.parse(" ".join(args.expr), config)
    _, context = _context_for(expr, config)
    value = context.expect(dsl.evaluate(expr, context))
    return [Record("moment", [
        ("expr", dsl.machine_text(expr)),
        ("value", value),
    ])]


def cmd_oracle(args, config):
    expr = dsl.parse(" ".join(args.expr), config)
    if dsl.domain(expr) != "boundary":
        raise ValueError("the oracle command needs a boundary expression")
    engine_ctx = dsl.BoundaryContext(config.boundary_product())
    oracle_ctx = dsl.CrossedContext(config.alphabet, config.depth)
    engine_value = engine_ctx.expect(dsl.evaluate(expr, engine_ctx))
    oracle_value = oracle_ctx.expect(dsl.evaluate(expr, oracle_ctx))
    return [Record("oracle", [
        ("expr", dsl.machine_text(expr)),
        ("engine", engine_value),
        ("oracle", oracle_value),
    ], ok=(engine_value == oracle_value))]


def cmd_haar(args, config):
    if args.kmax < 1:
        raise ValueError("kmax must be at least 1, not %d" % args.kmax)
    expr = dsl.parse(" ".join(args.expr), config)
    if args.kmax * dsl.letter_count(expr) > dsl.LETTER_BOUND:
        # the check raises the expression to every power up to kmax
        raise ValueError("haar to kmax %d unfolds to more than %d letters"
                         % (args.kmax, dsl.LETTER_BOUND))
    kind, context = _context_for(expr, config)
    element = dsl.evaluate(expr, context)
    unit = context.model.corner_identity() if kind == "corner" else None
    report = haar_check(context, element, args.kmax, unit=unit)
    return [Record("haar", [
        ("expr", dsl.machine_text(expr)),
        ("kmax", args.kmax),
        ("unitary", _yes(report.unitary_ok)),
        ("failed_exponents", ",".join(map(str, report.failed_exponents)) or "none"),
    ], ok=report.passed)]


def cmd_freeness(args, config):
    if args.suite == "boundary":
        # translations by the first letters a and b; O(b) at a; diagonal O(b)
        alphabet, product = config.alphabet, config.boundary_product()
        face_a, face_b = product.face("A"), product.face("B")
        a, b = (ReducedWord.from_letters(
            alphabet, (alphabet.letters(block)[0],)) for block in (1, 2))
        fn = CylFn.indicator(b)
        families = [[product.embed("A", face_a.unitary(a))],
                    [product.embed("B", face_b.unitary(b))],
                    [product.embed("A", face_a.element({a: fn}))],
                    [product.embed("B", face_b.embed_d(fn))]]
        report = freeness_check(MAmbient(product), families, config.max_len)
        return [Record("freeness", [
            ("suite", "boundary"),
            ("max_len", config.max_len),
            ("words", report.checked),
            ("violations", len(report.failures)),
        ], ok=report.passed)]
    # argparse lets only boundary and corner through
    model = config.corner_model()
    i_values = tuple(i for i in (2, 3) if i <= config.k)
    report = family_freeness_report(
        model, max_len=config.max_len, n_limit=config.n_max,
        i_values=i_values, kappas=(1,))
    return [Record("freeness", [
        ("suite", "corner"),
        ("fixture", report.fixture.replace(" ", ",")),
        ("max_len", config.max_len),
        ("families", report.families),
        ("words", report.words_checked),
        ("shape_checks", report.shape_checks),
        ("violations", len(report.violations)),
    ], ok=report.passed)]


def cmd_join(args, config):
    rel_a = config.plain_relation()
    rel_b = config.alpha.orbit_relation()
    joined = join(rel_a, rel_b)
    contains = rel_a.pairs <= joined.pairs and rel_b.pairs <= joined.pairs
    stable = join(joined, rel_a).pairs == joined.pairs
    return [Record("join", [
        ("classes_a", rel_a),
        ("classes_b", rel_b),
        ("classes", joined),
        ("ergodic", _yes(is_ergodic(joined))),
    ], ok=(contains and stable))]


def cmd_ergodic(args, config):
    joined = join(config.plain_relation(), config.alpha.orbit_relation())
    masses = (sum((config.base.weight(p) for p in cls), Fraction(0))
              for cls in sorted(joined.classes(), key=str))
    return [Record("ergodic", [
        ("ergodic", _yes(is_ergodic(joined))),
        ("class_count", len(joined.classes())),
        ("class_masses", ",".join(map(str, masses))),
    ])]


# -- the combined verification suite ------------------------------------------------

def cmd_suite67(args, config):
    records = []

    def add(name, report, **fields):
        records.append(Record(name, list(fields.items()), ok=report.passed))

    alphabet = config.alphabet
    depth = min(config.depth, 4)
    report = battery.measure_exactness(alphabet, depth)
    add("measure_exactness", report, depth=depth, cylinders=report.checked)
    report = battery.series_closure(alphabet, 6)
    add("series_closure", report, terms=6,
        frozen=",".join(map(str, report.values)) or "n/a")
    report = battery.splice_factorization(alphabet, 3)
    add("splice_factorization", report, pairs=report.checked)
    report = battery.ratio_powers(alphabet, 4, 1)
    add("ratio_powers", report, exponents=",".join(map(str, report.values)))
    report = battery.oracle_agreement(
        replace(config, depth=max(config.depth, 10)).boundary_product(), 3)
    add("oracle_agreement", report, words=report.checked)

    model = config.corner_model()
    order = model.face_b.alpha.order()
    n_limit = min(config.n_max, order - 1)
    kappa_limit = min(config.kappa_max, order - 1)
    i_values = tuple(i for i in (2, 3) if i <= config.k)
    report = moment_vanishing_report(
        model, n_limit=n_limit, i_values=i_values, kappa_limit=kappa_limit)
    add("corner_moments", report, checked=report.checked,
        fixture=report.fixture.replace(" ", ","))

    # stacked exponents reach max_len * n, below the shift order; cutting n
    # first keeps words of length 2 whenever the order leaves room for them
    n = min(n_limit, (order - 1) // 2)
    max_len = min(config.max_len, (order - 1) // n) if n else config.max_len
    report = family_freeness_report(model, max_len=max_len, n_limit=n,
                                    i_values=i_values, kappas=(1,))
    add("corner_freeness", report, max_len=max_len,
        words=report.words_checked, shapes=report.shape_checks,
        violations=len(report.violations))

    k_values = tuple(sorted({2, config.k}))
    report = covariance_report(model, k_values=k_values,
                               n_limit=config.n_max, i_values=i_values)
    add("covariance", report, checked=report.checked)

    report = reduction_identities_report(model, k_values=k_values,
                                         n_limit=min(config.n_max, 2))
    add("reduction_identities", report, checked=report.checked)

    report = bracket_law_report(model, k_values=k_values)
    add("bracket_laws", report, checked=report.checked)

    report = battery.join_ergodicity()
    add("join_ergodicity", report, pairs=report.checked)
    report = battery.modular_scaling()
    add("modular_scaling", report, checks=report.checked)
    report = battery.intertwining()
    add("intertwining", report, isometries=report.checked)

    failed = sum(1 for r in records if r.ok is False)
    records.append(Record("suite67", [
        ("checks", len(records)),
        ("failed", failed),
    ], ok=(failed == 0)))
    return records


COMMANDS = {
    "measure": cmd_measure,
    "rn": cmd_rn,
    "series": cmd_series,
    "moment": cmd_moment,
    "oracle": cmd_oracle,
    "haar": cmd_haar,
    "freeness": cmd_freeness,
    "join": cmd_join,
    "ergodic": cmd_ergodic,
    "suite67": cmd_suite67,
}


@cache
def build_parser():
    # one parser per process: parse_args reads it and never changes it
    parser = argparse.ArgumentParser(
        prog="amalgam",
        description="Exact checks for a two-face amalgamated free product "
                    "and its corner amplification.")
    parser.add_argument("--config", help="path to a run configuration file")
    parser.add_argument("--format", choices=("human", "machine"),
                        default="human")
    parser.add_argument("--max-len", type=int, dest="max_len",
                        help="override the word-length window")
    parser.add_argument("--depth", type=int,
                        help="override the boundary depth budget")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="exact cylinder measure")
    p.add_argument("expr", nargs="+")
    p = sub.add_parser("rn", help="translate derivative on a cylinder")
    p.add_argument("word")
    p.add_argument("cylinder")
    p = sub.add_parser("series", help="complement decomposition series")
    p.add_argument("block", type=int)
    p.add_argument("terms", type=int)
    p = sub.add_parser("moment", help="expectation of an expression")
    p.add_argument("expr", nargs="+")
    p = sub.add_parser("oracle", help="expectation via both routes")
    p.add_argument("expr", nargs="+")
    p = sub.add_parser("haar", help="moment vanishing up to a window")
    p.add_argument("expr", nargs="+")
    p.add_argument("kmax", type=int)
    p = sub.add_parser("freeness", help="alternating-word freeness sweep")
    p.add_argument("suite", choices=("boundary", "corner"))
    sub.add_parser("join", help="join of the two base relations")
    sub.add_parser("ergodic", help="ergodicity of the joined relation")
    sub.add_parser("suite67", help="run the full verification battery")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else default_config()
        overrides = {key: getattr(args, key) for key in ("max_len", "depth")
                     if getattr(args, key) is not None}
        if overrides:
            # a new config, with a corner model of its own; the shared
            # default keeps the model it built
            config = replace(config, **overrides)
        records = COMMANDS[args.command](args, config)
        emit(records, args.format)  # a value too long to print is exit 2
    except (OSError, ValueError) as exc:
        # ConfigError and DslError are ValueErrors
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except DepthBudgetExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except AssertionError as exc:
        print("error: internal: %s" % exc, file=sys.stderr)
        return 4
    return 0 if all(record.ok is not False for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
