"""Flat line-oriented run configuration.

Sections in square brackets, `key = value` lines, `#` comments. The
[alphabet] section names the two generator blocks, [base]/[state]/[alpha]
describe the finite base with its state weights and shift, and [limits]
holds depth budgets and exponent windows. This module only parses: the
constructors it calls check the rules of the objects they build, and their
ValueErrors come back as ConfigErrors.
"""

import re
from fractions import Fraction
from functools import cache, cached_property

from .engine import CrossedFace, FMFace, FreeProduct
from .fmalg import FiniteBase, FiniteRelation, join
from .matrix import CornerModel, Permutation
from .words import Alphabet, Value

# every key is optional; the built-in default adds only the plain classes.
# Stacked shift exponents in freeness sweeps reach max_len * n_max, so the
# default base of 11 points keeps that below one shift period
DEFAULT_CONFIG = "[base]\nclasses = {x0 x1} {x2 x3}\n"

# one (name, least, most) row per bound on an integer from the user, None
# for no bound on that side; check_limit reads the row by its name
LIMITS = (
    # a translate to cylinder depth n costs about n^2: at the bound,
    # `oracle "a^1499 O(b)"` takes about 0.7 s
    ("depth", 1, 1500),
    # each amplified face relation has k^2 times its core's pairs; suite67
    # over the default base takes about 3.5 s at k = 8 and 13 s at k = 12
    ("k", 2, 8),
    # suite67's covariance window is not clamped to the shift order, and
    # its moment window only below it
    ("n_max", 1, 16),
    ("max_len", 2, None),  # a freeness word of length 1 cannot alternate
    # [base] points (FiniteBase refuses an empty base): join's pair sets
    # grow as their square. The worst admitted suite67 found (4 generators,
    # 22 points in cycles of 2, 3, 5, 7, k = 8, n_max = 16, max_len = 3)
    # takes about 5 s, 2-vCPU VM
    ("points", None, 22),
    # letters an expression unfolds to (see dsl.letter_count), and haar's
    # kmax times them: cost grows about as their square (the running group
    # word); at the bound, `moment "a^5000"` takes about 0.25 s and
    # `oracle "a^5000"` about 0.5 s
    ("letters", None, 5000),
    ("terms", 0, 1000),  # series terms: about 0.25 s at the bound
    ("kmax", 1, None),  # haar's window; the letters row caps its cost
    # suite67's generators: with 3, 4 and 5 it takes about 0.6, 3 and 10 s
    ("generators", None, 4),
)

# the keys each section may hold; any other section or key is an error
KEYS = {"alphabet": ("block1", "block2"), "base": ("points", "classes"),
        "state": ("weights",), "alpha": ("cycles",),
        "limits": ("depth", "k", "n_max", "max_len")}

# digits of one number: the letters row caps every exponent anyway, and a
# number past CPython's int conversion limit would be refused with no position
DIGIT_BOUND = 9
_INT_RE = re.compile(r"-?[0-9]+")


class ConfigError(ValueError):
    pass


def check_limit(name, value):
    """Refuse the integer value of name outside its row of LIMITS."""
    least, most = next(row[1:] for row in LIMITS if row[0] == name)
    if least is not None and value < least:
        raise ConfigError("%s must be at least %d, not %d"
                          % (name, least, value))
    if most is not None and value > most:
        raise ConfigError("%s must be at most %d, not %d"
                          % (name, most, value))


def read_int(name, text):
    """The integer text spells: the one reader of an integer from the
    command line, a config file or an expression. The grammar is -?[0-9]+,
    so int's `1_0`, ` 3`, `+3` and non-ASCII digits are refused too."""
    if not _INT_RE.fullmatch(text):
        raise ValueError("%s must be an integer" % name)
    if len(text.lstrip("-")) > DIGIT_BOUND:
        raise ValueError("%s has more than %d digits" % (name, DIGIT_BOUND))
    return int(text)


class RunConfig(Value):
    _fields = ("alphabet", "base", "alpha", "plain", "depth", "k", "n_max",
               "max_len")

    def __init__(self, alphabet, base, alpha, plain, depth=8, k=3, n_max=2,
                 max_len=4):
        super().__init__(alphabet, base, alpha, plain, depth, k, n_max,
                         max_len)
        for name in KEYS["limits"]:
            check_limit(name, getattr(self, name))
        check_limit("points", len(self.base.points))

    def replace(self, **changes):
        """A new config with the given fields changed, checked as any is."""
        fields = {name: getattr(self, name) for name in self._fields}
        return RunConfig(**{**fields, **changes})

    def plain_relation(self):
        return self.plain

    def boundary_product(self):
        return FreeProduct(CrossedFace("A", self.alphabet, 1, self.depth),
                           CrossedFace("B", self.alphabet, 2, self.depth))

    def corner_model(self):
        return self._corner_model

    # a config is frozen, so its model and relations are built once; a
    # config with other limits comes from `replace` and builds its own
    @cached_property
    def _corner_model(self):
        return CornerModel(self.base, self.alpha, self.plain, self.k)

    @cached_property
    def orbit_relation(self):
        return self.alpha.orbit_relation()

    @cached_property
    def joined_relation(self):
        return join(self.plain, self.orbit_relation)

    def fm_faces(self):
        return FMFace("A", self.plain), FMFace("B", self.orbit_relation)


@cache
def default_config():
    return parse_config(DEFAULT_CONFIG)


def load_config(path):
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


def parse_config(text):
    sections = _split_sections(text)
    for name, spec in sections.items():
        if name not in KEYS:
            raise ConfigError("unknown section: [%s]" % name)
        for key in spec:
            if key not in KEYS[name]:
                raise ConfigError("unknown key in [%s]: %s" % (name, key))

    alphabet_spec = sections.get("alphabet", {})
    block1 = tuple(alphabet_spec.get("block1", "a").split())
    block2 = tuple(alphabet_spec.get("block2", "b").split())
    alphabet = _built("bad alphabet: ", Alphabet, block1 + block2, len(block1))

    base_spec = sections.get("base", {})
    default_points = " ".join("x%d" % i for i in range(11))
    points = tuple(base_spec.get("points", default_points).split())

    state_spec = sections.get("state", {})
    if "weights" in state_spec:
        weights = []
        for token in state_spec["weights"].split():
            try:
                weights.append(Fraction(token))
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError("bad weight: %s" % token) from exc
        base = _built("bad state: ", FiniteBase, points, tuple(weights))
    else:
        base = _built("", FiniteBase.uniform, points)

    alpha_spec = sections.get("alpha", {})
    if "cycles" in alpha_spec:
        cycles = _parse_groups(alpha_spec["cycles"], "(", ")")
        alpha = _built("bad cycles: ", Permutation.from_cycles, base, cycles)
    else:
        alpha = Permutation.from_cycles(base, (points,))

    classes = _parse_groups(base_spec.get("classes", ""), "{", "}")
    plain = _built("", FiniteRelation.from_classes, base, classes)

    limits = {key: _built("", read_int, key, value)
              for key, value in sections.get("limits", {}).items()}
    return RunConfig(alphabet=alphabet, base=base, alpha=alpha,
                     plain=plain, **limits)


def _built(prefix, build, *args):
    """build(*args), with its ValueError raised again as a ConfigError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from exc


def _split_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                raise ConfigError(
                    "line %d: repeated section: [%s]" % (lineno, current))
            sections[current] = {}
            continue
        if current is None or "=" not in line:
            raise ConfigError(
                "line %d: expected `key = value` inside a section" % lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            raise ConfigError("line %d: repeated key in [%s]: %s"
                              % (lineno, current, key))
        sections[current][key] = value
    return sections


def _parse_groups(text, open_char, close_char):
    text = text.strip()
    if not text:
        return ()
    pattern = re.escape(open_char) + r"([^" + re.escape(close_char) + r"]*)" \
        + re.escape(close_char)
    groups = re.findall(pattern, text)
    leftover = re.sub(pattern, "", text).strip()
    if leftover:
        raise ConfigError("unparsed text in group list: %r" % leftover)
    return tuple(tuple(group.split()) for group in groups if group.split())
