"""Flat line-oriented run configuration.

Sections in square brackets, `key = value` lines, `#` comments. The
[alphabet] section names the two generator blocks, [base]/[state]/[alpha]
describe the finite base with its state weights and shift, and [limits]
holds depth budgets and exponent windows. This module only parses: the
constructors it calls check the rules of the objects they build, and their
ValueErrors come back as ConfigErrors.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .dsl import DIGIT_BOUND
from .engine import CrossedFace, FMFace, FreeProduct
from .fmalg import FiniteBase, FiniteRelation, join
from .matrix import CornerModel, Permutation
from .words import Alphabet

# every key is optional; the built-in default adds only the plain classes.
# Stacked shift exponents in freeness sweeps reach max_len * n_max, so the
# default base of 11 points keeps that below one shift period
DEFAULT_CONFIG = "[base]\nclasses = {x0 x1} {x2 x3}\n"

# each amplified face relation has k^2 times the pairs of its core relation;
# suite67 over the default base takes about 3.5 s at k = 8 and 13 s at k = 12
K_BOUND = 8
# a translate to cylinder depth n costs about n^2: at the bound,
# `oracle "a^1499 O(b)"` takes about 0.7 s
DEPTH_BOUND = 1500
# suite67's covariance window is not clamped and its moment window only
# below the shift order; join's pair sets grow as the square of the points.
# The worst admitted suite67 found (4 generators, 22 points in cycles of 2,
# 3, 5, 7, k = 8, both windows 16, max_len = 3) takes 8-12 s, 2-vCPU VM
N_MAX_BOUND = KAPPA_MAX_BOUND = 16
POINT_BOUND = 22

# one (name, least, most) row per [limits] key, most None for no upper bound
LIMITS = (("depth", 1, DEPTH_BOUND), ("k", 2, K_BOUND),
          ("n_max", 1, N_MAX_BOUND), ("kappa_max", 1, KAPPA_MAX_BOUND),
          ("max_len", 2, None))  # a freeness word of length 1 cannot alternate

# the keys each section may hold; any other section or key is an error
KEYS = {"alphabet": ("block1", "block2"), "base": ("points", "classes"),
        "state": ("weights",), "alpha": ("cycles",),
        "limits": tuple(name for name, _, _ in LIMITS)}


class ConfigError(ValueError):
    pass


def check_limit(name, value, least, most=None):
    """Refuse the integer value of name below least, or above most unless
    most is None."""
    if value < least:
        raise ConfigError("%s must be at least %d, not %d"
                          % (name, least, value))
    if most is not None and value > most:
        raise ConfigError("%s must be at most %d, not %d"
                          % (name, most, value))


@dataclass(frozen=True)
class RunConfig:
    alphabet: Alphabet
    base: FiniteBase
    alpha: Permutation
    plain: FiniteRelation
    depth: int = 8
    k: int = 3
    n_max: int = 2
    kappa_max: int = 4
    max_len: int = 4

    def __post_init__(self):
        for name, least, most in LIMITS:
            check_limit(name, getattr(self, name), least, most)
        if len(self.base.points) > POINT_BOUND:
            raise ConfigError("base must have at most %d points, not %d"
                              % (POINT_BOUND, len(self.base.points)))

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

    limit_spec = sections.get("limits", {})
    limits = {}
    for key, value in limit_spec.items():
        # the expression language's rule: past CPython's int conversion
        # limit, int() would fail on the length and blame the form
        if sum(map(str.isdigit, value)) > DIGIT_BOUND:
            raise ConfigError("limit %s has more than %d digits"
                              % (key, DIGIT_BOUND))
        try:
            limits[key] = int(value)
        except ValueError as exc:
            raise ConfigError("limit %s must be an integer" % key) from exc

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
