"""Finite model of the algebra of a measured equivalence relation.

Points carry positive rational weights summing to 1.  An element is a
complex combination of matrix units e[x,y] with (x,y) in a fixed equivalence
relation; multiplication is groupoid convolution e[x,y] e[z,w] = d_yz e[x,w],
the 2-cocycle being trivial throughout.  The conditional expectation onto
the diagonal keeps the (x,x) coefficients.  The modular flow of the state
is the grading of `modular_spectrum`, so all of it is exact; only the
display helpers `modular_scale` and `coefficient_gap` evaluate its phases
in floats, and nothing in the package calls them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import ONE, QC

GROUPOID_POINT_BOUND = 8  # hard bound for exhaustive partial-bijection sweeps


def _point_text(x):
    """A base point as text; a point (x, i) of an amplified base is x:i."""
    return "%s:%s" % x if isinstance(x, tuple) else str(x)


@dataclass(frozen=True)
class FiniteBase:
    """Finite point set with a faithful state given by rational weights."""

    points: tuple
    weights: tuple

    def __post_init__(self):
        if len(set(self.points)) != len(self.points) or not self.points:
            raise ValueError("base points must be distinct and nonempty")
        if len(self.weights) != len(self.points):
            raise ValueError("need one weight per base point")
        for q in self.weights:
            if not (isinstance(q, Fraction) and q > 0):
                raise ValueError("weights must be positive rationals")
        if sum(self.weights) != 1:
            raise ValueError("weights must sum to 1")

    @staticmethod
    def uniform(points):
        points = tuple(points)  # no points: no weights, so no division by 0
        return FiniteBase(points, tuple(Fraction(1, len(points)) for _ in points))

    @staticmethod
    def weighted(pairs):
        pairs = list(pairs)
        return FiniteBase(tuple(p for p, _ in pairs),
                          tuple(Fraction(q) for _, q in pairs))

    def weight(self, x):
        return self.weights[self.points.index(x)]


@dataclass(frozen=True, repr=False)
class FiniteRelation:
    """Equivalence relation on the base, stored as its partition.

    The blocks are kept in canonical order, each in base order and all
    ordered by their first point, so equality is partition equality.
    """

    base: FiniteBase
    blocks: tuple
    pairs: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        owner = dict.fromkeys(self.base.points)
        for i, cls in enumerate(self.blocks):
            for x in cls:
                if x not in owner:
                    raise ValueError(f"class point {x} is not in the base")
                if owner[x] not in (None, i):
                    raise ValueError("point in two classes")
                owner[x] = i
        blocks = {}
        for x, i in owner.items():
            if i is None:
                raise ValueError(f"base point in no class: {x}")
            blocks.setdefault(i, []).append(x)
        blocks = tuple(map(tuple, blocks.values()))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "pairs", frozenset(
            (x, y) for cls in blocks for x in cls for y in cls))

    @staticmethod
    def from_classes(base, classes):
        """Build from blocks; points not mentioned become singletons."""
        classes = tuple(map(tuple, classes))
        seen = {x for cls in classes for x in cls}
        return FiniteRelation(base, classes + tuple(
            (x,) for x in base.points if x not in seen))

    @staticmethod
    def diagonal(base):
        return FiniteRelation.from_classes(base, [])

    @staticmethod
    def full(base):
        return FiniteRelation.from_classes(base, [base.points])

    def classes(self):
        return self.blocks

    def class_of(self, x):
        return next((cls for cls in self.blocks if x in cls), ())

    def __repr__(self):
        """{x0 x1}+{x2}: the classes, sorted by their tuples' text."""
        return "+".join("{%s}" % " ".join(map(_point_text, cls))
                        for cls in sorted(self.blocks, key=str))


class FMElement:
    """Combination of matrix units supported in one relation."""

    # coeffs is never mutated after construction, so columns() can be kept
    __slots__ = ("relation", "coeffs", "_columns")

    def __init__(self, relation, coeffs):
        self.relation = relation
        self._columns = None
        clean = {}
        for pair, value in coeffs.items():
            if pair not in relation.pairs:
                raise ValueError(f"support outside the relation: {pair}")
            value = QC.coerce(value)
            if value:
                clean[pair] = value
        self.coeffs = clean

    @classmethod
    def _result(cls, relation, coeffs):
        """Trusted constructor: coeffs are nonzero scalars in the relation."""
        out = cls.__new__(cls)
        out.relation, out.coeffs, out._columns = relation, coeffs, None
        return out

    @staticmethod
    def unit(relation, x, y):
        return FMElement(relation, {(x, y): ONE})

    @staticmethod
    def one(relation):
        return FMElement(relation, {(x, x): ONE for x in relation.base.points})

    @staticmethod
    def zero(relation):
        return FMElement(relation, {})

    @staticmethod
    def diagonal(relation, values):
        return FMElement(relation, {(x, x): v for x, v in values.items()})

    def cast(self, relation):
        """Re-home into a larger relation over the same base."""
        return FMElement._result(relation, self.coeffs)

    def _check(self, other):
        if not isinstance(other, FMElement):
            raise TypeError("expected an FMElement")
        if other.relation != self.relation:
            raise ValueError("relation mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for pair, value in other.coeffs.items():
            out[pair] = out[pair] + value if pair in out else value
        return FMElement._result(self.relation, {p: v for p, v in out.items() if v})

    def __neg__(self):
        return FMElement._result(self.relation, {p: -v for p, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        right = {}
        for (z, w), value in other.coeffs.items():
            right.setdefault(z, []).append((w, value))
        for (x, y), u in self.coeffs.items():
            for w, v in right.get(y, ()):
                pair = (x, w)
                term = u * v
                out[pair] = out[pair] + term if pair in out else term
        return FMElement._result(self.relation, {p: v for p, v in out.items() if v})

    def scale(self, scalar):
        scalar = QC.coerce(scalar)
        return FMElement(self.relation, {p: scalar * v for p, v in self.coeffs.items()})

    def adjoint(self):
        return FMElement._result(self.relation, {
            (y, x): v.conjugate() for (x, y), v in self.coeffs.items()})

    def expectation(self):
        """Conditional expectation onto the diagonal."""
        return FMElement._result(
            self.relation, {p: v for p, v in self.coeffs.items() if p[0] == p[1]})

    def is_zero(self):
        return not self.coeffs

    def columns(self):
        """The set of column points y of the pairs (x, y), built once."""
        if self._columns is None:
            self._columns = {y for _, y in self.coeffs}
        return self._columns

    def right_support(self):
        """Smallest diagonal projection q with self * q = self."""
        return FMElement._result(self.relation,
                                 {(y, y): ONE for y in self.columns()})

    def left_support(self):
        rows = {x for x, _ in self.coeffs}
        return FMElement(self.relation, {(x, x): ONE for x in rows})

    def __eq__(self, other):
        if not isinstance(other, FMElement):
            return NotImplemented
        return self.relation == other.relation and self.coeffs == other.coeffs

    def __repr__(self):
        """1*e[x0:1,x0:2]+...: one term per pair, sorted by point text."""
        pairs = sorted(self.coeffs, key=lambda pair: (str(pair[0]), str(pair[1])))
        return "+".join(
            f"{self.coeffs[x, y]!r}*e[{_point_text(x)},{_point_text(y)}]"
            for x, y in pairs) or "0"


def join(r1: FiniteRelation, r2: FiniteRelation) -> FiniteRelation:
    """Smallest equivalence relation containing both."""
    if r1.base != r2.base:
        raise ValueError("the relations live on different bases")
    parent = {x: x for x in r1.base.points}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cls in r1.blocks + r2.blocks:
        for x in cls[1:]:
            parent[find(x)] = find(cls[0])
    classes = {}
    for x in r1.base.points:
        classes.setdefault(find(x), []).append(x)
    return FiniteRelation(r1.base, tuple(classes.values()))


def is_ergodic(relation: FiniteRelation) -> bool:
    return len(relation.classes()) == 1


def normalizing_groupoid(relation: FiniteRelation):
    """All partial bijections whose graph sits inside the relation, each
    as its graph: a tuple of (x, image of x) pairs, x in base order.

    Exhaustive, so the base is hard-bounded; the count grows like the
    number of partial injections.
    """
    points = relation.base.points
    if len(points) > GROUPOID_POINT_BOUND:
        raise ValueError(
            f"base too large for exhaustive sweep (bound {GROUPOID_POINT_BOUND})")
    out = []

    def assign(i, used, graph):
        if i == len(points):
            out.append(tuple(graph))
            return
        x = points[i]
        assign(i + 1, used, graph)  # x outside the domain
        for y in relation.class_of(x):
            if y in used:
                continue
            graph.append((x, y))
            assign(i + 1, used | {y}, graph)
            graph.pop()

    assign(0, frozenset(), [])
    return out


def modular_spectrum(u: FMElement) -> dict:
    """The grades of u under the modular flow of the state, by weight ratio.

    The flow is sigma_t(e[x,y]) = (w_x/w_y)^{it} e[x,y], so u is the sum of
    its grades u_r and sigma_t(u_r) = r^{it} u_r.  Distinct ratios r give
    independent functions of t: a flow identity holds for every real t
    exactly when it holds grade by grade.
    """
    base, grades = u.relation.base, {}
    for (x, y), value in u.coeffs.items():
        grades.setdefault(base.weight(x) / base.weight(y), {})[(x, y)] = value
    return {r: FMElement._result(u.relation, coeffs)
            for r, coeffs in grades.items()}


def modular_scale(u: FMElement, t: float) -> dict:
    """sigma_t(u) for display, as {pair: complex}: r^{it} on each grade."""
    return {pair: complex(float(v.re), float(v.im)) * float(r) ** (1j * t)
            for r, grade in modular_spectrum(u).items()
            for pair, v in grade.coeffs.items()}


def coefficient_gap(a: dict, b: dict) -> float:
    """Largest coefficient difference of two {pair: complex} displays."""
    return max((abs(a.get(p, 0) - b.get(p, 0)) for p in a.keys() | b.keys()),
               default=0.0)


def all_equivalence_relations(base: FiniteBase):
    """Every equivalence relation on the base, via partition enumeration."""
    points = list(base.points)

    def partitions(rest):
        if not rest:
            yield []
            return
        first, tail = rest[0], rest[1:]
        for sub in partitions(tail):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
            yield [[first]] + sub

    for blocks in partitions(points):
        yield FiniteRelation.from_classes(base, blocks)
