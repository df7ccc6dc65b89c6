"""Corner amplification of a finite-base face pair.

The common base gets k matrix slots; each face acts by core coefficients
times a slot unit. One face is a plain relation algebra, the other carries
a cyclic shift of the core points, and the two-letter corner words built
from them satisfy exact moment, freeness, and covariance identities that
the report sweeps below verify.
"""

from itertools import product as iproduct
from math import lcm

from .engine import FMFace, FreeProduct, MAmbient, SweepReport, freeness_check
from .fmalg import FMElement, FiniteBase, FiniteRelation
from .scalars import ONE, QC


class Permutation:
    """Bijection of the points of a finite base, kept with its cycles."""

    __slots__ = ("base", "mapping", "cycles")

    def __init__(self, base, mapping):
        if set(mapping) != set(base.points):
            raise ValueError("domain must be the base")
        if set(mapping.values()) != set(base.points):
            raise ValueError("must be onto")
        self.base = base
        self.mapping = dict(mapping)
        seen, cycles = set(), []
        for x in base.points:
            if x not in seen:
                cycle = [x]
                while mapping[cycle[-1]] != x:
                    cycle.append(mapping[cycle[-1]])
                seen.update(cycle)
                cycles.append(tuple(cycle))
        self.cycles = tuple(cycles)

    @classmethod
    def identity(cls, base):
        return cls(base, {x: x for x in base.points})

    @classmethod
    def from_cycles(cls, base, cycles):
        mapping = {x: x for x in base.points}
        for cycle in cycles:
            if len(set(cycle)) != len(cycle):
                raise ValueError("repeated point in a cycle")
            for pos, x in enumerate(cycle):
                if x not in mapping:  # its keys are the base points
                    raise ValueError("cycle point %s is not in the base" % x)
                mapping[x] = cycle[(pos + 1) % len(cycle)]
        return cls(base, mapping)

    def __call__(self, x):
        return self.mapping[x]

    def inverse(self):
        return self.power(-1)

    def power(self, n):
        """Each point moves n mod its cycle's length along its cycle."""
        return Permutation(self.base, {
            x: cycle[(pos + n) % len(cycle)]
            for cycle in self.cycles for pos, x in enumerate(cycle)})

    def orbits(self):
        return self.cycles

    def order(self):
        return lcm(*map(len, self.cycles))

    def orbit_relation(self):
        return FiniteRelation(self.base, self.cycles)

    def __repr__(self):
        cycles = [c for c in self.cycles if len(c) > 1]
        if not cycles:
            return "Permutation(id)"
        return "Permutation(%s)" % " ".join(
            "(" + " ".join(str(x) for x in c) + ")" for c in cycles)


class AmplifiedFace:
    """One face of the corner model: core coefficients in k x k slots.

    Give exactly one of `relation` (plain face) and `alpha` (shift face;
    its core relation is the orbit relation and it carries the shift
    unitaries from shift_power).
    """

    def __init__(self, tag, core_base, k, relation=None, alpha=None):
        if k < 2:
            raise ValueError("matrix size must be at least 2")
        if (relation is None) == (alpha is None):
            raise ValueError("give exactly one of relation and alpha")
        if relation is not None and relation.base != core_base:
            raise ValueError("core relation lives over a different base")
        if alpha is not None and alpha.base != core_base:
            raise ValueError("shift lives over a different base")
        self.tag = tag
        self.core_base = core_base
        self.k = k
        self.alpha = alpha
        self.core_relation = relation if relation is not None \
            else alpha.orbit_relation()
        self.slots = tuple(range(1, k + 1))
        points = tuple((x, s) for s in self.slots for x in core_base.points)
        weights = tuple(core_base.weight(x) / k for x, _ in points)
        self.fm_base = FiniteBase(points, weights)
        self.fm_relation = FiniteRelation(self.fm_base, tuple(
            tuple((x, s) for x in cls for s in self.slots)
            for cls in self.core_relation.blocks))

    def bracket(self, core, i, j):
        return BracketElement(self, {(i, j): core})

    def matrix_unit(self, i, j):
        return self.bracket(FMElement.one(self.core_relation), i, j)

    def corner_projection(self):
        return self.matrix_unit(1, 1)

    def ambient(self, core):
        """core tensored with the full diagonal: the same core in every slot."""
        return BracketElement(self, {(s, s): core for s in self.slots})

    def core_unit(self, x, y):
        if (x, y) not in self.core_relation.pairs:
            raise ValueError("e[%s,%s] is not in the %s face relation"
                             % (x, y, self.tag))
        return FMElement.unit(self.core_relation, x, y)

    def shift_power(self, n):
        if self.alpha is None:
            raise ValueError("the plain face has no shift unitary")
        move = self.alpha.power(n)
        return FMElement(self.core_relation,
                         {(move(x), x): ONE for x in self.core_base.points})

    def zero_bracket(self):
        return BracketElement(self, {})


class BracketElement:
    """Matrix of core elements over the slots of one amplified face."""

    __slots__ = ("face", "entries")

    def __init__(self, face, entries):
        clean = {}
        for (i, j), core in entries.items():
            if not (1 <= i <= face.k and 1 <= j <= face.k):
                raise ValueError("slot index out of range")
            if core.relation != face.core_relation:
                raise ValueError("core relation mismatch")
            if not core.is_zero():
                clean[(i, j)] = core
        self.face = face
        self.entries = clean

    def entry(self, i, j):
        zero = FMElement.zero(self.face.core_relation)
        return self.entries.get((i, j), zero)

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        self._check(other)
        out = dict(self.entries)
        for key, core in other.entries.items():
            out[key] = out[key] + core if key in out else core
        return BracketElement(self.face, out)

    def __neg__(self):
        return BracketElement(
            self.face, {key: -core for key, core in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, BracketElement):
            return NotImplemented
        self._check(other)
        out = {}
        # slot contraction: inner indices must meet
        for (i, j), a in self.entries.items():
            for (l, m), b in other.entries.items():
                if j != l:
                    continue
                core = a * b
                out[(i, m)] = out[(i, m)] + core if (i, m) in out else core
        return BracketElement(self.face, out)

    def scale(self, scalar):
        return BracketElement(
            self.face,
            {key: core.scale(scalar) for key, core in self.entries.items()})

    def adjoint(self):
        return BracketElement(
            self.face,
            {(j, i): core.adjoint() for (i, j), core in self.entries.items()})

    def expectation(self):
        return BracketElement(
            self.face,
            {(i, j): core.expectation()
             for (i, j), core in self.entries.items() if i == j})

    def to_fm(self):
        """The same element as a convolution over the amplified relation."""
        coeffs = {}
        for (i, j), core in self.entries.items():
            for (x, y), value in core.coeffs.items():
                coeffs[((x, i), (y, j))] = value
        return FMElement(self.face.fm_relation, coeffs)

    def _check(self, other):
        if other.face is not self.face:
            raise ValueError("face mismatch")

    def __eq__(self, other):
        return isinstance(other, BracketElement) and \
            self.face is other.face and self.entries == other.entries

    def __repr__(self):
        if not self.entries:
            return "Bracket(0)"
        bits = ["[%r]{%d,%d}" % (core, i, j)
                for (i, j), core in sorted(self.entries.items())]
        return " + ".join(bits)


class CornerModel:
    """Two amplified faces over a shared core base, glued along the diagonal."""

    def __init__(self, core_base, alpha, plain_relation, k=3):
        self.core_base = core_base
        self.k = k
        self.face_a = AmplifiedFace("A", core_base, k, relation=plain_relation)
        self.face_b = AmplifiedFace("B", core_base, k, alpha=alpha)
        self.product = FreeProduct(FMFace("A", self.face_a.fm_relation),
                                   FMFace("B", self.face_b.fm_relation))
        self.drel = self.product.face("A").drel

    def amplified_face(self, tag):
        return {"A": self.face_a, "B": self.face_b}[tag]

    def embed(self, bracket):
        return self.product.embed(bracket.face.tag, bracket.to_fm())

    def corner_identity(self):
        return self.base_diagonal({x: 1 for x in self.core_base.points})

    def base_diagonal(self, values):
        """A core diagonal placed in the slot-one corner, as a pure D element."""
        coeffs = {((x, 1), (x, 1)): QC.coerce(v) for x, v in values.items()}
        return self.product.from_d(FMElement(self.drel, coeffs))

    def shifted_diagonal(self, values, n):
        move = self.face_b.alpha.power(n)
        return self.base_diagonal({move(x): v for x, v in values.items()})

    def corner_unitary(self, n, index):
        """u(n, index): slot unit on the plain face times a shifted slot
        bracket on the other, unitary in the slot-one corner."""
        return self.corner_power(n, index, 1)

    def corner_letter_sequence(self, n, index, kappa):
        """The 2|kappa|-letter raw word of u(n, index)^kappa; a negative
        kappa repeats the adjoint letters in reverse order."""
        if kappa == 0:
            raise ValueError("kappa must be nonzero")
        if not 2 <= index <= self.k:
            raise ValueError("corner index must lie in 2..k")
        a_letter = self.face_a.matrix_unit(1, index).to_fm()
        b_letter = self.face_b.bracket(
            self.face_b.shift_power(n), index, 1).to_fm()
        if kappa > 0:
            return [("A", a_letter), ("B", b_letter)] * kappa
        return [("B", b_letter.adjoint()), ("A", a_letter.adjoint())] * -kappa

    def corner_power(self, n, index, kappa):
        if kappa == 0:
            return self.corner_identity()
        return self.product.letters_product(
            self.corner_letter_sequence(n, index, kappa))

    def fixture_line(self):
        return "base=%d k=%d shift_order=%d" % (
            len(self.core_base.points), self.k, self.face_b.alpha.order())


def cyclic_model(core_size=5, k=3):
    """Uniform core with a single-cycle shift; the plain face pairs up the
    first four points, {x0 x1} {x2 x3}, and leaves the rest alone."""
    if core_size < 4:
        raise ValueError("2 paired classes need 4 core points, not %d"
                         % core_size)
    points = tuple("x%d" % i for i in range(core_size))
    base = FiniteBase.uniform(points)
    alpha = Permutation.from_cycles(base, (points,))
    relation = FiniteRelation.from_classes(base, (points[0:2], points[2:4]))
    return CornerModel(base, alpha, relation, k)


# ---------------------------------------------------------------------------
# report sweeps

class FamilyReport:
    def __init__(self, families, shape_checks, words_checked, violations):
        self.families = families
        self.shape_checks = shape_checks
        self.words_checked = words_checked
        self.violations = violations

    @property
    def passed(self):
        return not self.violations


def _sized_models(model, k_values):
    """The model's core amplified at each matrix size in k_values."""
    return [model if k == model.k else CornerModel(
        model.core_base, model.face_b.alpha, model.face_a.core_relation, k)
        for k in k_values]


def bracket_law_report(model, k_values=(2, 3, 4)):
    """Slot contraction, adjoint, and expectation laws for brackets, each
    checked against the amplified convolution route."""
    report = SweepReport()
    for sized in _sized_models(model, k_values):
        for face in (sized.face_a, sized.face_b):
            cores = _core_samples(face)
            slots = face.slots
            for i, j, l, m in iproduct(slots, slots, slots, slots):
                for a in cores:
                    for b in cores:
                        x = face.bracket(a, i, j)
                        y = face.bracket(b, l, m)
                        lhs = x * y
                        rhs = face.bracket(a * b, i, m) if j == l \
                            else face.zero_bracket()
                        fm_ok = lhs.to_fm() == x.to_fm() * y.to_fm()
                        report.check(lhs == rhs and fm_ok,
                                     ("product", face.tag, face.k,
                                      (i, j, l, m)))
            for i, j in iproduct(slots, slots):
                for a in cores:
                    x = face.bracket(a, i, j)
                    adj_ok = x.adjoint() == face.bracket(a.adjoint(), j, i) \
                        and x.adjoint().to_fm() == x.to_fm().adjoint()
                    exp_ok = x.expectation().to_fm() == \
                        x.to_fm().expectation()
                    report.check(adj_ok and exp_ok,
                                 ("adjoint", face.tag, face.k, (i, j)))
    return report


def _core_samples(face):
    rel = face.core_relation
    off = sorted(p for p in rel.pairs if p[0] != p[1])
    samples = [FMElement.one(rel)]
    if off:
        samples.append(FMElement.unit(rel, *off[0]))
        mixed = FMElement.unit(rel, *off[-1]) + \
            FMElement.unit(rel, off[0][1], off[0][1]).scale(QC(2))
        samples.append(mixed)
    if face.alpha is not None:
        samples.append(face.shift_power(1))
    return samples


def moment_vanishing_report(model, n_limit=2, i_values=(2, 3), kappa_limit=4):
    """Expectations of corner-word powers vanish for every nonzero power.

    Each value is computed twice: from the raw letter sequence through the
    expectation recursion, and from the normal-form product.
    """
    order = model.face_b.alpha.order()
    if not (n_limit < order and kappa_limit < order):
        raise ValueError("exponent windows must stay below the shift order")
    report = SweepReport()
    for n in range(-n_limit, n_limit + 1):
        for i in i_values:
            for kappa in range(-kappa_limit, kappa_limit + 1):
                if kappa == 0:
                    continue
                letters = model.corner_letter_sequence(n, i, kappa)
                raw = model.product.expectation(letters)
                folded = model.corner_power(n, i, kappa).d_part
                report.check(raw.is_zero() and folded.is_zero(),
                             (n, i, kappa, raw))
    return report


def family_freeness_report(model, max_len=4, n_limit=2, i_values=(2, 3),
                           kappas=(1,)):
    """Alternating words in the slot-one corner algebra and the corner-word
    families have zero expectation.

    Adjacent corner words with matching slots can telescope, stacking their
    shift exponents; the whole stack must stay inside one shift period, so
    the window is guarded by max_len * n_limit * max|kappa| < order.
    """
    order = model.face_b.alpha.order()
    bound = max_len * n_limit * max(abs(kp) for kp in kappas)
    if bound >= order:
        raise ValueError(
            "shift order %d too small: stacked exponents reach %d"
            % (order, bound))
    face_a = model.face_a
    corner_basis = [
        model.embed(face_a.bracket(face_a.core_unit(x, y), 1, 1))
        for x, y in sorted(face_a.core_relation.pairs) if x != y]
    families = [corner_basis]
    # each corner unitary is built once, for its family and the shapes
    corner = {}
    for n in range(-n_limit, n_limit + 1):
        for i in i_values:
            corner[n, i] = model.corner_unitary(n, i)
            families.append([corner[n, i] if kp == 1 else
                             model.corner_power(n, i, kp) for kp in kappas])
    shapes = _adjoint_pair_shapes(model, corner)
    sweep = freeness_check(MAmbient(model.product), families, max_len)
    return FamilyReport(len(families), shapes.checked, sweep.checked,
                        shapes.failures + sweep.failures)


def _adjoint_pair_shapes(model, corner) -> SweepReport:
    """Adjacent corner words from distinct families collapse predictably:
    mismatched slots leave a three-letter alternating word, matched slots
    a single shifted bracket in the corner, built once per offset. corner
    maps (n, i) to u(n, i); a failure is both pairs with their seam."""
    face_b = model.face_b
    shifted = {}
    report = SweepReport()
    for n1, i1 in corner:
        u1_star = corner[n1, i1].adjoint()
        for n2, i2 in corner:
            if (n1, i1) == (n2, i2):
                continue
            seam = u1_star * corner[n2, i2]
            if i1 != i2:
                ok = seam.d_part.is_zero() and len(seam.words) == 1 and \
                    tuple(tag for tag, _ in seam.words[0]) == ("B", "A", "B")
            else:
                if n2 - n1 not in shifted:
                    shifted[n2 - n1] = model.embed(
                        face_b.bracket(face_b.shift_power(n2 - n1), 1, 1))
                ok = seam == shifted[n2 - n1]
            report.check(ok, (((n1, i1), (n2, i2)), seam))
    return report


def covariance_report(model, k_values=(2, 3, 4), n_limit=2, i_values=(2, 3)):
    """Conjugating a slot-one corner diagonal by a corner word shifts its
    points: u(n,i) (d in corner) u(n,i)* lands back in the diagonal, moved
    by the n-th shift power. Swept over matrix sizes in k_values."""
    report = SweepReport()
    for sized in _sized_models(model, k_values):
        usable = [i for i in i_values if i <= sized.k]
        for n in range(-n_limit, n_limit + 1):
            for i in usable:
                u = sized.corner_unitary(n, i)
                for x in sized.core_base.points:
                    lhs = u * sized.base_diagonal({x: 1}) * u.adjoint()
                    rhs = sized.shifted_diagonal({x: 1}, n)
                    report.check(lhs == rhs, (sized.k, n, i, x))
    return report


def reduction_identities_report(model, k_values=(2, 3, 4), n_limit=2):
    """The three exact collapse identities for slot-compressed products:
    compressing an ambient plain-face element, a bare slot unit, and a
    shifted slot bracket."""
    report = SweepReport()
    for sized in _sized_models(model, k_values):
        k = sized.k
        face_a, face_b = sized.face_a, sized.face_b
        slots = face_a.slots
        cores = [face_a.core_unit(x, y)
                 for x, y in sorted(face_a.core_relation.pairs)]
        for i, j in iproduct(slots, slots):
            left = sized.embed(face_a.matrix_unit(1, i))
            right = sized.embed(face_a.matrix_unit(j, 1))
            for a in cores:
                got = left * sized.embed(face_a.ambient(a)) * right
                want = sized.embed(face_a.bracket(a, 1, 1)) if i == j \
                    else sized.product.zero()
                bracket_got = face_a.matrix_unit(1, i) * face_a.ambient(a) \
                    * face_a.matrix_unit(j, 1)
                bracket_want = face_a.bracket(a, 1, 1) if i == j \
                    else face_a.zero_bracket()
                report.check(got == want and bracket_got == bracket_want,
                             ("ambient", k, (i, j)))
        for i, kk, l, j in iproduct(slots, slots, slots, slots):
            got = face_a.matrix_unit(1, i) * face_a.matrix_unit(kk, l) \
                * face_a.matrix_unit(j, 1)
            want = face_a.corner_projection() if i == kk and l == j \
                else face_a.zero_bracket()
            report.check(got == want and got.to_fm() == want.to_fm(),
                         ("unit", k, (i, kk, l, j)))
        for i in range(2, k + 1):
            for kk, j in iproduct(slots, slots):
                for n in range(-n_limit, n_limit + 1):
                    shifted = face_b.bracket(face_b.shift_power(n), kk, 1)
                    got = sized.embed(face_a.matrix_unit(1, i)) * \
                        sized.embed(shifted) * \
                        sized.embed(face_a.matrix_unit(j, 1))
                    want = sized.corner_unitary(n, i) \
                        if i == kk and j == 1 else sized.product.zero()
                    report.check(got == want, ("corner", k, (i, kk, j, n)))
    return report
