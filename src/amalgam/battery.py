"""The acceptance battery: one sweep per criterion, each defined once.

Criteria 06-09 are the corner-model reports of `matrix`; this module holds
the other eight. `amalgam suite67` runs all twelve at sizes taken from the
run configuration, and tests/test_acceptance.py runs them at acceptance
sizes and pins their counts. Each sweep returns an `engine.SweepReport`.
Criteria 10-12 run on fixed small bases, so they take no size.
"""

from fractions import Fraction
from itertools import product as iproduct

from .boundary import (
    act, complement_decomposition, complement_series, complement_series_tail,
    cylinder_measure, point_mass, refine, rn_exponent, rn_ratio, splice,
)
from .engine import CylFn, SweepReport
from .fmalg import (
    FiniteBase, FiniteRelation, FMElement, all_equivalence_relations,
    is_ergodic, join, modular_spectrum, normalizing_groupoid,
)
from .words import ReducedWord, ball, sphere


def measure_exactness(alphabet, depth):
    """Criterion 01: a cylinder of length m <= depth has measure
    1/(2n) (2n-1)^-(m-1), and so have its pieces of length m + 1 <= depth
    together; the pieces of the whole space sum to 1."""
    n = alphabet.size
    report = SweepReport()
    whole = ReducedWord.identity(alphabet)
    if sum(map(cylinder_measure, refine(whole, 1))) != 1:
        report.failures.append("whole space")
    for length in range(1, depth + 1):
        want = Fraction(1, 2 * n) * Fraction(1, 2 * n - 1) ** (length - 1)
        for prefix in sphere(alphabet, length):
            ok = cylinder_measure(prefix) == want
            if length < depth:
                pieces = refine(prefix, length + 1)
                ok = ok and sum(map(cylinder_measure, pieces)) == want
            report.check(ok, prefix)
    return report


def series_closure(alphabet, terms):
    """Criterion 02: for both blocks and 1..terms terms, the complement
    series plus its closed-form tail is 1, and the series is the measure of
    the complement decomposition. With one letter per block, values holds
    the first two partial sums, which must be 5/6 and 17/18."""
    report = SweepReport()
    for block in (1, 2):
        for m in range(1, terms + 1):
            partial = complement_series(alphabet, block, m)
            report.check(
                partial + complement_series_tail(alphabet, block, m) == 1 and
                complement_decomposition(alphabet, block, m).measure()
                == partial, (block, m))
    if alphabet.block_sizes() == (1, 1):
        report.values = [complement_series(alphabet, 1, m) for m in (1, 2)]
        if report.values != [Fraction(5, 6), Fraction(17, 18)]:
            report.failures.append("frozen")
    return report


def splice_factorization(alphabet, radius):
    """Criterion 03: splicing a block word gamma onto a cylinder that starts
    in the other block multiplies its measure by the point mass of gamma;
    gamma and the cylinder prefix have length at most the radius."""
    report = SweepReport()
    for block, other in ((1, 2), (2, 1)):
        cylinders = [w for w in ball(alphabet, radius)
                     if w.letters and alphabet.block_of(w.letters[0]) == other]
        for gamma in ball(alphabet, radius, block):
            mass = point_mass(alphabet, block, gamma)
            for cyl in cylinders:
                report.check(cylinder_measure(splice(block, gamma, cyl)) ==
                             mass * cylinder_measure(cyl), (gamma, cyl))
    return report


def ratio_powers(alphabet, depth, cocycle_radius):
    """Criterion 04: on a cylinder of the given depth, a word gamma of
    length 1 or 2 moves the measure by its derivative rn_ratio, (2n-1)^k
    for k = rn_exponent; k = 1 and -1 occur, so the ratio set holds 2n-1
    and its inverse. The cocycle identity is checked for all pairs of words
    of length 1..cocycle_radius. values: the sorted exponents."""
    report = SweepReport()
    cylinders = sphere(alphabet, depth)
    mass = cylinder_measure(cylinders[0])  # one sphere, one measure
    exponents = set()
    for gamma in ball(alphabet, 2)[1:]:
        for cyl in cylinders:
            exponents.add(rn_exponent(gamma, cyl))
            report.check(act(gamma, cyl).measure() ==
                         rn_ratio(gamma, cyl) * mass, (gamma, cyl))
    steps = ball(alphabet, cocycle_radius)[1:]
    for delta in steps:
        products = [(gamma, gamma * delta) for gamma in steps]
        for cyl in cylinders:
            moved, k = delta * cyl, rn_exponent(delta, cyl)
            for gamma, product in products:
                report.check(rn_exponent(product, cyl) ==
                             k + rn_exponent(gamma, moved), (gamma, delta, cyl))
    report.values = sorted(exponents)
    if not {1, -1} <= exponents:
        report.failures.append("exponents")
    return report


def boundary_generators(product):
    """Criterion 05's four letters, as (tag, face element) pairs: the
    translations by the first letters a and b of the two blocks, O(b) at a
    in face A, and O(a b) on the diagonal of face B."""
    face_a, face_b = product.face("A"), product.face("B")
    alphabet = face_a.alphabet
    a, b = (ReducedWord.from_letters(alphabet, (alphabet.letters(block)[0],))
            for block in (1, 2))
    return [("A", face_a.unitary(a)), ("B", face_b.unitary(b)),
            ("A", face_a.element({a: CylFn.indicator(b)})),
            ("B", face_b.embed_d(CylFn.indicator(a * b)))]


def oracle_agreement(product, max_len):
    """Criterion 05: the expectation recursion and the crossed-product
    oracle agree on every word of length 1..max_len in boundary_generators."""
    gens = boundary_generators(product)
    report = SweepReport()
    for length in range(1, max_len + 1):
        for letters in iproduct(gens, repeat=length):
            report.check(product.expectation(letters) ==
                         product.oracle_expectation(letters), letters)
    return report


def join_ergodicity():
    """Criterion 10: for every pair of equivalence relations on a base of
    one to four points, the join contains both, does not depend on their
    order, and is ergodic exactly when it relates every pair of points.
    values: the (r1, r2, join) triples, for a brute-force closure."""
    report = SweepReport()
    for size in range(1, 5):
        base = FiniteBase.uniform(tuple("p%d" % i for i in range(size)))
        relations = list(all_equivalence_relations(base))
        for r1, r2 in iproduct(relations, repeat=2):
            joined = join(r1, r2)
            report.check(
                r1.pairs | r2.pairs <= joined.pairs and
                join(r2, r1).pairs == joined.pairs and
                is_ergodic(joined) == (len(joined.pairs) == size * size),
                (r1, r2))
            report.values.append((r1, r2, joined))
    return report


def _convolve(su, sv):
    """The spectrum a product must have: grade r collects every u_r1 v_r2
    with r1 r2 = r."""
    out = {}
    for r1, u in su.items():
        for r2, v in sv.items():
            r = r1 * r2
            out[r] = out[r] + u * v if r in out else u * v
    return {r: g for r, g in out.items() if not g.is_zero()}


def modular_scaling():
    """Criterion 11: on a base weighted 1/2, 1/4, 1/8, 1/8, the modular
    flow sigma_t(e[x,y]) = (w_x/w_y)^{it} e[x,y] is checked grade by grade,
    so for every real t at once and exactly. For each span x (the matrix
    units and the all-ones element) the grades sum to x and carry the ratio
    of the weights; the expectation keeps grade 1 only; the adjoint sends
    grade r to 1/r. Each face unit keeps its grades inside the face, and
    every product of two spans has the convolved spectrum of its factors.
    values: the grades of e[p0,p1] and e[p3,p0], which must be 2 and 1/4."""
    weights = {"p0": Fraction(1, 2), "p1": Fraction(1, 4),
               "p2": Fraction(1, 8), "p3": Fraction(1, 8)}
    base = FiniteBase.weighted(weights.items())
    full = FiniteRelation.full(base)
    faces = (FiniteRelation.from_classes(base, (("p0", "p1"), ("p2", "p3"))),
             FiniteRelation.from_classes(base, (("p0", "p2"), ("p1", "p3"))))
    spans = [FMElement.unit(full, x, y) for (x, y) in sorted(full.pairs)]
    spans.append(FMElement(full, {pair: 1 for pair in full.pairs}))
    spectra = [modular_spectrum(x) for x in spans]
    zero = FMElement.zero(full)
    report = SweepReport()
    for x, sx in zip(spans, spectra):
        report.check(sum(sx.values(), zero) == x and all(
            weights[p] / weights[q] == r
            for r, g in sx.items() for p, q in g.coeffs), ("grades", x))
        e = x.expectation()
        report.check(set(modular_spectrum(e)) <= {1} and
                     e == sx.get(1, zero).expectation(), ("expectation", x))
        report.check(modular_spectrum(x.adjoint()) ==
                     {1 / r: g.adjoint() for r, g in sx.items()},
                     ("adjoint", x))
    for face in faces:
        for (x, y) in sorted(face.pairs):
            inner = modular_spectrum(FMElement.unit(face, x, y))
            report.check(
                {r: g.cast(full) for r, g in inner.items()} ==
                modular_spectrum(FMElement.unit(full, x, y)),
                ("face", face, x, y))
    for (u, su), (v, sv) in iproduct(zip(spans, spectra), repeat=2):
        report.check(modular_spectrum(u * v) == _convolve(su, sv), (u, v))
    report.values = [next(iter(modular_spectrum(
        FMElement.unit(full, x, y)))) for x, y in (("p0", "p1"), ("p3", "p0"))]
    if report.values != [2, Fraction(1, 4)]:
        report.failures.append("frozen")
    return report


def intertwining():
    """Criterion 12: for every equivalence relation on four points, each
    partial bijection of its normalizing groupoid gives the partial
    isometry v, the sum of e[y,x] over its graph pairs (x, y); v* v and
    v v* are the domain and image projections, and x -> v x v* commutes
    with the expectation on every matrix unit x."""
    base = FiniteBase.uniform(("p0", "p1", "p2", "p3"))
    report = SweepReport()
    for relation in all_equivalence_relations(base):
        units = [FMElement.unit(relation, x, y)
                 for (x, y) in sorted(relation.pairs)]
        for graph in normalizing_groupoid(relation):
            v = FMElement(relation, {(y, x): 1 for x, y in graph})
            v_star = v.adjoint()
            report.check(
                v_star * v == FMElement.diagonal(
                    relation, {x: 1 for x, _ in graph}) and
                v * v_star == FMElement.diagonal(
                    relation, {y: 1 for _, y in graph}) and
                all((v * x * v_star).expectation() ==
                    v * x.expectation() * v_star for x in units),
                (relation, graph))
    return report
