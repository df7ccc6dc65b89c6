import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from amalgam.fmalg import (
    FMElement, FiniteBase, FiniteRelation, PartialBijection,
    all_equivalence_relations, coefficient_gap, is_ergodic, join,
    modular_scale, modular_spectrum, normalizing_groupoid,
)
from amalgam.matrix import cyclic_model
from amalgam.scalars import QC

B3 = FiniteBase.uniform(("x", "y", "z"))
FULL3 = FiniteRelation.full(B3)
B2 = FiniteBase.uniform(("x", "y"))


def unit(r, x, y):
    return FMElement.unit(r, x, y)


def test_matrix_unit_convolution():
    assert unit(FULL3, "x", "y") * unit(FULL3, "y", "z") == unit(FULL3, "x", "z")
    assert (unit(FULL3, "x", "y") * unit(FULL3, "x", "z")).is_zero()


def test_star_algebra_axioms_exhaustive_on_basis():
    pairs = sorted(FULL3.pairs)
    for p, q in itertools.product(pairs, repeat=2):
        u, v = FMElement(FULL3, {p: QC(1)}), FMElement(FULL3, {q: QC(1)})
        assert (u * v).adjoint() == v.adjoint() * u.adjoint()
    for p, q, r in itertools.product(pairs, repeat=3):
        u, v, t = (FMElement(FULL3, {p: QC(1)}) for p in (p, q, r))
        assert (u * v) * t == u * (v * t)


def test_involution_is_conjugate_linear():
    i = QC(0, 1)
    u = unit(FULL3, "x", "y")
    assert u.scale(i).adjoint() == u.adjoint().scale(-i)
    assert u.scale(QC(Fraction(2, 3), Fraction(-1, 5))).adjoint() == \
        u.adjoint().scale(QC(Fraction(2, 3), Fraction(1, 5)))


def test_repr_orders_terms_by_point_text():
    # by repr of the pair, ('p!', 'p!') would come before ('p', 'p')
    rel = FiniteRelation.full(FiniteBase.uniform(("p", "p!")))
    x = FMElement(rel, {("p!", "p!"): QC(0, -1), ("p", "p!"): 2, ("p", "p"): 1})
    assert repr(x) == "1*e[p,p]+2*e[p,p!]+-1i*e[p!,p!]"
    assert repr(rel) == "{p p!}"
    assert repr(FMElement.zero(rel)) == "0"


def test_relation_mismatch_rejected():
    r_small = FiniteRelation.from_classes(B3, [("x", "y")])
    with pytest.raises(ValueError):
        unit(FULL3, "x", "y") * unit(r_small, "x", "y")
    with pytest.raises(ValueError):
        unit(r_small, "x", "z")


scalars_st = st.builds(QC, st.integers(-3, 3).map(Fraction), st.integers(-3, 3).map(Fraction))


def elements_st(relation):
    pairs = sorted(relation.pairs)
    return st.dictionaries(st.sampled_from(pairs), scalars_st, max_size=6).map(
        lambda c: FMElement(relation, c))


DIAG3 = FiniteRelation.diagonal(B3)


@given(elements_st(FULL3), elements_st(FULL3), scalars_st, elements_st(DIAG3))
def test_results_are_clean(u, v, c, d):
    # arithmetic builds its results without the constructor's checks, so
    # each must be what the checked constructor would build: nonzero QCs
    # on pairs inside the relation
    results = [u + v, u - v, u - u, u * v, u * u.adjoint(), u.scale(c),
               u.adjoint(), u.expectation(), u.right_support(),
               u.expectation().cast(DIAG3), d.cast(FULL3)]
    for r in results:
        assert FMElement(r.relation, r.coeffs) == r
        assert all(type(x) is QC and x for x in r.coeffs.values())


@given(elements_st(FULL3), elements_st(FULL3))
def test_expectation_is_linear_and_idempotent(u, v):
    assert (u + v).expectation() == u.expectation() + v.expectation()
    assert u.expectation().expectation() == u.expectation()


@given(elements_st(FULL3))
def test_expectation_bimodule_property(u):
    d = FMElement.diagonal(FULL3, {"x": QC(2), "y": QC(Fraction(1, 3))})
    assert (d * u * d).expectation() == d * u.expectation() * d


@given(elements_st(FULL3))
def test_expectation_positive(u):
    diag = (u.adjoint() * u).expectation()
    for (x, _), v in diag.coeffs.items():
        assert isinstance(v, QC) and v.im == 0 and v.re >= 0


@given(elements_st(FULL3))
def test_adjoint_commutes_with_expectation(u):
    assert u.expectation().adjoint() == u.adjoint().expectation()


def test_join_matches_closure_oracle_small(closure_oracle):
    for base in (B2, B3):
        relations = list(all_equivalence_relations(base))
        for r1, r2 in itertools.product(relations, repeat=2):
            j = join(r1, r2)
            assert j.pairs == closure_oracle(r1, r2)
            # least upper bound among all equivalence relations
            for r in relations:
                if r.pairs >= r1.pairs | r2.pairs:
                    assert r.pairs >= j.pairs


def test_join_rejects_different_bases():
    with pytest.raises(ValueError, match="different bases"):
        join(FiniteRelation.full(B2), FiniteRelation.full(B3))


def test_relation_counts():
    assert len(list(all_equivalence_relations(B3))) == 5  # Bell number
    assert len(list(all_equivalence_relations(FiniteBase.uniform(tuple("wxyz"))))) == 15


def test_relation_validation_raises():
    # a relation is stored as its partition, so it is reflexive, symmetric
    # and transitive by construction; only a bad partition can be given
    bad = [
        ((("x", "w"), ("y",), ("z",)), "class point w is not in the base"),
        ((("x", "y"), ("y", "z")), "point in two classes"),
        ((("x", "y"),), "base point in no class: z"),
    ]
    for blocks, message in bad:
        with pytest.raises(ValueError, match=message):
            FiniteRelation(B3, blocks)


@pytest.mark.parametrize("build, error, message", [
    (lambda: FiniteBase.uniform(()), ValueError,
     "base points must be distinct and nonempty"),
    (lambda: FiniteBase.uniform(("x", "x")), ValueError,
     "base points must be distinct and nonempty"),
    (lambda: FiniteBase(("x", "y"), (Fraction(1),)), ValueError,
     "need one weight per base point"),
    (lambda: FiniteBase(("x", "y"), (Fraction(1), Fraction(0))), ValueError,
     "weights must be positive rationals"),
    (lambda: FiniteBase(("x", "y"), (Fraction(1, 2),) * 3), ValueError,
     "need one weight per base point"),
    (lambda: FiniteBase(("x", "y"), (Fraction(1, 2), Fraction(1, 3))),
     ValueError, "weights must sum to 1"),
    (lambda: unit(FULL3, "x", "y") * 2, TypeError, "expected an FMElement"),
], ids=["no-points", "repeated-point", "weight-missing", "zero-weight",
        "weight-extra", "sum", "not-an-element"])
def test_base_and_element_checks_raise(build, error, message):
    # the empty base fails its check, not a division by zero in uniform
    with pytest.raises(error, match="^%s$" % message):
        build()


def stored_relations():
    for points in ("xyz", "wxyz"):
        yield from all_equivalence_relations(FiniteBase.uniform(tuple(points)))
    model = cyclic_model(5, 3)
    yield model.face_a.fm_relation
    yield model.face_b.fm_relation


def test_relation_is_an_equivalence_and_its_classes_a_partition():
    for relation in stored_relations():
        points, pairs = relation.base.points, relation.pairs
        succ = {x: {y for z, y in pairs if z == x} for x in points}
        assert all(x in succ[x] for x in points)
        assert all(x in succ[y] and succ[y] <= succ[x] for x, y in pairs)
        flat = [x for cls in relation.classes() for x in cls]
        assert len(flat) == len(set(flat)) and set(flat) == set(points)
        for x in points:
            assert x in relation.class_of(x)
            assert set(relation.class_of(x)) == succ[x]


def test_relation_classes_are_canonical():
    base = FiniteBase.uniform(tuple("vwxyz"))
    want = FiniteRelation.from_classes(base, [("v", "w", "y"), ("x", "z")])
    assert want.classes() == (("v", "w", "y"), ("x", "z"))
    classes = [("w", "y", "v"), ("z", "x")]
    for order in itertools.permutations(classes):
        for inner in itertools.product(*map(itertools.permutations, order)):
            got = FiniteRelation.from_classes(base, inner)
            assert got == want and hash(got) == hash(want)
            assert got.classes() == want.classes()
    # a point repeated inside one class is the class itself
    assert FiniteRelation.from_classes(base, [("x", "z", "x")]) == \
        FiniteRelation.from_classes(base, [("x", "z")])


def test_ergodicity():
    assert is_ergodic(FULL3)
    assert not is_ergodic(FiniteRelation.diagonal(B3))
    r1 = FiniteRelation.from_classes(B3, [("x", "y")])
    r2 = FiniteRelation.from_classes(B3, [("y", "z")])
    assert not is_ergodic(r1) and not is_ergodic(r2)
    assert is_ergodic(join(r1, r2))


def groupoid_oracle(relation):
    """Independent count: all total choice maps point -> (skip | target)."""
    points = relation.base.points
    count = 0
    for choice in itertools.product((None,) + points, repeat=len(points)):
        targets = [y for y in choice if y is not None]
        if len(set(targets)) != len(targets):
            continue
        if any(y is not None and (x, y) not in relation.pairs
               for x, y in zip(points, choice)):
            continue
        count += 1
    return count


def test_normalizing_groupoid_frozen_counts():
    assert len(normalizing_groupoid(FiniteRelation.full(B2))) == 7
    assert len(normalizing_groupoid(FiniteRelation.diagonal(B2))) == 4


def test_normalizing_groupoid_matches_oracle():
    for base in (B2, B3):
        for relation in all_equivalence_relations(base):
            found = normalizing_groupoid(relation)
            assert len(found) == groupoid_oracle(relation)
            assert len({pb.graph for pb in found}) == len(found)


def test_groupoid_bound_enforced():
    big = FiniteBase.uniform(tuple(f"p{i}" for i in range(9)))
    with pytest.raises(ValueError, match="base too large"):
        normalizing_groupoid(FiniteRelation.diagonal(big))


def test_partial_bijection_validation_raises():
    # a ValueError, not an assert, so the check survives python -O
    with pytest.raises(ValueError, match="not a function"):
        PartialBijection(B3, (("x", "y"), ("x", "z")))
    with pytest.raises(ValueError, match="not injective"):
        PartialBijection(B3, (("x", "z"), ("y", "z")))


def test_partial_bijection_is_partial_isometry():
    for relation in all_equivalence_relations(B3):
        for pb in normalizing_groupoid(relation):
            v = pb.to_element(relation)
            assert v.adjoint() * v == pb.domain_projection(relation)
            assert v * v.adjoint() == pb.image_projection(relation)


def test_groupoid_conjugation_intertwines_expectation():
    for relation in all_equivalence_relations(B3):
        for pb in normalizing_groupoid(relation):
            v = pb.to_element(relation)
            dom = set(pb.domain())
            support = [p for p in relation.pairs if p[0] in dom and p[1] in dom]
            for p in support:
                u = FMElement(relation, {p: QC(Fraction(3, 7), Fraction(1, 2))})
                lhs = (v * u * v.adjoint()).expectation()
                rhs = v * u.expectation() * v.adjoint()
                assert lhs == rhs


WEIGHTED = FiniteBase.weighted([("x", Fraction(1, 2)), ("y", Fraction(1, 3)),
                                ("z", Fraction(1, 6))])
WFULL = FiniteRelation.full(WEIGHTED)


def test_modular_scale_uniform_state_is_identity():
    # equal weights put everything in grade 1, where the flow is trivial
    u = FMElement(FULL3, {("x", "y"): QC(2), ("y", "y"): QC(5)})
    assert modular_spectrum(u) == {1: u}
    for t in (0.0, 1.0, -2.7, 31.4):
        assert modular_scale(u, t) == {("x", "y"): 2, ("y", "y"): 5}


def test_modular_scale_fixes_diagonal_exactly():
    d = FMElement.diagonal(WFULL, {"x": QC(3), "z": QC(Fraction(1, 7))})
    assert modular_spectrum(d) == {1: d}


def test_modular_scale_frozen_phase():
    u = unit(WFULL, "y", "x")  # weight ratio (1/3)/(1/2) = 2/3
    assert modular_spectrum(u) == {Fraction(2, 3): u}
    # the display helper evaluates the phase (2/3)^{it} in floats
    got = modular_scale(u, 1.0)[("y", "x")]
    assert abs(got - complex(Fraction(2, 3)) ** 1j) < 1e-12


def test_modular_scale_group_law_and_multiplicativity():
    # sigma_t(u v) = sigma_t(u) sigma_t(v) for every real t says, grade by
    # grade, that (u v)_r is the sum of u_r1 v_r2 over r1 r2 = r
    u = FMElement(WFULL, {("x", "y"): QC(1), ("y", "z"): QC(2)})
    v = FMElement(WFULL, {("y", "x"): QC(1, 1), ("z", "x"): QC(-2)})
    want = {}
    for (r1, a), (r2, b) in itertools.product(modular_spectrum(u).items(),
                                              modular_spectrum(v).items()):
        want[r1 * r2] = want.get(r1 * r2, FMElement.zero(WFULL)) + a * b
    want = {r: g for r, g in want.items() if not g.is_zero()}
    assert modular_spectrum(u * v) == want == {
        1: FMElement(WFULL, {("x", "x"): QC(1, 1)}),
        Fraction(2, 3): FMElement(WFULL, {("y", "x"): QC(-4)})}
    # the float display obeys the group law sigma_s sigma_t = sigma_(s+t)
    ones = FMElement(WFULL, {pair: 1 for pair in WFULL.pairs})
    for s, t in ((0.31, 1.0), (2.5, -0.7)):
        first, then = modular_scale(ones, s), modular_scale(ones, t)
        assert coefficient_gap({p: first[p] * then[p] for p in first},
                               modular_scale(ones, s + t)) < 1e-12


def test_modular_scale_commutes_with_expectation():
    # E(sigma_t(u)) = sigma_t(E(u)) = E(u) for every t: E keeps grade 1 only
    u = FMElement(WFULL, {("x", "y"): QC(1), ("x", "x"): QC(4), ("z", "y"): QC(0, 2)})
    spectrum = modular_spectrum(u)
    assert sorted(spectrum) == [Fraction(1, 2), 1, Fraction(3, 2)]
    assert modular_spectrum(u.expectation()) == {1: u.expectation()}
    assert spectrum[1].expectation() == u.expectation()
    assert all(g.expectation().is_zero() for r, g in spectrum.items() if r != 1)


def test_modular_spectrum_adjoint_inverts_the_ratio():
    u = FMElement(WFULL, {("x", "z"): QC(1, -2), ("y", "x"): QC(3), ("z", "z"): QC(0, 1)})
    assert modular_spectrum(u.adjoint()) == {
        1 / r: g.adjoint() for r, g in modular_spectrum(u).items()}
    assert sorted(modular_spectrum(u.adjoint())) == [Fraction(1, 3), 1,
                                                     Fraction(3, 2)]


def test_state_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        FiniteBase.weighted([("x", Fraction(1, 2)), ("y", Fraction(1, 3))])
    with pytest.raises(ValueError, match="positive"):
        FiniteBase.weighted([("x", Fraction(3, 2)), ("y", Fraction(-1, 2))])
