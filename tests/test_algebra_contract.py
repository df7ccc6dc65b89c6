"""What an implementation of the `Algebra` protocol owes: one test per kind
of law, run on every row of ROWS (FACE_ROWS for the faces' own fast paths),
with complex coefficients and plain ==, which is exact on every row.  A row
is (algebra, elements, diagonal elements), and a law draws each argument by
its name: x, y, z elements, ys a list of them, d, e diagonal elements, c a
complex scalar and left a side.  REGRESSIONS holds fixed examples."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from amalgam.engine import (
    Algebra, CrossedFace, CylFn, FMFace, FreeProduct, MAmbient)
from amalgam.fmalg import FMElement, FiniteBase, FiniteRelation
from amalgam.scalars import QC
from amalgam.words import Alphabet, ReducedWord, ball

AB = Alphabet(("a", "b"), 1)
VALUES = [QC(Fraction(n, 2), m) for n in range(-2, 3) for m in (-1, 0, 1)]
SCALARS = st.sampled_from(VALUES)
# a fixed list, as drawing each CylFn would cost more than the laws
RNG = random.Random(5)
CYLFNS = st.sampled_from([CylFn.zero(AB), CylFn.one(AB)] + [
    CylFn(AB, [(RNG.choice(ball(AB, 2)), RNG.choice(VALUES))
               for _ in range(RNG.randint(1, 3))]) for _ in range(60)])


def terms(keys, values, size):
    return st.lists(st.tuples(st.sampled_from(keys), values),
                    max_size=size).map(dict)


def face_row(face, size=4):
    if isinstance(face, CrossedFace):
        keys, values, diagonals = ball(AB, 2, face.block), CYLFNS, CYLFNS
    else:
        keys, values = sorted(face.relation.pairs), SCALARS
        diagonals = terms(face.relation.base.points, SCALARS, 4).map(
            lambda v: FMElement.diagonal(face.drel, v))
    return face, terms(keys, values, size).map(face.element), diagonals


def free_row(product):
    """Alternating products of one to three letters of up to two terms."""
    rows = {tag: face_row(product.face(tag), 2) for tag in product.tags}
    a, b = product.tags
    letters = st.one_of(*(st.tuples(*(st.tuples(st.just(tag), rows[tag][1])
                                      for tag in tags))
                          for tags in ((a,), (b,), (a, b), (b, a), (a, b, a),
                                       (b, a, b))))
    return (MAmbient(product), letters.map(product.letters_product),
            rows[a][2])


BASE = FiniteBase.uniform(("x", "y", "z", "w"))
FINITE = FreeProduct(
    FMFace("A", FiniteRelation.from_classes(BASE, [("x", "y", "z")])),
    FMFace("B", FiniteRelation.from_classes(BASE, [("y", "z", "w")])))
BOUNDARY = FreeProduct(CrossedFace("A", AB, 1, budget=16),
                       CrossedFace("B", AB, 2, budget=16))
FM, A = FMFace("M", FiniteRelation.full(BASE)), BOUNDARY.face("A")
FULL = CrossedFace("M", AB, None, budget=16)
FACE_ROWS = [pytest.param(face_row(face), id=name) for face, name in (
    (FM, "fm-face"), (A, "crossed-1"), (BOUNDARY.face("B"), "crossed-2"),
    (FULL, "crossed-full"))]
ROWS = FACE_ROWS + [pytest.param(free_row(FINITE), id="free-fm"),
                    pytest.param(free_row(BOUNDARY), id="free-boundary")]


def law(rows=ROWS):
    """The law as a test over rows, each argument drawn by its name."""
    def wrap(check):
        names = check.__code__.co_varnames[1:check.__code__.co_argcount]

        @pytest.mark.parametrize("row", rows)
        @settings(max_examples=12, deadline=None)
        @given(st.data())
        def test(row, data):
            algebra, x, d = row
            drawn = {"ys": st.lists(x, max_size=3), "c": SCALARS, "d": d,
                     "e": d, "left": st.booleans()}
            check(algebra, *(data.draw(drawn.get(name, x), name)
                             for name in names))
        test.__name__, test.check = check.__name__, check
        return test
    return wrap


@law()
def test_ring_laws(a, x, y, z):
    # results are clean: adding zero rebuilds each from its terms
    zero, xy = a.sub(a.one(), a.one()), a.mul(x, y)
    assert a.mul(a.one(), x) == x == a.mul(x, a.one())
    assert a.sub(x, x) == zero
    for r in (x, xy, a.add(x, y), a.sub(x, y), a.adjoint(x)):
        assert a.add(r, zero) == r == a.add(zero, r)
    assert a.mul(xy, z) == a.mul(x, a.mul(y, z))
    assert a.mul(x, a.add(y, z)) == a.add(xy, a.mul(x, z))
    assert a.mul(a.add(x, y), z) == a.add(a.mul(x, z), a.mul(y, z))


@law()
def test_adjoint_is_a_conjugate_linear_anti_multiplicative_involution(
        a, x, y, c):
    unit = a.expect(a.one())
    assert a.adjoint(a.adjoint(x)) == x
    assert a.adjoint(a.mul(x, y)) == a.mul(a.adjoint(y), a.adjoint(x))
    assert a.adjoint(a.add(x, y)) == a.add(a.adjoint(x), a.adjoint(y))
    assert a.adjoint(a.mul(a.embed_d(unit.scale(c)), x)) == a.mul(
        a.adjoint(x), a.embed_d(unit.scale(c.conjugate())))


@law()
def test_expectation_is_a_conditional_expectation(a, x, y, d, e):
    # unital, linear, idempotent, D-bimodular and commuting with the adjoint
    assert a.embed_d(a.expect(a.one())) == a.one()
    assert a.expect(a.add(x, y)) == a.expect(x) + a.expect(y)
    assert a.expect(a.embed_d(d)) == d
    assert a.expect(a.embed_d(a.expect(x))) == a.expect(x)
    dxe = a.mul(a.mul(a.embed_d(d), x), a.embed_d(e))
    assert a.expect(dxe) == d * a.expect(x) * e
    assert a.expect(a.adjoint(x)) == a.expect(x).adjoint()


@law()
def test_expectation_is_positive(a, x):
    d = a.expect(a.mul(a.adjoint(x), x))
    values = d.terms if isinstance(d, CylFn) else d.coeffs
    assert all(v.im == 0 and v.re >= 0 for v in values.values())


@law()
def test_split_is_the_generic_split(a, x):
    # equal, and with the terms in the same order, which repr shows
    d, centered = a.split(x)
    generic_d, generic_centered = Algebra.split(a, x)
    assert d == generic_d and centered == generic_centered
    assert repr(centered) == repr(generic_centered)


@law()
def test_expected_products_are_the_expectations_of_the_products(a, x, ys):
    # against x* every word of x merges all the way; one() and x carry E(x)
    ys = ys + [a.adjoint(x), a.one(), x]
    assert a.expected_products(ys)(x) == [
        a.embed_d(a.expect(a.mul(x, y))) for y in ys]


@law(FACE_ROWS)
def test_d_mul_is_the_product_with_the_embedded_diagonal(a, d, x, left):
    got = a.d_mul(d, x, left)
    want = a.mul(a.embed_d(d), x) if left else a.mul(x, a.embed_d(d))
    assert got == want and repr(got) == repr(want)
    assert a.d_mul(a.d_one(), x, left) is x  # the normal form tests `is`


@law(FACE_ROWS)
def test_seam_is_the_cut_by_the_right_support(a, x, y):
    cut = a.seam(x, y)
    assert cut == a.d_mul(a.right_support(x), y, left=True)
    assert (cut is y) == (cut == y)  # the normal form tests `is`
    assert a.mul(x, y) == a.mul(x, cut)


def w(text):
    return ReducedWord.parse(AB, text)


def cyl(text):
    return CylFn.indicator(w(text))


SEAM_X = A.element({w("a"): cyl("b")})  # right support O(a' b)
U = FINITE.embed("A", FINITE.face("A").unit("x", "y"))
V = FINITE.embed("B", FINITE.face("B").unit("y", "z"))
REGRESSIONS = {
    # the adjoint of the word U V = e[x,y] e[y,z] reverses it
    test_adjoint_is_a_conjugate_linear_anti_multiplicative_involution: [
        (MAmbient(FINITE), [U, V, QC(0, 1)])],
    # the join pairs U V with its adjoint, and adds E(x) E(y) for x = U V + 1
    test_expected_products_are_the_expectations_of_the_products: [
        (MAmbient(FINITE), [U * V + FINITE.one(), []])],
    test_split_is_the_generic_split: [
        (A, [{}]), (A, [A.embed_d(cyl("b"))]),  # zero, diagonal only
        (A, [A.element({w("a"): cyl("b"), w("e"): cyl("a")})]),
        (A, [A.unitary(w("a a"))]),  # no identity term
        (FM, [FM.zero()]),
        (FM, [FM.element({("x", "x"): QC(2), ("z", "z"): QC(0, 1)})]),
        (FM, [FM.element({("z", "x"): QC(1), ("y", "x"): QC(-2)})])],
    test_d_mul_is_the_product_with_the_embedded_diagonal: [
        (A, [A.d_zero(), A.unitary(w("a")), True]),
        (A, [A.d_one(), A.unitary(w("a")), False]),
        (A, [cyl("a'"), A.element({w("a"): cyl("b")}), False]),
        (FM, [FM.d_zero(), FM.one(), True]),
        (FM, [FM.d_one(), FM.one(), False])],
    # y of block 2 with every cylinder below the right support of SEAM_X,
    # none, one of two, one coefficient; every row of y kept, one, none
    test_seam_is_the_cut_by_the_right_support: [
        (FULL, [SEAM_X, FULL.element(y)]) for y in (
            {w("b"): cyl("a' b b")}, {w("b"): cyl("a")},
            {w("b"): cyl("a' b") + cyl("a")},
            {w("b"): cyl("a' b"), w("e"): cyl("b")})] + [
        (FM, [FM.unit("x", "y"), FM.element(y)]) for y in (
            {("y", "z"): QC(1)}, {("y", "z"): QC(1), ("w", "z"): QC(1, 2)},
            {("w", "y"): QC(3)})],
}


@pytest.mark.parametrize("law_test, algebra, args", [
    pytest.param(law_test, algebra, args, id="%s-%d" % (law_test.__name__, i))
    for law_test, cases in REGRESSIONS.items()
    for i, (algebra, args) in enumerate(cases)])
def test_regressions(law_test, algebra, args):
    law_test.check(algebra, *args)
