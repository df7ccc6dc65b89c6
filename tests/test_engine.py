import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import amalgam.boundary
from amalgam import battery
from amalgam.engine import (
    Algebra, CrossedFace, CylFn, DepthBudgetExceeded, FMFace, FreeProduct,
    MAmbient, freeness_check, haar_check,
)
from amalgam.fmalg import FMElement, FiniteBase, FiniteRelation
from amalgam.matrix import cyclic_model, family_freeness_report
from amalgam.scalars import ONE, QC
from amalgam.words import Alphabet, ReducedWord, ball, sphere

AB = Alphabet(("a", "b"), 1)


def w(text, alphabet=AB):
    return ReducedWord.parse(alphabet, text)


def indicator(text):
    return CylFn.indicator(w(text))


# -- cylinder step functions -------------------------------------------------

def test_cylfn_complete_siblings_merge():
    total = indicator("a a") + indicator("a b") + indicator("a b'")
    assert total == indicator("a")
    everything = sum((CylFn.indicator(p) for p in sphere(AB, 1)),
                     CylFn.zero(AB))
    assert everything == CylFn.one(AB)


def test_cylfn_deeper_siblings_stay_apart():
    # equal one-term maps one letter deeper are not constant: merging them
    # would name a cylinder in none of the summands
    f = indicator("a a a") + indicator("a b a") + indicator("a b' a")
    assert f.terms == {w("a a a"): QC(1), w("a b a"): QC(1),
                       w("a b' a"): QC(1)}
    assert f.value_at(w("a a b a b a")) == QC(0)
    assert f.value_at(w("a b a b a b")) == QC(1)


def test_cylfn_nested_supports_push_down():
    f = indicator("a") + indicator("a b").scale(2)
    assert f.value_at(w("a b x".replace("x", "a"))) == QC(3)
    assert f.value_at(w("a a a")) == QC(1)
    assert f.value_at(w("b a a")) == QC(0)
    assert f.depth() == 2


def test_cylfn_cancellation_to_zero():
    f = indicator("a b") - indicator("a b")
    assert f.is_zero()
    g = indicator("a") - indicator("a a") - indicator("a b") - indicator("a b'")
    assert g.is_zero()


def test_cylfn_value_at_needs_a_deep_word():
    with pytest.raises(ValueError, match="shallower"):
        indicator("a b").value_at(w("a"))


@pytest.mark.parametrize("op", [operator.add, operator.mul])
def test_cylfn_rejects_another_alphabet(op):
    other = CylFn.one(Alphabet(("a", "b", "c"), 1))
    with pytest.raises(ValueError, match="different alphabets"):
        op(indicator("a"), other)


cylfn_st = st.dictionaries(
    st.sampled_from(ball(AB, 2)),
    st.builds(QC, st.integers(-3, 3).map(Fraction)),
    max_size=4,
).map(lambda terms: CylFn(AB, terms.items()))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ball(AB, 2)),
                          st.builds(QC, st.integers(-3, 3), st.integers(-1, 1))),
                max_size=8))
@example([(w("a"), QC(1)), (w("a"), QC(2))])  # a repeated prefix
@example([(w("a"), QC(1)), (w("a b"), QC(2)), (w("a b"), QC(-1))])  # nested
def test_cylfn_sums_its_pairs(pairs):
    f = CylFn(AB, pairs)
    summed = {}
    for word, value in pairs:
        summed[word] = summed.get(word, 0) + value
    assert f == CylFn(AB, summed.items())
    for omega in sphere(AB, 3):
        assert f.value_at(omega) == sum(
            (value for word, value in pairs if omega.starts_with(word)), QC(0))
    assert all(type(value) is QC for value in f.terms.values())


@settings(max_examples=40, deadline=None)
@given(cylfn_st, cylfn_st)
def test_cylfn_pointwise_semantics(f, g):
    probes = sphere(AB, 5)[:30]
    fg, f_plus_g = f * g, f + g
    for omega in probes:
        assert fg.value_at(omega) == f.value_at(omega) * g.value_at(omega)
        assert f_plus_g.value_at(omega) == f.value_at(omega) + g.value_at(omega)


@settings(max_examples=30, deadline=None)
@given(cylfn_st, st.sampled_from(ball(AB, 2)))
# translated by a, the cylinders are a a a, a b a and a b' a: equal
# one-term maps one letter below the siblings of a, which must stay apart
@example(indicator("a a") + indicator("b a") + indicator("b' a"), w("a"))
def test_cylfn_translate_matches_point_action(f, gamma):
    moved = f.translate(gamma)
    for omega in sphere(AB, 6)[:40]:
        assert moved.value_at(omega) == f.value_at(gamma.inverse() * omega)


# -- crossed product faces ----------------------------------------------------

def faces_boundary(budget=8):
    return (CrossedFace("A", AB, 1, budget), CrossedFace("B", AB, 2, budget))


def test_crossed_conjugation_translates_functions():
    face_a, _ = faces_boundary()
    f = indicator("b a")
    prod = face_a.mul(face_a.unitary(w("a")), face_a.embed_d(f))
    prod = face_a.mul(prod, face_a.unitary(w("a'")))
    assert prod.keys() == {w("e")}
    assert prod[w("e")] == f.translate(w("a"))


def test_crossed_adjoint_is_involutive():
    face_a, _ = faces_boundary()
    x = face_a.element({w("a"): indicator("b"), w("a a"): CylFn.one(AB).scale(QC(0, 1))})
    assert face_a.adjoint(face_a.adjoint(x)) == x
    y = face_a.unitary(w("a a"))
    assert face_a.mul(x, y) == face_a.adjoint(
        face_a.mul(face_a.adjoint(y), face_a.adjoint(x)))


FACE_A = CrossedFace("A", AB, 1, budget=8)
crossed_st = st.dictionaries(
    st.sampled_from(ball(AB, 2, block=1)), cylfn_st, max_size=3,
).map(FACE_A.element)


@settings(max_examples=30, deadline=None)
@given(crossed_st, crossed_st)
def test_crossed_results_are_clean(x, y):
    # mul, add and adjoint skip the element() checks: each result must be
    # what element() builds from its terms
    for r in (FACE_A.mul(x, y), FACE_A.add(x, y), FACE_A.sub(x, x),
              FACE_A.sub(x, y), FACE_A.adjoint(x)):
        assert FACE_A.element(r) == r
        assert all(not fn.is_zero() for fn in r.values())


FACE_B = CrossedFace("B", AB, 2, budget=8)
crossed_b_st = st.dictionaries(
    st.sampled_from(ball(AB, 2, block=2)), cylfn_st, max_size=3,
).map(FACE_B.element)
FULL_CROSSED = CrossedFace("M", AB, None, budget=8)


@settings(max_examples=60, deadline=None)
@given(crossed_st)
@example({})
@example(FACE_A.embed_d(indicator("b")))  # diagonal only
@example(FACE_A.element({w("a"): indicator("b"), w("e"): indicator("a")}))
@example(FACE_A.unitary(w("a a")))  # no identity term: x itself
def test_crossed_split_matches_the_generic_split(x):
    d, centered = FACE_A.split(x)
    generic_d, generic_centered = Algebra.split(FACE_A, x)
    assert d == generic_d and centered == generic_centered
    assert list(centered) == list(generic_centered)
    assert (centered is x) == (w("e") not in x)


@settings(max_examples=60, deadline=None)
@given(cylfn_st, crossed_st, st.booleans())
@example(CylFn.zero(AB), FACE_A.unitary(w("a")), True)
@example(CylFn.one(AB), FACE_A.unitary(w("a")), False)
@example(indicator("a'"), FACE_A.element({w("a"): indicator("b")}), False)
def test_crossed_d_mul_is_the_product_with_the_embedded_diagonal(d, x, left):
    embedded = FACE_A.embed_d(d)
    expected = FACE_A.mul(embedded, x) if left else FACE_A.mul(x, embedded)
    got = FACE_A.d_mul(d, x, left)
    assert got == expected and list(got) == list(expected)
    assert FACE_A.d_mul(FACE_A.d_one(), x, left) is x
    # d is guarded before anything else, as embed_d guards it
    with pytest.raises(DepthBudgetExceeded):
        FACE_A.d_mul(indicator("a " * 9), x, left)


# a has right support O(a' b): the cylinders of b below it are kept
SEAM_LEFT = FACE_A.element({w("a"): indicator("b")})


@settings(max_examples=100, deadline=None)
@given(crossed_st, crossed_b_st)
@example(SEAM_LEFT, FACE_B.element({w("b"): indicator("a' b b")}))  # all kept
@example(SEAM_LEFT, FACE_B.element({w("b"): indicator("a")}))  # none kept
# partly covered: one cylinder of a coefficient, or one coefficient
@example(SEAM_LEFT, FACE_B.element({w("b"): indicator("a' b") + indicator("a")}))
@example(SEAM_LEFT, FACE_B.element({w("b"): indicator("a' b"),
                                    w("e"): indicator("b")}))
def test_crossed_seam_is_the_projection_by_the_right_support(a, b):
    q = FACE_A.right_support(a)
    cut = FACE_B.seam(a, b)
    assert cut == FACE_B.d_mul(q, b, left=True)
    assert (cut is b) == all(q * f == f for f in b.values())
    assert FULL_CROSSED.mul(a, b) == FULL_CROSSED.mul(a, cut)


def test_crossed_block_membership_enforced():
    face_a, _ = faces_boundary()
    with pytest.raises(ValueError):
        face_a.unitary(w("b"))


def test_depth_budget_errors_instead_of_truncating():
    face_a, _ = faces_boundary(budget=3)
    x = face_a.element({w("a a"): indicator("a b")})
    with pytest.raises(DepthBudgetExceeded):
        face_a.mul(x, x)


# -- free product over finite relation faces ---------------------------------

BASE = FiniteBase.uniform(("x", "y", "z"))
REL_A = FiniteRelation.from_classes(BASE, [("x", "y")])
REL_B = FiniteRelation.from_classes(BASE, [("y", "z")])


def fm_product():
    return FreeProduct(FMFace("A", REL_A), FMFace("B", REL_B))


def fm_letters(product):
    face_a, face_b = product.face("A"), product.face("B")
    return [
        ("A", face_a.unit("x", "y")),
        ("A", face_a.element({("y", "x"): QC(1), ("x", "x"): QC(2)})),
        ("B", face_b.unit("y", "z")),
        ("B", face_b.element({("z", "y"): QC(Fraction(1, 2)), ("z", "z"): QC(1)})),
    ]


def test_mixed_backends_rejected():
    with pytest.raises(ValueError):
        FreeProduct(FMFace("A", REL_A), CrossedFace("B", AB, 2))


@pytest.mark.parametrize("faces, message", [
    ((FMFace("A", REL_A), FMFace("A", REL_B)), "faces need distinct tags"),
    ((FMFace("A", REL_A),
      FMFace("B", FiniteRelation.full(FiniteBase.uniform(("x", "y"))))),
     "faces must share the base"),
    ((CrossedFace("A", AB, 1), CrossedFace("B", Alphabet(("a", "c"), 1), 2)),
     "faces must share alphabet and depth budget"),
    ((CrossedFace("A", AB, 1, 6), CrossedFace("B", AB, 2, 5)),
     "faces must share alphabet and depth budget"),
    ((CrossedFace("A", AB, 1), CrossedFace("B", AB, 1)),
     "boundary faces must cover blocks 1 and 2"),
], ids=["tags", "base", "alphabet", "budget", "blocks"])
def test_free_product_checks_its_faces(faces, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        FreeProduct(*faces)


def test_expectation_of_identity_and_single_letters():
    product = fm_product()
    assert product.expectation([]) == product.d_one()
    for tag, x in fm_letters(product):
        assert product.expectation([(tag, x)]) == product.face(tag).expect(x)


def test_expectation_is_a_conditional_expectation():
    product = fm_product()
    drel = product.face("A").drel
    d1 = FMElement.diagonal(drel, {"x": QC(2), "y": QC(1)})
    d2 = FMElement.diagonal(drel, {"y": QC(Fraction(1, 3)), "z": QC(5)})
    # a diagonal letter is a face letter: d embedded in face A
    face_a = product.face("A")
    left, right = ("A", face_a.embed_d(d1)), ("A", face_a.embed_d(d2))
    letters = fm_letters(product)
    for tag, x in letters:
        seq = [left, (tag, x), right]
        assert product.expectation(seq) == d1 * product.face(tag).expect(x) * d2
    seq = [letters[0], letters[2], letters[1]]
    padded = [left] + seq + [right]
    assert product.expectation(padded) == d1 * product.expectation(seq) * d2


def test_expectation_respects_adjoints():
    product = fm_product()
    letters = fm_letters(product)
    seq = [letters[0], letters[2], letters[1], letters[3]]
    rev = [(tag, product.face(tag).adjoint(x)) for tag, x in reversed(seq)]
    assert product.expectation(rev) == product.expectation(seq).adjoint()


def test_expectation_matches_normal_form_product():
    """The raw-letter recursion and the MElement arithmetic agree."""
    product = fm_product()
    letters = fm_letters(product)
    rng = random.Random(7)
    for _ in range(60):
        seq = [rng.choice(letters) for _ in range(rng.randint(1, 6))]
        direct = product.expectation(seq)
        via_words = product.letters_product(seq).d_part
        assert direct == via_words


def test_expectation_positive_on_random_elements():
    product = fm_product()
    letters = fm_letters(product)
    rng = random.Random(11)
    for _ in range(50):
        parts = []
        for _ in range(rng.randint(1, 3)):
            seq = [rng.choice(letters) for _ in range(rng.randint(1, 3))]
            parts.append(product.letters_product(seq))
        x = parts[0]
        for p in parts[1:]:
            x = x + p
        diag = (x.adjoint() * x).d_part
        for (p, q), v in diag.coeffs.items():
            assert p == q and v.im == 0 and v.re >= 0


def test_recursion_letter_count_strictly_shrinks(monkeypatch):
    product = fm_product()
    stack = []
    original = FreeProduct._expect

    def traced(self, seq, known_centered):
        if stack:
            assert len(seq) < stack[-1]
        stack.append(len(seq))
        try:
            return original(self, seq, known_centered)
        finally:
            stack.pop()

    monkeypatch.setattr(FreeProduct, "_expect", traced)
    letters = fm_letters(product)
    seq = [letters[0], letters[2], letters[1], letters[3], letters[0], letters[2]]
    product.expectation(seq)


def test_word_product_detects_disjoint_supports():
    # letters whose inner supports miss each other multiply to zero
    product = fm_product()
    x = product.embed("A", product.face("A").unit("x", "y"))
    y = product.embed("B", product.face("B").unit("z", "y"))
    assert not (x * y).words and (x * y).d_part.is_zero()
    z = product.embed("B", product.face("B").unit("y", "z"))
    assert (x * z).words


def test_seam_projection_drops_terms_of_the_right_letter():
    # a = e[x,y] has right support e[y,y], so a b = a (e[y,y] b): the seam
    # keeps the y row of b and drops the rest
    product = fm_product()
    face_a, face_b = product.face("A"), product.face("B")
    a = face_a.unit("x", "y")
    b = face_b.element({("y", "z"): QC(1), ("z", "y"): QC(Fraction(1, 2))})
    ab = product.embed("A", a) * product.embed("B", b)
    assert ab.d_part.is_zero()
    assert ab.words == ((("A", a), ("B", face_b.unit("y", "z"))),)
    # e[y,y] e[z,y] = 0: the whole product vanishes
    c = face_b.element({("z", "y"): QC(3)})
    assert product.embed("A", a) * product.embed("B", c) == product.zero()


SEAM_BASE = FiniteBase.uniform(("x", "y", "z", "w"))
SEAM_PRODUCT = FreeProduct(
    FMFace("A", FiniteRelation.from_classes(SEAM_BASE, [("x", "y", "z")])),
    FMFace("B", FiniteRelation.from_classes(SEAM_BASE, [("y", "z", "w")])))
SEAM_A, SEAM_B = SEAM_PRODUCT.face("A"), SEAM_PRODUCT.face("B")


def face_element_st(face):
    return st.dictionaries(
        st.sampled_from(sorted(face.relation.pairs)),
        st.builds(QC, st.integers(-2, 2).map(lambda n: Fraction(n, 2)),
                  st.integers(-1, 1)),
        max_size=5,
    ).map(face.element)


A_ELEMENT, B_ELEMENT = face_element_st(SEAM_A), face_element_st(SEAM_B)
A_XY, B_YZ = SEAM_A.unit("x", "y"), SEAM_B.unit("y", "z")
B_TWO_ROWS = SEAM_B.element({("y", "z"): QC(1), ("w", "z"): QC(Fraction(1, 2))})
B_W_ROW = SEAM_B.element({("w", "y"): QC(3)})
A_TWO_ROWS = SEAM_A.element({("z", "x"): QC(1), ("y", "x"): QC(-2)})


@settings(max_examples=150, deadline=None)
@given(A_ELEMENT, B_ELEMENT, st.booleans())
@example(A_XY, B_YZ, True)  # every row kept: b itself
@example(A_XY, B_TWO_ROWS, True)  # the w row dropped
@example(A_XY, B_W_ROW, True)  # nothing survives
def test_fm_seam_is_the_projection_by_the_right_support(x, y, a_left):
    (left_face, a), (right_face, b) = ((SEAM_A, x), (SEAM_B, y)) if a_left \
        else ((SEAM_B, y), (SEAM_A, x))
    cut = right_face.seam(a, b)
    assert cut == right_face.d_mul(left_face.right_support(a), b, left=True)
    columns = {col for _, col in a.coeffs}
    rows = {row for row, _ in b.coeffs}
    assert (cut is b) == (rows <= columns)
    assert cut.is_zero() == (not rows & columns)
    full = FiniteRelation.full(SEAM_BASE)
    assert a.cast(full) * b.cast(full) == a.cast(full) * cut.cast(full)


@settings(max_examples=100, deadline=None)
@given(A_ELEMENT)
@example(SEAM_A.zero())
@example(SEAM_A.element({("x", "x"): QC(2), ("z", "z"): QC(0, 1)}))  # diagonal
@example(A_TWO_ROWS)  # off-diagonal only
def test_fm_split_matches_the_generic_split(x):
    d, centered = SEAM_A.split(x)
    generic_d, generic_centered = Algebra.split(SEAM_A, x)
    assert d == generic_d and centered == generic_centered
    assert d.relation == SEAM_A.drel and set(d.coeffs) <= SEAM_A.drel.pairs
    assert centered.relation == SEAM_A.relation
    assert set(centered.coeffs) <= SEAM_A.relation.pairs
    columns = {y for _, y in x.coeffs}
    assert x.columns() == columns and x.columns() == columns


@settings(max_examples=100, deadline=None)
@given(A_ELEMENT, B_ELEMENT, A_ELEMENT, B_ELEMENT, st.booleans())
# each seam keeps one row of the right letter and drops another
@example(A_XY, B_TWO_ROWS, A_TWO_ROWS, B_YZ, True)
@example(A_XY + SEAM_A.unit("z", "y"), B_TWO_ROWS, A_TWO_ROWS, B_TWO_ROWS,
         False)
def test_three_letter_normal_form_matches_the_recursion(a1, b1, a2, b2,
                                                        a_outer):
    letters = [("A", a1), ("B", b1), ("A", a2)] if a_outer \
        else [("B", b1), ("A", a1), ("B", b2)]
    x = SEAM_PRODUCT.letters_product(letters)
    assert x.d_part == SEAM_PRODUCT.expectation(letters)
    # a cut letter reaches E only through a later merge, as in x* x
    adjoints = [(tag, SEAM_PRODUCT.face(tag).adjoint(y))
                for tag, y in reversed(letters)]
    assert (x.adjoint() * x).d_part == \
        SEAM_PRODUCT.expectation(adjoints + letters)


REL_FULL = FiniteRelation.full(BASE)
FULL_FACE = FMFace("A", REL_FULL)
d_entry_st = st.sampled_from(
    [ONE, QC(2), QC(Fraction(-1, 3)), QC(0, 1), QC(Fraction(1, 2), -1)])
diagonal_st = st.dictionaries(st.sampled_from(BASE.points), d_entry_st).map(
    lambda values: FMElement.diagonal(FULL_FACE.drel, values))
full_element_st = st.dictionaries(
    st.sampled_from(sorted(REL_FULL.pairs)),
    st.builds(QC, st.integers(-3, 3).map(lambda n: Fraction(n, 2)),
              st.integers(-1, 1)),
    max_size=6,
).map(FULL_FACE.element)


@settings(max_examples=80, deadline=None)
@given(diagonal_st, full_element_st, st.booleans())
@example(FULL_FACE.d_zero(), FULL_FACE.one(), True)
@example(FULL_FACE.d_one(), FULL_FACE.one(), False)
def test_fm_d_mul_is_the_product_with_the_embedded_diagonal(d, x, left):
    face = FULL_FACE
    embedded = face.embed_d(d)
    expected = face.mul(embedded, x) if left else face.mul(x, embedded)
    assert face.d_mul(d, x, left) == expected
    assert face.d_mul(face.d_one(), x, left) is x


def test_embed_is_weakly_multiplicative_within_a_face():
    product = fm_product()
    face = product.face("A")
    pads = [product.embed(tag, x) for tag, x in fm_letters(product)]
    for u in (face.unit("x", "y"), face.element({("x", "y"): QC(1), ("z", "z"): QC(1)})):
        for v in (face.unit("y", "x"), face.unit("x", "y")):
            lhs = product.embed("A", u) * product.embed("A", v)
            rhs = product.embed("A", face.mul(u, v))
            assert product.weak_equal(lhs, rhs, pads)


def test_melement_unit_and_structural_equality():
    product = fm_product()
    letters = fm_letters(product)
    x = product.letters_product(letters[:2])  # one face twice: a diagonal
    assert product.letters_product([]) == product.one()
    assert product.one() * x == x
    assert x * product.one() == x
    assert x - x == product.zero()
    # alternating faces leave a word; == does not collect words, so x - x
    # is seen to vanish through E(z* z), which is faithful
    x = product.letters_product(letters[::2])
    assert x.words and x.d_part.is_zero()
    assert product.one() * x == x and x * product.one() == x
    assert -x != x and -(-x) == x
    z = x - x
    assert (z.adjoint() * z).d_part.is_zero()


@pytest.mark.parametrize("op", [operator.add, operator.mul])
def test_melement_rejects_another_product(op):
    with pytest.raises(ValueError, match="different free products"):
        op(fm_product().one(), fm_product().one())


# -- free product over boundary faces ----------------------------------------

def boundary_product(budget=14):
    face_a, face_b = faces_boundary(budget)
    return FreeProduct(face_a, face_b)


def boundary_letters(product):
    face_a = product.face("A")
    face_b = product.face("B")
    return [
        ("A", face_a.element({w("a"): indicator("b")})),
        ("A", face_a.element({w("a'"): CylFn.one(AB), w("e"): indicator("a")})),
        ("B", face_b.element({w("b"): CylFn.one(AB)})),
        ("B", face_b.element({w("b'"): indicator("a'"), w("b b"): indicator("b")})),
    ]


def test_boundary_letter_repr_shows_words_as_text():
    product = boundary_product()
    text = repr(product.embed("A", {w("a"): indicator("b")}))
    assert text == "[A:{a: 1*O(b)}]"
    assert "ReducedWord(" not in text
    assert repr(indicator("b a'") + indicator("a")) == "1*O(a)+1*O(b a')"


def test_d_zero_is_the_empty_diagonal():
    for product in (fm_product(), boundary_product()):
        zero = product.d_zero()
        assert zero.is_zero()
        one = product.d_one()
        assert zero == one - one


def test_oracle_agreement_small_sweep():
    product = boundary_product()
    letters = boundary_letters(product)
    words = [[g] for g in letters]
    for length in (2, 3):
        words += [[letters[i] for i in combo]
                  for combo in itertools.product(range(4), repeat=length)]
    checked = 0
    for word in words:
        lhs = product.expectation(word)
        rhs = product.oracle_expectation(word)
        assert lhs == rhs
        checked += 1
    assert checked == 4 + 16 + 64


def test_boundary_norm_of_a_product_matches_the_recursion():
    # E(z* z) by the normal-form product, which cuts every cross-face seam
    # to the left letter's right support, against the raw-letter recursion,
    # which never cuts a seam
    product = boundary_product(8)
    face_a, face_b = product.face("A"), product.face("B")
    generators = [
        ("A", face_a.unitary(w("a"))),
        ("B", face_b.unitary(w("b"))),
        ("A", face_a.embed_d(indicator("a b"))),
        ("B", face_b.embed_d(indicator("b"))),
        ("A", face_a.element({w("a"): indicator("b")})),
        ("B", face_b.element({w("b'"): indicator("a")})),
    ]
    checked = 0
    for length in (2, 3):
        for letters in itertools.product(generators, repeat=length):
            z = product.letters_product(letters)
            adjoints = [(tag, product.face(tag).adjoint(x))
                        for tag, x in reversed(letters)]
            norm = product.expectation(adjoints + list(letters))
            assert (z.adjoint() * z).d_part == norm, letters
            checked += 1
    assert checked == 36 + 216


def test_crossed_hot_path_never_refines(monkeypatch):
    # act translates cylinders in closed form, with refinement as its test
    # oracle only, so a criterion-05 style sweep must never call refine
    def refuse(*args):
        raise AssertionError("refine called on the hot path")

    monkeypatch.setattr(amalgam.boundary, "refine", refuse)
    product = FreeProduct(CrossedFace("A", AB, 1, 16), CrossedFace("B", AB, 2, 16))
    report = battery.oracle_agreement(product, 3)
    assert report.passed and report.checked == 84


def test_recursion_and_oracle_never_take_the_face_shortcuts(monkeypatch):
    # criterion 05 checks the raw-letter recursion against the crossed
    # oracle, so neither may run the normal form's split, d_mul or seam
    def refuse(*args):
        raise AssertionError("a normal-form shortcut on an independent route")

    for name in ("split", "d_mul", "seam"):
        monkeypatch.setattr(CrossedFace, name, refuse)
    product = FreeProduct(CrossedFace("A", AB, 1, 16), CrossedFace("B", AB, 2, 16))
    report = battery.oracle_agreement(product, 3)
    assert report.passed and report.checked == 84


def test_crossed_face_rejects_bad_block():
    with pytest.raises(ValueError, match="block must be None, 1 or 2"):
        CrossedFace("A", AB, 3)


def test_oracle_requires_boundary_backend():
    with pytest.raises(ValueError):
        fm_product().oracle_expectation([])


# -- the normal-form word format ------------------------------------------------

BACKENDS = {
    "finite": (fm_product(), fm_letters),
    "boundary": (boundary_product(16), boundary_letters),
}


def assert_normal_form(product, x):
    """Every word is a nonempty tuple of (tag, x) letters with alternating
    tags, each letter nonzero and centered in its face."""
    for word in x.words:
        assert isinstance(word, tuple) and word
        tags = [letter[0] for letter in word]
        assert all(a != b for a, b in zip(tags, tags[1:])), tags
        for tag, value in word:
            face = product.face(tag)
            assert not face.is_zero(value)
            assert face.expect(value).is_zero()


letter_indices = st.lists(st.integers(0, 3), max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BACKENDS)), letter_indices, letter_indices)
def test_normal_form_words_alternate_and_are_centered(backend, first, second):
    product, letters = BACKENDS[backend]
    gens = letters(product)
    x = product.letters_product([gens[i] for i in first])
    y = product.letters_product([gens[i] for i in second])
    for z in (x, x + y, x - y, x * y, x.adjoint(), -x):
        assert_normal_form(product, z)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_equality_compares_words_by_value_not_repr(monkeypatch, backend):
    # two face-A words whose letters print alike: the order of the words
    # must not matter, and a differing coefficient must
    product, _ = BACKENDS[backend]
    face = product.face("A")
    if backend == "finite":
        monkeypatch.setattr(FMElement, "__repr__", lambda self: "x")
        u, v = face.unit("x", "y"), face.unit("y", "x")
    else:
        monkeypatch.setattr(CylFn, "__repr__", lambda self: "f")
        u, v = (face.element({w("a"): indicator("b")}),
                face.element({w("a"): indicator("a")}))
    x, y = product.embed("A", u), product.embed("A", v)
    assert x + y == y + x
    assert x + x != x + y and x + y != x + x
    assert x + y != x + product.embed("A", face.add(v, v))


def products_with_words(product, letters):
    """The products of one or two generators that have words."""
    products = (product.letters_product(combo) for n in (1, 2)
                for combo in itertools.product(letters(product), repeat=n))
    return [x for x in products if x.words]


WORDY = {backend: products_with_words(*BACKENDS[backend])
         for backend in BACKENDS}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_identities_hold_through_the_words(backend, data):
    # E is faithful, so z = 0 exactly when E(z* z) = 0: unlike ==, this
    # sees every word of z
    x, y, v = (data.draw(st.sampled_from(WORDY[backend])) for _ in range(3))
    for z in (x - x, (x * y) * v - x * (y * v), x * (y + v) - x * y - x * v):
        assert (z.adjoint() * z).d_part.is_zero(), z


def assert_product_expectation(product, x, y):
    assert product.product_expectation(x, y) == (x * y).d_part
    for left in x.words:
        for right in y.words:
            if len(left) != len(right):
                assert product._word_mul(left, right)[0] is None


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_product_expectation_is_the_diagonal_of_the_product(backend):
    # one() and most of WORDY carry a diagonal, so E(x) E(y) shows, and
    # their words of lengths 1 to 3 pair off unequally; every pair is
    # tried, as a dropped term or length guard shows in few of them
    product, _ = BACKENDS[backend]
    pool = WORDY[backend] + [product.one()]
    for x, y in itertools.product(pool, repeat=2):
        assert_product_expectation(product, x, y)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_product_expectation_of_longer_words(backend, data):
    # products of two operands carry words of lengths up to 4
    product, _ = BACKENDS[backend]
    pool = st.sampled_from(WORDY[backend] + [product.one()])
    x, y = (data.draw(st.builds(operator.mul, pool, pool)) for _ in range(2))
    assert_product_expectation(product, x, y)


def test_product_expectation_multiplies_only_pairs_that_can_merge(
        monkeypatch):
    # _word_mul is right for any pair of words, so no value sees the
    # length and tag filter in front of it; the count of pairs it gets does
    inside, pairs = [], []
    word_mul = FreeProduct._word_mul
    product_expectation = FreeProduct.product_expectation

    def counting_word_mul(self, left, right):
        if inside:
            pairs.append((left, right))
        return word_mul(self, left, right)

    def marked_product_expectation(self, x, y):
        inside.append(True)
        try:
            return product_expectation(self, x, y)
        finally:
            inside.pop()

    monkeypatch.setattr(FreeProduct, "_word_mul", counting_word_mul)
    monkeypatch.setattr(FreeProduct, "product_expectation",
                        marked_product_expectation)
    for backend in sorted(BACKENDS):
        product, _ = BACKENDS[backend]
        del pairs[:]
        mergeable = 0
        for x, y in itertools.product(WORDY[backend], repeat=2):
            product.product_expectation(x, y)
            mergeable += sum(len(u) == len(v) and u[-1][0] == v[0][0]
                             for u in x.words for v in y.words)
        assert len(pairs) == mergeable > 0, backend
    # criterion 07 ends 25,610 words through product_expectation, and no
    # pair of their words has equal lengths
    del pairs[:]
    report = family_freeness_report(cyclic_model(core_size=11, k=3),
                                    max_len=4, n_limit=2, i_values=(2, 3),
                                    kappas=(1,))
    assert report.words_checked == 27870 and pairs == []


# -- freeness and haar checks -------------------------------------------------

def test_same_face_twice_is_not_free():
    base2 = FiniteBase.uniform(("x", "y"))
    full = FiniteRelation.full(base2)
    flip = FMElement(full, {("x", "y"): QC(1), ("y", "x"): QC(1)})
    report = freeness_check(FMFace("M", full), [[flip], [flip]], max_len=2)
    assert not report.passed
    _, value = report.failures[0]
    assert value == FMElement.one(full).expectation().cast(value.relation) \
        or value.coeffs == {("x", "x"): QC(1), ("y", "y"): QC(1)}


def test_freeness_word_count_stops_at_a_huge_length():
    # one family has no alternating word at any length; two one-letter
    # families pass the bound after half a million lengths, not 10^18
    base2 = FiniteBase.uniform(("x", "y"))
    full = FiniteRelation.full(base2)
    flip = FMElement(full, {("x", "y"): QC(1), ("y", "x"): QC(1)})
    face = FMFace("M", full)
    report = freeness_check(face, [[flip]], max_len=10 ** 18)
    assert report.passed and report.checked == 0
    with pytest.raises(ValueError, match="^a freeness sweep to length 10+ "
                                         "has more than 1000000 words$"):
        freeness_check(face, [[flip], [flip]], max_len=10 ** 18)


def test_declared_free_product_faces_are_free():
    product = boundary_product(budget=16)
    ambient = CrossedFace("M", AB, None, budget=16)
    families = [
        [ambient.unitary(w("a")), ambient.unitary(w("a a")),
         ambient.element({w("a"): indicator("b")})],
        [ambient.unitary(w("b")),
         ambient.element({w("b'"): indicator("a")})],
    ]
    report = freeness_check(ambient, families, max_len=4)
    assert report.passed
    assert report.checked > 50


def test_engine_normal_form_is_free_by_construction():
    product = fm_product()
    ambient = MAmbient(product)
    families = [
        [product.embed("A", product.face("A").unit("x", "y"))],
        [product.embed("B", product.face("B").unit("y", "z"))],
    ]
    report = freeness_check(ambient, families, max_len=4)
    assert report.passed


def test_haar_check_boundary_generator():
    product = boundary_product()
    ambient = MAmbient(product)
    u = product.embed("A", product.face("A").unitary(w("a")))
    report = haar_check(ambient, u, max_k=4)
    assert report.passed


def test_haar_check_rejects_identity_and_periodic():
    base3 = FiniteBase.uniform(("x", "y", "z"))
    full3 = FiniteRelation.full(base3)
    ambient = FMFace("M", full3)
    cycle = FMElement(full3, {("y", "x"): QC(1), ("z", "y"): QC(1), ("x", "z"): QC(1)})
    assert haar_check(ambient, cycle, max_k=2).passed
    report = haar_check(ambient, cycle, max_k=3)
    assert report.failed_exponents == [-3, 3]
    bad = haar_check(ambient, FMElement.one(full3), max_k=1)
    assert bad.unitary_ok and bad.failed_exponents == [-1, 1]


def test_haar_check_demands_unitarity():
    base2 = FiniteBase.uniform(("x", "y"))
    full = FiniteRelation.full(base2)
    shift = FMElement.unit(full, "x", "y")  # partial isometry, not unitary
    report = haar_check(FMFace("M", full), shift, max_k=1)
    assert not report.unitary_ok
