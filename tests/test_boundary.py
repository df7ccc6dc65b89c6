from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from amalgam import battery
from amalgam.boundary import (
    CylinderUnion, act, block_ball_mass, complement_decomposition,
    complement_series, complement_series_tail, cylinder_measure, point_mass,
    refine, rn_exponent, rn_ratio, splice,
)
from amalgam.words import Alphabet, ReducedWord, ball, sphere

AB = Alphabet(("a", "b"), 1)
ABC = Alphabet(("a", "b", "c"), 1)
WHOLE = ReducedWord.identity(AB)  # the prefix of the whole space


def w(alphabet, text):
    return ReducedWord.parse(alphabet, text)


def test_measure_values():
    assert cylinder_measure(WHOLE) == 1
    assert cylinder_measure(w(AB, "a")) == Fraction(1, 4)
    assert cylinder_measure(w(AB, "a b")) == Fraction(1, 12)
    assert cylinder_measure(w(ABC, "b a' c")) == Fraction(1, 150)


def test_refine_example():
    pieces = refine(w(AB, "a"), 2)
    assert {str(c) for c in pieces} == {"a a", "a b", "a b'"}


def test_refinement_sums_reproduce_parent():
    for alphabet in (AB, ABC):
        for parent in ball(alphabet, 2):
            for depth in (len(parent) + 1, len(parent) + 2):
                total = sum(cylinder_measure(c) for c in refine(parent, depth))
                assert total == cylinder_measure(parent)


def test_refine_rejects_coarser_depth():
    with pytest.raises(ValueError, match="cannot refine to a coarser depth"):
        refine(w(AB, "a b"), 1)


def test_act_single_cylinder_cases():
    image = act(w(AB, "a'"), w(AB, "a b"))
    assert [str(c) for c in image] == ["b"]
    image = act(w(AB, "a"), w(AB, "b"))
    assert [str(c) for c in image] == ["a b"]


def test_act_splits_on_full_cancellation():
    image = act(w(AB, "a"), w(AB, "a'"))
    assert {str(c) for c in image} == {"a'", "b", "b'"}
    assert image.measure() == Fraction(3, 4)


def test_act_identity_and_whole_space():
    c = w(AB, "a b")
    assert act(ReducedWord.identity(AB), c) == CylinderUnion((c,))
    assert act(w(AB, "b a"), WHOLE) == CylinderUnion((WHOLE,))


def _merge_siblings(prefixes):
    """Replace every complete family of sibling cylinders by its parent."""
    words = set(prefixes)
    changed = True
    while changed:
        changed = False
        by_parent = defaultdict(set)
        for w in words:
            if len(w) >= 1:
                by_parent[ReducedWord(w.alphabet, w.letters[:-1])].add(w.letters[-1])
        for parent, present in by_parent.items():
            if parent in words:
                continue
            if present == set(parent.extensions()):
                for a in present:
                    words.discard(ReducedWord(parent.alphabet, parent.letters + (a,)))
                words.add(parent)
                changed = True
    return sorted(words, key=lambda w: (len(w), w.sort_key()))


def act_by_refinement(gamma, c):
    """Reference route for act: refine c until cancellation cannot consume a
    whole piece, translate each piece, merge complete sibling families."""
    depth = max(len(c), len(gamma) + 1)
    mapped = [gamma * piece for piece in refine(c, depth)]
    return CylinderUnion(tuple(_merge_siblings(mapped)))


def test_act_matches_refinement():
    # tuple equality: the closed form must also keep the pieces' order
    cases = [(AB, 3), (ABC, 2), (Alphabet(("a", "b", "c"), 2), 2)]
    for alphabet, radius in cases:
        words = ball(alphabet, radius)
        for gamma in words:
            for c in words:
                assert act(gamma, c) == act_by_refinement(gamma, c), (gamma, c)


def oracle_act_membership(gamma, c, omega):
    """Point-level oracle: omega is in gamma.c iff gamma^-1 omega is in c."""
    pulled = gamma.inverse() * omega
    assert len(pulled) > len(c)  # omega long enough to decide membership
    return pulled.starts_with(c)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_act_matches_point_oracle(data):
    gammas = ball(AB, 2)
    gamma = data.draw(st.sampled_from(gammas))
    c = data.draw(st.sampled_from(ball(AB, 2)))
    image = act(gamma, c)
    for omega in sphere(AB, 5):
        in_image = any(omega.starts_with(piece) for piece in image)
        assert in_image == oracle_act_membership(gamma, c, omega)


def test_act_composes():
    for g1 in ball(AB, 2):
        for g2 in ball(AB, 1):
            for c in refine(WHOLE, 4):
                once = act(g2 * g1, c)
                twice_pieces = []
                for piece in act(g1, c):
                    twice_pieces.extend(act(g2, piece).cylinders)
                # compare as point sets at depth 7 (deep enough for both)
                flat_once = {q for p in once for q in refine(p, 7)}
                flat_twice = {q for p in twice_pieces for q in refine(p, 7)}
                assert flat_once == flat_twice


def test_rn_exponent_matches_measure_ratio():
    for gamma in ball(AB, 2):
        for c in sphere(AB, 4):
            image = act(gamma, c)
            assert len(image) == 1
            k = rn_exponent(gamma, c)
            assert image.measure() == Fraction(3) ** k * cylinder_measure(c)
            assert rn_ratio(gamma, c) == Fraction(3) ** k


def test_rn_exponent_realizes_plus_and_minus_one():
    assert rn_exponent(w(AB, "a"), w(AB, "a' b a")) == 1
    assert rn_exponent(w(AB, "a"), w(AB, "b a b")) == -1


def rn_exponent_by_product(gamma, c):
    """Reference route for rn_exponent: the depth the reduced product
    gamma . c loses against c."""
    return len(c) - len(gamma * c)


def _draw_extension(data, word, length):
    """word extended by random letters to the given length, reduced."""
    while len(word) < length:
        a = data.draw(st.sampled_from(word.extensions()))
        word = ReducedWord(word.alphabet, word.letters + (a,))
    return word


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rn_exponent_matches_product_oracle(data):
    alphabet = data.draw(st.sampled_from((AB, ABC)))
    gamma = _draw_extension(data, ReducedWord.identity(alphabet),
                            data.draw(st.integers(0, 4)))
    # start c with the inverse of a tail of gamma, so every amount of
    # cancellation turns up
    tail = data.draw(st.integers(0, len(gamma)))
    head = ReducedWord(alphabet, gamma.letters[len(gamma) - tail:]).inverse()
    c = _draw_extension(data, head, len(gamma) + data.draw(st.integers(1, 4)))
    exponent = rn_exponent(gamma, c)
    assert exponent == rn_exponent_by_product(gamma, c)
    k = (exponent + len(gamma)) // 2  # letters of c that gamma cancels
    (piece,) = act(gamma, c)
    assert len(piece) == len(c) + len(gamma) - 2 * k


def test_rn_requires_deep_cylinder():
    with pytest.raises(ValueError):
        rn_exponent(w(AB, "a b"), w(AB, "a"))


def test_rn_cocycle_identity():
    cylinders = sphere(AB, 5)
    small = ball(AB, 2)
    for g1 in small:
        for g2 in small:
            for c in cylinders[:40]:
                image = act(g1, c)
                assert len(image) == 1
                lhs = rn_exponent(g2 * g1, c)
                rhs = rn_exponent(g2, image.cylinders[0]) + rn_exponent(g1, c)
                assert lhs == rhs


def test_complement_decomposition_structure():
    union = complement_decomposition(AB, 1, 2)
    assert len(union) == 10
    assert union.measure() == complement_series(AB, 1, 2)


def test_complement_series_frozen_values():
    assert complement_series(AB, 1, 1) == Fraction(5, 6)
    assert complement_series(AB, 1, 2) == Fraction(17, 18)
    for m in range(9):
        assert 1 - complement_series(AB, 1, m) == Fraction(1, 2) * Fraction(1, 3) ** m
        assert complement_series_tail(AB, 1, m) == Fraction(1, 2) * Fraction(1, 3) ** m


def test_complement_series_matches_decomposition_both_blocks():
    for alphabet in (AB, ABC):
        for block in (1, 2):
            for m in range(4):
                union = complement_decomposition(alphabet, block, m)
                assert union.measure() == complement_series(alphabet, block, m)
                assert complement_series(alphabet, block, m) \
                    + complement_series_tail(alphabet, block, m) == 1


def test_splice_and_point_mass():
    c = splice(1, w(AB, "a"), w(AB, "b"))
    assert str(c) == "a b"
    assert cylinder_measure(c) == point_mass(AB, 1, w(AB, "a")) * cylinder_measure(w(AB, "b"))
    same = splice(1, ReducedWord.identity(AB), w(AB, "b a"))
    assert same == w(AB, "b a")


def test_splice_rejects_bad_inputs():
    with pytest.raises(ValueError):
        splice(1, w(AB, "b"), w(AB, "b"))       # word from the wrong block
    with pytest.raises(ValueError):
        splice(1, w(AB, "a"), w(AB, "a b"))     # cylinder starts in block 1
    with pytest.raises(ValueError):
        splice(1, w(AB, "a"), WHOLE)


def test_splice_factorizes_measure_small_sweep():
    # criterion 03 at the radius suite67 uses on the default alphabet
    report = battery.splice_factorization(AB, 3)
    assert report.passed and report.checked == 364


def test_ratio_powers_checks_rn_ratio(monkeypatch):
    # criterion 04 measures the image of each cylinder, so a derivative
    # with the wrong exponent fails it on every (word, cylinder) pair
    assert battery.ratio_powers(AB, 3, 1).passed
    monkeypatch.setattr(battery, "rn_ratio", lambda gamma, cyl: Fraction(
        2 * AB.size - 1) ** (rn_exponent(gamma, cyl) + 1))
    report = battery.ratio_powers(AB, 3, 1)
    assert len(report.failures) == len(ball(AB, 2)[1:]) * len(sphere(AB, 3))


def test_block_ball_mass_converges_for_small_block():
    # block of size 1 inside n=2: ball mass tends to 1 + 2*sum 3^-m = 2
    assert block_ball_mass(AB, 1, 0) == 1
    assert block_ball_mass(AB, 1, 1) == Fraction(5, 3)
    assert block_ball_mass(AB, 1, 8) < 2
