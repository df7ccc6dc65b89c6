import itertools

import pytest
from hypothesis import given, strategies as st

from amalgam.words import (
    Alphabet, ReducedWord, ball, count_sphere, sphere,
)

AB = Alphabet(("a", "b"), 1)          # one generator per block
ABC = Alphabet(("a", "b", "c"), 1)    # blocks of size 1 and 2
ABCD = Alphabet(("a", "b", "c", "d"), 2)


def w(alphabet, text):
    return ReducedWord.parse(alphabet, text)


def brute_sphere(alphabet, length, block=None):
    """Oracle: filter all letter tuples for reducedness."""
    letters = alphabet.letters(block)
    out = []
    for combo in itertools.product(letters, repeat=length):
        if any(x == -y for x, y in zip(combo, combo[1:])):
            continue
        out.append(ReducedWord(alphabet, combo))
    return out


def test_reduce_examples():
    assert w(AB, "a b b' a'").is_identity()
    assert w(AB, "a b b'") == w(AB, "a")
    assert w(AB, "a a' a") == w(AB, "a")
    assert str(w(AB, "a b' a")) == "a b' a"
    assert str(w(AB, "e")) == "e"


def test_multiply_cancels_across_the_seam():
    u = w(AB, "a b")
    v = w(AB, "b' a")
    assert str(u * v) == "a a"
    assert (u * u.inverse()).is_identity()
    assert (u.inverse() * u).is_identity()


def test_alphabet_mismatch_rejected():
    try:
        w(AB, "a") * w(ABC, "a")
    except ValueError as err:
        assert "alphabet" in str(err)
    else:
        assert False, "expected a mismatch error"


def test_block_indices_rejects_a_third_block():
    assert list(ABC.block_indices(2)) == [1, 2]
    with pytest.raises(ValueError, match="block must be 1 or 2"):
        ABC.block_indices(3)


@pytest.mark.parametrize("names, block_size, message", [
    (("a", "a"), 1, "duplicate generator"),
    (("a", "b"), 0, "each block needs a generator"),
    (("a", "b"), 2, "each block needs a generator"),
    (("a", "B"), 1, "generator name must be lowercase: 'B'"),
    (("a", "1b"), 1, "generator name must be lowercase: '1b'"),
    (("a", "b'"), 1, "bad generator name: \"b'\""),
    (("e", "b"), 1, "generator name e is reserved for the identity"),
], ids=["duplicate", "empty-block-1", "empty-block-2", "uppercase",
        "digit-first", "apostrophe", "reserved-e"])
def test_alphabet_checks_its_names(names, block_size, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        Alphabet(names, block_size)


def test_in_block():
    assert w(ABC, "e").in_block(1) and w(ABC, "e").in_block(2)
    assert w(ABC, "a a").in_block(1) and not w(ABC, "a a").in_block(2)
    assert w(ABC, "b c'").in_block(2) and not w(ABC, "b c'").in_block(1)
    assert not w(ABC, "a b").in_block(1) and not w(ABC, "a b").in_block(2)


def test_extensions_by_hand():
    a, b = AB.letter("a"), AB.letter("b")
    assert AB.extensions() == [a, -a, b, -b]
    assert AB.extensions(a) == [a, b, -b]
    assert AB.extensions(-a) == [-a, b, -b]
    assert AB.extensions(0, 1) == [a, -a]
    assert AB.extensions(a, 1) == [a]
    assert AB.extensions(-a, 1) == [-a]
    assert AB.extensions(a, 2) == [b, -b]  # a cancels nothing in block 2
    a, b, c = (ABC.letter(name) for name in "abc")
    assert ABC.extensions(-c) == [a, -a, b, -b, -c]
    assert ABC.extensions(b, 2) == [b, c, -c]


letters_st = st.lists(
    st.builds(lambda i, s: s * (i + 1), st.integers(0, 3), st.sampled_from((1, -1))),
    max_size=12)


@given(letters_st)
def test_reduction_is_idempotent(letters):
    word = ReducedWord.from_letters(ABCD, letters)
    assert ReducedWord.from_letters(ABCD, word.letters) == word


def reduced(word):
    pairs = zip(word.letters, word.letters[1:])
    return not any(a == -b for a, b in pairs) and \
        all(1 <= abs(a) <= word.alphabet.size for a in word.letters)


@given(letters_st, letters_st)
def test_results_are_reduced(xs, ys):
    # the ReducedWord constructor trusts its letters: every word the
    # public operations build must already be reduced
    u = ReducedWord.from_letters(ABCD, xs)
    v = ReducedWord.from_letters(ABCD, ys)
    for word in (u, u * v, v * u, u.inverse(), u * u.inverse()):
        assert reduced(word)


@given(letters_st, letters_st, letters_st)
def test_multiplication_associative(xs, ys, zs):
    u = ReducedWord.from_letters(ABCD, xs)
    v = ReducedWord.from_letters(ABCD, ys)
    t = ReducedWord.from_letters(ABCD, zs)
    assert (u * v) * t == u * (v * t)


@given(letters_st)
def test_inverse_law(letters):
    u = ReducedWord.from_letters(ABCD, letters)
    assert (u * u.inverse()).is_identity()
    assert u.inverse().inverse() == u


@given(letters_st, letters_st)
def test_length_subadditive_same_parity(xs, ys):
    u = ReducedWord.from_letters(ABCD, xs)
    v = ReducedWord.from_letters(ABCD, ys)
    p = u * v
    assert len(p) <= len(u) + len(v)
    assert (len(p) - len(u) - len(v)) % 2 == 0


def test_sphere_counts_match_enumeration():
    for alphabet in (AB, ABC, ABCD):
        for block in (None, 1, 2):
            for m in range(5):
                found = sphere(alphabet, m, block)
                oracle = brute_sphere(alphabet, m, block)
                assert len(found) == len(oracle)
                assert set(found) == set(oracle)
                if block is not None:
                    assert count_sphere(alphabet, block, m) == len(oracle)


def test_sphere_count_formula_values():
    # 2n(2n-1)^(m-1) on the block; frozen spot values
    assert count_sphere(ABC, 2, 1) == 4
    assert count_sphere(ABC, 2, 3) == 4 * 9
    assert count_sphere(AB, 1, 6) == 2


def test_sphere_order_is_lexicographic():
    words = sphere(AB, 2)
    assert [str(x) for x in words[:4]] == ["a a", "a b", "a b'", "a' a'"]
    keys = [x.sort_key() for x in words]
    assert keys == sorted(keys)


def test_ball_sizes():
    assert len(ball(AB, 3)) == 1 + 4 + 12 + 36
    assert len(ball(ABC, 2, block=2)) == 1 + 4 + 12


def test_parse_render_round_trip():
    for text in ("e", "a", "b'", "a b' a a"):
        assert str(w(ABCD, text)) == text


def test_letter_encoding_boundary():
    # letter, render_letter and block_of are the only maps from a letter to
    # its name and block; check them on every letter of each alphabet
    for alphabet in (AB, ABC, ABCD):
        block1 = alphabet.names[:alphabet.block_size]
        for a in alphabet.letters():
            name = alphabet.render_letter(a)
            assert alphabet.letter(name) == a
            assert (alphabet.block_of(a) == 1) == (name.rstrip("'") in block1)
        assert alphabet.letters(1) + alphabet.letters(2) == alphabet.letters()


# -- the word layer's contract: extension table, equality and hash, product

alphabets_st = st.integers(2, 4).flatmap(lambda n: st.builds(
    Alphabet, st.just(tuple("abcd"[:n])), st.integers(1, n - 1)))


def words_st(alphabet, max_size=8):
    return st.lists(st.sampled_from(alphabet.letters()), max_size=max_size).map(
        lambda letters: ReducedWord.from_letters(alphabet, letters))


@given(alphabets_st)
def test_extension_table_matches_the_definition(alphabet):
    # brute force from the letter encoding alone: generator i is letter
    # i + 1, in block 1 when i < block_size; a follows last unless a == -last
    n, k = alphabet.size, alphabet.block_size
    every = [s * (i + 1) for i in range(n) for s in (1, -1)]
    blocks = {None: every, 1: [a for a in every if abs(a) <= k],
              2: [a for a in every if abs(a) > k]}
    want = {(last, block): [a for a in letters if a != -last]
            for last in [0] + every for block, letters in blocks.items()}
    assert alphabet.extension_table == want
    for (last, block), letters in want.items():
        assert alphabet.extensions(last, block) == letters


@given(st.data())
def test_words_compare_and_hash_by_letters(data):
    alphabet = data.draw(alphabets_st)
    word = data.draw(words_st(alphabet))
    twin = Alphabet(alphabet.names, alphabet.block_size)
    same = ReducedWord(twin, word.letters)
    assert twin is not alphabet and same == word and word == same
    assert hash(word) == hash(same) == hash(word.letters)
    assert {word: 1}[same] == 1
    # the same letters over another alphabet name another word
    wider = Alphabet(alphabet.names + ("f",), alphabet.block_size)
    assert ReducedWord(wider, word.letters) != word
    assert word != word.letters and word.letters != word


@given(st.data())
def test_product_cancels_only_at_the_seam(data):
    alphabet = data.draw(alphabets_st)
    u, v = data.draw(words_st(alphabet)), data.draw(words_st(alphabet))
    # cut starts with the first j letters of u's inverse, so up to all of u
    # cancels at the seam
    j = data.draw(st.integers(0, len(u)))
    cut = ReducedWord.from_letters(alphabet, u.inverse().letters[:j] + v.letters)
    for g, h in ((u, v), (u, cut), (u, u.inverse()), (cut, cut.inverse())):
        assert g * h == ReducedWord.from_letters(alphabet, g.letters + h.letters)
    assert (u * u.inverse()).letters == ()
