"""Shift-space model of the free group boundary and its translation action.

A boundary point is an infinite reduced word; the cylinder O(w) is the set of
points with the finite reduced prefix w, and every function here names a
cylinder by that prefix, a ReducedWord.  The probability measure gives the
whole space O(e) mass 1 and a depth-l cylinder mass (1/2n)(1/(2n-1))^(l-1),
which is the unique measure splitting mass evenly among the extensions at
every depth.  Left translation by a group element is measure-quasi-invariant
with rational Radon-Nikodym ratios that are integer powers of 2n-1.  Both the
image and the ratio follow from k, the number of letters gamma cancels from
the front of w.  The image of O(w) under gamma is the whole space when w is
empty, the single cylinder of gamma without its last k letters followed by w
without its first k when k < |w|, and otherwise, gamma ending in w^-1, the
complement of O(p) for p gamma without its last |w| - 1 letters.  On O(w)
with |w| > |gamma| the measure moves by (2n-1)^(2k - |gamma|).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .words import (
    Alphabet, ReducedWord, Value, ball, count_sphere, seam_cancel,
)


class CylinderUnion(Value):
    """Disjoint union of cylinders, named by prefixes none of which extends
    another; its builders, act and complement_decomposition, make them so."""

    _fields = ("cylinders",)

    def __init__(self, cylinders):  # a tuple of ReducedWords
        object.__setattr__(self, "cylinders", cylinders)

    def measure(self):
        return sum(map(cylinder_measure, self.cylinders), Fraction(0))

    def __len__(self):
        return len(self.cylinders)

    def __iter__(self):
        return iter(self.cylinders)


def cylinder_measure(prefix: ReducedWord) -> Fraction:
    return _depth_measure(prefix.alphabet.size, len(prefix))


@lru_cache(maxsize=256)
def _depth_measure(size, depth):
    """Measure of a cylinder of the given depth over size generators."""
    if depth == 0:
        return Fraction(1)
    n2 = 2 * size
    return Fraction(1, n2 * (n2 - 1) ** (depth - 1))


def refine(prefix: ReducedWord, depth: int):
    """Prefixes of the partition of O(prefix) into cylinders of the given
    depth."""
    if depth < len(prefix):
        raise ValueError("cannot refine to a coarser depth")
    out = [prefix]
    for _ in range(depth - len(prefix)):
        out = [ReducedWord(w.alphabet, w.letters + (a,))
               for w in out for a in w.extensions()]
    return out


def _cancelled(gamma: ReducedWord, prefix: ReducedWord) -> int:
    """Number of letters gamma cancels from the front of prefix."""
    if gamma.alphabet is not prefix.alphabet and gamma.alphabet != prefix.alphabet:
        raise ValueError("alphabet mismatch")
    return seam_cancel(gamma.letters, prefix.letters)


def act(gamma: ReducedWord, prefix: ReducedWord) -> CylinderUnion:
    """Image of O(prefix) under left translation by gamma."""
    k = _cancelled(gamma, prefix)
    g, w = gamma.letters, prefix.letters
    if not w:
        return CylinderUnion((prefix,))
    if k < len(w):
        return CylinderUnion((ReducedWord(prefix.alphabet, g[:len(g) - k] + w[k:]),))
    # gamma ends in w^-1: the image is the complement of O(p)
    p = g[:len(g) - len(w) + 1]
    table = prefix.alphabet.extension_table
    return CylinderUnion(tuple(
        ReducedWord(prefix.alphabet, p[:j] + (a,))
        for j in range(len(p))
        for a in table[p[j - 1] if j else 0, None]
        if a != p[j]))


def rn_exponent(gamma: ReducedWord, prefix: ReducedWord) -> int:
    """Exponent k with measure(gamma . O(prefix)) = (2n-1)^k measure(O(prefix)).

    Defined on cylinders deeper than the acting word, where the image is a
    single cylinder; gamma cancelling c letters makes it 2c - |gamma|.
    """
    if len(prefix) <= len(gamma):
        raise ValueError("cylinder must be deeper than the acting word")
    return 2 * _cancelled(gamma, prefix) - len(gamma)


def rn_ratio(gamma: ReducedWord, prefix: ReducedWord) -> Fraction:
    return _ratio_power(prefix.alphabet.size, rn_exponent(gamma, prefix))


@lru_cache(maxsize=256)
def _ratio_power(size, k):
    """(2n-1)^k for n = size generators."""
    return Fraction(2 * size - 1) ** k


def complement_decomposition(alphabet: Alphabet, block: int, max_len: int) -> CylinderUnion:
    """Cylinders O(gamma x): gamma a block word of length <= max_len, x a
    letter of the other block.  These exhaust, as max_len grows, the set of
    boundary points that eventually leave the block subgroup.
    """
    other = 2 if block == 1 else 1
    out = []
    for gamma in ball(alphabet, max_len, block):
        for x in alphabet.letters(other):
            out.append(ReducedWord(alphabet, gamma.letters + (x,)))
    return CylinderUnion(tuple(out))


def complement_series(alphabet: Alphabet, block: int, terms: int) -> Fraction:
    """Exact partial sum of the measures in complement_decomposition."""
    n_blk = len(alphabet.block_indices(block))
    n_oth = alphabet.size - n_blk
    n = alphabet.size
    ratio = Fraction(2 * n_blk - 1, 2 * n - 1)
    partial = Fraction(n_oth, n)
    coeff = Fraction(2 * n_blk * n_oth, n * (2 * n - 1))
    for m in range(1, terms + 1):
        partial += coeff * ratio ** (m - 1)
    return partial


def complement_series_tail(alphabet: Alphabet, block: int, terms: int) -> Fraction:
    """Closed form for 1 - complement_series; a geometric tail."""
    n_blk = len(alphabet.block_indices(block))
    ratio = Fraction(2 * n_blk - 1, 2 * alphabet.size - 1)
    return Fraction(n_blk, alphabet.size) * ratio ** terms


def splice(block: int, gamma: ReducedWord, prefix: ReducedWord) -> ReducedWord:
    """Concatenate a block word onto a cylinder prefix that starts in the
    other block.

    No cancellation can occur, so the result is the prefix of the plain
    concatenation; splicing the identity returns the prefix unchanged.
    """
    if not gamma.in_block(block):
        raise ValueError(f"word {gamma} does not lie in block {block}")
    if not prefix.letters:
        raise ValueError("cylinder must avoid the block subgroup limit set")
    if prefix.alphabet.block_of(prefix.letters[0]) == block:
        raise ValueError(f"cylinder O({prefix}) does not start in the other block")
    return ReducedWord(prefix.alphabet, gamma.letters + prefix.letters)


def point_mass(alphabet: Alphabet, block: int, gamma: ReducedWord) -> Fraction:
    """Weight (1/(2n-1))^len on a block word; the factor measure for which
    splicing becomes measure-preserving against the cylinder measure.
    """
    if not gamma.in_block(block):
        raise ValueError(f"word {gamma} does not lie in block {block}")
    return Fraction(1, 2 * alphabet.size - 1) ** len(gamma)


def block_ball_mass(alphabet: Alphabet, block: int, radius: int) -> Fraction:
    """Total point_mass of the block ball; bounded but not a probability."""
    total = Fraction(0)
    for m in range(radius + 1):
        total += count_sphere(alphabet, block, m) * Fraction(1, 2 * alphabet.size - 1) ** m
    return total
