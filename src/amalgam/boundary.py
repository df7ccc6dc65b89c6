"""Shift-space model of the free group boundary and its translation action.

A boundary point is an infinite reduced word; a cylinder is the set of points
with a given finite reduced prefix.  The probability measure gives the whole
space mass 1 and a depth-l cylinder mass (1/2n)(1/(2n-1))^(l-1), which is the
unique measure splitting mass evenly among the extensions at every depth.
Left translation by a group element is measure-quasi-invariant with rational
Radon-Nikodym ratios that are integer powers of 2n-1.  The image of O(w)
under gamma has a closed form: the whole space when w is empty, the single
cylinder of the reduced product when gamma cancels less than all of w, and
otherwise, gamma ending in w^-1, the complement of O(p) for p gamma without
its last |w| - 1 letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .words import Alphabet, ReducedWord, ball, count_sphere


@dataclass(frozen=True)
class Cylinder:
    prefix: ReducedWord

    @staticmethod
    def whole_space(alphabet):
        return Cylinder(ReducedWord.identity(alphabet))

    @property
    def alphabet(self):
        return self.prefix.alphabet

    def depth(self):
        return len(self.prefix)

    def contains(self, other) -> bool:
        return other.prefix.starts_with(self.prefix)

    def render(self):
        return f"O({self.prefix})"

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class CylinderUnion:
    """Disjoint union of cylinders: no prefix extends another."""

    cylinders: tuple[Cylinder, ...]

    def __post_init__(self):
        for i, c in enumerate(self.cylinders):
            for d in self.cylinders[i + 1:]:
                assert not c.contains(d) and not d.contains(c), \
                    f"nested cylinders {c} and {d}"

    def measure(self):
        return sum((cylinder_measure(c) for c in self.cylinders), Fraction(0))

    def __len__(self):
        return len(self.cylinders)

    def __iter__(self):
        return iter(self.cylinders)

    def __str__(self):
        return " + ".join(str(c) for c in self.cylinders)


def cylinder_measure(c: Cylinder) -> Fraction:
    n2 = 2 * c.alphabet.size
    if c.depth() == 0:
        return Fraction(1)
    return Fraction(1, n2) * Fraction(1, n2 - 1) ** (c.depth() - 1)


def refine(c: Cylinder, depth: int):
    """Partition of c into all cylinders of the given depth."""
    assert depth >= c.depth(), "cannot refine to a coarser depth"
    out = [c.prefix]
    for _ in range(depth - c.depth()):
        out = [ReducedWord(w.alphabet, w.letters + (a,))
               for w in out for a in w.extensions()]
    return [Cylinder(w) for w in out]


def act(gamma: ReducedWord, c: Cylinder) -> CylinderUnion:
    """Image of the cylinder under left translation by gamma."""
    if gamma.alphabet != c.alphabet:
        raise ValueError("alphabet mismatch")
    g, w = gamma.letters, c.prefix.letters
    if not w:
        return CylinderUnion((c,))
    k = 0
    while k < min(len(g), len(w)) and g[-1 - k] == -w[k]:
        k += 1
    if k < len(w):
        return CylinderUnion((Cylinder(ReducedWord(c.alphabet, g[:len(g) - k] + w[k:])),))
    # gamma ends in w^-1: the image is the complement of O(p)
    p = g[:len(g) - len(w) + 1]
    return CylinderUnion(tuple(
        Cylinder(ReducedWord(c.alphabet, p[:j] + (a,)))
        for j in range(len(p))
        for a in ReducedWord(c.alphabet, p[:j]).extensions() if a != p[j]))


def rn_exponent(gamma: ReducedWord, c: Cylinder) -> int:
    """Exponent k with measure(gamma . c) = (2n-1)^k * measure(c).

    Defined on cylinders deeper than the acting word, where the image is a
    single cylinder.
    """
    if c.depth() <= len(gamma):
        raise ValueError("cylinder must be deeper than the acting word")
    return c.depth() - len(gamma * c.prefix)


def rn_ratio(gamma: ReducedWord, c: Cylinder) -> Fraction:
    return Fraction(2 * c.alphabet.size - 1) ** rn_exponent(gamma, c)


def complement_decomposition(alphabet: Alphabet, block: int, max_len: int) -> CylinderUnion:
    """Cylinders O(gamma x): gamma a block word of length <= max_len, x a
    letter of the other block.  These exhaust, as max_len grows, the set of
    boundary points that eventually leave the block subgroup.
    """
    other = 2 if block == 1 else 1
    out = []
    for gamma in ball(alphabet, max_len, block):
        for x in alphabet.letters(other):
            out.append(Cylinder(ReducedWord(alphabet, gamma.letters + (x,))))
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


def splice(block: int, gamma: ReducedWord, c: Cylinder) -> Cylinder:
    """Concatenate a block word onto a cylinder that starts in the other block.

    No cancellation can occur, so the result is the cylinder of the plain
    concatenation; splicing the identity returns the cylinder unchanged.
    """
    if gamma.block_membership() not in ("identity", block):
        raise ValueError(f"word {gamma} does not lie in block {block}")
    if c.depth() == 0:
        raise ValueError("cylinder must avoid the block subgroup limit set")
    first = c.prefix.letters[0]
    if c.alphabet.block_of(first) == block:
        raise ValueError(f"cylinder {c} does not start in the other block")
    return Cylinder(ReducedWord(c.alphabet, gamma.letters + c.prefix.letters))


def point_mass(alphabet: Alphabet, block: int, gamma: ReducedWord) -> Fraction:
    """Weight (1/(2n-1))^len on a block word; the factor measure for which
    splicing becomes measure-preserving against the cylinder measure.
    """
    if gamma.block_membership() not in ("identity", block):
        raise ValueError(f"word {gamma} does not lie in block {block}")
    return Fraction(1, 2 * alphabet.size - 1) ** len(gamma)


def block_ball_mass(alphabet: Alphabet, block: int, radius: int) -> Fraction:
    """Total point_mass of the block ball; bounded but not a probability."""
    total = Fraction(0)
    for m in range(radius + 1):
        total += count_sphere(alphabet, block, m) * Fraction(1, 2 * alphabet.size - 1) ** m
    return total
