"""Reduced words in a free group whose generators split into two blocks.

Generators are indexed 0..n-1; the first block_size of them form block 1 and
the rest form block 2.  A letter is a generator index with a sign, a word is
a tuple of letters with no cancelling adjacent pair.  Everything downstream
(cylinders, crossed products) indexes by these words, so reduction is eager:
parse and from_letters reduce; the ReducedWord constructor trusts its letters.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Letter:
    """A signed generator: sign +1 for the generator, -1 for its inverse."""

    index: int
    sign: int

    def inverse(self):
        return Letter(self.index, -self.sign)

    def cancels(self, other):
        return self.index == other.index and self.sign == -other.sign

    @property
    def sort_key(self):
        # positive letter sorts before its inverse, then by generator index
        return (self.index, 0 if self.sign == 1 else 1)


@dataclass(frozen=True)
class Alphabet:
    """Generator names split into two blocks; block 1 is names[:block_size]."""

    names: tuple[str, ...]
    block_size: int

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator")
        if not 1 <= self.block_size < len(self.names):
            raise ValueError("each block needs a generator")
        for name in self.names:
            if not (name and name[0].isalpha() and name.islower()):
                raise ValueError(f"generator name must be lowercase: {name!r}")
            if name.endswith("'"):
                raise ValueError(f"bad generator name: {name!r}")

    @property
    def size(self):
        return len(self.names)

    def block_sizes(self):
        return self.block_size, len(self.names) - self.block_size

    def block_of(self, letter: Letter) -> int:
        return 1 if letter.index < self.block_size else 2

    def block_indices(self, block: int):
        assert block in (1, 2)
        if block == 1:
            return range(self.block_size)
        return range(self.block_size, self.size)

    def letters(self, block=None):
        """All signed letters, positive before negative per generator."""
        indices = range(self.size) if block is None else self.block_indices(block)
        out = []
        for i in indices:
            out.append(Letter(i, 1))
            out.append(Letter(i, -1))
        return out

    def letter(self, name: str) -> Letter:
        base = name[:-1] if name.endswith("'") else name
        if base not in self.names:
            raise ValueError(f"unknown generator {base!r}")
        return Letter(self.names.index(base), -1 if name.endswith("'") else 1)

    def render_letter(self, letter: Letter) -> str:
        name = self.names[letter.index]
        return name if letter.sign == 1 else name + "'"


def _reduce(letters):
    stack = []
    for letter in letters:
        if stack and stack[-1].cancels(letter):
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


@dataclass(frozen=True)
class ReducedWord:
    alphabet: Alphabet
    letters: tuple[Letter, ...]

    @staticmethod
    def from_letters(alphabet, letters):
        return ReducedWord(alphabet, _reduce(letters))

    @staticmethod
    def identity(alphabet):
        return ReducedWord(alphabet, ())

    @staticmethod
    def parse(alphabet, text):
        """Parse whitespace-separated letter names; 'e' is the identity."""
        parts = text.split()
        if parts == ["e"]:
            return ReducedWord.identity(alphabet)
        return ReducedWord.from_letters(alphabet, [alphabet.letter(p) for p in parts])

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        if not isinstance(other, ReducedWord):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        return ReducedWord.from_letters(self.alphabet, self.letters + other.letters)

    def inverse(self):
        return ReducedWord(self.alphabet, tuple(a.inverse() for a in reversed(self.letters)))

    def is_identity(self):
        return not self.letters

    def starts_with(self, other) -> bool:
        """True when other is a prefix of self."""
        return self.letters[:len(other.letters)] == other.letters

    def block_membership(self):
        """'identity', 1, 2, or 'mixed' depending on which block the letters use."""
        blocks = {self.alphabet.block_of(a) for a in self.letters}
        if not blocks:
            return "identity"
        if len(blocks) == 1:
            return blocks.pop()
        return "mixed"

    def block_runs(self):
        """Split into maximal subwords whose letters stay in one block."""
        runs = []
        current = []
        current_block = None
        for a in self.letters:
            block = self.alphabet.block_of(a)
            if block != current_block and current:
                runs.append(ReducedWord(self.alphabet, tuple(current)))
                current = []
            current.append(a)
            current_block = block
        if current:
            runs.append(ReducedWord(self.alphabet, tuple(current)))
        return runs

    def extensions(self):
        """Letters that extend this word without cancellation, sorted."""
        out = [a for a in self.alphabet.letters()
               if not self.letters or not self.letters[-1].cancels(a)]
        out.sort(key=lambda a: a.sort_key)
        return out

    def render(self):
        if not self.letters:
            return "e"
        return " ".join(self.alphabet.render_letter(a) for a in self.letters)

    def __str__(self):
        return self.render()

    def sort_key(self):
        return tuple(a.sort_key for a in self.letters)


def count_sphere(alphabet: Alphabet, block: int, length: int):
    """Number of reduced words of the given length using only one block."""
    n_block = len(alphabet.block_indices(block))
    if length == 0:
        return 1
    return 2 * n_block * (2 * n_block - 1) ** (length - 1)


def sphere(alphabet: Alphabet, length: int, block=None):
    """All reduced words of exactly the given length, lexicographic order.

    With block set, only letters from that block are used.
    """
    letters = alphabet.letters(block)
    letters.sort(key=lambda a: a.sort_key)
    out = []

    def grow(prefix):
        if len(prefix) == length:
            out.append(ReducedWord(alphabet, tuple(prefix)))
            return
        for a in letters:
            if prefix and prefix[-1].cancels(a):
                continue
            prefix.append(a)
            grow(prefix)
            prefix.pop()

    grow([])
    return out


def ball(alphabet: Alphabet, radius: int, block=None):
    """All reduced words of length at most radius, shortest first."""
    out = []
    for m in range(radius + 1):
        out.extend(sphere(alphabet, m, block))
    return out
