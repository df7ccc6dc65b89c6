"""Reduced words in a free group whose generators split into two blocks.

Generators are indexed 0..n-1; the first block_size of them form block 1 and
the rest form block 2.  A letter is a nonzero int: +(i+1) for generator i and
-(i+1) for its inverse, so a letter's inverse is its negation and a cancels b
exactly when a == -b.  Only Alphabet maps a letter to its index, name or block,
and only its extension table says which letters may follow a letter.
A word is a tuple of letters with no cancelling adjacent pair.  Everything
downstream (cylinders, crossed products) indexes by these words, so reduction
is eager: parse and from_letters reduce; the ReducedWord constructor trusts
its letters, and a product of two reduced words cancels only at the seam.
Words compare and hash by their letters; the alphabet only breaks ties.
Value, the base of the package's frozen records, is a plain class, so that
importing the package generates no code.
"""

from __future__ import annotations

_set = object.__setattr__  # how a constructor sets a field of a Value


class Value:
    """Frozen record named by its _fields: the default constructor takes
    them in order, and a record compares, hashes and prints by them.  Two
    records are equal when of one class with equal fields.  Assigning or
    deleting an attribute raises AttributeError."""

    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s takes %r" % (type(self).__name__, self._fields))
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot assign to field %r" % name)


class Alphabet(Value):
    """Generator names split into two blocks; block 1 is names[:block_size]."""

    _fields = ("names", "block_size")

    def __init__(self, names, block_size):
        super().__init__(names, block_size)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator")
        if not 1 <= self.block_size < len(self.names):
            raise ValueError("each block needs a generator")
        for name in self.names:
            if not (name and name[0].isalpha() and name.islower()):
                raise ValueError(f"generator name must be lowercase: {name!r}")
            if name.endswith("'"):
                raise ValueError(f"bad generator name: {name!r}")
        if "e" in self.names:
            raise ValueError("generator name e is reserved for the identity")
        # not a field: (last, block) -> extensions(last, block), for last 0 or
        # any letter and block None, 1 or 2; read on every trie step and act
        _set(self, "extension_table", {
            (last, block): [a for a in self.letters(block) if a != -last]
            for last in (0, *self.letters()) for block in (None, 1, 2)})

    @property
    def size(self):
        return len(self.names)

    def block_sizes(self):
        return self.block_size, len(self.names) - self.block_size

    def block_of(self, letter: int) -> int:
        return 1 if abs(letter) <= self.block_size else 2

    def block_indices(self, block: int):
        if block not in (1, 2):
            raise ValueError(f"block must be 1 or 2, not {block!r}")
        if block == 1:
            return range(self.block_size)
        return range(self.block_size, self.size)

    def letters(self, block=None):
        """All letters, by generator index, each generator before its inverse."""
        indices = range(self.size) if block is None else self.block_indices(block)
        return [sign * (i + 1) for i in indices for sign in (1, -1)]

    def extensions(self, last=0, block=None):
        """Letters of the block that may follow last without cancelling it,
        in letters() order; last 0 is no letter.  The list is shared: do
        not change it."""
        return self.extension_table[last, block]

    def letter(self, name: str) -> int:
        base = name[:-1] if name.endswith("'") else name
        if base not in self.names:
            raise ValueError(f"unknown generator {base!r}")
        i = self.names.index(base) + 1
        return -i if name.endswith("'") else i

    def render_letter(self, letter: int) -> str:
        name = self.names[abs(letter) - 1]
        return name if letter > 0 else name + "'"


def seam_cancel(g, h):
    """Number of letters at the end of the reduced g that cancel the start
    of the reduced h."""
    k, n = 0, min(len(g), len(h))
    while k < n and g[-1 - k] == -h[k]:
        k += 1
    return k


def _reduce(letters):
    stack = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


class ReducedWord(Value):
    _fields = ("alphabet", "letters")

    def __init__(self, alphabet, letters):
        _set(self, "alphabet", alphabet)
        _set(self, "letters", letters)

    def __eq__(self, other):
        if not isinstance(other, ReducedWord):
            return NotImplemented
        return self.letters == other.letters and (
            self.alphabet is other.alphabet or self.alphabet == other.alphabet)

    def __hash__(self):
        return hash(self.letters)

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
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        g, h = self.letters, other.letters
        k = seam_cancel(g, h)
        return ReducedWord(self.alphabet, g[:len(g) - k] + h[k:])

    def inverse(self):
        return ReducedWord(self.alphabet, tuple(-a for a in reversed(self.letters)))

    def is_identity(self):
        return not self.letters

    def starts_with(self, other) -> bool:
        """True when other is a prefix of self."""
        return self.letters[:len(other.letters)] == other.letters

    def in_block(self, block) -> bool:
        """True when every letter lies in the block; the identity lies in both."""
        return all(self.alphabet.block_of(a) == block for a in self.letters)

    def extensions(self):
        """Letters that extend this word without cancellation."""
        return self.alphabet.extensions(self.letters[-1] if self.letters else 0)

    def render(self):
        if not self.letters:
            return "e"
        return " ".join(self.alphabet.render_letter(a) for a in self.letters)

    __repr__ = render

    def sort_key(self):
        return tuple((abs(a), a < 0) for a in self.letters)


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
    words = [()]
    for _ in range(length):
        words = [w + (a,) for w in words
                 for a in alphabet.extensions(w[-1] if w else 0, block)]
    return [ReducedWord(alphabet, w) for w in words]


def ball(alphabet: Alphabet, radius: int, block=None):
    """All reduced words of length at most radius, shortest first."""
    out = []
    for m in range(radius + 1):
        out.extend(sphere(alphabet, m, block))
    return out
