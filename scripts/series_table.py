"""Print the complement-series table for small free ranks.

For each rank the block-1 complement decomposes into cylinders indexed by
block words; the partial sums close to 1 with a geometric tail, which is
the finite witness that the block subgroup's limit set carries no mass.
"""

import sys

from amalgam.boundary import (
    complement_decomposition, complement_series, complement_series_tail,
)
from amalgam.words import Alphabet

NAMES = "abcdefgh"


def table(alphabet, block, terms):
    print("rank %d, block %d (letters %s)" %
          (alphabet.size, block,
           " ".join(alphabet.render_letter(x)
                    for x in alphabet.letters(block))))
    print("  %3s  %-12s %-12s %s" % ("M", "partial", "tail", "pieces"))
    for m in range(1, terms + 1):
        partial = complement_series(alphabet, block, m)
        tail = complement_series_tail(alphabet, block, m)
        if partial + tail != 1:
            print("M=%d: partial %s + tail %s is not 1" % (m, partial, tail),
                  file=sys.stderr)
            return 1
        pieces = len(complement_decomposition(alphabet, block, m)) \
            if m <= 5 else "-"
        print("  %3d  %-12s %-12s %s" % (m, partial, tail, pieces))
    print()
    return 0


def main(argv):
    terms = int(argv[1]) if len(argv) > 1 else 8
    for rank in (2, 3, 4):
        if table(Alphabet(tuple(NAMES[:rank]), 1), 1, terms):
            return 1
    # a fatter first block changes the ratio but not the closure
    return table(Alphabet(("a", "c", "b"), 2), 1, terms)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
