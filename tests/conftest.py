"""Test helpers shared by several test modules."""

import itertools

import pytest


def _closure(r1, r2):
    """Brute-force transitive closure of the union of two relations, by
    repeated composition: the reference for `fmalg.join`."""
    pairs = set(r1.pairs) | set(r2.pairs)
    changed = True
    while changed:
        changed = False
        for (x, y), (y2, z) in itertools.product(list(pairs), repeat=2):
            if y == y2 and (x, z) not in pairs:
                pairs.add((x, z))
                changed = True
    return pairs


@pytest.fixture
def closure_oracle():
    return _closure
