"""Exact complex scalars with rational real and imaginary parts.

Coefficient arithmetic throughout the package is exact, and every
coefficient is a QC: a QC mixes with ints and Fractions, and a float or a
python complex operand is a TypeError.

Each part is an int when integral and a Fraction otherwise, so integral
arithmetic never builds a Fraction; a QC is never mutated, so ONE is shared.
"""

from __future__ import annotations

from fractions import Fraction


def _rational(x):
    """x as an exact rational in canonical type: int when integral."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"cannot use {type(x).__name__} as a scalar")
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


class QC:
    """Immutable complex number; each part an int or a non-integral Fraction.

    Real values (imaginary part zero) are the common case: every operation
    below takes a real-only branch that skips the imaginary products.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _rational(re)
        self.im = im if type(im) is int else _rational(im)

    @staticmethod
    def coerce(value):
        """Return an int, Fraction or QC value as a QC."""
        return value if isinstance(value, QC) else QC(value)

    def __add__(self, other):
        if isinstance(other, QC):
            if self.im or other.im:
                return QC(self.re + other.re, self.im + other.im)
            return QC(self.re + other.re)
        if isinstance(other, (int, Fraction)):
            return QC(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        if self.im:
            return QC(-self.re, -self.im)
        return QC(-self.re)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QC):
            if self.im or other.im:
                return QC(self.re * other.re - self.im * other.im,
                          self.re * other.im + self.im * other.re)
            return QC(self.re * other.re)
        if isinstance(other, (int, Fraction)):
            return QC(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self):
        return QC(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        """1/2, 2i or 1-2i: no spaces and no brackets."""
        if not self.im:
            return str(self.re)
        im = f"{self.im}i"
        if not self.re:
            return im
        return f"{self.re}{'+' if self.im > 0 else ''}{im}"


ONE = QC(1)

