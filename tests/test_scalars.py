from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from amalgam.scalars import ONE, QC

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
# each part is zero in half the draws, so real, imaginary and complex values
# all occur and both the real-only and the complex branches of QC run
maybe_zero = st.one_of(st.just(Fraction(0)), rationals)
parts = st.tuples(maybe_zero, maybe_zero)
# a plain operand: an int or a Fraction, which QC treats as a real scalar
plain = st.one_of(st.integers(-20, 20), rationals)


def ref(value):
    """Reference (re, im) pair of a QC or a plain rational."""
    if isinstance(value, QC):
        return value.re, value.im
    return Fraction(value), Fraction(0)


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def canonical(part):
    """An exact rational part is an int when integral, else a Fraction."""
    return type(part) is (int if Fraction(part).denominator == 1 else Fraction)


def exact(q, pair):
    """q is a QC with exactly the reference parts, each in canonical type."""
    assert isinstance(q, QC)
    assert canonical(q.re) and canonical(q.im)
    assert (q.re, q.im) == pair


@given(parts, st.one_of(parts.map(lambda p: QC(*p)), plain))
def test_qc_arithmetic_matches_pair_reference(p, other):
    q = QC(*p)
    exact(q, p)
    o = ref(other)
    exact(q + other, ref_add(p, o))
    exact(other + q, ref_add(o, p))
    exact(q - other, ref_sub(p, o))
    exact(other - q, ref_sub(o, p))
    exact(q * other, ref_mul(p, o))
    exact(other * q, ref_mul(o, p))
    exact(-q, (-p[0], -p[1]))
    exact(q.conjugate(), (p[0], -p[1]))


@given(parts, parts)
def test_qc_equality_and_hash_match_pair_reference(p, r):
    q, s = QC(*p), QC(*r)
    assert (q == s) == (p == r)
    assert (q != s) == (p != r)
    assert bool(q) == (p != (0, 0))
    if q == s:
        assert hash(q) == hash(s)
    # a real QC equals, and hashes like, its plain rational value
    assert (q == p[0]) == (p[1] == 0)
    if p[1] == 0:
        assert hash(q) == hash(p[0])
        if p[0].denominator == 1:
            assert q == int(p[0]) and hash(q) == hash(int(p[0]))


@given(st.one_of(st.integers(-20, 20), rationals),
       st.one_of(st.integers(-20, 20), rationals))
def test_qc_parts_are_canonical_rationals_from_any_rational_input(re, im):
    for q in (QC(re), QC(re, im), QC(im=im), QC()):
        assert canonical(q.re) and canonical(q.im)
    exact(QC(re, im), (Fraction(re), Fraction(im)))


def test_integral_parts_are_ints():
    assert type(QC(Fraction(4, 2)).re) is int and QC(Fraction(4, 2)).re == 2
    assert type(ONE.re) is type(ONE.im) is int and ONE == 1
    exact(QC(1, 1) * QC(1, -1), (2, 0))


@pytest.mark.parametrize("make", [
    lambda: QC.coerce(0.5), lambda: QC.coerce(1j), lambda: QC(1) + 0.5,
    lambda: QC(1) * 1j, lambda: 0.5 - QC(1), lambda: QC(1) / 2.0,
    lambda: QC(0.5), lambda: QC(1, 0.5), lambda: QC("1/2"),
], ids=["coerce-float", "coerce-complex", "add-float", "mul-complex",
        "rsub-float", "div-float", "init-float", "init-float-im", "init-str"])
def test_floats_are_not_scalars(make):
    # every coefficient is exact: a float or complex operand is refused,
    # not carried along as an approximation
    with pytest.raises(TypeError):
        make()


def test_complex_repr_keeps_its_sign():
    # the text the command line prints: exact p/q parts, signed between them
    cases = [(QC(1, 2), "1+2i"), (QC(Fraction(1, 2), Fraction(3, 4)), "1/2+3/4i"),
             (QC(1, -2), "1-2i"), (QC(0, 2), "2i"), (QC(0, -2), "-2i"),
             (QC(Fraction(-1, 3)), "-1/3"), (QC(0), "0")]
    for value, text in cases:
        assert repr(value) == text
