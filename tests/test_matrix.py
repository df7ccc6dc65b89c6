import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import amalgam
from amalgam.battery import boundary_generators
from amalgam.engine import (
    CrossedFace, FreeProduct, MAmbient, freeness_check, haar_check,
)
from amalgam.fmalg import FMElement, FiniteBase, FiniteRelation
from amalgam.matrix import (
    AmplifiedFace, BracketElement, CornerModel, Permutation,
    bracket_law_report, covariance_report, cyclic_model,
    family_freeness_report, moment_vanishing_report,
    reduction_identities_report,
)
from amalgam.scalars import QC
from amalgam.words import Alphabet

BASE5 = FiniteBase.uniform(tuple("x%d" % i for i in range(5)))
SHIFT5 = Permutation.from_cycles(BASE5, (BASE5.points,))
PLAIN5 = FiniteRelation.from_classes(
    BASE5, [("x0", "x1"), ("x2", "x3")])


def small_model(k=3):
    return CornerModel(BASE5, SHIFT5, PLAIN5, k)


# -- permutations --------------------------------------------------------------

def test_permutation_cycles_and_order():
    assert SHIFT5("x0") == "x1" and SHIFT5("x4") == "x0"
    assert SHIFT5.order() == 5
    assert all(len(cycle) == 1 for cycle in SHIFT5.power(5).cycles)
    assert SHIFT5.power(-1)("x0") == "x4"
    assert SHIFT5.power(7)("x0") == "x2"
    two = Permutation.from_cycles(BASE5, (("x0", "x1"), ("x2", "x3", "x4")))
    assert two.order() == 6
    assert set(two.orbit_relation().class_of("x2")) == {"x2", "x3", "x4"}
    assert two.inverse()("x0") == "x1" and two.inverse()("x2") == "x4"
    assert two.orbits() == (("x0", "x1"), ("x2", "x3", "x4"))


def test_permutation_power_reduces_mod_each_cycle():
    # a power moves each point n mod its cycle's length in one pass; a
    # loop over n would take 10**9 steps here
    for n in (10**9, -10**9):
        assert SHIFT5.power(n).mapping == SHIFT5.power(n % 5).mapping
    two = Permutation.from_cycles(BASE5, (("x0", "x1"), ("x2", "x3", "x4")))
    assert two.power(-7).mapping == two.power(5).mapping


def test_permutation_must_be_bijective():
    with pytest.raises(ValueError):
        Permutation(BASE5, {x: "x0" for x in BASE5.points})


@pytest.mark.parametrize("build, message", [
    (lambda: Permutation(BASE5, {**SHIFT5.mapping, "z": "x0"}),
     "domain must be the base"),
    (lambda: Permutation.from_cycles(BASE5, (("x0", "z"),)),
     "cycle point z is not in the base"),
    (lambda: Permutation.from_cycles(BASE5, (("x0", "x1", "x0"),)),
     "repeated point in a cycle"),
    (lambda: AmplifiedFace("A", BASE5, 3, relation=PLAIN5).core_unit(
        "x0", "x2"), r"e\[x0,x2\] is not in the A face relation"),
    (lambda: AmplifiedFace("B", BASE5, 3, alpha=SHIFT5).core_unit(
        "x0", "z"), r"e\[x0,z\] is not in the B face relation"),
    (lambda: AmplifiedFace("B", FiniteBase.uniform(("y0", "y1")), 3,
                           alpha=SHIFT5), "shift lives over a different base"),
], ids=["off-base-mapping", "off-base-cycle", "repeated-cycle",
        "unit-off-relation", "unit-off-base", "shift-off-base"])
def test_permutation_and_core_unit_checks_raise(build, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        build()


# -- amplified faces and brackets ----------------------------------------------

def test_amplified_face_validation():
    with pytest.raises(ValueError):
        AmplifiedFace("A", BASE5, 1, relation=PLAIN5)
    with pytest.raises(ValueError):
        AmplifiedFace("A", BASE5, 3)
    with pytest.raises(ValueError):
        AmplifiedFace("A", BASE5, 3, relation=PLAIN5, alpha=SHIFT5)
    other = FiniteBase.uniform(("y0", "y1"))
    with pytest.raises(ValueError):
        AmplifiedFace("A", other, 3, relation=PLAIN5)


def test_amplified_weights_split_evenly():
    face = AmplifiedFace("A", BASE5, 4, relation=PLAIN5)
    assert face.fm_base.weight(("x0", 3)) == Fraction(1, 20)
    assert sum(face.fm_base.weights) == 1


def test_bracket_slot_contraction():
    face = AmplifiedFace("A", BASE5, 3, relation=PLAIN5)
    a = face.core_unit("x0", "x1")
    b = face.core_unit("x1", "x0")
    assert face.bracket(a, 1, 2) * face.bracket(b, 2, 3) == \
        face.bracket(a * b, 1, 3)
    assert (face.bracket(a, 1, 2) * face.bracket(b, 3, 1)).is_zero()
    assert face.bracket(a, 1, 2).adjoint() == face.bracket(a.adjoint(), 2, 1)


def test_bracket_expectation_keeps_diagonal_slots():
    face_b = AmplifiedFace("B", BASE5, 3, alpha=SHIFT5)
    u = face_b.shift_power(1)
    assert face_b.bracket(u, 1, 2).expectation().is_zero()
    # the shift has no fixed points, so its diagonal part is zero
    assert face_b.bracket(u, 1, 1).expectation().is_zero()
    d = FMElement.unit(face_b.core_relation, "x2", "x2")
    assert face_b.bracket(d, 2, 2).expectation() == face_b.bracket(d, 2, 2)


def test_bracket_validation():
    face = AmplifiedFace("A", BASE5, 2, relation=PLAIN5)
    with pytest.raises(ValueError):
        face.matrix_unit(0, 1)
    with pytest.raises(ValueError):
        face.matrix_unit(1, 3)
    face_b = AmplifiedFace("B", BASE5, 2, alpha=SHIFT5)
    with pytest.raises(ValueError):
        BracketElement(face, {(1, 1): FMElement.one(face_b.core_relation)})
    with pytest.raises(ValueError):
        face.bracket(FMElement.one(face.core_relation), 1, 1) * \
            face_b.bracket(FMElement.one(face_b.core_relation), 1, 1)


def test_bracket_to_fm_is_multiplicative():
    face = AmplifiedFace("B", BASE5, 3, alpha=SHIFT5)
    x = face.bracket(face.shift_power(2), 1, 2) + \
        face.bracket(face.core_unit("x0", "x3"), 2, 2).scale(QC(3))
    y = face.bracket(face.shift_power(-1), 2, 1)
    assert (x * y).to_fm() == x.to_fm() * y.to_fm()
    assert (x + y).to_fm() == x.to_fm() + y.to_fm()
    assert x.adjoint().to_fm() == x.to_fm().adjoint()
    assert x.expectation().to_fm() == x.to_fm().expectation()


def test_bracket_laws_exhaustive_small():
    report = bracket_law_report(small_model(), k_values=(2, 3))
    assert report.passed and report.checked > 1000


# -- corner words ---------------------------------------------------------------

def test_corner_unitary_validation():
    model = small_model(3)
    with pytest.raises(ValueError):
        model.corner_unitary(1, 1)
    with pytest.raises(ValueError):
        model.corner_unitary(1, 4)


def test_plain_face_has_no_shift_power():
    face = AmplifiedFace("A", BASE5, 3, relation=PLAIN5)
    with pytest.raises(ValueError, match="the plain face has no shift unitary"):
        face.shift_power(1)


def test_corner_letter_sequence_needs_a_nonzero_power():
    model = small_model(3)
    with pytest.raises(ValueError, match="kappa must be nonzero"):
        model.corner_letter_sequence(1, 2, 0)
    # kappa is checked before the index, and the zeroth power checks neither
    with pytest.raises(ValueError, match="kappa must be nonzero"):
        model.corner_letter_sequence(1, 4, 0)
    with pytest.raises(ValueError, match="corner index must lie in 2..k"):
        model.corner_letter_sequence(1, 4, -1)
    assert model.corner_power(1, 4, 0) == model.corner_identity()


def test_corner_word_is_unitary_in_the_corner():
    model = small_model(3)
    p = model.corner_identity()
    for n in (-2, 0, 1, 3):
        for i in (2, 3):
            u = model.corner_unitary(n, i)
            assert u * u.adjoint() == p
            assert u.adjoint() * u == p


def test_corner_power_matches_adjoint():
    model = small_model(3)
    for n, i in ((1, 2), (-2, 3)):
        for kappa in (1, 2, 3):
            assert model.corner_power(n, i, -kappa) == \
                model.corner_power(n, i, kappa).adjoint()
    assert model.corner_power(1, 2, 0) == model.corner_identity()


@pytest.mark.parametrize("k", [3, 2])
def test_corner_power_folds_the_repeated_product(k):
    # the old route: u built as the product of its two embedded letters,
    # and u^kappa as kappa - 1 normal-form products of u (or of u*)
    model = cyclic_model(5, k)
    face_a, face_b = model.face_a, model.face_b
    for n in range(-2, 3):
        for i in range(2, k + 1):
            u = model.embed(face_a.matrix_unit(1, i)) * model.embed(
                face_b.bracket(face_b.shift_power(n), i, 1))
            assert model.corner_unitary(n, i) == u
            assert repr(model.corner_unitary(n, i)) == repr(u)
            for kappa in (1, 2, 3, 4, -1, -2, -3, -4):
                x = u if kappa > 0 else u.adjoint()
                want = x
                for _ in range(abs(kappa) - 1):
                    want = want * x
                got = model.corner_power(n, i, kappa)
                assert got == want and repr(got) == repr(want)


def test_corner_haar_in_the_corner():
    model = small_model(3)
    u = model.corner_unitary(1, 2)
    report = haar_check(MAmbient(model.product), u, max_k=4,
                        unit=model.corner_identity())
    assert report.passed


def test_moment_report_passes_and_guards_window():
    model = small_model(3)
    report = moment_vanishing_report(model, n_limit=2, i_values=(2, 3),
                                     kappa_limit=4)
    assert report.passed and report.checked == 5 * 2 * 8
    with pytest.raises(ValueError):
        moment_vanishing_report(model, n_limit=2, kappa_limit=5)


def test_moment_negative_power_is_adjoint_route():
    model = small_model(3)
    pos = model.product.expectation(model.corner_letter_sequence(2, 3, 3))
    neg = model.product.expectation(model.corner_letter_sequence(2, 3, -3))
    assert pos == neg.adjoint() and pos.is_zero()


# -- freeness of the corner family ----------------------------------------------

def test_family_freeness_small_window():
    model = cyclic_model(11, 3)
    report = family_freeness_report(model, max_len=3, n_limit=1,
                                    i_values=(2,), kappas=(1, -1))
    assert report.passed
    assert report.words_checked == 600
    assert report.shape_checks == 6
    assert report.families == 4


def test_cyclic_model_needs_room_for_its_classes():
    # a ValueError, not an assert: under python -O the model indexed past
    # its points
    with pytest.raises(ValueError, match="2 paired classes need 4 core"):
        cyclic_model(3, 2)


def test_family_freeness_guards_exponent_stacking():
    # words can telescope all their shift exponents into one bracket, so a
    # short shift period is rejected rather than risking a false violation
    model = cyclic_model(5, 3)
    with pytest.raises(ValueError):
        family_freeness_report(model, max_len=4, n_limit=2, kappas=(1,))


def test_corner_sweep_products_keep_int_coefficients(monkeypatch):
    # every corner coefficient is an integer, so no product in the sweep
    # should carry a Fraction part: integral parts stay on the int path
    seen = []
    mul = FMElement.__mul__

    def recording_mul(self, other):
        out = mul(self, other)
        seen.extend(out.coeffs.values())
        return out

    monkeypatch.setattr(FMElement, "__mul__", recording_mul)
    model = cyclic_model(11, 3)
    report = family_freeness_report(model, max_len=2, n_limit=2,
                                    i_values=(2, 3), kappas=(1,))
    assert report.passed and seen
    assert all(type(v.re) is type(v.im) is int for v in seen)


DOUBLED_UNITARY = """
from amalgam.matrix import cyclic_model, family_freeness_report
model = cyclic_model(5, 3)
plain = model.corner_unitary
model.corner_unitary = lambda n, i: plain(n, i) + plain(n, i)
report = family_freeness_report(model, max_len=2, n_limit=1)
print(report.shape_checks)
print(sorted(path for path, _ in report.violations))
"""


def test_shape_checks_run_without_asserts():
    # python -O strips assert; the seam shape checks must still fail on a
    # model whose corner words are doubled, each as a violation that names
    # its two corner words, not as an exception
    src = Path(amalgam.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DOUBLED_UNITARY], capture_output=True,
        text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)),
        check=False)
    assert proc.returncode == 0 and proc.stderr == ""
    checks, paths = proc.stdout.splitlines()
    corner = list(itertools.product((-1, 0, 1), (2, 3)))
    pairs = sorted((p, q) for p in corner for q in corner if p != q)
    assert checks == "30" and paths == repr(pairs)


def test_checker_flags_a_planted_dependence():
    model = small_model(3)
    u = model.corner_power(1, 2, 1)
    report = freeness_check(MAmbient(model.product),
                            [[u], [u.adjoint()]], max_len=2)
    assert not report.passed
    path, value = report.failures[0]
    assert path == (0, 1) and value == model.corner_identity().d_part


class CountingAmbient(MAmbient):
    """MAmbient that counts the products and expectations asked of it."""

    def __init__(self, product):
        super().__init__(product)
        self.calls = {"mul": 0, "expect": 0}

    def mul(self, x, y):
        self.calls["mul"] += 1
        return super().mul(x, y)

    def expect(self, x):
        self.calls["expect"] += 1
        return super().expect(x)


def test_freeness_sweep_multiplies_only_the_words_it_extends(monkeypatch):
    # the corner-sweep benchmark stamps each word at its one expect call;
    # a word of length max_len is never multiplied out
    ambients = []

    def counting(product):
        ambients.append(CountingAmbient(product))
        return ambients[-1]

    monkeypatch.setattr(amalgam.matrix, "MAmbient", counting)
    report = family_freeness_report(cyclic_model(core_size=11, k=3),
                                    max_len=4, n_limit=2, i_values=(2, 3),
                                    kappas=(1,))
    assert (report.words_checked, report.shape_checks) == (27870, 90)
    # one expect per checked word, and one per letter as split centers the
    # 4 + 10 family letters; one product per word of length 2 or 3
    assert ambients[0].calls == {"expect": 27870 + 14, "mul": 2260}


def test_last_letter_violations_match_the_full_product():
    # u u u^-2 is the corner identity: the families are not free, and
    # only words of length max_len show it
    model = small_model(3)
    families = [[model.corner_power(1, 2, 1)]] * 2 + \
        [[model.corner_power(1, 2, -2)]]
    ambient = MAmbient(model.product)
    report = freeness_check(ambient, families, max_len=3)
    assert report.failures
    centered = [ambient.split(fam[0])[1] for fam in families]
    for path, value in report.failures:
        assert len(path) == 3
        word = centered[path[0]]
        for f in path[1:]:
            word = word * centered[f]
        assert value == word.d_part


def reference_sweep(ambient, families, max_len):
    """(checked, failures) of a freeness sweep that multiplies every
    alternating word out in full, in depth-first pre-order."""
    letters = [(f, ambient.split(x)[1])
               for f, fam in enumerate(families) for x in fam]
    checked, failures = 0, []

    def visit(path, word):
        nonlocal checked
        if len(path) >= 2:
            checked += 1
            d = ambient.expect(word)
            if not d.is_zero():
                failures.append((path, d))
        if len(path) < max_len:
            for g, y in letters:
                if g != path[-1]:
                    visit(path + (g,), word * y)

    for f, x in letters:
        visit((f,), x)
    return checked, failures


def planted_corner_families():
    # u u u^-2 and u u* are the corner identity; the last set puts two
    # letters in a family, so that several words under one prefix fail
    model = small_model(3)
    u = model.corner_power(1, 2, 1)
    u_star, u_inv2 = u.adjoint(), model.corner_power(1, 2, -2)
    return model.product, [
        [[u], [u], [u_inv2]],
        [[u], [u_star]],
        [[u, model.corner_power(1, 2, 2)], [u_star, u_inv2], [u]],
    ]


def planted_boundary_families():
    # the families of `freeness boundary`, and the adjoint of the first
    alphabet = Alphabet(("a", "b"), 1)
    product = FreeProduct(CrossedFace("A", alphabet, 1, 8),
                          CrossedFace("B", alphabet, 2, 8))
    families = [[product.embed(tag, x)]
                for tag, x in boundary_generators(product)]
    return product, [families + [[families[0][0].adjoint()]]]


@pytest.mark.parametrize("max_len", [1, 2, 3, 4])
@pytest.mark.parametrize("planted", [planted_corner_families,
                                     planted_boundary_families])
def test_freeness_failures_in_pre_order_match_the_full_products(planted,
                                                               max_len):
    # corner_report.py prints the first failures, so their order counts.
    # At max_len 2 the words of full length hang off the roots; at max_len
    # 1 no word is checked
    product, family_sets = planted()
    ambient = MAmbient(product)
    failed = 0
    for families in family_sets:
        report = freeness_check(ambient, families, max_len)
        checked, failures = reference_sweep(ambient, families, max_len)
        assert (report.checked, report.failures) == (checked, failures)
        failed += len(failures)
    assert bool(failed) == (max_len >= 2)


# -- covariance and reduction -----------------------------------------------------

def test_covariance_shifts_corner_diagonals():
    report = covariance_report(small_model(), k_values=(2, 3), n_limit=2,
                               i_values=(2, 3))
    # k = 2 only admits corner index 2; k = 3 admits both
    assert report.passed and report.checked == 5 * 5 + 2 * 5 * 5


def test_covariance_full_period_is_trivial():
    model = small_model(3)
    u = model.corner_unitary(5, 2)
    d = model.base_diagonal({"x1": 1})
    assert u * d * u.adjoint() == d


def test_covariance_single_case_frozen():
    # one hand-checked instance: conjugation moves the point one step
    model = small_model(2)
    u = model.corner_unitary(1, 2)
    lhs = u * model.base_diagonal({"x0": 1}) * u.adjoint()
    assert lhs == model.base_diagonal({"x1": 1})


def test_reduction_identities_sweep():
    report = reduction_identities_report(small_model(), k_values=(2, 3),
                                         n_limit=1)
    assert report.passed


def test_reduction_frozen_cases():
    model = small_model(3)
    face_a, face_b = model.face_a, model.face_b
    a = face_a.core_unit("x0", "x1")
    left = model.embed(face_a.matrix_unit(1, 2))
    got = left * model.embed(face_a.ambient(a)) * \
        model.embed(face_a.matrix_unit(2, 1))
    assert got == model.embed(face_a.bracket(a, 1, 1))
    crushed = left * model.embed(face_a.ambient(a)) * \
        model.embed(face_a.matrix_unit(3, 1))
    assert crushed == model.product.zero()
    shifted = face_b.bracket(face_b.shift_power(2), 2, 1)
    got = left * model.embed(shifted) * model.embed(face_a.matrix_unit(1, 1))
    assert got == model.corner_unitary(2, 2)
    got = left * model.embed(shifted) * model.embed(face_a.matrix_unit(2, 1))
    assert got == model.product.zero()
