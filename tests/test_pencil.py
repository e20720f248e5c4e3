"""Pencil validation, degenerate members, sign groups, serialization."""

from fractions import Fraction

import pytest

from qplab import (
    PencilError,
    PencilOfQuadrics,
    SignGroupElement,
    canonical_pencil,
)


def test_validation():
    with pytest.raises(PencilError):
        PencilOfQuadrics([0, 1, 2, 3])  # too short
    with pytest.raises(PencilError):
        PencilOfQuadrics([0, 1, 2, 3, 4])  # odd
    with pytest.raises(PencilError):
        PencilOfQuadrics([0, 1, 2, 3, 4, 4])  # repeated: singular X


def test_repeats_are_found_on_the_integer_form():
    # the same rational given as a Fraction, an int, a float or a string is
    # a repeat; Fractions are kept as given, and the pencil is built with
    # its integer form, on which the repeats are tested
    for twin in (2, 2.0, "2", "4/2"):
        with pytest.raises(PencilError, match="^repeated lambda: the intersection X is singular$"):
            PencilOfQuadrics([Fraction(1, 3), Fraction(2), Fraction(-5, 6), 7, twin, 9])
    with pytest.raises(PencilError, match=r"^need an even number \(>= 6\) of coefficients$"):
        PencilOfQuadrics([Fraction(1, 3), 2, 2])
    lams = [Fraction(1, 3), Fraction(-5, 6), 2, "7/4", 0.5, 9]
    p = PencilOfQuadrics(lams)
    assert p.lambdas[0] is lams[0] and p.lambdas[1] is lams[1]
    assert all(type(x) is Fraction for x in p.lambdas)
    assert p._derived == {"integer_form": (12, (4, -10, 24, 21, 6, 108))}


def test_near_duplicate_rationals_are_distinct():
    lams = [Fraction(1), Fraction(1) + Fraction(1, 10**15), 2, 3, 4, 5]
    p = PencilOfQuadrics(lams)
    assert p.g == 2


def test_canonical_pencil_and_genus():
    for g in (2, 3, 4):
        p = canonical_pencil(g)
        assert p.g == g
        assert p.lambdas == tuple(Fraction(k) for k in range(2 * g + 2))
        assert p.dim_ambient == 2 * g + 2


def test_quadric_evaluation():
    p = canonical_pencil(2)
    x = [Fraction(1)] * 6
    assert p.q1(x) == 6
    assert p.q2(x) == sum(range(6))
    assert p.q1_row(x) == x
    assert p.q2_row(x) == [Fraction(k) for k in range(6)]


def test_fingerprint_distinguishes_pencils():
    assert canonical_pencil(2).fingerprint() != canonical_pencil(3).fingerprint()
    assert canonical_pencil(2).fingerprint() == PencilOfQuadrics(range(6)).fingerprint()


def test_sign_group_order_and_parity():
    p = canonical_pencil(2)
    elems = p.sign_group_elements()
    assert len(elems) == 2 ** 5  # (Z_2)^6 modulo global sign
    even = [e for e in elems if e.parity == 0]
    assert len(even) == 2 ** 4
    assert len(set(elems)) == len(elems)


def test_sign_group_canonical_representatives():
    e = SignGroupElement([0, 1, 0, 1, 0, 0])
    f = SignGroupElement([1, 0, 1, 0, 1, 1])  # the complement
    assert e == f


def test_sign_group_action_and_composition():
    e = SignGroupElement([0, 1, 0, 0, 0, 0])
    x = [Fraction(k) for k in range(6)]
    y = e.act(x)
    assert e.act(y) == [Fraction(k) for k in range(6)] or e.act(y) == [
        -Fraction(k) for k in range(6)
    ]
    # composing with f acts as the element of the summed bits, up to the
    # global sign, and the parities add; e flips one coordinate, or the five
    # of its complement, so it is odd either way
    f = SignGroupElement([1, 0, 0, 1, 0, 0])
    both = SignGroupElement([1, 1, 0, 1, 0, 0])
    z = both.act(x)
    assert e.act(f.act(x)) in (z, [-c for c in z])
    assert (e.parity, f.parity, both.parity) == (1, 0, 1)
    with pytest.raises(ValueError):
        e.act([1, 2, 3])


def test_hyperelliptic_data():
    p = canonical_pencil(3)
    hyp = p.hyperelliptic_data()
    assert hyp.genus == 3
    assert len(hyp.branch_params) == 8
    assert all(b == Fraction(-1) for _, b in hyp.branch_params)
