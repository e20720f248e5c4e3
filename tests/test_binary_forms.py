"""Binary forms: evaluation and exact interpolation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplab import (
    BinaryForm,
    InterpolationError,
    interpolate_binary_form,
)


def test_evaluation_conventions():
    f = BinaryForm(2, [Fraction(1), Fraction(-3), Fraction(2)])  # a^2 - 3ab + 2b^2
    assert f.eval_affine(Fraction(1)) == 0
    assert f.eval_affine(Fraction(2)) == 0
    assert f.eval_affine(Fraction(3)) == 2


@given(
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=4),
        min_size=4,
        max_size=4,
    )
)
@settings(max_examples=50, deadline=None)
def test_exact_interpolation_roundtrip(coeffs):
    f = BinaryForm(3, coeffs)
    ts = [Fraction(k) for k in range(4)]
    samples = [(t, f.eval_affine(t)) for t in ts]
    g = interpolate_binary_form(samples, 3)
    assert g == f


def test_interpolation_errors():
    with pytest.raises(InterpolationError):
        interpolate_binary_form([(Fraction(0), Fraction(1))] * 3, 2)
    with pytest.raises(InterpolationError):
        interpolate_binary_form([(Fraction(0), Fraction(1))], 2)
    # too many samples, even consistent ones: exactly degree + 1 are taken
    f = BinaryForm(1, [Fraction(1), Fraction(0)])
    samples = [(Fraction(k), f.eval_affine(Fraction(k))) for k in range(3)]
    with pytest.raises(InterpolationError):
        interpolate_binary_form(samples, 1)

