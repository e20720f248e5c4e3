"""Binary forms: evaluation and exact interpolation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplab import (
    BinaryForm,
    Biquad,
    BiquadContext,
    InterpolationError,
    interpolate_binary_form,
    solve_exact,
)

CTX = BiquadContext(Fraction(-7, 3), 5)
# unequally spaced rational parameters, not in increasing order
NODES = [Fraction(3), Fraction(-1, 2), Fraction(7, 5), Fraction(0), Fraction(-4),
         Fraction(11, 3), Fraction(5, 8)]


def _biquad_coeffs(count, seed):
    return [
        CTX.element(*[Fraction((seed + 3 * k + j) % 11 - 5, 1 + (k + j) % 4)
                      for j in range(4)])
        for k in range(count)
    ]


def _vandermonde_solve(samples, degree):
    """Oracle: the coefficients from the Vandermonde system, solved exactly."""
    m = [[Fraction(t) ** (degree - k) for k in range(degree + 1)] for t, _ in samples]
    return solve_exact(m, [v for _, v in samples])


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


@pytest.mark.parametrize("degree", range(7))
def test_biquad_roundtrip_at_unequal_rational_nodes(degree):
    f = BinaryForm(degree, _biquad_coeffs(degree + 1, degree))
    samples = [(t, f.eval_affine(t)) for t in NODES[: degree + 1]]
    assert interpolate_binary_form(samples, degree) == f


@pytest.mark.parametrize("degree", range(1, 7))
def test_interpolation_matches_vandermonde_solve(degree):
    # arbitrary exact values, Biquad and then rational
    values = _biquad_coeffs(degree + 1, 7 * degree)
    samples = list(zip(NODES[::-1], values))[: degree + 1]
    form = interpolate_binary_form(samples, degree)
    assert form.coeffs == _vandermonde_solve(samples, degree)
    rational = [(t, Fraction(k * k - 2 * k, k + 3))
                for k, t in enumerate(NODES[: degree + 1])]
    form = interpolate_binary_form(rational, degree)
    assert form.coeffs == _vandermonde_solve(rational, degree)


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



def test_mixed_rational_and_biquad_values_give_biquad_coefficients():
    # the coefficients are typed by the values' context: mixed Fraction and
    # rational-valued Biquad values give Biquad coefficients equal to those
    # of the same values as Fractions
    values = [Fraction(2, 3), CTX.embed(Fraction(-1, 2)), Fraction(5), CTX.embed(0)]
    mixed = interpolate_binary_form(list(zip(NODES, values)), 3)
    rational = interpolate_binary_form(
        [(t, v.c[0] if isinstance(v, Biquad) else v) for t, v in zip(NODES, values)], 3)
    assert all(type(c) is Biquad for c in mixed.coeffs)
    assert all(type(c) is Fraction for c in rational.coeffs)
    assert mixed.coeffs == rational.coeffs
