"""Homogeneous binary forms: evaluation and exact interpolation."""

from __future__ import annotations

from fractions import Fraction

from .scalars import _require_exact

__all__ = [
    "BinaryForm",
    "interpolate_binary_form",
    "InterpolationError",
]


class InterpolationError(ValueError):
    """Repeated parameters, or a sample count other than degree + 1."""


class BinaryForm:
    """Form of fixed degree d in (a, b); coeffs[k] multiplies a^(d-k) b^k."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        coeffs = list(coeffs)
        if degree < 0 or len(coeffs) != degree + 1:
            raise ValueError("need degree+1 coefficients")
        self.degree = degree
        self.coeffs = coeffs

    def eval_affine(self, t):
        """Value at the point [t : 1]."""
        # Horner in t for f(t,1) = sum c_k t^(d-k)
        s = self.coeffs[0]
        for c in self.coeffs[1:]:
            s = s * t + c
        return s

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.degree == other.degree
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        return f"BinaryForm(degree={self.degree}, coeffs={self.coeffs})"


def interpolate_binary_form(samples, degree: int) -> BinaryForm:
    """Unique form of degree <= d through exactly d+1 samples [(t_i, value_i)].

    Parameters are rational, distinct and affine (the point [t:1]); values
    are exact.  Newton divided differences give f(t,1) = c_0 + (t - t_0)(c_1
    + (t - t_1)(c_2 + ...)), dividing only by the rational differences of
    the parameters, and that nested form is multiplied out from the inside.
    """
    _require_exact([x for sample in samples for x in sample], "interpolation samples")
    params = [Fraction(t) for t, _ in samples]
    if len(set(params)) != len(params):
        raise InterpolationError("repeated interpolation parameters")
    if len(samples) != degree + 1:
        raise InterpolationError(f"need exactly {degree + 1} samples")
    newton = [v for _, v in samples]
    for j in range(1, degree + 1):
        for i in range(degree, j - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) * (1 / (params[i] - params[i - j]))
    # coefficients of f(t,1) = sum c_k t^(d-k), highest power first
    coeffs = [newton[degree]]
    for i in range(degree - 1, -1, -1):
        t = params[i]
        coeffs = ([coeffs[0]] + [a - b * t for a, b in zip(coeffs[1:], coeffs)]
                  + [newton[i] - coeffs[-1] * t])
    return BinaryForm(degree, coeffs)
