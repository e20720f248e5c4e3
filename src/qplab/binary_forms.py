"""Homogeneous binary forms: evaluation and exact interpolation."""

from __future__ import annotations

from fractions import Fraction

from .scalars import _require_exact, scalar_to_json

__all__ = [
    "BinaryForm",
    "interpolate_binary_form",
    "InterpolationError",
]


class InterpolationError(ValueError):
    """Repeated parameters or inconsistent overdetermined exact data."""


class BinaryForm:
    """Form of fixed degree d in (a, b); coeffs[k] multiplies a^(d-k) b^k."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        coeffs = list(coeffs)
        if degree < 0 or len(coeffs) != degree + 1:
            raise ValueError("need degree+1 coefficients")
        self.degree = degree
        self.coeffs = coeffs

    def __call__(self, a, b):
        d = self.degree
        s = None
        for k, c in enumerate(self.coeffs):
            term = c * a ** (d - k) * b ** k
            s = term if s is None else s + term
        return s

    def eval_affine(self, t):
        """Value at the point [t : 1]."""
        # Horner in t for f(t,1) = sum c_k t^(d-k)
        s = self.coeffs[0]
        for c in self.coeffs[1:]:
            s = s * t + c
        return s

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def scaled(self, s) -> "BinaryForm":
        return BinaryForm(self.degree, [s * c for c in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.degree == other.degree
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        return f"BinaryForm(degree={self.degree}, coeffs={self.coeffs})"

    def to_json(self):
        return {"degree": self.degree, "coeffs": [scalar_to_json(c) for c in self.coeffs]}


def interpolate_binary_form(samples, degree: int) -> BinaryForm:
    """Unique form of degree <= d through samples [(t_i, value_i)].

    Parameters are rational and affine (the point [t:1]); values are exact.
    With more than d+1 samples the extra ones are checked for consistency.
    """
    _require_exact([x for sample in samples for x in sample], "interpolation samples")
    params = [Fraction(t) for t, _ in samples]
    if len(set(params)) != len(params):
        raise InterpolationError("repeated interpolation parameters")
    if len(samples) < degree + 1:
        raise InterpolationError(f"need at least {degree + 1} samples")
    # Solve the Vandermonde system for f(t,1) = sum c_k t^(d-k)
    from .linalg import solve_exact

    m = [[t ** (degree - k) for k in range(degree + 1)] for t in params[: degree + 1]]
    rhs = [v for _, v in samples[: degree + 1]]
    coeffs = solve_exact(m, rhs)
    if coeffs is None:
        raise InterpolationError("inconsistent interpolation data")
    form = BinaryForm(degree, coeffs)
    for t, (_, v) in zip(params[degree + 1:], samples[degree + 1:]):
        if form.eval_affine(t) != v:
            raise InterpolationError("inconsistent overdetermined exact data")
    return form
