"""Homogeneous binary forms: evaluation and exact interpolation.

Interpolation through fixed parameters is a fixed rational map of the
values, the Lagrange basis matrix (:func:`_lagrange_matrix`); f_H keeps that
matrix for its parameters on the pencil and applies it to each sample.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .linalg import _integer_rows, scaled_matvec
from .scalars import _exact_context

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
    are exact.  The coefficients are the values times the rational matrix of
    the Lagrange basis on the parameters (:func:`_lagrange_matrix`), applied
    on integer numerators by :func:`~qplab.linalg.scaled_matvec`.
    """
    _exact_context([x for sample in samples for x in sample], "interpolation samples")
    params = [Fraction(t) for t, _ in samples]
    if len(set(params)) != len(params):
        raise InterpolationError("repeated interpolation parameters")
    if len(samples) != degree + 1:
        raise InterpolationError(f"need exactly {degree + 1} samples")
    rows, scales = _integer_rows(_lagrange_matrix(params, [1] * len(params)))
    return BinaryForm(degree, scaled_matvec(rows, scales, [v for _, v in samples]))


def _root_quotients(roots) -> list:
    """For each r in roots, the coefficients of prod_k (t - r_k) / (t - r),
    highest power first: the product is expanded once and divided by each
    t - r by synthetic division, O(n^2) rational operations in all."""
    full = [Fraction(1)]
    for r in roots:
        full = [a - r * b for a, b in zip(full + [0], [0] + full)]
    quotients = []
    for r in roots:
        q = [full[0]]
        for c in full[1:-1]:
            q.append(c + r * q[-1])
        quotients.append(q)
    return quotients


def _lagrange_matrix(params, weights) -> list:
    """The (d+1) x (d+1) rational matrix M, for d+1 distinct parameters t_m,
    whose column m holds the coefficients (highest power first) of
    weights[m] times the Lagrange basis polynomial of t_m,
    prod_{j != m}(t - t_j) / (t_m - t_j).  So M times the values v_m is the
    polynomial of degree <= d with value weights[m] * v_m at t_m.  Built in
    O(d^2) rational operations from :func:`_root_quotients`."""
    columns = []
    for t, w, q in zip(params, weights, _root_quotients(params)):
        scale = w / prod([t - s for s in params if s != t], start=Fraction(1))
        columns.append([c * scale for c in q])
    return [list(row) for row in zip(*columns)]
