"""Homogeneous binary forms: evaluation, root extraction, interpolation."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .scalars import is_exact, to_complex

__all__ = [
    "BinaryForm",
    "binary_form_roots",
    "interpolate_binary_form",
    "ZeroFormError",
    "InterpolationError",
]


class ZeroFormError(ValueError):
    """Root extraction on the identically zero form."""


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

    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.coeffs)

    def to_complex(self) -> "BinaryForm":
        return BinaryForm(self.degree, [to_complex(c) for c in self.coeffs])

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
        from .scalars import scalar_to_json

        return {"degree": self.degree, "coeffs": [scalar_to_json(c) for c in self.coeffs]}


def _normalize_projective(a: complex, b: complex):
    n = math.hypot(abs(a), abs(b))
    return (a / n, b / n)


def binary_form_roots(f: BinaryForm, tol: float = 1e-10):
    """All deg(f) roots of f in P^1, as unit-normalized pairs (a, b).

    Companion-matrix (numpy) eigenvalues on the dehomogenized polynomial,
    with a chart swap when the leading coefficient is tiny.  Roots with
    multiplicity are repeated.
    """
    if f.is_zero():
        raise ZeroFormError("cannot extract roots of the zero form")
    c = [to_complex(x) for x in f.coeffs]
    scale = max(abs(x) for x in c)
    if abs(c[0]) >= 1e-12 * scale:
        # f(t,1): roots t give [t:1]; degree drop at the tail = roots [0:1]
        poly = c
        swap = False
    else:
        # swap chart: g(s) = f(1, s) has coefficients reversed
        poly = c[::-1]
        swap = True
    # strip (numerically) zero leading coefficients: each is a root at infinity
    roots = []
    lead = 0
    while lead < len(poly) - 1 and abs(poly[lead]) < 1e-14 * scale:
        lead += 1
        roots.append((1.0 + 0j, 0j) if not swap else (0j, 1.0 + 0j))
    finite = np.roots(np.array(poly[lead:], dtype=complex)) if lead < len(poly) - 1 else []
    for t in finite:
        pair = (complex(t), 1.0 + 0j) if not swap else (1.0 + 0j, complex(t))
        roots.append(_normalize_projective(*pair))
    roots = [_normalize_projective(a, b) for a, b in roots]
    fc = f.to_complex()
    norm = scale
    bad = [r for r in roots if abs(fc(*r)) > tol * norm]
    if bad:
        raise ArithmeticError(f"root residual above tolerance for {len(bad)} roots")
    return roots


def interpolate_binary_form(samples, degree: int) -> BinaryForm:
    """Unique form of degree <= d through samples [(t_i, value_i)].

    Parameters are affine (the point [t:1]).  Exact inputs give exact output;
    with more than d+1 exact samples the extra ones are checked for
    consistency.
    """
    params = [t for t, _ in samples]
    if len(set(Fraction(t) if is_exact(t) else t for t in params)) != len(params):
        raise InterpolationError("repeated interpolation parameters")
    if len(samples) < degree + 1:
        raise InterpolationError(f"need at least {degree + 1} samples")
    base = samples[: degree + 1]
    # Solve the Vandermonde system for f(t,1) = sum c_k t^(d-k)
    from .linalg import solve_exact

    exact = all(is_exact(t) and is_exact(v) for t, v in samples)
    if exact:
        m = [[Fraction(t) ** (degree - k) for k in range(degree + 1)] for t, _ in base]
        rhs = [v for _, v in base]
        coeffs = solve_exact(m, rhs)
        if coeffs is None:
            raise InterpolationError("inconsistent interpolation data")
        form = BinaryForm(degree, coeffs)
        for t, v in samples[degree + 1:]:
            if form.eval_affine(Fraction(t)) != v:
                raise InterpolationError("inconsistent overdetermined exact data")
        return form
    a = np.array(
        [[to_complex(t) ** (degree - k) for k in range(degree + 1)] for t, _ in samples],
        dtype=complex,
    )
    rhs = np.array([to_complex(v) for _, v in samples], dtype=complex)
    coeffs, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return BinaryForm(degree, [complex(c) for c in coeffs])
