"""Points of X (and Y), tangent/cotangent frames and the sign-group quotients.

Exact points carry coordinates in a biquadratic extension with exactly two
radicands (u0, u1) coming from the sampling construction: tail coordinates are
drawn as small rationals, the head coordinates are x0 = sqrt(u0) and
x1 = sqrt(u1) with (u0, u1) the unique solution of the 2x2 linear system that
puts the point on both quadrics.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .linalg import _pivot_columns, nullspace_exact, solve_exact
from .pencil import PencilOfQuadrics
from .scalars import (
    Biquad,
    BiquadContext,
    _require_exact,
    rational_to_string,
    scalar_to_json,
    to_complex,
)

__all__ = [
    "PointOnX",
    "TangentFrame",
    "CotangentRep",
    "MembershipError",
    "GaugeError",
    "SampleBudgetError",
    "sample_point",
    "sample_covector",
    "sample_pair",
    "tangent_frame",
    "quotient_full",
    "quotient_even",
    "canonical_gauge",
    "derived_rng",
]

RESAMPLE_BUDGET = 64


class MembershipError(ValueError):
    """Coordinates do not satisfy q1 = q2 = 0."""


class GaugeError(ValueError):
    """Covector does not annihilate the point (eta(v) != 0)."""


class SampleBudgetError(RuntimeError):
    """Resampling budget exceeded while drawing a point."""


def derived_rng(seed: int, index: int) -> np.random.Generator:
    """Philox substream for sample #index of run `seed` (counter-derived)."""
    mask = 2 ** 64 - 1
    key = np.array([seed & mask, index & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class PointOnX:
    """A homogeneous representative of a point of X, with exact coordinates
    (``Fraction`` or ``Biquad``)."""

    __slots__ = ("pencil", "coords", "on_Y")

    def __init__(self, pencil: PencilOfQuadrics, coords, check: bool = True):
        coords = list(coords)
        if len(coords) != pencil.dim_ambient:
            raise ValueError("wrong number of coordinates")
        _require_exact(coords, "point coordinates")
        self.pencil = pencil
        self.coords = coords
        if check:
            self._check_membership()
        self.on_Y = not coords[-1]

    def _check_membership(self):
        q1 = self.pencil.q1(self.coords)
        q2 = self.pencil.q2(self.coords)
        if q1 or q2:
            raise MembershipError(f"q1={q1}, q2={q2} not both zero")
        if not any(self.coords):
            raise MembershipError("zero vector is not a point")

    def complex_coords(self) -> np.ndarray:
        return np.array([to_complex(c) for c in self.coords], dtype=complex)

    def context(self):
        for c in self.coords:
            if isinstance(c, Biquad):
                return c.ctx
        return None

    def to_json(self):
        payload = {
            "coords": [scalar_to_json(c) for c in self.coords],
            "mode": "exact",
        }
        ctx = self.context()
        if ctx is not None:
            payload["radicands"] = [rational_to_string(ctx.u), rational_to_string(ctx.w)]
        return payload

    @classmethod
    def from_json(cls, pencil: PencilOfQuadrics, payload) -> "PointOnX":
        if payload["mode"] != "exact":
            raise ValueError(f"point mode {payload['mode']!r} is not 'exact'")
        radicands = payload.get("radicands")
        ctx = BiquadContext(*radicands) if radicands else None
        coords = []
        for c in payload["coords"]:
            if isinstance(c, str):
                coords.append(Fraction(c))
            else:
                if ctx is None:
                    raise ValueError("biquadratic coordinates need radicands")
                coords.append(Biquad(ctx, *(Fraction(x) for x in c)))
        if ctx is not None:
            coords = [ctx.embed(c) if not isinstance(c, Biquad) else c for c in coords]
        return cls(pencil, coords)

    def __repr__(self):
        return f"PointOnX(on_Y={self.on_Y}, coords={self.coords})"


def sample_point(
    pencil: PencilOfQuadrics,
    seed: int,
    index: int = 0,
    on_Y: bool = False,
    avoid_coordinate_hyperplanes: bool = True,
) -> PointOnX:
    """Draw a point with q1 = q2 = 0.

    Tail coordinates x2..x_{2g+1} are small random integers (x_{2g+1} = 0 when
    on_Y); the head is solved from the 2x2 system for u0 = x0^2, u1 = x1^2 and
    the two square roots are adjoined as biquadratic radicands.
    """
    rng = derived_rng(seed, index)
    n = pencil.dim_ambient
    lam0, lam1 = pencil.lambdas[0], pencil.lambdas[1]
    for _ in range(RESAMPLE_BUDGET):
        tail = [Fraction(int(v)) for v in rng.integers(-9, 10, size=n - 2)]
        if on_Y:
            tail[-1] = Fraction(0)
        if avoid_coordinate_hyperplanes and any(
            not t for t in (tail[:-1] if on_Y else tail)
        ):
            continue
        a = sum(t * t for t in tail)
        b = sum(lam * t * t for lam, t in zip(pencil.lambdas[2:], tail))
        # u0 + u1 = -a ; lam0*u0 + lam1*u1 = -b
        det = lam1 - lam0
        u0 = (-a * lam1 + b) / det
        u1 = (-b + lam0 * a) / det
        if avoid_coordinate_hyperplanes and (u0 == 0 or u1 == 0):
            continue
        ctx = BiquadContext(u0, u1)
        coords = [ctx.sqrt_u(), ctx.sqrt_w()] + [ctx.embed(t) for t in tail]
        return PointOnX(pencil, coords)
    raise SampleBudgetError(f"no valid point after {RESAMPLE_BUDGET} draws")


class TangentFrame:
    """Basis data for S = V^perp(q1) ∩ V^perp(q2) and the quotient S/V."""

    __slots__ = ("point", "S_basis", "quotient_basis")

    def __init__(self, point: PointOnX, S_basis, quotient_basis):
        self.point = point
        self.S_basis = S_basis
        self.quotient_basis = quotient_basis


def tangent_frame(x: PointOnX) -> TangentFrame:
    """Exact frame of the common orthogonal S (dim 2g) and of S/V (dim 2g-1).

    Quotient lifts are normalized to vanish at a pivot coordinate of v, so
    S_basis = [v] + quotient_basis is a basis of S containing v.
    """
    p = x.pencil
    v = x.coords
    rows = [p.q1_row(v), p.q2_row(v)]
    s_all = nullspace_exact(rows)
    if len(s_all) != 2 * p.g:
        raise ArithmeticError(
            f"S has dimension {len(s_all)}, expected {2 * p.g}; "
            "rows q1(v,.), q2(v,.) must be independent for x on X"
        )
    pivot = _invertible_pivot(v)
    inv_vp = _invert(v[pivot])
    reduced = []
    for w in s_all:
        f = w[pivot] * inv_vp
        reduced.append([wi - f * vi for wi, vi in zip(w, v)])
    # the reduced vectors span a (2g-1)-dim complement of v inside S
    quotient = _independent_subset(reduced, 2 * p.g - 1)
    return TangentFrame(x, [list(v)] + quotient, quotient)


def _invertible_pivot(v):
    for k, c in enumerate(v):
        if isinstance(c, Biquad):
            if c.norm() != 0:
                return k
        elif c:
            return k
    raise ArithmeticError("no invertible coordinate in the point")


def _invert(c):
    if isinstance(c, Biquad):
        return c.inverse()
    return 1 / Fraction(c)


def _independent_subset(vectors, count):
    """First `count` vectors that are exactly linearly independent.

    Each one lies outside the span of those before it: the first `count` pivot
    columns of one echelon form of the matrix with these vectors as columns.
    """
    picked = _pivot_columns(list(zip(*vectors)), count)
    if len(picked) != count:
        raise ArithmeticError("could not extract an independent subset")
    return [vectors[k] for k in picked]


def quotient_full(x: PointOnX):
    """Image [x_0^2 : ... : x_{2g+1}^2] in P^{2g+1}, constant on Upsilon-orbits."""
    return [c * c for c in x.coords]


def quotient_even(x: PointOnX):
    """Image in the weighted space P(1^{2g+2}, g+1): squares plus the product."""
    prod = x.coords[0]
    for c in x.coords[1:]:
        prod = prod * c
    return [c * c for c in x.coords] + [prod]


class CotangentRep:
    """Gauge representative of a cotangent vector: eta with eta(v) = 0.

    Two representatives are equivalent iff they differ by a combination of
    q1(v, .) and q2(v, .).
    """

    __slots__ = ("point", "eta", "even_restricted")

    def __init__(self, point: PointOnX, eta, even_restricted: bool = False):
        eta = list(eta)
        if len(eta) != point.pencil.dim_ambient:
            raise ValueError("wrong covector length")
        _require_exact(eta, "covector entries")
        self.point = point
        self.eta = eta
        pairing = _dot(eta, point.coords)
        if pairing:
            raise GaugeError(f"eta(v) = {pairing} != 0")
        if even_restricted:
            if not point.on_Y:
                raise GaugeError("even_restricted covector at a point off Y")
            if eta[-1]:
                raise GaugeError("even_restricted requires eta_{2g+1} = 0")
        self.even_restricted = even_restricted

    def complex_eta(self) -> np.ndarray:
        return np.array([to_complex(c) for c in self.eta], dtype=complex)

    def scaled(self, s) -> "CotangentRep":
        return CotangentRep(self.point, [s * c for c in self.eta], self.even_restricted)

    def __repr__(self):
        return f"CotangentRep(eta={self.eta}, even_restricted={self.even_restricted})"


def _dot(a, b):
    s = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        s = s + x * y
    return s


def canonical_gauge(xi: CotangentRep) -> CotangentRep:
    """The representative orthogonal to both gauge generators q1(v,.), q2(v,.).

    Idempotent; uses the standard (bilinear, unconjugated) pairing.
    """
    p = xi.point.pencil
    v = xi.point.coords
    r1 = p.q1_row(v)
    r2 = p.q2_row(v)
    gram = [[_dot(r1, r1), _dot(r2, r1)], [_dot(r1, r2), _dot(r2, r2)]]
    rhs = [_dot(xi.eta, r1), _dot(xi.eta, r2)]
    sol = solve_exact(gram, rhs)
    if sol is None:
        raise ArithmeticError("gauge Gram system is singular")
    alpha, beta = sol
    eta = [e - alpha * a - beta * b for e, a, b in zip(xi.eta, r1, r2)]
    return CotangentRep(xi.point, eta, xi.even_restricted)


def sample_covector(
    x: PointOnX, seed: int, index: int = 0, even_restricted: bool = False
) -> CotangentRep:
    """Random exact covector with eta(v) = 0 (and eta_{2g+1} = 0 if even)."""
    rng = derived_rng(seed, index + (1 << 32))
    n = x.pencil.dim_ambient
    v = x.coords
    pivot = _invertible_pivot(v if not even_restricted else v[:-1])
    inv_vp = _invert(v[pivot])
    for _ in range(RESAMPLE_BUDGET):
        eta = [Fraction(int(c)) for c in rng.integers(-9, 10, size=n)]
        if even_restricted:
            eta[-1] = Fraction(0)
        eta[pivot] = Fraction(0)
        s = _dot(eta, v)
        eta[pivot] = -(s * inv_vp)
        if any(eta):
            return CotangentRep(x, eta, even_restricted)
    raise SampleBudgetError("no nonzero covector drawn within budget")


def sample_pair(
    pencil: PencilOfQuadrics,
    seed: int,
    index: int = 0,
    on_Y: bool = False,
):
    """A (point, covector) pair; even-restricted covector when on_Y."""
    x = sample_point(pencil, seed, index=index, on_Y=on_Y)
    xi = sample_covector(x, seed, index=index, even_restricted=on_Y)
    return x, xi
