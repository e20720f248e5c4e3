"""Points of X (and Y), tangent frames, cotangent representatives and the
even sign-group quotient.

Exact points carry coordinates in a biquadratic extension with exactly two
radicands (u0, u1) coming from the sampling construction: tail coordinates are
drawn as small integers, the head coordinates are x0 = sqrt(u0) and
x1 = sqrt(u1) with (u0, u1) the unique solution of the 2x2 linear system that
puts the point on both quadrics.  Sampled points lie off the coordinate
hyperplanes, apart from x_{2g+1} = 0 on Y.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .linalg import _pivot_row, dot, nullspace_exact
from .pencil import PencilOfQuadrics
from .scalars import (
    Biquad,
    BiquadContext,
    NonInvertibleError,
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
    "quotient_even",
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

    __slots__ = ("pencil", "coords", "on_Y", "_rows", "_pair")

    def __init__(self, pencil: PencilOfQuadrics, coords):
        coords = list(coords)
        if len(coords) != pencil.dim_ambient:
            raise ValueError("wrong number of coordinates")
        _require_exact(coords, "point coordinates")
        self.pencil = pencil
        self.coords = coords
        self._check_membership()
        self.on_Y = not coords[-1]
        self._rows = None
        self._pair = None

    def rows(self):
        """[q1(v, .), q2(v, .)], built on the first call and then shared by
        every caller, so none may modify them."""
        if self._rows is None:
            p, v = self.pencil, self.coords
            self._rows = [p.q1_row(v), p.q2_row(v)]
        return self._rows

    def pair(self):
        """(i, 1 / x_i, j, 1 / x_j) for the first two invertible coordinates
        x_i and x_j, i < j (:func:`_invertible_pair`): the chart in which
        the frame, the covector sampler, f_H and the closed-form basis of S
        are taken.  Looked up on the first call and then shared."""
        if self._pair is None:
            self._pair = _invertible_pair(self.coords)
        return self._pair

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
                coords.append(Biquad(ctx, *[Fraction(x) for x in c]))
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
) -> PointOnX:
    """Draw a point with q1 = q2 = 0.

    Tail coordinates x2..x_{2g+1} are small random integers (x_{2g+1} = 0 when
    on_Y); the head is solved from the 2x2 system for u0 = x0^2, u1 = x1^2 and
    the two square roots are adjoined as biquadratic radicands.  A draw with
    a zero coordinate (other than x_{2g+1} on Y) is redrawn.
    """
    rng = derived_rng(seed, index)
    n = pencil.dim_ambient
    lam0, lam1 = pencil.lambdas[0], pencil.lambdas[1]
    for _ in range(RESAMPLE_BUDGET):
        tail = [Fraction(int(v)) for v in rng.integers(-9, 10, size=n - 2)]
        if on_Y:
            tail[-1] = Fraction(0)
        if any(not t for t in (tail[:-1] if on_Y else tail)):
            continue
        a = sum(t * t for t in tail)
        b = sum(lam * t * t for lam, t in zip(pencil.lambdas[2:], tail))
        # u0 + u1 = -a ; lam0*u0 + lam1*u1 = -b
        det = lam1 - lam0
        u0 = (-a * lam1 + b) / det
        u1 = (-b + lam0 * a) / det
        if u0 == 0 or u1 == 0:
            continue
        ctx = BiquadContext(u0, u1)
        coords = [ctx.sqrt_u(), ctx.sqrt_w()] + [ctx.embed(t) for t in tail]
        return PointOnX(pencil, coords)
    raise SampleBudgetError(f"no valid point after {RESAMPLE_BUDGET} draws")


class TangentFrame:
    """A basis of S = V^perp(q1) ∩ V^perp(q2) whose first vector is v, so
    S_basis[1:] lifts a basis of the quotient S/V."""

    __slots__ = ("point", "S_basis")

    def __init__(self, point: PointOnX, S_basis):
        self.point = point
        self.S_basis = S_basis


def tangent_frame(x: PointOnX) -> TangentFrame:
    """Exact frame of the common orthogonal S (dim 2g) and of S/V (dim 2g-1).

    S_basis is [v] followed by :func:`_lifts` of x, a basis of the vectors
    of S that vanish at the first coordinate of :meth:`PointOnX.pair`,
    which lift a basis of S/V one to one.
    """
    lifts = _lifts(x)
    if len(lifts) != 2 * x.pencil.g - 1:
        raise ArithmeticError(
            f"S has dimension {len(lifts) + 1}, expected {2 * x.pencil.g}; "
            "rows q1(v,.), q2(v,.) must be independent for x on X"
        )
    return TangentFrame(x, [list(x.coords)] + lifts)


def _lifts(x: PointOnX):
    """Basis of the vectors of S that vanish at the first coordinate v_k of
    the point's pair; only :func:`tangent_frame` uses it.

    As v_k is invertible, S is the line of v plus the vectors of S with k-th
    coordinate 0, so these lift the quotient S/V one to one.
    """
    k = x.pair()[0]
    unit = [int(i == k) for i in range(len(x.coords))]
    return nullspace_exact([unit] + x.rows())


def _invertible_pair(v):
    """(p, 1 / v[p], j, 1 / v[j]) for the first two invertible coordinates
    v[p] and v[j] of v, p < j.

    A point of X over a field has at least three nonzero coordinates (q1 and
    q2 cannot both vanish on fewer), so both exist there.  When the radicands
    make the algebra split, the nonzero coordinates after p may all be zero
    divisors; then this raises :class:`NonInvertibleError`.
    """
    column = [[c] for c in v]
    first = _pivot_row(column, 0, 0)
    if first is None:
        raise ArithmeticError("no invertible coordinate in the point")
    try:
        second = _pivot_row(column, first[0] + 1, 0)
    except NonInvertibleError:
        second = None
    if second is None:
        raise NonInvertibleError("no second invertible coordinate in the point")
    return first + second


def _vanishes_on_S(x: PointOnX, eta) -> bool:
    """True iff the covector eta vanishes on S = ker q1(v, .) ∩ ker q2(v, .).

    That holds iff eta = a q1(v, .) + b q2(v, .), that is
    eta_k = (a + b lambda_k) v_k for every k.  The coordinates p and j of
    :meth:`PointOnX.pair` fix a + b lambda_p = eta_p / v_p and
    a + b lambda_j = eta_j / v_j, so the test takes no elimination and no
    inverse beyond those of the pair.
    """
    lam, v = x.pencil.lambdas, x.coords
    p, inv_p, j, inv_j = x.pair()
    c_p = inv_p * eta[p]
    b = (inv_j * eta[j] - c_p) * (1 / (lam[j] - lam[p]))
    a = c_p - b * lam[p]
    return all(e == (a + b * l) * c for e, l, c in zip(eta, lam, v))


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
        pairing = dot(point.coords, eta)
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


def sample_covector(
    x: PointOnX, seed: int, index: int = 0, even_restricted: bool = False
) -> CotangentRep:
    """Random exact covector with eta(v) = 0 (and eta_{2g+1} = 0 if even).

    A draw that vanishes on S (:func:`_vanishes_on_S`), the zero covector
    among them, is redrawn.
    """
    rng = derived_rng(seed, index + (1 << 32))
    n = x.pencil.dim_ambient
    v = x.coords
    pivot, inv_vp = x.pair()[:2]
    for _ in range(RESAMPLE_BUDGET):
        eta = [Fraction(int(c)) for c in rng.integers(-9, 10, size=n)]
        if even_restricted:
            eta[-1] = Fraction(0)
        eta[pivot] = Fraction(0)
        s = dot(v, eta)
        eta[pivot] = -(s * inv_vp)
        if not _vanishes_on_S(x, eta):
            return CotangentRep(x, eta, even_restricted)
    raise SampleBudgetError("no covector nonzero on S drawn within budget")


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
