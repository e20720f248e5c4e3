"""Points of X (and Y), tangent frames, cotangent representatives and the
even sign-group quotient.

Exact points carry coordinates in a biquadratic extension with exactly two
radicands (u0, u1) coming from the sampling construction: tail coordinates are
drawn as small integers, the head coordinates are x0 = sqrt(u0) and
x1 = sqrt(u1) with (u0, u1) the unique solution of the 2x2 linear system that
puts the point on both quadrics, solved on Python ints with the pencil's
integer form.  Sampled points lie off the coordinate hyperplanes, apart from
x_{2g+1} = 0 on Y.

A point keeps its chart (:meth:`PointOnX.pair`) and the closed-form basis of
S = V^perp(q1) ∩ V^perp(q2) in it (:meth:`PointOnX.S_vectors`), which the
kernel columns of :mod:`qplab.p1bundle` and the tangent frame share.

A point keeps its coordinates on one common denominator
(:meth:`PointOnX.numerators`).  Its exact zero tests, q1 = q2 = 0,
eta(v) = 0 and q1(v, w) = q2(v, w) = 0 (:meth:`PointOnX.in_S`), read these
numerators: each product is formed once on integers, and a sum is zero iff
its four integer numerator sums are, so no sum is reduced.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .linalg import _pivot_row, _scaled_matvec_numerators, dot
from .pencil import PencilOfQuadrics
from .scalars import (
    _ZERO_N,
    Biquad,
    BiquadContext,
    NonInvertibleError,
    _common_numerators,
    _product_sums,
    _raw,
    rational_to_string,
    scalar_to_json,
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


_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1


def _philox4x64_halves(k0: int, k1: int):
    """The 32-bit outputs of Philox4x64-10 (Salmon et al., SC 2011) keyed
    (k0, k1) at counters 1, 2, ...: each 64-bit output word gives its low
    half, then its high half."""
    keys = []
    for _ in range(10):
        keys.append((k0, k1))
        k0 = (k0 + 0x9E3779B97F4A7C15) & _M64
        k1 = (k1 + 0xBB67AE8584CAA73B) & _M64
    counter = 0
    while True:
        counter += 1  # the high counter words stay 0 before 2^64 blocks
        c0, c1, c2, c3 = counter, 0, 0, 0
        for r0, r1 in keys:
            p0 = 0xD2E7470EE14C6C93 * c0
            p1 = 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ r0, p1 & _M64, (p0 >> 64) ^ c3 ^ r1, p0 & _M64
        for word in (c0, c1, c2, c3):
            yield word & _M32
            yield word >> 32


class PhiloxStream:
    """Bounded integer draws from one Philox4x64-10 stream, bit for bit those
    of the reference ``Generator(Philox(key=[k0, k1])).integers`` on the same
    calls (the oracle is in tests/test_variety.py)."""

    __slots__ = ("_halves",)

    def __init__(self, k0: int, k1: int):
        self._halves = _philox4x64_halves(k0, k1)

    def integers(self, low: int, high: int, size: int) -> list[int]:
        """`size` draws from [low, high): low + (w n >> 32) for the next
        32-bit output w and n = high - low, with w redrawn while w n mod 2^32
        < (2^32 - n) mod n (Lemire, ACM TOMACS 2019).  Raises ValueError
        unless 2 <= n <= 2^32, as the reference draws no word for n = 1 and
        draws wider ranges another way."""
        n = high - low
        if not 2 <= n <= 1 << 32:
            raise ValueError(f"need 2 <= high - low <= 2^32, got {n}")
        threshold = ((1 << 32) - n) % n
        halves = self._halves
        out = []
        for _ in range(size):
            m = next(halves) * n
            while m & _M32 < threshold:
                m = next(halves) * n
            out.append(low + (m >> 32))
        return out


def derived_rng(seed: int, index: int) -> PhiloxStream:
    """Philox substream for sample #index of run `seed`, keyed
    (seed mod 2^64, index mod 2^64)."""
    return PhiloxStream(seed & _M64, index & _M64)


class PointOnX:
    """A homogeneous representative of a point of X, with exact coordinates
    (``Fraction`` or ``Biquad``)."""

    __slots__ = ("pencil", "coords", "on_Y", "_pair", "_nums", "_S")

    def __init__(self, pencil: PencilOfQuadrics, coords):
        coords = list(coords)
        if len(coords) != pencil.dim_ambient:
            raise ValueError("wrong number of coordinates")
        self.pencil = pencil
        self.coords = coords
        self._nums = _common_numerators(coords, "point coordinates")
        self._check_membership()
        self.on_Y = not coords[-1]
        self._pair = None
        self._S = None

    def numerators(self):
        """(ctx, nums, d): the numerator view of the coordinates
        (:func:`~qplab.scalars._common_numerators`), made with the point and
        shared by every zero test of the point, the covector sampler and
        f_H, so none may modify it."""
        return self._nums

    def in_S(self, w) -> bool:
        """True iff q1(v, w) = q2(v, w) = 0, that is w lies in
        S = V^perp(q1) ∩ V^perp(q2).  Both sums are taken in one pass over
        the nonzero entries of w, each product v_k w_k formed once, and
        neither is reduced (:func:`_sums_vanish`).  Raises
        ModeMismatchError for a second context."""
        ms = self.pencil.integer_form()[1]
        return _sums_vanish(self._nums, _common_numerators(w), ms)

    def pair(self):
        """(i, 1 / x_i, j, 1 / x_j) for the first two invertible coordinates
        x_i and x_j, i < j (:func:`_invertible_pair`): the chart in which
        the frame, the covector sampler, f_H and the closed-form basis of S
        are taken.  Looked up on the first call and then shared."""
        if self._pair is None:
            self._pair = _invertible_pair(self.coords)
        return self._pair

    def S_vectors(self) -> list:
        """The closed-form basis of S on the point's pair (:func:`_S_vectors`),
        in which a vector of S has its entries off the pair as coordinates.
        Built on the first call and then shared, so none may modify it."""
        if self._S is None:
            self._S = _S_vectors(self)
        return self._S

    def _check_membership(self):
        if not _sums_vanish(self._nums, self._nums, self.pencil.integer_form()[1]):
            q1 = self.pencil.q1(self.coords)
            q2 = self.pencil.q2(self.coords)
            raise MembershipError(f"q1={q1}, q2={q2} not both zero")
        if not any(self.coords):
            raise MembershipError("zero vector is not a point")

    def context(self):
        return self.numerators()[0]

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
    a zero coordinate (other than x_{2g+1} on Y) is redrawn.  The system is
    solved on Python ints with the pencil's integer form m_k = L * lambda_k
    (:meth:`~qplab.pencil.PencilOfQuadrics.integer_form`): with
    a = sum t_k^2 and b = sum m_k t_k^2 over the tail,
    u0 = (b - a m_1) / (m_1 - m_0) and u1 = (a m_0 - b) / (m_1 - m_0).  The
    coordinates are built in canonical form, sqrt(u0), sqrt(u1) and the
    tail over the denominator 1, so the point takes no ``Biquad`` product;
    its membership check reads their numerators.
    """
    rng = derived_rng(seed, index)
    n = pencil.dim_ambient
    ms = pencil.integer_form()[1]
    m0, m1 = ms[0], ms[1]
    for _ in range(RESAMPLE_BUDGET):
        tail = rng.integers(-9, 10, size=n - 2)
        if on_Y:
            tail[-1] = 0
        if not all(tail[:-1] if on_Y else tail):
            continue
        squares = [t * t for t in tail]
        a = sum(squares)
        b = sum(map(mul, ms[2:], squares))
        # u0 + u1 = -a ; m0*u0 + m1*u1 = -b
        u0 = Fraction(b - a * m1, m1 - m0)
        u1 = Fraction(a * m0 - b, m1 - m0)
        if not u0 or not u1:
            continue
        ctx = BiquadContext(u0, u1)
        coords = [_raw(ctx, (0, 1, 0, 0), 1), _raw(ctx, (0, 0, 1, 0), 1)]
        coords += [_raw(ctx, (t, 0, 0, 0), 1) for t in tail]
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

    S_basis is [v] and the point's basis of S (:meth:`PointOnX.S_vectors`,
    shared) less its vector at m, the first unit x_m off the pair: v has the
    coordinates x_k there, so the rest lifts S/V one to one, with no
    elimination.  Raises NonInvertibleError when no coordinate off the pair
    is a unit, and ArithmeticError when all are 0, which no point of X allows.
    """
    v = x.coords
    i, _, j, _ = x.pair()
    off = [[c] for k, c in enumerate(v) if k != i and k != j]
    try:
        found = _pivot_row(off, 0, 0)
    except NonInvertibleError:
        raise NonInvertibleError("no invertible coordinate off the point's pair") from None
    if found is None:
        raise ArithmeticError(
            f"S has dimension {len(v) - 1}, expected {2 * x.pencil.g}; "
            "rows q1(v,.), q2(v,.) must be independent for x on X"
        )
    m = found[0]
    basis = x.S_vectors()
    return TangentFrame(x, [list(v)] + basis[:m] + basis[m + 1:])


def _S_vectors(x: PointOnX) -> list:
    """The closed-form basis of S on the point's pair (i, j): for each k
    off {i, j}, in order, the one vector of S that is e_k off {i, j},
    e_k + alpha_k e_i + beta_k e_j with
    alpha_k = x_k (lambda_k - lambda_j) / ((lambda_j - lambda_i) x_i) and
    beta_k = x_k (lambda_i - lambda_k) / ((lambda_j - lambda_i) x_j),
    the entries that put it in the kernel of q1(v, .) and q2(v, .)."""
    v, lam = x.coords, x.pencil.lambdas
    i, inv_i, j, inv_j = x.pair()
    d = 1 / (lam[j] - lam[i])
    c_i, c_j = inv_i * d, inv_j * d
    ctx = x.context()
    zero, one = _raw(ctx, _ZERO_N, 1), _raw(ctx, (1, 0, 0, 0), 1)
    vectors = []
    for k in [k for k in range(len(v)) if k != i and k != j]:
        w = [zero] * len(v)
        w[k] = one
        if v[k]:
            w[i] = c_i * (v[k] * (lam[k] - lam[j]))
            w[j] = c_j * (v[k] * (lam[i] - lam[k]))
        vectors.append(w)
    return vectors


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


def _sums_vanish(a, b, ms) -> bool:
    """True iff sum_k a_k b_k and sum_k m_k a_k b_k are both 0, for two
    numerator views a and b and integers m_k: a sum is zero iff its integer
    sum is in every numerator column (:func:`~qplab.scalars._product_sums`),
    so nothing is reduced.  With m_k = L * lambda_k the two sums are those
    of q1 and L times those of q2."""
    s, t = _product_sums(a, b, ms)
    return not (any(s) or any(t))


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

    __slots__ = ("point", "eta", "even_restricted", "_degenerate")

    def __init__(self, point: PointOnX, eta, even_restricted: bool = False):
        eta = list(eta)
        if len(eta) != point.pencil.dim_ambient:
            raise ValueError("wrong covector length")
        view = _common_numerators(eta, "covector entries")
        self.point = point
        self.eta = eta
        # eta(v) = 0 iff the first of the two product sums is 0 in every column
        ms = point.pencil.integer_form()[1]
        if any(_product_sums(point.numerators(), view, ms)[0]):
            raise GaugeError(f"eta(v) = {dot(point.coords, eta)} != 0")
        if even_restricted:
            if not point.on_Y:
                raise GaugeError("even_restricted covector at a point off Y")
            if eta[-1]:
                raise GaugeError("even_restricted requires eta_{2g+1} = 0")
        self.even_restricted = even_restricted
        self._degenerate = None

    def vanishes_on_S(self) -> bool:
        """True iff eta vanishes on S of its point (:func:`_vanishes_on_S`),
        so that it is 0 on S/V.  Tested on the first call and then kept, so
        the sampler and f_H share one verdict."""
        if self._degenerate is None:
            self._degenerate = _vanishes_on_S(self.point, self.eta)
        return self._degenerate

    def scaled(self, s) -> "CotangentRep":
        return CotangentRep(self.point, [s * c for c in self.eta], self.even_restricted)

    def __repr__(self):
        return f"CotangentRep(eta={self.eta}, even_restricted={self.even_restricted})"


def sample_covector(
    x: PointOnX, seed: int, index: int = 0, even_restricted: bool = False
) -> CotangentRep:
    """Random exact covector with eta(v) = 0 (and eta_{2g+1} = 0 if even).

    The entries are integer draws but at the first coordinate p of the
    point's pair, which is -(sum_{k != p} x_k eta_k) / x_p.  That sum is
    taken on the point's numerators and reduced once
    (:func:`~qplab.linalg._scaled_matvec_numerators` with the draws as its
    one row).  A draw that vanishes on S (:meth:`CotangentRep.vanishes_on_S`),
    the zero covector among them, is redrawn; the returned rep keeps that
    verdict.
    """
    rng = derived_rng(seed, index + (1 << 32))
    n = x.pencil.dim_ambient
    view = x.numerators()
    pivot, inv_vp = x.pair()[:2]
    for _ in range(RESAMPLE_BUDGET):
        draws = rng.integers(-9, 10, size=n)
        if even_restricted:
            draws[-1] = 0
        draws[pivot] = 0
        s = _scaled_matvec_numerators([draws], [1], view)[0]
        eta = [Fraction(c) for c in draws]
        eta[pivot] = -(s * inv_vp)
        xi = CotangentRep(x, eta, even_restricted)
        if not xi.vanishes_on_S():
            return xi
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
