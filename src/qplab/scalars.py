"""Scalar towers: exact rationals and biquadratic extensions.

Every scalar is a plain ``fractions.Fraction`` (or int) or a :class:`Biquad`
element of a rank-4 algebra Q(sqrt(u), sqrt(w)); the arithmetic-heavy code is
generic over these two kinds.  ``to_complex`` gives the complex value used by
the numerical checks only.

A :class:`Biquad` keeps its four coordinates as integer numerators over one
shared positive denominator, reduced by a single gcd, so ring operations run
on Python integers and need no optional big-rational library.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

# all rational scalar kinds accepted interchangeably in exact arithmetic
RATIONAL_TYPES = (int, Fraction)

__all__ = [
    "Biquad",
    "BiquadContext",
    "ModeMismatchError",
    "NonInvertibleError",
    "to_complex",
    "rational_to_string",
    "scalar_to_json",
]


class ModeMismatchError(TypeError):
    """Raised when scalars from incompatible arithmetic contexts are mixed."""


class NonInvertibleError(ZeroDivisionError):
    """Raised when a biquadratic element has vanishing norm form."""


class BiquadContext:
    """Arithmetic context for the algebra Q(sqrt(u), sqrt(w)).

    Elements are coordinate vectors over the basis {1, sqrt(u), sqrt(w),
    sqrt(u)*sqrt(w)}.  The radicands are fixed per context; elements of
    different contexts must never be combined.
    """

    __slots__ = ("u", "w", "_pu", "_qu", "_pw", "_qw", "_k", "_ru", "_rw")

    def __init__(self, u, w):
        self.u = Fraction(u)
        self.w = Fraction(w)
        # u = pu/qu and w = pw/qw in lowest terms; the product and inverse
        # formulas are scaled by qu*qw so that they stay in integers
        self._pu, self._qu = self.u.numerator, self.u.denominator
        self._pw, self._qw = self.w.numerator, self.w.denominator
        self._k = (
            self._qu * self._qw,
            self._pu * self._qw,
            self._qu * self._pw,
            self._pu * self._pw,
        )
        self._ru = cmath.sqrt(complex(self.u))
        self._rw = cmath.sqrt(complex(self.w))

    def __eq__(self, other):
        return (
            isinstance(other, BiquadContext)
            and self.u == other.u
            and self.w == other.w
        )

    def __hash__(self):
        return hash(("BiquadContext", self.u, self.w))

    def __repr__(self):
        return f"BiquadContext(u={self.u}, w={self.w})"

    def element(self, c0=0, c1=0, c2=0, c3=0) -> "Biquad":
        return Biquad(self, c0, c1, c2, c3)

    def sqrt_u(self) -> "Biquad":
        return Biquad(self, 0, 1, 0, 0)

    def sqrt_w(self) -> "Biquad":
        return Biquad(self, 0, 0, 1, 0)

    def embed(self, q) -> "Biquad":
        """Embed a rational number as a context element."""
        return Biquad(self, q, 0, 0, 0)


_ZERO_N = (0, 0, 0, 0)


def _raw(ctx, n, d) -> "Biquad":
    """Element from numerators ``n`` over ``d`` already in canonical form."""
    x = object.__new__(Biquad)
    x.ctx = ctx
    x._n = n
    x._d = d
    return x


def _make(ctx, n0, n1, n2, n3, d) -> "Biquad":
    """Element (n0, n1, n2, n3) / d for d > 0, reduced to canonical form."""
    g = gcd(n0, n1, n2, n3, d)
    if g != 1:
        return _raw(ctx, (n0 // g, n1 // g, n2 // g, n3 // g), d // g)
    return _raw(ctx, (n0, n1, n2, n3), d)


def _mul_numerators(ctx, a, b) -> tuple:
    """The integer numerators of the product of the elements with numerator
    4-tuples a and b of ctx, over the product of their denominators times
    k0 = qu*qw: the product formula of the algebra, kept in integers.
    ``Biquad.__mul__`` reduces its result once; kernels that multiply
    numerators on a common denominator sum such products and reduce once
    per output."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    k0, k1, k2, k3 = ctx._k
    # basis: 1, r=sqrt(u), s=sqrt(w), rs; r^2=u, s^2=w, (rs)^2=uw,
    # with every coordinate scaled by k0 = qu*qw
    return (
        k0 * a0 * b0 + k1 * a1 * b1 + k2 * a2 * b2 + k3 * a3 * b3,
        ctx._qu * (ctx._qw * (a0 * b1 + a1 * b0) + ctx._pw * (a2 * b3 + a3 * b2)),
        ctx._qw * (ctx._qu * (a0 * b2 + a2 * b0) + ctx._pu * (a1 * b3 + a3 * b1)),
        k0 * (a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1),
    )


class Biquad:
    """Element of Q(sqrt(u), sqrt(w)) in coordinates (c0, c1, c2, c3).

    Stored as integer numerators ``_n`` over a positive denominator ``_d``
    with gcd(*_n, _d) == 1, so equal elements have equal fields.
    """

    __slots__ = ("ctx", "_n", "_d")

    def __init__(self, ctx: BiquadContext, c0=0, c1=0, c2=0, c3=0):
        cs = [c if isinstance(c, RATIONAL_TYPES) else Fraction(c)
              for c in (c0, c1, c2, c3)]
        # over the lcm of reduced denominators the numerators share no factor;
        # lists, not generator expressions, under lcm(*...) and tuple(): a
        # generator there made the peak RSS of long runs creep up
        d = lcm(*[c.denominator for c in cs])
        self.ctx = ctx
        self._n = tuple([c.numerator * (d // c.denominator) for c in cs])
        self._d = d

    @property
    def c(self) -> tuple:
        """The four coordinates as reduced fractions."""
        d = self._d
        return tuple(Fraction(n, d) for n in self._n)

    # -- coercion -----------------------------------------------------------

    def _operand(self, other):
        """(numerators, denominator) of a same-context element or a rational;
        None for any other type."""
        if isinstance(other, Biquad):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ModeMismatchError(
                    "cannot mix biquadratic contexts "
                    f"{self.ctx} and {other.ctx}"
                )
            return other._n, other._d
        if isinstance(other, RATIONAL_TYPES):
            return (other.numerator, 0, 0, 0), other.denominator
        return None

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        (a0, a1, a2, a3), da = self._n, self._d
        (b0, b1, b2, b3), db = o
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return _make(self.ctx, a0 * sa + b0 * sb, a1 * sa + b1 * sb,
                     a2 * sa + b2 * sb, a3 * sa + b3 * sb, da * sa)

    __radd__ = __add__

    def __neg__(self):
        n0, n1, n2, n3 = self._n
        return _raw(self.ctx, (-n0, -n1, -n2, -n3), self._d)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        (a0, a1, a2, a3), da = self._n, self._d
        (b0, b1, b2, b3), db = o
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return _make(self.ctx, a0 * sa - b0 * sb, a1 * sa - b1 * sb,
                     a2 * sa - b2 * sb, a3 * sa - b3 * sb, da * sa)

    def __rsub__(self, other):
        if not isinstance(other, RATIONAL_TYPES):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        (b0, b1, b2, b3), db = o
        ctx = self.ctx
        if not (b1 or b2 or b3):
            # rational factor: scale the coordinates
            a0, a1, a2, a3 = self._n
            return _make(ctx, a0 * b0, a1 * b0, a2 * b0, a3 * b0, self._d * db)
        n0, n1, n2, n3 = _mul_numerators(ctx, self._n, o[0])
        return _make(ctx, n0, n1, n2, n3, ctx._k[0] * self._d * db)

    __rmul__ = __mul__

    def conj_u(self) -> "Biquad":
        """Conjugate sending sqrt(u) to -sqrt(u)."""
        n0, n1, n2, n3 = self._n
        return _raw(self.ctx, (n0, -n1, n2, -n3), self._d)

    def conj_w(self) -> "Biquad":
        """Conjugate sending sqrt(w) to -sqrt(w)."""
        n0, n1, n2, n3 = self._n
        return _raw(self.ctx, (n0, n1, -n2, -n3), self._d)

    def _norm_parts(self):
        """(m0, m1, den) for the integer numerators a = _n.

        Writing a = x + y*sqrt(w) with x, y in Q(sqrt(u)),
        x^2 - w*y^2 = (m0 + m1*qu*sqrt(u)) / (qu*qw), and the norm of a is
        den / (qu*qw)^2.
        """
        ctx = self.ctx
        a0, a1, a2, a3 = self._n
        k0, k1, k2, k3 = ctx._k
        m0 = k0 * a0 * a0 + k1 * a1 * a1 - k2 * a2 * a2 - k3 * a3 * a3
        m1 = 2 * (ctx._qw * a0 * a1 - ctx._pw * a2 * a3)
        return m0, m1, m0 * m0 - ctx._pu * ctx._qu * m1 * m1

    def norm(self):
        """Product of the four Galois conjugates; rational."""
        den = self._norm_parts()[2]
        k0 = self.ctx._k[0]
        return Fraction(den, k0 * k0 * self._d ** 4)

    def inverse(self) -> "Biquad":
        n0, n1, n2, n3 = self._n
        if n1 or n2 or n3:
            return self._inverse_by_norm()
        # a rational element n0/d: its inverse d/n0 is already reduced
        if not n0:
            raise NonInvertibleError(f"norm form vanishes for {self!r}")
        if n0 < 0:
            return _raw(self.ctx, (-self._d, 0, 0, 0), -n0)
        return _raw(self.ctx, (self._d, 0, 0, 0), n0)

    def _inverse_by_norm(self) -> "Biquad":
        """The inverse by the general formula, for any element."""
        m0, m1, den = self._norm_parts()
        if not den:
            raise NonInvertibleError(f"norm form vanishes for {self!r}")
        ctx = self.ctx
        a0, a1, a2, a3 = self._n
        pu, qu = ctx._pu, ctx._qu
        # 1/a = (x - y*sqrt(w)) * conj_u(x^2 - w*y^2) / norm(a)
        s = self._d * ctx._k[0]
        if den < 0:
            den, s = -den, -s
        return _make(
            ctx,
            s * (a0 * m0 - pu * a1 * m1),
            s * (a1 * m0 - qu * a0 * m1),
            s * (pu * a3 * m1 - a2 * m0),
            s * (qu * a2 * m1 - a3 * m0),
            den,
        )

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        (p, b1, b2, b3), q = o
        if b1 or b2 or b3:
            return self * other.inverse()
        # rational divisor p/q: scale the coordinates by q/p
        if not p:
            raise NonInvertibleError("division by zero")
        if p < 0:
            p, q = -p, -q
        a0, a1, a2, a3 = self._n
        return _make(self.ctx, a0 * q, a1 * q, a2 * q, a3 * q, self._d * p)

    def __rtruediv__(self, other):
        if not isinstance(other, RATIONAL_TYPES):
            return NotImplemented
        return self.inverse() * other

    # -- predicates & conversion --------------------------------------------

    def __eq__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._n == o[0] and self._d == o[1]

    def __hash__(self):
        return hash((self.ctx, self._n, self._d))

    def __bool__(self):
        # the numerators of zero are exactly _ZERO_N in canonical form
        return self._n != _ZERO_N

    def to_complex(self) -> complex:
        ru, rw = self.ctx._ru, self.ctx._rw
        d = self._d
        c0, c1, c2, c3 = (complex(n / d) for n in self._n)
        return c0 + c1 * ru + c2 * rw + c3 * ru * rw

    def __repr__(self):
        c0, c1, c2, c3 = self.c
        return f"Biquad({c0}, {c1}, {c2}, {c3})"


_EXACT_TYPES = RATIONAL_TYPES + (Biquad,)


def _require_exact(values, what: str):
    """Validate outside input: every value is an int, Fraction or Biquad."""
    for x in values:
        if not isinstance(x, _EXACT_TYPES):
            raise ModeMismatchError(f"{what}: {type(x).__name__} is not an exact scalar")


def _common_numerators(v) -> tuple:
    """(ctx, nums, d) for the exact vector v on one common denominator d > 0:
    nums[k] = v[k] * d, an int for a rational entry and an integer numerator
    4-tuple for a ``Biquad`` one, and ctx is the context of the ``Biquad``
    entries, None when there is none.  Raises :class:`ModeMismatchError` for
    an entry that is not an exact scalar and for entries of two contexts."""
    ctx = None
    dens = []
    for x in v:
        if type(x) is Biquad:
            if x.ctx is not ctx:
                if ctx is None:
                    ctx = x.ctx
                elif x.ctx != ctx:
                    raise ModeMismatchError("mixed biquadratic contexts in vector")
            dens.append(x._d)
        elif isinstance(x, RATIONAL_TYPES):
            dens.append(x.denominator)
        else:
            raise ModeMismatchError(
                f"vector entry: {type(x).__name__} is not an exact scalar"
            )
    d = lcm(*dens)
    nums = []
    for x, e in zip(v, dens):
        s = d // e
        if type(x) is Biquad:
            n0, n1, n2, n3 = x._n
            nums.append((n0 * s, n1 * s, n2 * s, n3 * s))
        else:
            nums.append(x.numerator * s)
    return ctx, nums, d


def to_complex(x) -> complex:
    if isinstance(x, Biquad):
        return x.to_complex()
    return complex(x)


def rational_to_string(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def scalar_to_json(x):
    """JSON payload: rationals as 'p/q' strings, biquadratic elements as
    4-lists of rational strings."""
    if isinstance(x, Biquad):
        return [rational_to_string(c) for c in x.c]
    if isinstance(x, RATIONAL_TYPES):
        return rational_to_string(x)
    raise ModeMismatchError(f"{type(x).__name__} is not an exact scalar")
