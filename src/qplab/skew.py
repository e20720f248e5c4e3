"""Invariants of skew-symmetric maps: characteristic coefficients, Pfaffian
and the rank-two orthogonal decomposition.

The characteristic coefficients and the Pfaffian run on Python ints, so they
need rational entries (``int`` or ``Fraction``): the matrix is scaled once by
the lcm D of its denominators (D = 1 for an integer matrix), and each result
becomes a ``Fraction`` once, at the end.  The characteristic coefficients
come from the power sums tr(B^k) by Newton's identities, with every division
checked to be exact and every odd-power coefficient checked to vanish; each
power of B is symmetric or skew, so only its upper triangle is computed.
The rank-two decomposition also works over the biquadratic algebra: one
echelon form gives the rank, the image and the kernel, and a 2x2 Gram
determinant of the image columns certifies ker ⊕ im (on Python ints for a
rational map).

The Pfaffian sign convention: the direct sum of standard 2x2 blocks with +1
above the diagonal has Pfaffian +1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .linalg import _back_substitute, _echelon, _integer_rows, _invert, dot
from .scalars import RATIONAL_TYPES, ModeMismatchError, _require_exact

__all__ = [
    "SkewMap",
    "SkewnessError",
    "DecompositionError",
    "char_coeffs",
    "pfaffian",
    "rank2_orthogonal_decomposition",
]


class SkewnessError(ValueError):
    """Matrix is not exactly skew-symmetric."""


class DecompositionError(ValueError):
    """Hypotheses of the rank-two orthogonal decomposition fail."""


class SkewMap:
    """Even-size skew-symmetric matrix with exact (``Fraction`` or ``Biquad``)
    entries."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        size = len(entries)
        if size % 2 != 0 or any(len(row) != size for row in entries):
            raise ValueError("need a square matrix of even size")
        for row in entries:
            _require_exact(row, "skew map entries")
        self.n = size // 2
        self.entries = entries
        self._check_skew()

    def _check_skew(self):
        """Raise SkewnessError naming the first entry (i, j), i <= j, with
        m[i][j] != -m[j][i].  Two rational entries are compared by their
        reduced numerators and denominators, without building -m[j][i]."""
        m = self.entries
        size = 2 * self.n
        for i in range(size):
            row = m[i]
            for j in range(i, size):
                a, b = row[j], m[j][i]
                if isinstance(a, RATIONAL_TYPES) and isinstance(b, RATIONAL_TYPES):
                    skew = a.numerator == -b.numerator and a.denominator == b.denominator
                else:
                    skew = a == -b
                if not skew:
                    raise SkewnessError(f"entry ({i},{j}) breaks skew symmetry")

    @property
    def size(self) -> int:
        return 2 * self.n

    @classmethod
    def from_upper(cls, size, upper):
        """Build from the strictly-upper entries, row by row, kept as given:
        ints stay ints, and an inexact entry is refused like in the
        constructor."""
        it = iter(upper)
        m = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                v = next(it)
                m[i][j] = v
                m[j][i] = -v
        return cls(m)

    def __repr__(self):
        return f"SkewMap(size={self.size})"


def char_coeffs(m: SkewMap):
    """(a_1, ..., a_n) with det(xI - A) = x^{2n} + a_1 x^{2n-2} + ... + a_n.

    Runs on Python ints: with D the lcm of the denominators of A, B = D*A is
    an integer matrix, so det(xI - B) = x^{2n} + c_1 x^{2n-1} + ... + c_{2n}
    has integer c_k and a_j = c_{2j} / D^{2j}.  The c_k come from the power
    sums p_k = tr(B^k) by Newton's identities,
    k c_k = -(p_k + c_1 p_{k-1} + ... + c_{k-1} p_1).  Only B^2, ..., B^n are
    formed, by n - 1 steps of :func:`_power_step`; as each power is skew or
    symmetric a step takes the size (size + 1) / 2 dot products on and above
    the diagonal.  p_k is tr(B^i B^j) with i + j = k, which for the same
    reason is +-sum_rc (B^i)_rc (B^j)_rc, so no power beyond B^n is built
    and at most n matrices are held.
    Each division by k is checked to be exact, and the odd-power
    coefficients are verified to vanish exactly; either failure raises
    ``ArithmeticError``.
    """
    size = m.size
    b, d = _scaled_to_integers(m.entries)
    powers = [b]  # B^1, ..., B^n
    for j in range(1, m.n):
        powers.append(_power_step(b, powers[-1], -1 if j % 2 else 1))
    traces = [sum(b[i][i] for i in range(size))]  # p_1
    for k in range(2, size + 1):
        # p_k = tr(B^i B^j) with 1 <= i <= j <= n; (B^j)_cr = (-1)^j (B^j)_rc
        i = k // 2
        j = k - i
        t = sum([sum(map(mul, u, v)) for u, v in zip(powers[i - 1], powers[j - 1])])
        traces.append(-t if j % 2 else t)
    coeffs = []  # c_1, ..., c_{2n}
    for k in range(1, size + 1):
        s = traces[k - 1] + sum(map(mul, coeffs, reversed(traces[: k - 1])))
        ck, rem = divmod(-s, k)
        if rem:
            raise ArithmeticError(f"Newton's sum for c_{k} is not divisible by {k}")
        coeffs.append(ck)
    for k in range(0, size, 2):
        if coeffs[k] != 0:
            raise ArithmeticError("odd characteristic coefficient nonzero")
    return tuple([Fraction(coeffs[k], d ** (k + 1)) for k in range(1, size, 2)])


def _scaled_to_integers(entries):
    """(B, D): D the lcm of the denominators of the entries, B = D * entries
    as Python ints.  The integer kernels need rational entries."""
    for row in entries:
        for x in row:
            if not isinstance(x, RATIONAL_TYPES):
                raise ModeMismatchError("needs rational entries, got a Biquad")
    # a list, not a generator expression: see linalg._integer_rows
    d = lcm(*[x.denominator for row in entries for x in row])
    return [[x.numerator * (d // x.denominator) for x in row] for row in entries], d


def _power_step(b, p, sign):
    """B P for a skew integer B and a power P of B with P^T = sign * P.

    Entry (r, c) is row r of B dot column c of P, which is sign * (row c of
    P).  B and P commute, so (B P)^T = -sign * B P: only the entries on and
    above the diagonal are dot products, size (size + 1) / 2 of them, and
    entry (c, r) is minus the dot product of (r, c) for either sign.
    """
    size = len(b)
    q = [[0] * size for _ in range(size)]
    for r, br in enumerate(b):
        dots = [sum(map(mul, br, pc)) for pc in p[r:]]
        for c, x in enumerate(dots, r):
            q[c][r] = -x
        q[r][r:] = dots if sign > 0 else [-x for x in dots]
    return q


def pfaffian(m: SkewMap):
    """Pf(A), with Pf(A)^2 = det(A).

    Scales A by the lcm D of its denominators, runs fraction-free skew
    elimination with pivoting on Python ints and returns Pf(D*A) / D^n as one
    ``Fraction``.
    """
    b, d = _scaled_to_integers(m.entries)
    return Fraction(_pfaffian_eliminate(b), d ** m.n)


def _pfaffian_eliminate(a):
    """Pfaffian of an integer skew matrix by fraction-free skew elimination.

    With p = a[0][1] != 0 (after a pivoting swap, which flips the sign) the
    trailing indices i, j >= 2 get
    B[i][j] = (p*a[i][j] - a[0][i]*a[1][j] + a[0][j]*a[1][i]) / prev,
    prev being the previous pivot (1 at the start).  This is the Pfaffian
    analogue of Sylvester's identity: B[i][j] is the Pfaffian of the principal
    submatrix of the (swapped) input on the pivot indices so far and i, j, so
    the division is exact and the last pivot is Pf(A) up to the sign of the
    swaps.
    """
    sign = 1
    prev = 1
    while a:
        size = len(a)
        for piv in range(1, size):
            if a[0][piv]:
                break
        else:
            return 0
        if piv != 1:
            _swap_rows_cols(a, piv, 1)
            sign = -sign
        r0, r1 = a[0], a[1]
        p = r0[1]
        if size == 2:
            return sign * p
        a = [
            [
                (p * a[i][j] - r0[i] * r1[j] + r0[j] * r1[i]) // prev
                for j in range(2, size)
            ]
            for i in range(2, size)
        ]
        prev = p
    return 1  # the empty matrix


def _swap_rows_cols(a, i, j):
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def rank2_orthogonal_decomposition(m: SkewMap):
    """Bases (ker_basis, im_basis) with ker ⊕ im = C^{2n} and q(ker, im) = 0.

    Requires rank(A) = 2 and A non-nilpotent; the two violations are reported
    distinctly.  One echelon form of A gives the rank, the image columns (its
    pivot columns) and the kernel.  For a skew map ker = im^perp, so
    ker ⊕ im is the whole space exactly when the Gram matrix of the two image
    columns u, v is invertible: the spanning test is the 2x2 Gram determinant
    G = (u.u)(v.v) - (u.v)^2, on the integer columns for a rational map.  By
    Lagrange's identity G is a nonzero multiple of a_1, so G = 0 exactly when
    the rank-2 map is nilpotent.  A nonzero G that is a zero divisor (only in
    a split algebra) raises :class:`NonInvertibleError`.
    """
    a = m.entries
    size = m.size
    echelon, pivots, ctx = _echelon(a)
    if len(pivots) != 2:
        raise DecompositionError(f"rank is {len(pivots)}, expected 2")
    ker = _back_substitute(echelon, pivots, ctx)
    im = [[a[i][j] for i in range(size)] for j in pivots]
    if ctx is None:
        (u, v), _ = _integer_rows(im)
        gram = (sum(map(mul, u, u)) * sum(map(mul, v, v))
                - sum(map(mul, u, v)) ** 2)
    else:
        u, v = im
        uv = dot(u, v)
        gram = dot(u, u) * dot(v, v) - uv * uv
    if not gram:
        raise DecompositionError("map is nilpotent; no orthogonal decomposition")
    if ctx is not None:
        _invert(gram)  # raises NonInvertibleError for a zero divisor
    return ker, im
