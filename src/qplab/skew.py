"""Invariants of skew-symmetric maps: characteristic coefficients, Pfaffian,
the invariant vector (a_1, ..., a_{g-1}, Pf), rank/nilpotency and the rank-two
orthogonal decomposition.

The characteristic coefficients and the Pfaffian run on Python ints, so they
need rational entries: the matrix is scaled once by the lcm of its
denominators, and each result becomes a ``Fraction`` once, at the end.  The
rank and the rank-two decomposition also work over the biquadratic algebra.

The Pfaffian sign convention: the direct sum of standard 2x2 blocks with +1
above the diagonal has Pfaffian +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .linalg import _pivot_columns, nullspace_exact, rank_exact
from .scalars import RATIONAL_TYPES, ModeMismatchError, _require_exact

__all__ = [
    "SkewMap",
    "HitchinVector",
    "SkewnessError",
    "DecompositionError",
    "char_coeffs",
    "pfaffian",
    "hitchin_vector",
    "nilpotency_and_rank",
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
        m = self.entries
        size = 2 * self.n
        for i in range(size):
            for j in range(i, size):
                if m[i][j] != -m[j][i]:
                    raise SkewnessError(f"entry ({i},{j}) breaks skew symmetry")

    @property
    def size(self) -> int:
        return 2 * self.n

    @classmethod
    def from_upper(cls, size, upper):
        """Build from the strictly-upper entries, row by row."""
        it = iter(upper)
        m = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                v = Fraction(next(it))
                m[i][j] = v
                m[j][i] = -v
        return cls(m)

    def __repr__(self):
        return f"SkewMap(size={self.size})"


@dataclass(frozen=True)
class HitchinVector:
    """(a_1, ..., a_{g-1}, Pf): the invariant basis evaluated at a skew map."""

    a: tuple
    pf: object

    def as_tuple(self):
        return self.a + (self.pf,)

    def is_zero(self) -> bool:
        return not any(self.a) and not self.pf


def char_coeffs(m: SkewMap):
    """(a_1, ..., a_n) with det(xI - A) = x^{2n} + a_1 x^{2n-2} + ... + a_n.

    Runs the Faddeev-LeVerrier recursion on Python ints: with D the lcm of
    the denominators of A, B = D*A is an integer matrix, so every M_k and c_k
    of the recursion for B is an integer and a_j = c_{2j} / D^{2j}.
    The division c_k = -tr(M_k)/k is checked to be exact, and the odd-power
    coefficients are verified to vanish exactly.
    """
    size = m.size
    b, d = _scaled_to_integers(m.entries)
    # Faddeev-LeVerrier: M_1 = B, c_k = -tr(M_k)/k, M_{k+1} = B (M_k + c_k I)
    mk = [list(row) for row in b]
    coeffs = []
    for k in range(1, size + 1):
        ck, rem = divmod(-sum(mk[i][i] for i in range(size)), k)
        if rem:
            raise ArithmeticError(f"trace of M_{k} is not divisible by {k}")
        coeffs.append(ck)
        if k == size:
            break
        for i in range(size):
            mk[i][i] += ck
        mk = _matmul(b, mk)
    # det(xI - B) = x^{2n} + coeffs[0] x^{2n-1} + ...
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


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


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


def hitchin_vector(m: SkewMap, g: int) -> HitchinVector:
    """(a_1, ..., a_{g-1}, Pf) for a 2g x 2g skew map."""
    if m.size != 2 * g:
        raise ValueError(f"matrix size {m.size} != 2g = {2 * g}")
    coeffs = char_coeffs(m)
    return HitchinVector(a=tuple(coeffs[: g - 1]), pf=pfaffian(m))


def nilpotency_and_rank(m: SkewMap):
    """Exact rank and the nilpotency dichotomy (all invariants vanish)."""
    rank = rank_exact(m.entries)
    coeffs = char_coeffs(m)
    pf = pfaffian(m)
    nilpotent = not any(coeffs) and not pf
    return {"rank": rank, "nilpotent": nilpotent}


def rank2_orthogonal_decomposition(m: SkewMap):
    """Bases (ker_basis, im_basis) with ker ⊕ im = C^{2n} and q(ker, im) = 0.

    Requires rank(A) = 2 and A non-nilpotent; the two violations are reported
    distinctly.  For a skew map ker = im^perp, and the Gram determinant of two
    image columns is a_1 (Lagrange's identity), so ker ∩ im != 0, which the
    spanning test detects, exactly when the rank-2 map is nilpotent.
    """
    a = m.entries
    size = m.size
    pivots = _pivot_columns(a)
    if len(pivots) != 2:
        raise DecompositionError(f"rank is {len(pivots)}, expected 2")
    ker = nullspace_exact(a)
    im = [[a[i][j] for i in range(size)] for j in pivots]
    if len(ker) != size - 2:
        raise ArithmeticError("inconsistent kernel/image dimensions")
    stacked = ker + im
    if rank_exact([[v[c] for v in stacked] for c in range(size)]) != size:
        raise DecompositionError("map is nilpotent; no orthogonal decomposition")
    return ker, im
