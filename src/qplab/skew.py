"""Invariants of skew-symmetric maps: characteristic coefficients, Pfaffian,
the invariant vector (a_1, ..., a_{g-1}, Pf), rank/nilpotency and the rank-two
orthogonal decomposition.

Exact invariants run on Python ints: the matrix is scaled once by the lcm of
its denominators, and each result becomes a ``Fraction`` once, at the end.

The Pfaffian sign convention: the direct sum of standard 2x2 blocks with +1
above the diagonal has Pfaffian +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

import numpy as np

from .linalg import _pivot_columns, nullspace_exact, rank_exact
from .scalars import is_exact, to_complex

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

FLOAT_SKEW_TOL = 1e-12
FLOAT_RANK_TOL = 1e-9


class SkewnessError(ValueError):
    """Matrix is not skew-symmetric (exactly / within float tolerance)."""


class DecompositionError(ValueError):
    """Hypotheses of the rank-two orthogonal decomposition fail."""


class SkewMap:
    """Even-size skew-symmetric matrix, exact or float."""

    __slots__ = ("n", "entries", "mode")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        size = len(entries)
        if size % 2 != 0 or any(len(row) != size for row in entries):
            raise ValueError("need a square matrix of even size")
        self.n = size // 2
        self.entries = entries
        exact = all(is_exact(x) for row in entries for x in row)
        self.mode = "exact" if exact else "float"
        self._check_skew()

    def _check_skew(self):
        m = self.entries
        size = 2 * self.n
        if self.mode == "exact":
            for i in range(size):
                for j in range(i, size):
                    if m[i][j] != -m[j][i]:
                        raise SkewnessError(f"entry ({i},{j}) breaks skew symmetry")
        else:
            a = self.to_array()
            scale = np.abs(a).max() or 1.0
            if np.abs(a + a.T).max() > FLOAT_SKEW_TOL * scale:
                raise SkewnessError("float skew-symmetry residual above tolerance")

    @property
    def size(self) -> int:
        return 2 * self.n

    def to_array(self) -> np.ndarray:
        return np.array(
            [[to_complex(x) for x in row] for row in self.entries], dtype=complex
        )

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
        return f"SkewMap(size={self.size}, mode={self.mode})"


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

    Exact mode runs the Faddeev-LeVerrier recursion on Python ints: with D the
    lcm of the denominators of A, B = D*A is an integer matrix, so every M_k
    and c_k of the recursion for B is an integer and a_j = c_{2j} / D^{2j}.
    The division c_k = -tr(M_k)/k is checked to be exact, and the odd-power
    coefficients are verified to vanish exactly.
    """
    size = m.size
    if m.mode != "exact":
        cs = np.poly(m.to_array())  # leading 1, then c_1..c_{2n}
        odd = [cs[k] for k in range(1, size + 1, 2)]
        scale = max(np.abs(cs).max(), 1.0)
        if max(abs(x) for x in odd) > 1e-9 * scale:
            raise ArithmeticError("odd characteristic coefficients not negligible")
        return tuple(complex(cs[k]) for k in range(2, size + 1, 2))
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
    as Python ints."""
    # a list, not a generator expression: see linalg._integer_rows
    d = lcm(*[x.denominator for row in entries for x in row])
    return [[x.numerator * (d // x.denominator) for x in row] for row in entries], d


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def pfaffian(m: SkewMap):
    """Pf(A), with Pf(A)^2 = det(A).

    Exact mode scales A by the lcm D of its denominators, runs fraction-free
    skew elimination with pivoting on Python ints and returns
    Pf(D*A) / D^n as one ``Fraction``; the recursive cofactor expansion is
    kept for small float matrices.
    """
    if m.mode != "exact":
        return _pfaffian_recursive(
            [[to_complex(x) for x in row] for row in m.entries]
        )
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


def _pfaffian_recursive(a):
    size = len(a)
    if size == 0:
        return 1
    if size == 2:
        return a[0][1]
    total = 0
    for j in range(1, size):
        x = a[0][j]
        if not x:
            continue
        keep = [k for k in range(1, size) if k != j]
        minor = [[a[r][c] for c in keep] for r in keep]
        total += (-1) ** (j - 1) * x * _pfaffian_recursive(minor)
    return total


def hitchin_vector(m: SkewMap, g: int) -> HitchinVector:
    """(a_1, ..., a_{g-1}, Pf) for a 2g x 2g skew map."""
    if m.size != 2 * g:
        raise ValueError(f"matrix size {m.size} != 2g = {2 * g}")
    coeffs = char_coeffs(m)
    return HitchinVector(a=tuple(coeffs[: g - 1]), pf=pfaffian(m))


def nilpotency_and_rank(m: SkewMap):
    """Exact rank and the nilpotency dichotomy (all invariants vanish)."""
    if m.mode == "exact":
        rank = rank_exact(m.entries)
    else:
        sv = np.linalg.svd(m.to_array(), compute_uv=False)
        rank = int(np.sum(sv > FLOAT_RANK_TOL * (sv[0] if sv[0] else 1.0)))
    coeffs = char_coeffs(m)
    pf = pfaffian(m)
    nilpotent = not any(coeffs) and not pf
    return {"rank": rank, "nilpotent": nilpotent}


def rank2_orthogonal_decomposition(m: SkewMap):
    """Bases (ker_basis, im_basis) with ker ⊕ im = C^{2n} and q(ker, im) = 0.

    Requires rank(A) = 2 and A non-nilpotent; the two violations are reported
    distinctly.
    """
    if m.mode != "exact":
        raise ValueError("decomposition is computed in exact mode only")
    info = nilpotency_and_rank(m)
    if info["rank"] != 2:
        raise DecompositionError(f"rank is {info['rank']}, expected 2")
    if info["nilpotent"]:
        raise DecompositionError("map is nilpotent; no orthogonal decomposition")
    a = m.entries
    ker = nullspace_exact(a)
    size = m.size
    im = [[a[i][j] for i in range(size)] for j in _pivot_columns(a, limit=2)]
    if len(ker) != size - 2 or len(im) != 2:
        raise ArithmeticError("inconsistent kernel/image dimensions")
    # directness: ker ∩ im = 0 (guaranteed by non-nilpotency; verified)
    stacked = [list(v) for v in ker + im]
    if rank_exact([[stacked[r][c] for r in range(size)] for c in range(size)]) != size:
        raise ArithmeticError("kernel and image do not span the full space")
    return ker, im
