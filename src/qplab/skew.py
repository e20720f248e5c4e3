"""Invariants of skew-symmetric maps: characteristic coefficients, Pfaffian
and the rank-two orthogonal decomposition.

A :class:`SkewMap` with rational entries (``int`` or ``Fraction``) keeps its
integer image B = D*A, D the lcm of its denominators (D = 1 for an integer
matrix), built once with the map and checked for skewness there.  Every map
keeps one echelon form, built on first use: the integer Bareiss echelon of B
for a rational map.  The kernels read these two and never convert or
eliminate the entries again.

The characteristic coefficients and the Pfaffian run on Python ints, so they
need rational entries, and each result becomes a ``Fraction`` once, at the
end.  The characteristic coefficients read the rank r of B from its echelon
and come, at every rank, from the power sums of an integer r x r core by
Newton's identities.  B factors through the invertible r x r minor K on
the echelon's pivot rows and columns, and the core is K^{-1} times the
product of those rows and columns of B: B itself at full rank, and below it
an integer core built from the echelon rows by one integer back
substitution.  Every division is checked to be exact and every odd-power
coefficient checked to vanish.  The Pfaffian is fraction-free skew
elimination on a copy of B.  The rank-two decomposition also works over the
biquadratic algebra: the echelon gives the rank, the image and the kernel,
and a 2x2 Gram determinant of the image columns certifies ker ⊕ im (on
Python ints for a rational map).

The Pfaffian sign convention: the direct sum of standard 2x2 blocks with +1
above the diagonal has Pfaffian +1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, mul

from .linalg import (
    _back_substitute,
    _bareiss,
    _echelon,
    _integer_null_vectors,
    _invert,
    dot,
)
from .scalars import RATIONAL_TYPES, ModeMismatchError, _exact_context

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
    entries, fixed once built.

    A rational map keeps its integer image B = D*A, D the lcm of the
    denominators (D = 1 for an integer matrix), made once here; the integer
    kernels read it instead of converting the entries again.  Every map keeps
    one echelon form, made on first use and shared by
    :func:`char_coeffs`, :func:`rank2_orthogonal_decomposition` and
    :attr:`rank`: the integer Bareiss echelon of B for a rational map, the
    echelon of the entries over the biquadratic algebra otherwise.
    """

    __slots__ = ("n", "entries", "_image", "_form")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        size = len(entries)
        if size % 2 != 0 or any(len(row) != size for row in entries):
            raise ValueError("need a square matrix of even size")
        self.n = size // 2
        self.entries = entries
        self._image = None
        self._form = None
        if all(issubclass(t, RATIONAL_TYPES) for t in set(map(type, chain.from_iterable(entries)))):
            ratios = [[x.as_integer_ratio() for x in row] for row in entries]
            # a list, not a generator expression: see linalg._integer_rows
            d = lcm(*[q for row in ratios for _, q in row])
            self._image = [[p * (d // q) for p, q in row] for row in ratios], d
            _check_skew(self._image[0])
        else:
            _exact_context(chain.from_iterable(entries), "skew map entries")
            _check_skew(entries)

    @property
    def size(self) -> int:
        return 2 * self.n

    @property
    def rank(self) -> int:
        """The number of pivot columns of the map's echelon form."""
        return len(self._echelon_form()[1])

    def _integer_image(self):
        """(B, D) with B = D*A on Python ints; the integer kernels need
        rational entries."""
        if self._image is None:
            raise ModeMismatchError("needs rational entries, got a Biquad")
        return self._image

    def _echelon_form(self):
        """(rows, pivot_cols, ctx) of one echelon form, as
        :func:`~qplab.linalg._echelon` gives it, made on first use."""
        if self._form is None:
            if self._image is None:
                self._form = _echelon(self.entries)
            else:
                rows = [row[:] for row in self._image[0]]
                self._form = rows, _bareiss(rows)[0], None
        return self._form

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


def _check_skew(m):
    """Raise SkewnessError naming the first entry (i, j), i <= j, with
    m[i][j] + m[j][i] != 0.  A rational map is checked on its integer image,
    which names the same entry as D > 0.

    Row i is added to column i whole: a failing entry left of the diagonal
    has its mirror in an earlier row, so the first row with a nonzero sum
    has its first nonzero sum on or right of the diagonal."""
    for i, (row, col) in enumerate(zip(m, zip(*m))):
        sums = list(map(add, row, col))
        if any(sums):
            j = next(j for j, x in enumerate(sums) if x)
            raise SkewnessError(f"entry ({i},{j}) breaks skew symmetry")


def char_coeffs(m: SkewMap):
    """(a_1, ..., a_n) with det(xI - A) = x^{2n} + a_1 x^{2n-2} + ... + a_n.

    Runs on Python ints: with D the lcm of the denominators of A, B = D*A is
    an integer matrix, so det(xI - B) = x^{2n} + c_1 x^{2n-1} + ... + c_{2n}
    has integer c_k and a_j = c_{2j} / D^{2j}.  The rank r and the pivot
    columns P come from the map's echelon form of B.

    With Q the pivot rows of the echelon, the minor K = B[Q,P] is invertible
    (its determinant is, up to sign, the echelon's last pivot),
    B = B[:,P] K^{-1} B[Q,:], and so
    det(xI - B) = x^{size-r} det(xI_r - K^{-1} B[Q,:] B[:,P]): c_k = 0 for
    k > r, and c_1, ..., c_r are those of an r x r integer core scaled by
    the last pivot, from its power sums by Newton's identities
    (:func:`_core_coeffs`).  At full rank the core is B itself.

    Each division is checked to be exact, and the odd-power coefficients are
    verified to vanish exactly; either failure raises ``ArithmeticError``.
    """
    size = m.size
    b, d = m._integer_image()
    rows, pivots, _ = m._echelon_form()
    coeffs = _core_coeffs(b, rows, pivots)
    if any(coeffs[0::2]):
        raise ArithmeticError("odd characteristic coefficient nonzero")
    return tuple([Fraction(coeffs[k], d ** (k + 1)) if k < len(coeffs) else Fraction(0)
                  for k in range(1, size, 2)])


def _core_coeffs(b, rows, pivots):
    """c_1, ..., c_r of det(xI - B) for an integer skew B of rank r, from
    the echelon rows of B and their pivot columns P.

    Let Q be the rows of B that the elimination took as pivot rows.  The
    columns P span the image of B, so B = B[:,P] X, and rows Q are
    independent, so K = B[Q,P] is invertible: the last pivot D_K of the
    echelon is, up to sign, det K.  Then X = K^{-1} B[Q,:] and
    det(xI - B) = x^{size-r} det(xI_r - N), N = K^{-1} B[Q,:] B[:,P].  At
    full rank K is B with its rows reordered, so N = B and D_K is taken as
    1.  Below it, the echelon rows are E_r = T B[Q,:] with T invertible and
    E_r[:,P] = U upper triangular, so N = U^{-1} H with H = E_r B[:,P], and
    as B[:,P] is minus the transpose of B[P,:], H[a][c] = -E_a . B_{P_c}.
    One integer back substitution on [U | -H] over D_K gives M = D_K N, an
    integer matrix (D_K K^{-1} is, up to sign, the adjugate of K).  M goes
    through power sums and :func:`_newton`, and c_k = c_k(M) / D_K^k, each
    division checked to be exact.
    """
    r = len(pivots)
    if not r:  # the zero map
        return []
    if r == len(b):
        core, d_k = b, 1
    else:
        piv_rows = [b[p] for p in pivots]
        aug = [[e[p] for p in pivots] + [sum(map(mul, e, bp)) for bp in piv_rows]
               for e in rows[:r]]
        d_k, vectors = _integer_null_vectors(aug, range(r), range(r, 2 * r))
        core = [[w[a] for w in vectors] for a in range(r)]  # column c is vectors[c][:r]
    coeffs = []
    for k, c in enumerate(_newton(_power_traces(core)), 1):
        q, rem = divmod(c, d_k ** k)
        if rem:
            raise ArithmeticError(f"c_{k} of the core is not divisible by D_K^{k}")
        coeffs.append(q)
    return coeffs


def _power_traces(a):
    """p_1, ..., p_r with p_k = tr(A^k), for an r x r integer matrix A of
    even size r, from A, ..., A^{r/2}: p_k = tr(A^i A^j) with i + j = k."""
    r = len(a)
    cols = list(zip(*a))
    powers = [a]  # A^1, ..., A^{r/2}
    for _ in range(1, r // 2):
        powers.append([[sum(map(mul, row, c)) for c in cols] for row in powers[-1]])
    traces = [sum(a[i][i] for i in range(r))]
    for k in range(2, r + 1):
        i = k // 2
        traces.append(sum([sum(map(mul, u, v))
                           for u, v in zip(powers[i - 1], zip(*powers[k - i - 1]))]))
    return traces


def _newton(traces):
    """c_1, ..., c_m of det(xI - X) = x^m + c_1 x^{m-1} + ... from the power
    sums p_k = tr(X^k), k = 1..m, of an integer matrix X by Newton's
    identities, k c_k = -(p_k + c_1 p_{k-1} + ... + c_{k-1} p_1).  Each
    division by k is checked to be exact."""
    coeffs = []
    for k in range(1, len(traces) + 1):
        s = traces[k - 1] + sum(map(mul, coeffs, reversed(traces[: k - 1])))
        ck, rem = divmod(-s, k)
        if rem:
            raise ArithmeticError(f"Newton's sum for c_{k} is not divisible by {k}")
        coeffs.append(ck)
    return coeffs


def pfaffian(m: SkewMap):
    """Pf(A), with Pf(A)^2 = det(A).

    Runs fraction-free skew elimination with pivoting on a copy of the map's
    integer image B = D*A and returns Pf(B) / D^n as one ``Fraction``.
    """
    b, d = m._integer_image()
    return Fraction(_pfaffian_eliminate([row[:] for row in b]), d ** m.n)


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
    distinctly.  The map's echelon form, shared with :func:`char_coeffs`,
    gives the rank, the image columns (its pivot columns) and the kernel.
    For a skew map ker = im^perp, so ker ⊕ im is the whole space exactly
    when the Gram matrix of the two image columns u, v is invertible: the
    spanning test is the 2x2 Gram determinant G = (u.u)(v.v) - (u.v)^2, on
    the pivot rows of the integer image for a rational map.  By
    Lagrange's identity G is a nonzero multiple of a_1, so G = 0 exactly when
    the rank-2 map is nilpotent.  A nonzero G that is a zero divisor (only in
    a split algebra) raises :class:`NonInvertibleError`.
    """
    a = m.entries
    size = m.size
    echelon, pivots, ctx = m._echelon_form()
    if len(pivots) != 2:
        raise DecompositionError(f"rank is {len(pivots)}, expected 2")
    ker = _back_substitute(echelon, pivots, ctx)
    im = [[a[i][j] for i in range(size)] for j in pivots]
    if ctx is None:
        # rows P of the integer image are D times minus the image columns
        b, _ = m._integer_image()
        u, v = b[pivots[0]], b[pivots[1]]
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
