"""Dense exact linear algebra over rationals and biquadratic extensions.

Matrices are lists of row lists.  A rational matrix is taken onto Python ints
once: each row is scaled by the lcm of its denominators.  One fraction-free
(Bareiss) elimination on those ints, with exact integer division by the
previous pivot, serves the echelon form (nullspace, solve, rank, pivot
columns) and the determinant; the result becomes a ``Fraction`` once, at the
end.  Matrices with biquadratic entries use ordinary division-based
elimination, raising :class:`NonInvertibleError` if no invertible pivot can be
found in a nonzero column.  Determinants over the biquadratic algebra
eliminate with invertible pivots too; cofactor expansion is kept for sizes up
to 3 and as the fallback when a nonzero column holds nothing but zero
divisors.  Span tests (:func:`rank_exact`, :func:`same_span`) take one echelon
form each.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .scalars import (
    RATIONAL_TYPES,
    Biquad,
    ModeMismatchError,
    NonInvertibleError,
    scalar_mode,
)

__all__ = [
    "nullspace_exact",
    "det_exact",
    "rank_exact",
    "solve_exact",
    "in_span",
    "same_span",
    "matvec",
    "check_exact_matrix",
]


def check_exact_matrix(m):
    """Validate that all entries are exact and share one arithmetic context."""
    ctx = None
    for row in m:
        for x in row:
            mode = scalar_mode(x)
            if mode == "complex-float":
                raise ModeMismatchError("matrix entry is not exact")
            if isinstance(x, Biquad):
                if ctx is None:
                    ctx = x.ctx
                elif x.ctx is not ctx and x.ctx != ctx:
                    raise ModeMismatchError("mixed biquadratic contexts in matrix")
    return ctx


def _is_rational_matrix(m):
    return all(isinstance(x, RATIONAL_TYPES) for row in m for x in row)


def _pivot_row(a, r, c):
    """First row at or below r whose entry in column c is invertible.

    Returns None when the column is zero there, and raises
    :class:`NonInvertibleError` when it is nonzero but every nonzero entry is a
    zero divisor (a biquadratic element of norm 0).
    """
    nrows = len(a)
    for i in range(r, nrows):
        x = a[i][c]
        if not x:
            continue
        if isinstance(x, Biquad):
            if x.norm() != 0:
                return i
        else:
            return i
    if any(a[i][c] for i in range(r, nrows)):
        raise NonInvertibleError(
            f"no invertible pivot in column {c} of a nonzero column"
        )
    return None


def _row_echelon_generic(m, limit=None):
    """Division-based reduced echelon form. Returns (rows, pivot_cols).

    Stops after ``limit`` pivots when a limit is given.
    """
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows or r == limit:
            break
        piv = _pivot_row(a, r, c)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def _integer_rows(m):
    """Each row of a rational matrix times the lcm of its denominators.

    Returns (rows, scales): integer rows and the positive scale of each.
    """
    rows, scales = [], []
    for row in m:
        # a list, not a generator expression: star-unpacking a generator
        # made the peak RSS of long runs creep up (measured on CPython 3.11)
        scale = lcm(*[x.denominator for x in row])
        rows.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return rows, scales


def _bareiss(a, limit=None):
    """Fraction-free (Bareiss) forward elimination of an integer matrix, in place.

    Each step sets a[i][j] = (p * a[i][j] - a[i][c] * a[r][j]) // prev below
    the pivot p, where prev is the previous pivot; by Sylvester's identity the
    entries stay integer minors of a, so the division is exact.  Stops after
    ``limit`` pivots when a limit is given.  Returns (pivot_cols, negate),
    where negate tells whether the row swaps made an odd permutation.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    prev = 1
    pivots = []
    negate = False
    r = 0
    for c in range(ncols):
        if r >= nrows or r == limit:
            break
        for piv in range(r, nrows):
            if a[piv][c]:
                break
        else:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            negate = not negate
        top = a[r]
        p = top[c]
        for i in range(r + 1, nrows):
            row = a[i]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (p * row[j] - f * top[j]) // prev
            row[c] = 0
        prev = p
        pivots.append(c)
        r += 1
    return pivots, negate


def _row_echelon_bareiss(m, limit=None):
    """Fraction-free echelon form of a rational matrix, on Python ints.

    Returns (rows, pivot_cols) with rows in (unnormalized) echelon form.
    """
    a, _ = _integer_rows(m)
    pivots, _ = _bareiss(a, limit)
    return a, pivots


def _back_substitute(a, pivots, ncols, one, zero):
    """Nullspace basis from an echelon form with unit or non-unit pivots."""
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = [zero] * ncols
        v[fc] = one
        # rows are in echelon order matching pivots
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = zero
            for c in range(pc + 1, ncols):
                if v[c]:
                    s = s + a[r][c] * v[c]
            v[pc] = -s / a[r][pc]
        basis.append(v)
    return basis


def nullspace_exact(m):
    """Basis of the right nullspace of an exact matrix.

    Rational matrices use the integer fraction-free elimination; matrices over
    a biquadratic extension use exact division-based elimination.  Returns []
    for a trivial kernel.
    """
    if not m or not m[0]:
        return []
    ctx = check_exact_matrix(m)
    ncols = len(m[0])
    if ctx is None and _is_rational_matrix(m):
        a, pivots = _row_echelon_bareiss(m)
        return _back_substitute(a, pivots, ncols, Fraction(1), Fraction(0))
    a, pivots = _row_echelon_generic(m)
    one = ctx.embed(1)
    zero = ctx.embed(0)
    return _back_substitute(a, pivots, ncols, one, zero)


def _pivot_columns(m, limit=None) -> list:
    """Indices of the columns of m outside the span of the columns before them.

    These are the pivot columns of one echelon form of m, so they are exactly
    the columns a greedy "keep it unless it lies in the span of those kept"
    loop picks.  Stops after ``limit`` of them when a limit is given.
    """
    if not m or not m[0]:
        return []
    if _is_rational_matrix(m):
        return _row_echelon_bareiss(m, limit)[1]
    check_exact_matrix(m)
    return _row_echelon_generic(m, limit)[1]


def rank_exact(m) -> int:
    return len(_pivot_columns(m))


def det_exact(m):
    """Exact determinant.

    A rational matrix has its rows scaled to integers (row i by s_i) and goes
    through the integer Bareiss elimination; the determinant is the sign of
    the row swaps times the last pivot over the product of the s_i, one
    ``Fraction`` built at the end.  Over the biquadratic algebra,
    matrices of size 3 or less use cofactor expansion (the cheapest there);
    larger ones use elimination with invertible pivots: O(n^3) products and
    one inverse per pivot.  When a nonzero column holds only zero divisors no
    invertible pivot exists, and the division-free cofactor expansion gives
    the result.
    """
    n = len(m)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if _is_rational_matrix(m):
        a, scales = _integer_rows(m)
        pivots, negate = _bareiss(a)
        if len(pivots) < n:
            return Fraction(0)
        return Fraction(-a[-1][-1] if negate else a[-1][-1], prod(scales))
    if n <= 3:
        return _det_cofactor(m)
    try:
        return _det_eliminate(m)
    except NonInvertibleError:
        return _det_cofactor(m)


def _det_eliminate(m):
    """Product of the pivots of a forward elimination with invertible pivots."""
    a = [list(row) for row in m]
    n = len(a)
    det = None
    negate = False
    for c in range(n):
        piv = _pivot_row(a, c, c)
        if piv is None:
            # a zero column: the matrix is singular; return a Biquad zero
            x = next((x for row in m for x in row if isinstance(x, Biquad)), m[0][0])
            return x - x
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            negate = not negate
        p = a[c][c]
        det = p if det is None else det * p
        if c + 1 < n:
            inv = Fraction(1) / p
            top = a[c]
            for i in range(c + 1, n):
                f = a[i][c]
                if f:
                    f = f * inv
                    row = a[i]
                    for j in range(c + 1, n):
                        row[j] = row[j] - f * top[j]
    return -det if negate else det


def _det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = None
    for j in range(n):
        x = m[0][j]
        if not x:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = x * _det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return m[0][0] - m[0][0]  # typed zero
    return total


def solve_exact(m, rhs):
    """One exact solution of m x = rhs, or None if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(m, rhs)]
    ncols = len(m[0])
    if _is_rational_matrix(aug):
        a, pivots = _row_echelon_bareiss(aug)
        one, zero = Fraction(1), Fraction(0)
    else:
        ctx = check_exact_matrix(aug)
        a, pivots = _row_echelon_generic(aug)
        one, zero = ctx.embed(1), ctx.embed(0)
    if ncols in pivots:
        return None  # pivot in the rhs column: inconsistent
    x = [zero] * ncols
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        s = zero + a[r][ncols]  # a Fraction, not an int, on Bareiss rows
        for c in range(pc + 1, ncols):
            if x[c]:
                s = s - a[r][c] * x[c]
        x[pc] = s / a[r][pc]
    return x


def matvec(m, v):
    out = []
    for row in m:
        s = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            s = s + x * y
        out.append(s)
    return out


def in_span(vectors, v) -> bool:
    """True iff v lies in the exact span of the given vectors."""
    if not vectors:
        return not any(v)
    m = [[vec[i] for vec in vectors] for i in range(len(v))]
    return solve_exact(m, list(v)) is not None


def same_span(a, b) -> bool:
    """True iff two families of vectors span the same subspace, exactly:
    rank(a) == rank(b) == rank(a + b)."""
    r = rank_exact(a)
    return r == rank_exact(b) and r == rank_exact(a + b)
