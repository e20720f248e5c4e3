"""Dense exact linear algebra over rationals and biquadratic extensions.

Matrices are lists of row lists.  Rational matrices go through fraction-free
(Bareiss) elimination; matrices with biquadratic entries use ordinary
division-based elimination, raising :class:`NonInvertibleError` if no
invertible pivot can be found in a nonzero column.  Determinants over the
biquadratic algebra eliminate with invertible pivots too; cofactor expansion
is kept for sizes up to 3 and as the fallback when a nonzero column holds
nothing but zero divisors.  Span tests (:func:`rank_exact`,
:func:`same_span`) take one echelon form each.
"""

from __future__ import annotations

from fractions import Fraction

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


def _row_echelon_bareiss(m):
    """Fraction-free elimination for integer/rational matrices.

    Returns (rows, pivot_cols) with rows in (unnormalized) echelon form.
    """
    a = [[Fraction(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    # clear denominators row-wise so the Bareiss divisions stay exact
    for i, row in enumerate(a):
        den = 1
        for x in row:
            den = den * x.denominator // _gcd(den, x.denominator)
        a[i] = [x * den for x in row]
    prev = Fraction(1)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = None
        for i in range(r, nrows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) / prev
            a[i][c] = Fraction(0)
        prev = a[r][c]
        pivots.append(c)
        r += 1
    return a, pivots


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


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

    Rational matrices use fraction-free elimination; matrices over a
    biquadratic extension use exact division-based elimination.  Returns [] for
    a trivial kernel.
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
        return _row_echelon_bareiss(m)[1][:limit]
    check_exact_matrix(m)
    return _row_echelon_generic(m, limit)[1]


def rank_exact(m) -> int:
    return len(_pivot_columns(m))


def det_exact(m):
    """Exact determinant.

    Rational matrices use Bareiss elimination.  Over the biquadratic algebra,
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
        a = [[Fraction(x) for x in row] for row in m]
        sign = 1
        prev = Fraction(1)
        for c in range(n - 1):
            piv = None
            for i in range(c, n):
                if a[i][c]:
                    piv = i
                    break
            if piv is None:
                return Fraction(0)
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                sign = -sign
            for i in range(c + 1, n):
                for j in range(c + 1, n):
                    a[i][j] = (a[c][c] * a[i][j] - a[i][c] * a[c][j]) / prev
                a[i][c] = Fraction(0)
            prev = a[c][c]
        return sign * a[n - 1][n - 1]
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
        s = a[r][ncols]
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
