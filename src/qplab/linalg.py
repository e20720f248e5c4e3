"""Dense exact linear algebra over rationals and biquadratic extensions.

Matrices are lists of row lists.  Pivot columns, rank, nullspace and span
membership are all read off one forward echelon form, :func:`_echelon`, the
one place that chooses the elimination routine for the kind of entry:

* A rational matrix is taken onto Python ints once: each row is scaled by the
  lcm of its denominators, and one fraction-free (Bareiss) elimination runs on
  those ints, with exact integer division by the previous pivot.
* A matrix with biquadratic entries goes through one forward elimination with
  invertible pivots, :func:`_eliminate`.  The pivot search inverts each
  candidate and keeps the first inverse that exists, so no norm is taken;
  only the nonzero entries right of each pivot are updated.  It raises
  :class:`NonInvertibleError` when a nonzero column holds nothing but zero
  divisors.

Both leave an unnormalised echelon form and report its pivot columns and the
parity of its row swaps.  :func:`det_exact` keeps its own branch, as it needs
the row scales, that parity and, over the biquadratic algebra, cofactor
expansion for sizes up to 3 and when no invertible pivot exists.  The one
back substitution, :func:`_back_substitute`, gives the basis vector of each
free column a 1 there and 0 in the other free columns, so a nullspace basis
is fixed by its pivot columns.  On integer Bareiss rows it runs on ints:
the last pivot D times each basis vector is integral (Cramer's rule), so it
substitutes from D at the free column, checks each division by a pivot to
be exact and builds one ``Fraction`` over D per entry.  Over the
biquadratic algebra it multiplies by the inverse of each pivot, so every
``Biquad`` is kept reduced.  :func:`solve_exact` is a nullspace vector of
[m | -rhs], and :func:`in_span` asks whether v is a pivot column of
[vectors | v].

A rational matrix that is fixed while the vectors change (a table of a
pencil) is kept in the integer form of :func:`_integer_rows` and applied by
:func:`scaled_matvec`: integer dot products on the vector's numerators over
one common denominator, and one reduction per output.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul

from .scalars import (
    _EXACT_TYPES,
    Biquad,
    ModeMismatchError,
    NonInvertibleError,
    _common_numerators,
    _make,
)

__all__ = [
    "nullspace_exact",
    "det_exact",
    "rank_exact",
    "solve_exact",
    "in_span",
    "matvec",
    "dot",
    "scaled_matvec",
    "check_exact_matrix",
]


def check_exact_matrix(m):
    """Validate that all entries are exact and share one arithmetic context.

    Returns that context, or None when every entry is rational.
    """
    ctx = None
    for row in m:
        for x in row:
            if not isinstance(x, _EXACT_TYPES):
                raise ModeMismatchError(
                    f"matrix entry: {type(x).__name__} is not an exact scalar"
                )
            if type(x) is Biquad and x.ctx is not ctx:
                if ctx is None:
                    ctx = x.ctx
                elif x.ctx != ctx:
                    raise ModeMismatchError("mixed biquadratic contexts in matrix")
    return ctx


def _invert(x):
    """Inverse of an exact scalar; raises ZeroDivisionError for 0 and
    :class:`NonInvertibleError` for a zero divisor."""
    if type(x) is Biquad:
        return x.inverse()
    return 1 / Fraction(x)


def _pivot_row(a, r, c):
    """First row at or below r whose entry in column c is invertible.

    Returns (row, inverse of that entry), or None when the column is zero
    there.  Raises :class:`NonInvertibleError` when the column is nonzero but
    every nonzero entry is a zero divisor (a biquadratic element of norm 0).
    """
    zero_divisors = False
    for i in range(r, len(a)):
        x = a[i][c]
        if not x:
            continue
        try:
            return i, _invert(x)
        except NonInvertibleError:
            zero_divisors = True
    if zero_divisors:
        raise NonInvertibleError(
            f"no invertible pivot in column {c} of a nonzero column"
        )
    return None


def _eliminate(a):
    """Forward elimination with invertible pivots, in place.

    For matrices with biquadratic entries.  Below the pivot p of column c,
    each row with a nonzero entry f in column c loses (f / p) times the pivot
    row, on the pivot row's nonzero entries right of c only; f becomes 0.
    Pivot rows stay unnormalised.  Returns (pivot_cols, negate) like
    :func:`_bareiss`; raises :class:`NonInvertibleError` as
    :func:`_pivot_row` does.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    negate = False
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        found = _pivot_row(a, r, c)
        if found is None:
            continue
        piv, inv = found
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            negate = not negate
        top = a[r]
        right = [(j, top[j]) for j in range(c + 1, ncols) if top[j]]
        for i in range(r + 1, nrows):
            row = a[i]
            f = row[c]
            if not f:
                continue
            f = f * inv
            for j, y in right:
                row[j] = row[j] - f * y
            row[c] = 0
        pivots.append(c)
        r += 1
    return pivots, negate


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


def _bareiss(a):
    """Fraction-free (Bareiss) forward elimination of an integer matrix, in place.

    Each step sets a[i][j] = (p * a[i][j] - a[i][c] * a[r][j]) // prev below
    the pivot p, where prev is the previous pivot; by Sylvester's identity the
    entries stay integer minors of a, so the division is exact.  Returns
    (pivot_cols, negate), where negate tells whether the row swaps made an
    odd permutation.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    prev = 1
    pivots = []
    negate = False
    r = 0
    for c in range(ncols):
        if r >= nrows:
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


def _echelon(m):
    """One forward echelon form of an exact matrix: (rows, pivot_cols, ctx).

    ctx is the matrix's biquadratic context, or None when every entry is
    rational; then rows are the integer rows of the Bareiss elimination,
    otherwise a copy of m after the elimination with invertible pivots.
    """
    ctx = check_exact_matrix(m)
    if ctx is None:
        a, _ = _integer_rows(m)
        pivots, _ = _bareiss(a)
    else:
        a = [list(row) for row in m]
        pivots, _ = _eliminate(a)
    return a, pivots, ctx


def _back_substitute(a, pivots, ctx):
    """Nullspace basis from an echelon form with non-unit pivots.

    For integer Bareiss rows (ctx None) the last pivot D is, up to sign, the
    minor of the pivot rows and columns, so by Cramer's rule D times each
    basis vector is integral: the substitution runs on ints from D at the
    free column, each division by a pivot checked to be exact, and each
    entry becomes one ``Fraction`` over D at the end.  Over the biquadratic
    algebra each pivot is inverted once and shared by every basis vector.
    """
    ncols = len(a[0])
    free_cols = [c for c in range(ncols) if c not in pivots]
    if not free_cols:
        return []
    if ctx is None:
        return _back_substitute_integer(a, pivots, free_cols)
    one, zero = ctx.embed(1), ctx.embed(0)
    neg_inv = [-_invert(a[r][pc]) for r, pc in enumerate(pivots)]
    basis = []
    for fc in free_cols:
        v = [zero] * ncols
        v[fc] = one
        # rows are in echelon order matching pivots
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            row = a[r]
            s = zero
            for c in range(pc + 1, ncols):
                if v[c]:
                    s = s + row[c] * v[c]
            v[pc] = s * neg_inv[r]
        basis.append(v)
    return basis


def _back_substitute_integer(a, pivots, free_cols):
    """:func:`_back_substitute` on integer Bareiss rows: D v on ints, one
    ``Fraction`` per entry.  Raises ``ArithmeticError`` if a division by a
    pivot leaves a remainder, which Cramer's rule rules out."""
    ncols = len(a[0])
    d = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    steps = list(zip(a, pivots))[::-1]
    one, zero = Fraction(1), Fraction(0)
    basis = []
    for fc in free_cols:
        w = [0] * ncols
        w[fc] = d
        for row, pc in steps:
            # row is 0 left of pc and w is still 0 at pc and at the pivots
            # above, so the whole row's dot product is the sum right of pc
            q, rem = divmod(-sum(map(mul, row, w)), row[pc])
            if rem:
                raise ArithmeticError(f"back substitution: pivot {pc} does not divide")
            w[pc] = q
        basis.append([one if c == fc else Fraction(x, d) if x else zero
                      for c, x in enumerate(w)])
    return basis


def nullspace_exact(m):
    """Basis of the right nullspace of an exact matrix.

    The basis vector of each free column has a 1 there and 0 in the other free
    columns, so the basis depends on the pivot columns only.  Returns [] for a
    trivial kernel.
    """
    if not m or not m[0]:
        return []
    return _back_substitute(*_echelon(m))


def _pivot_columns(m) -> list:
    """Indices of the columns of m outside the span of the columns before them.

    These are the pivot columns of one echelon form of m, so they are exactly
    the columns a greedy "keep it unless it lies in the span of those kept"
    loop picks.
    """
    return _echelon(m)[1]


def rank_exact(m) -> int:
    return len(_pivot_columns(m))


def det_exact(m):
    """Exact determinant.

    A rational matrix has its rows scaled to integers (row i by s_i) and goes
    through the integer Bareiss elimination; the determinant is the sign of
    the row swaps times the last pivot over the product of the s_i, one
    ``Fraction`` built at the end.  Over the biquadratic algebra, matrices of
    size 3 or less use cofactor expansion (the cheapest there); larger ones go
    through the same forward elimination with invertible pivots as the
    echelon form, and the determinant is the signed product of the diagonal:
    O(n^3) products and one inverse per pivot.  When a nonzero column holds
    only zero divisors no invertible pivot exists, and the division-free
    cofactor expansion gives the result.
    """
    n = len(m)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    ctx = check_exact_matrix(m)
    if ctx is None:
        a, scales = _integer_rows(m)
        pivots, negate = _bareiss(a)
        if len(pivots) < n:
            return Fraction(0)
        return Fraction(-a[-1][-1] if negate else a[-1][-1], prod(scales))
    if n <= 3:
        return _det_cofactor(m)
    a = [list(row) for row in m]
    try:
        pivots, negate = _eliminate(a)
    except NonInvertibleError:
        return _det_cofactor(m)
    if len(pivots) < n:
        return ctx.embed(0)
    det = a[0][0]
    for i in range(1, n):
        det = det * a[i][i]
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
    """One exact solution of m x = rhs, or None if inconsistent.

    It is the nullspace basis vector of [m | -rhs] that has a 1 in the last
    column, without that entry; its other free unknowns are 0.  The system is
    inconsistent iff the last column is a pivot column, and then no basis
    vector has that entry.
    """
    basis = nullspace_exact([list(row) + [-b] for row, b in zip(m, rhs)])
    # free columns come in order, so the last column's vector is the last one
    if basis and basis[-1][-1]:
        return basis[-1][:-1]
    return None


def dot(a, b):
    """Sum of the products a[i] * b[i] over the terms with both factors
    nonzero, so a sparse vector costs one product per nonzero entry.

    The sum keeps the type of the entries: it starts at the first such
    product, and with none it is a[0] * b[0], a typed zero.  Put the
    ``Biquad`` factor first where there is one, so that each product runs
    ``Biquad.__mul__`` directly.  A rational matrix that is applied to many
    vectors is cheaper through :func:`scaled_matvec`, which reduces each
    output once instead of each term.
    """
    s = None
    for x, y in zip(a, b):
        if x and y:
            s = x * y if s is None else s + x * y
    return a[0] * b[0] if s is None else s


def matvec(m, v):
    return [dot(row, v) for row in m]


def scaled_matvec(rows, scales, v):
    """The rational matrix with rows rows[i] / scales[i] applied to the exact
    vector v: integer rows and one positive scale per row, the form
    :func:`_integer_rows` makes once for a matrix that is applied many times.

    v is put on one common denominator d as four integer columns of
    numerators, so output i is four integer dot products over scales[i] * d,
    reduced once (one ``Biquad`` built by ``_make``, or one ``Fraction`` when
    v is rational) instead of once per term as in :func:`dot`.  Each output
    equals dot(v, row) for the rational row, field for field and typed zero
    included: it is a ``Biquad`` when a nonzero ``Biquad`` entry of v meets a
    nonzero entry of the row or, when no term has two nonzero factors, when
    v[0] is a ``Biquad``.  Raises :class:`ModeMismatchError` for an entry
    that is not an exact scalar and for ``Biquad`` entries of two contexts.
    """
    ctx, nums, d = _common_numerators(v)
    if ctx is None:
        return [Fraction(sum(map(mul, row, nums)), s * d)
                for row, s in zip(rows, scales)]
    has_rational = any(type(n) is int for n in nums)
    c0, c1, c2, c3 = zip(*[(n, 0, 0, 0) if type(n) is int else n for n in nums])
    out = []
    for row, s in zip(rows, scales):
        n0 = sum(map(mul, row, c0))
        if has_rational and not _biquad_sum(row, v):
            out.append(Fraction(n0, s * d))
        else:
            out.append(_make(ctx, n0, sum(map(mul, row, c1)), sum(map(mul, row, c2)),
                             sum(map(mul, row, c3)), s * d))
    return out


def _biquad_sum(row, v) -> bool:
    """Whether dot(v, row) is a ``Biquad``, for a rational row and a vector
    v with rational and ``Biquad`` entries: some term with two nonzero
    factors has a ``Biquad`` one, or there is no such term and v[0], the
    factor of the typed zero, is a ``Biquad``."""
    live = [x for x, r in zip(v, row) if r and x]
    if not live:
        return type(v[0]) is Biquad
    return any(type(x) is Biquad for x in live)


def in_span(vectors, v) -> bool:
    """True iff v lies in the exact span of the given vectors: the last
    column of [vectors | v] is not a pivot column.  The empty family spans
    only the zero vector."""
    return len(vectors) not in _pivot_columns(list(zip(*vectors, v)))
