"""Exact linear algebra: fraction-free elimination against independent oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplab import (
    Biquad,
    BiquadContext,
    NonInvertibleError,
    det_exact,
    in_span,
    matvec,
    nullspace_exact,
    rank_exact,
    same_span,
    solve_exact,
)
from qplab.linalg import (
    _back_substitute,
    _det_cofactor,
    _det_eliminate,
    _row_echelon_bareiss,
    _row_echelon_generic,
)


def rational_matrices(rows, cols):
    return st.lists(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=4),
            min_size=cols,
            max_size=cols,
        ),
        min_size=rows,
        max_size=rows,
    )


def _nullspace_naive(m):
    """Oracle for nullspace_exact on rational input: plain division-based
    elimination instead of fraction-free Bareiss."""
    a = [[Fraction(x) for x in row] for row in m]
    rows, pivots = _row_echelon_generic(a)
    return _back_substitute(rows, pivots, len(m[0]), Fraction(1), Fraction(0))


def _row_echelon_bareiss_fraction(m):
    """Oracle for the integer Bareiss elimination: the same row scaling and
    elimination steps, every entry a reduced Fraction."""
    a = [[Fraction(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    for i, row in enumerate(a):
        den = math.lcm(*(x.denominator for x in row))
        a[i] = [x * den for x in row]
    prev = Fraction(1)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
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


def _det_bareiss_fraction(m):
    """Oracle for the rational det_exact: Bareiss elimination on Fractions,
    stopping at the first column without a pivot."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    prev = Fraction(1)
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if a[i][c]), None)
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


def random_rational_matrix(rng, rows, cols):
    """Entries with denominators up to 6; about a third of them zero, so
    leading entries vanish and elimination must swap rows."""
    return [
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.65
            else Fraction(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def random_rational_cases(seed):
    """Square matrices of size 0..12: general ones, ones with a zero first
    column above a pivot far down, and singular ones (a row that combines two
    others)."""
    rng = random.Random(seed)
    for n in range(13):
        for kind in ("general", "swap", "singular"):
            m = random_rational_matrix(rng, n, n)
            if kind == "swap" and n > 1:
                for row in m[:-1]:
                    row[0] = Fraction(0)
                m[-1][0] = Fraction(rng.randint(1, 9), rng.randint(1, 6))
            if kind == "singular" and n > 2:
                m[n // 2] = [Fraction(3, 2) * x - y for x, y in zip(m[0], m[-1])]
            yield kind, m


def test_rational_det_and_echelon_match_fraction_oracles():
    for kind, m in random_rational_cases(seed=5):
        d = det_exact(m)
        assert type(d) is Fraction
        assert d == _det_bareiss_fraction(m)
        if kind == "singular" and len(m) > 2:
            assert d == 0
        if m:
            rows, pivots = _row_echelon_bareiss(m)
            assert (rows, pivots) == _row_echelon_bareiss_fraction(m)
            assert all(type(x) is int for row in rows for x in row)
        # wide and tall shapes exercise skipped columns and surplus rows
        wide = [row + row[:2] for row in m]
        if wide:
            assert _row_echelon_bareiss(wide) == _row_echelon_bareiss_fraction(wide)
            assert _row_echelon_bareiss(m + m[:2]) == _row_echelon_bareiss_fraction(
                m + m[:2]
            )


def test_rational_results_are_fractions():
    # integer input and pivots that leave back-substitution sums empty
    assert type(det_exact([[2, 1], [1, 1]])) is Fraction
    sol = solve_exact([[2, 0], [0, 3]], [1, 1])
    assert sol == [Fraction(1, 2), Fraction(1, 3)]
    assert all(type(x) is Fraction for x in sol)
    for kind, m in random_rational_cases(seed=6):
        if not m:
            continue
        rhs = [row[0] + 2 * row[-1] for row in m]  # a consistent right-hand side
        sol = solve_exact(m, rhs)
        assert all(type(x) is Fraction for x in sol)
        assert matvec(m, sol) == rhs
        for v in nullspace_exact(m):
            assert all(type(x) is Fraction for x in v)
            assert not any(matvec(m, v))


@given(rational_matrices(3, 5))
@settings(max_examples=60, deadline=None)
def test_nullspace_matches_naive_oracle(m):
    fast = nullspace_exact(m)
    naive = _nullspace_naive(m)
    assert len(fast) == len(naive)
    for v in fast:
        assert all(not r for r in matvec(m, v))
    assert same_span(fast, naive) or (not fast and not naive)


@given(rational_matrices(4, 4))
@settings(max_examples=60, deadline=None)
def test_rank_and_det_against_numpy(m):
    a = np.array([[float(x) for x in row] for row in m])
    sv = np.linalg.svd(a, compute_uv=False)
    scale = sv[0] if sv[0] > 0 else 1.0
    np_rank = int(np.sum(sv > 1e-9 * scale))
    assert rank_exact(m) == np_rank
    d = det_exact(m)
    assert abs(float(d) - np.linalg.det(a)) < 1e-6 * max(1.0, abs(float(d)))


@given(rational_matrices(4, 4), st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=4, max_size=4
))
@settings(max_examples=60, deadline=None)
def test_solve_exact_residual(m, rhs):
    sol = solve_exact(m, rhs)
    if sol is None:
        # inconsistent: rhs not in column span
        cols = [[row[j] for row in m] for j in range(4)]
        assert not in_span(cols, rhs)
    else:
        assert matvec(m, sol) == list(rhs)


def test_nullspace_biquad_entries():
    ctx = BiquadContext(10, -14)
    r = ctx.sqrt_u()
    mixed = [[3, r, 1], [0, 2, r]]  # plain int pivots beside Biquad entries
    for m in ([[r, ctx.embed(1), r + 1], [ctx.embed(0), r, ctx.embed(1)]], mixed):
        basis = nullspace_exact(m)
        assert len(basis) == 1
        assert all(not x for x in matvec(m, basis[0]))


def test_nullspace_zero_divisor_pivot_raises():
    # in a split context a nonzero column may hold only zero divisors
    ctx = BiquadContext(4, 3)
    zd = ctx.sqrt_u() - 2  # norm 0, nonzero
    with pytest.raises(NonInvertibleError):
        nullspace_exact([[zd, ctx.embed(0)], [ctx.embed(0), ctx.embed(1)]])


def test_det_exact_known_values():
    assert det_exact([[Fraction(2)]]) == 2
    assert det_exact([[1, 2], [3, 4]]) == -2
    # Hilbert matrices: det H_n = c_n^4 / c_{2n} with c_n = prod_{i<n} i!
    def c(n):
        return math.prod(math.factorial(i) for i in range(1, n))

    for n in range(2, 8):
        hilbert = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
        d = det_exact(hilbert)
        assert type(d) is Fraction
        assert d == Fraction(c(n) ** 4, c(2 * n))
    assert Fraction(c(3) ** 4, c(6)) == Fraction(1, 2160)


def test_span_predicates():
    e1 = [Fraction(1), Fraction(0)]
    e2 = [Fraction(0), Fraction(1)]
    assert in_span([e1, e2], [Fraction(3), Fraction(-7)])
    assert not in_span([e1], e2)
    assert same_span([e1, e2], [[1, 1], [1, -1]])
    assert not same_span([e1], [e2])


def random_biquad_matrix(ctx, n, seed):
    rng = random.Random(seed)

    def coord():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    return [[ctx.element(coord(), coord(), coord(), coord()) for _ in range(n)]
            for _ in range(n)]


@pytest.mark.parametrize(
    "ctx", [BiquadContext(10, -14), BiquadContext(Fraction(5, 3), Fraction(-7, 2))]
)
def test_det_exact_biquad_matches_cofactor(ctx):
    for n in range(1, 8):
        m = random_biquad_matrix(ctx, n, seed=n)
        d = det_exact(m)
        assert isinstance(d, Biquad)
        assert d == _det_cofactor(m)
    # row swaps (a zero leading entry) and a singular matrix
    m = random_biquad_matrix(ctx, 5, seed=11)
    m[0][0] = ctx.embed(0)
    assert det_exact(m) == _det_cofactor(m)
    m[3] = list(m[1])
    zero = det_exact(m)
    assert isinstance(zero, Biquad) and not zero


def test_det_exact_zero_divisor_column_falls_back_to_cofactor():
    # split context: sqrt(u) - 2 is nonzero with norm 0, so a column holding
    # only multiples of it has no invertible pivot
    ctx = BiquadContext(4, 3)
    zd = ctx.sqrt_u() - 2
    m = random_biquad_matrix(ctx, 5, seed=5)
    for i, row in enumerate(m):
        row[2] = zd * (i + 1)
    with pytest.raises(NonInvertibleError):
        _det_eliminate(m)
    d = det_exact(m)
    assert d == _det_cofactor(m)
    assert d


def test_det_exact_biquad_multiplications_grow_polynomially(monkeypatch):
    ctx = BiquadContext(10, -14)
    m = random_biquad_matrix(ctx, 8, seed=8)
    count = [0]
    mul = Biquad.__mul__

    def counting(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Biquad, "__mul__", counting)
    monkeypatch.setattr(Biquad, "__rmul__", counting)
    d = det_exact(m)
    assert d
    # cofactor expansion would take 69280 products here
    assert 0 < count[0] < 8 ** 3


def test_same_span_biquad_families():
    ctx = BiquadContext(Fraction(5, 3), Fraction(-7, 2))
    r, s = ctx.sqrt_u(), ctx.sqrt_w()
    a = [[r, ctx.embed(1), s, ctx.embed(0)], [ctx.embed(2), r * s, ctx.embed(0), s]]
    # invertible recombinations and a dependent extra vector span the same space
    b = [
        [x + r * y for x, y in zip(*a)],
        [s * x - y for x, y in zip(*a)],
        [(r + 1) * x for x in a[0]],
    ]
    assert same_span(a, b)
    assert same_span(b, a)
    # one vector of a with an independent one, or a alone with one more vector
    assert not same_span(a, [a[0], [ctx.embed(0), ctx.embed(1), r, ctx.embed(0)]])
    assert not same_span(a, a + [[ctx.embed(1), ctx.embed(0), ctx.embed(0), ctx.embed(0)]])
    assert not same_span(a[:1], a)
