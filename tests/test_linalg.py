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
    CotangentRep,
    NonInvertibleError,
    PencilOfQuadrics,
    PointOnX,
    SkewMap,
    canonical_pencil,
    det_exact,
    f_H,
    in_span,
    matvec,
    n_tilde_splitting,
    nullspace_exact,
    phi_components,
    phi_X,
    rank2_orthogonal_decomposition,
    rank_exact,
    run_vandermonde_check,
    sample_pair,
    sample_point,
    solve_exact,
    tangent_frame,
    trivial_factor_matches_tangent,
    v_perp_kernel,
    vandermonde_normalizer,
    verify_lagrangian,
)
from qplab.linalg import (
    _det_cofactor,
    _echelon,
    _eliminate,
    _integer_rows,
    _pivot_columns,
    _pivot_row,
    dot,
    scaled_matvec,
)
from qplab.scalars import ModeMismatchError, _reduce
from qplab.variety import _vanishes_on_S
import qplab.fibration as fibration


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


def _row_echelon_gauss_jordan(m):
    """Oracle for the elimination with invertible pivots: division-based
    reduced echelon form.  Each pivot row is scaled to a unit pivot and the
    pivot column is cleared above and below it; the pivot is the first entry
    of nonzero norm.  Returns (rows, pivot_cols)."""
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0

    def invertible(x):
        return x.norm() != 0 if isinstance(x, Biquad) else x != 0

    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = next((i for i in range(r, nrows) if invertible(a[i][c])), None)
        if piv is None:
            if any(a[i][c] for i in range(r, nrows)):
                raise NonInvertibleError(f"only zero divisors in column {c}")
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


def _nullspace_naive(m, one=Fraction(1), zero=Fraction(0)):
    """Oracle for nullspace_exact: read off the reduced echelon form, where
    the basis vector of free column f is e_f minus the entries of column f on
    the pivot coordinates."""
    rows, pivots = _row_echelon_gauss_jordan(m)
    ncols = len(m[0])
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(rows, pivots):
            v[pc] = zero - row[fc]
        basis.append(v)
    return basis


def _solve_naive(m, rhs, zero):
    """Oracle for solve_exact: the pivot coordinates of the reduced echelon
    form of [m | rhs] read off its last column, the free ones zero."""
    ncols = len(m[0])
    rows, pivots = _row_echelon_gauss_jordan([list(r) + [b] for r, b in zip(m, rhs)])
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for row, pc in zip(rows, pivots):
        x[pc] = zero + row[ncols]
    return x


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
            rows, pivots, ctx = _echelon(m)
            assert (rows, pivots) == _row_echelon_bareiss_fraction(m)
            assert ctx is None
            assert all(type(x) is int for row in rows for x in row)
        # wide and tall shapes exercise skipped columns and surplus rows
        wide = [row + row[:2] for row in m]
        if wide:
            assert _echelon(wide)[:2] == _row_echelon_bareiss_fraction(wide)
            assert _echelon(m + m[:2])[:2] == _row_echelon_bareiss_fraction(m + m[:2])


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


def _back_substitute_fraction(a, pivots):
    """Oracle for the rational back substitution: each pivot inverted once
    and the sums taken on Fractions."""
    ncols = len(a[0])
    free_cols = [c for c in range(ncols) if c not in pivots]
    one, zero = Fraction(1), Fraction(0)
    neg_inv = [-1 / Fraction(a[r][pc]) for r, pc in enumerate(pivots)]
    basis = []
    for fc in free_cols:
        v = [zero] * ncols
        v[fc] = one
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = zero
            for c in range(pc + 1, ncols):
                if v[c]:
                    s = s + a[r][c] * v[c]
            v[pc] = s * neg_inv[r]
        basis.append(v)
    return basis


def _nullspace_fraction(m):
    if not m or not m[0]:
        return []
    a, pivots, _ = _echelon(m)
    return _back_substitute_fraction(a, pivots)


def _solve_fraction(m, rhs):
    basis = _nullspace_fraction([list(row) + [-b] for row, b in zip(m, rhs)])
    if basis and basis[-1][-1]:
        return basis[-1][:-1]
    return None


def _rank_cases(seed):
    """Rational matrices of 1..8 rows and columns at every rank, a product
    of random factors with denominators, then with a zero column, a zero
    row, and the rows shuffled so that swaps can make the last pivot
    negative."""
    rng = random.Random(seed)
    for rows in range(1, 9):
        for cols in range(1, 9):
            for rank in range(min(rows, cols) + 1):
                left = random_rational_matrix(rng, rows, rank)
                right = random_rational_matrix(rng, rank, cols)
                m = [[sum((x * y for x, y in zip(row, col)), Fraction(0))
                      for col in zip(*right)] if rank else [Fraction(0)] * cols
                     for row in left]
                if rng.random() < 0.3:
                    c = rng.randrange(cols)
                    for row in m:
                        row[c] = Fraction(0)
                if rng.random() < 0.3:
                    m[rng.randrange(rows)] = [Fraction(0)] * cols
                rng.shuffle(m)
                yield m


def _field_for_field(x):
    assert all(type(c) is Fraction for v in x for c in v)
    return [[(c.numerator, c.denominator) for c in v] for v in x]


def test_integer_back_substitution_matches_fraction_route():
    negative_last_pivot = 0
    for m in _rank_cases(seed=20):
        a, pivots, _ = _echelon(m)
        if pivots and a[len(pivots) - 1][pivots[-1]] < 0:
            negative_last_pivot += 1
        basis = nullspace_exact(m)
        assert _field_for_field(basis) == _field_for_field(_nullspace_fraction(m))
        rhs = [row[0] - 2 * row[-1] + Fraction(1, 3) * (i % 2)
               for i, row in enumerate(m)]
        sol, expected = solve_exact(m, rhs), _solve_fraction(m, rhs)
        assert (sol is None) == (expected is None)
        if sol is not None:
            assert _field_for_field([sol]) == _field_for_field([expected])
    assert negative_last_pivot > 20


def _vandermonde_fraction(p):
    """The normalizer by the Fraction route: the one basis vector of the
    Fraction back substitution on the power matrix of the lambdas, rescaled
    by its last entry onto 1 / prod_{k < n-1} (lambda_{n-1} - lambda_k)."""
    lam, n = p.lambdas, p.dim_ambient
    (a,) = _nullspace_fraction([[x ** k for x in lam] for k in range(n - 1)])
    target_last = Fraction(1)
    for k in range(n - 1):
        target_last /= lam[n - 1] - lam[k]
    scale = target_last / a[n - 1]
    return [scale * c for c in a]


def test_vandermonde_normalizer_matches_fraction_route():
    rng = random.Random(21)
    pencils = []
    for g in range(2, 6):
        for _ in range(6):
            lams = set()
            while len(lams) < 2 * g + 2:
                lams.add(Fraction(rng.randint(-60, 60), rng.randint(1, 12)))
            pencils.append(PencilOfQuadrics(sorted(lams)))
    got = [vandermonde_normalizer(p) for p in pencils]
    expected = [_vandermonde_fraction(p) for p in pencils]
    assert _field_for_field(got) == _field_for_field(expected)


def _count_fraction_arithmetic(monkeypatch) -> list:
    """A list that gets one entry per Fraction +, -, * or / (either side)
    until monkeypatch.undo()."""
    calls = []
    for name in ("add", "sub", "mul", "truediv"):
        for dunder in (f"__{name}__", f"__r{name}__"):
            op = getattr(Fraction, dunder)

            def counted(*args, op=op):
                calls.append(1)
                return op(*args)

            monkeypatch.setattr(Fraction, dunder, counted)
    return calls


def test_rational_kernels_take_no_fraction_arithmetic(monkeypatch):
    # the rational nullspace runs on ints and builds one Fraction per entry;
    # the rank-2 decomposition adds a Gram determinant on integer columns
    rng = random.Random(22)
    m = random_rational_matrix(rng, 9, 12)
    u = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(12)]
    v = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(12)]
    wedge = SkewMap([[u[a] * v[b] - v[a] * u[b] for b in range(12)] for a in range(12)])
    calls = _count_fraction_arithmetic(monkeypatch)
    basis = nullspace_exact(m)
    ker, im = rank2_orthogonal_decomposition(wedge)
    monkeypatch.undo()
    assert len(basis) == 3 and len(ker) == 10 and len(im) == 2
    assert calls == []


def test_vandermonde_normalizer_takes_no_fraction_arithmetic(monkeypatch):
    # the normalizer stays on ints from the pencil's integer form to one
    # Fraction per entry
    p = PencilOfQuadrics([Fraction(-7, 3), Fraction(1, 2), 2, Fraction(9, 4), 5, 11])
    calls = _count_fraction_arithmetic(monkeypatch)
    a = vandermonde_normalizer(p)
    monkeypatch.undo()
    assert a == _vandermonde_fraction(p)
    assert calls == []


def test_vandermonde_section_takes_no_fraction_arithmetic(monkeypatch):
    # the section's oracle builds each target as one Fraction from the
    # lambdas' integer ratios
    calls = _count_fraction_arithmetic(monkeypatch)
    rep = run_vandermonde_check(3, seed=5, count=4)
    monkeypatch.undo()
    assert rep == {"pass": True, "pencils": 4, "g": 3}
    assert calls == []


@given(rational_matrices(3, 5))
@settings(max_examples=60, deadline=None)
def test_nullspace_matches_naive_oracle(m):
    fast = nullspace_exact(m)
    # the basis is fixed by the pivot columns, so the two agree entry by entry
    assert fast == _nullspace_naive(m)
    for v in fast:
        assert all(not r for r in matvec(m, v))


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


def same_span(a, b) -> bool:
    """Oracle: two families of vectors span the same subspace, exactly:
    rank(a) == rank(b) == rank(a + b).

    The pivot columns of one echelon form of the columns of a followed by
    those of b give rank(a + b), and rank(a) as the pivots below len(a); the
    spans agree iff every pivot is below len(a) and rank(b) is their number.
    """
    pivots = _pivot_columns(list(zip(*a, *b)))
    if pivots and pivots[-1] >= len(a):
        return False
    return rank_exact(b) == len(pivots)


def test_span_predicates():
    e1 = [Fraction(1), Fraction(0)]
    e2 = [Fraction(0), Fraction(1)]
    assert in_span([e1, e2], [Fraction(3), Fraction(-7)])
    assert not in_span([e1], e2)
    assert same_span([e1, e2], [[1, 1], [1, -1]])
    assert not same_span([e1], [e2])


def span_families(zero, entry, rng):
    """(vectors, v) pairs of length 4: families of 0..5 vectors, some with a
    repeated or zero vector, each with a combination of the family, an
    unrelated vector and the zero vector as v."""
    for k in range(6):
        for _ in range(3):
            vectors = [[entry() for _ in range(4)] for _ in range(k)]
            if k >= 2 and rng.random() < 0.5:
                vectors[-1] = list(vectors[0]) if rng.random() < 0.5 else [zero] * 4
            combo = [zero] * 4
            for vec in vectors:
                c = entry()
                combo = [s + c * x for s, x in zip(combo, vec)]
            for v in (combo, [entry() for _ in range(4)], [zero] * 4):
                yield vectors, v


def test_in_span_matches_solve_oracle():
    # v is in the span iff [vectors] x = v has a solution, by the
    # Gauss-Jordan oracle; the empty family spans the zero vector alone
    rng = random.Random(21)
    ctx = BiquadContext(Fraction(5, 3), Fraction(-7, 2))

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def biquad():
        return ctx.element(*(rational() for _ in range(4)))

    families = [(Fraction(0), rational), (ctx.embed(0), biquad)]
    seen = {True: 0, False: 0}
    for zero, entry in families:
        for vectors, v in span_families(zero, entry, rng):
            m = [[vec[i] for vec in vectors] for i in range(4)]
            expected = _solve_naive(m, v, zero) is not None
            assert in_span(vectors, v) is expected
            seen[expected] += 1
    assert in_span([], [Fraction(0)] * 3) and not in_span([], [1, 0, 0])
    assert seen[True] and seen[False]


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
        _eliminate([list(row) for row in m])
    d = det_exact(m)
    assert d == _det_cofactor(m)
    assert d


def random_biquad_entries(ctx, rows, cols, rng):
    """About a quarter of the entries zero and a quarter rational (int or
    Fraction), the rest Biquad elements with small coordinates."""

    def entry():
        kind = rng.random()
        if kind < 0.25:
            return ctx.embed(0)
        if kind < 0.4:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if kind < 0.5:
            return rng.randint(-5, 5)
        return ctx.element(*(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                             for _ in range(4)))

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def biquad_cases(ctx, seed):
    """Wide, tall and square matrices of size 1..8, each general, with a zero
    leading column, and of lower rank (a product through a thinner middle)."""
    rng = random.Random(seed)
    for rows in range(1, 9):
        for cols in {rows, 9 - rows, min(8, rows + 2)}:
            yield random_biquad_entries(ctx, rows, cols, rng)
            m = random_biquad_entries(ctx, rows, cols, rng)
            for row in m:
                row[0] = ctx.embed(0)
            yield m
            k = rng.randint(1, max(1, min(rows, cols) - 1))
            left = random_biquad_entries(ctx, rows, k, rng)
            right = random_biquad_entries(ctx, k, cols, rng)
            yield [[sum((left[i][t] * right[t][j] for t in range(k)), ctx.embed(0))
                    for j in range(cols)] for i in range(rows)]


def assert_matches_oracles(ctx, m, rng) -> bool:
    """nullspace_exact, solve_exact, rank_exact, _pivot_columns and det_exact
    on m against the Gauss-Jordan oracles (the cofactor expansion for det).
    Where the oracle finds a column of zero divisors alone, the routines must
    raise NonInvertibleError too, and det_exact falls back to the cofactor
    expansion.  Returns whether the elimination of m went through."""
    one, zero = ctx.embed(1), ctx.embed(0)
    cols = len(m[0])
    if len(m) == cols:
        d = det_exact(m)
        assert d == _det_cofactor(m)
    try:
        rows, pivots = _row_echelon_gauss_jordan(m)
    except NonInvertibleError:
        for routine in (nullspace_exact, rank_exact, _pivot_columns):
            with pytest.raises(NonInvertibleError):
                routine(m)
        return False
    if len(m) == cols:
        assert (not d) == (len(pivots) < cols)
    basis = nullspace_exact(m)
    assert basis == _nullspace_naive(m, one, zero)
    assert all(type(x) is Biquad for v in basis for x in v)
    assert all(not x for v in basis for x in matvec(m, v))
    assert rank_exact(m) == len(pivots)
    assert _pivot_columns(m) == pivots
    x0 = random_biquad_entries(ctx, 1, cols, rng)[0]
    for rhs in (matvec(m, x0), random_biquad_entries(ctx, 1, len(m), rng)[0]):
        try:
            want = _solve_naive(m, rhs, zero)
        except NonInvertibleError:
            with pytest.raises(NonInvertibleError):
                solve_exact(m, rhs)
            continue
        sol = solve_exact(m, rhs)
        assert sol == want
        if sol is not None:
            assert matvec(m, sol) == rhs
    return True


@pytest.mark.parametrize(
    "ctx", [BiquadContext(10, -14), BiquadContext(Fraction(5, 3), Fraction(-7, 2))]
)
def test_biquad_elimination_matches_gauss_jordan_oracle(ctx):
    rng = random.Random(17)
    for m in biquad_cases(ctx, seed=3):
        assert_matches_oracles(ctx, m, rng)


def test_pivot_row_skips_zero_divisors():
    # split context: sqrt(u) - 2 has norm 0, so the pivot search passes it by
    # for the invertible entry below it and hands back that entry's inverse
    ctx = BiquadContext(4, 3)
    zd = ctx.sqrt_u() - 2
    rng = random.Random(4)
    completed = 0
    for rows, cols in [(5, 5), (3, 6), (7, 4), (4, 4), (6, 6), (4, 8)] * 2:
        m = random_biquad_entries(ctx, rows, cols, rng)
        m[0][0] = zd
        m[1][0] = zd * (ctx.sqrt_w() + 1)
        m[2][0] = ctx.sqrt_w() + Fraction(1, 2)
        piv, inv = _pivot_row(m, 0, 0)
        assert piv == 2 and inv * m[2][0] == 1
        completed += assert_matches_oracles(ctx, m, rng)
    # later columns may hold zero divisors alone; most cases get through
    assert completed >= 6
    # a column of zero divisors alone has no pivot; a zero column has none to
    # look for
    a = [[zd, ctx.embed(1)], [zd * 3, ctx.embed(2)]]
    with pytest.raises(NonInvertibleError):
        _pivot_row(a, 0, 0)
    assert _pivot_row([[ctx.embed(0)], [0]], 0, 0) is None


def count_biquad_ops(monkeypatch):
    """Counts of Biquad products, inverses and norms from here on."""
    counts = {"mul": 0, "inverse": 0, "norm": 0}

    def counting(name, method):
        def wrapped(*args):
            counts[name] += 1
            return method(*args)

        return wrapped

    mul = counting("mul", Biquad.__mul__)
    monkeypatch.setattr(Biquad, "__mul__", mul)
    monkeypatch.setattr(Biquad, "__rmul__", mul)
    monkeypatch.setattr(Biquad, "inverse", counting("inverse", Biquad.inverse))
    monkeypatch.setattr(Biquad, "norm", counting("norm", Biquad.norm))
    return counts


def test_det_exact_biquad_multiplications_grow_polynomially(monkeypatch):
    ctx = BiquadContext(10, -14)
    m = random_biquad_matrix(ctx, 8, seed=8)
    counts = count_biquad_ops(monkeypatch)
    d = det_exact(m)
    assert d
    # cofactor expansion would take 69280 products here
    assert 0 < counts["mul"] < 8 ** 3


def test_g4_chain_operation_counts(monkeypatch):
    # the fibration chain on three g=4 samples, counted instead of timed.
    # Per sample it takes 119 products and 4 inverses and no norm (163 and
    # 19 inverses when the frame's lifts were taken in a chart of their own
    # and the trivial-factor check eliminated the frame's rows; 179 when
    # the point built the rows q1(v, .) and q2(v, .) and the Koszul column
    # was checked against them with Biquad products; 282
    # products and 38 inverses when tangent_frame took one nullspace, the
    # ranks of the splitting eliminated their columns in index order and f_H
    # tested the covector for degeneracy again; 447 products when the
    # point's zero tests, q1 = q2 = 0, eta(v) = 0 and q1(v, w) = q2(v, w) = 0
    # for the kernel columns and the frame, and f_H's products x_k^2 and
    # x_k eta_k ran the Biquad operators term by term; 582 when
    # phi_components ran them on each pair j < k, 135 of them, and 750 when
    # f_H also reduced every term of its weighted sums and of its
    # interpolation instead of every output of its fixed rational maps):
    # every pivot search, _invertible_pair included, inverts its candidates
    # instead of testing their norm; the point looks up its invertible pair
    # once (43 inverses when the sampler, the frame, f_H and the kernel basis
    # each looked it up); tangent_frame is a closed form, f_H reads the
    # sampled covector's degeneracy verdict and takes 3x3 determinants, the
    # kernel columns are closed forms, and the span questions of the
    # splitting are ranks of sparse rows in the coordinates of the
    # closed-form basis of S, which the point builds once for the kernel
    # columns and the frame, its singleton rows cleared without
    # elimination.  The kernel check reads the point's numerators, so the
    # rows q1(v, .) and q2(v, .) are not built
    # (770 products when the frame, the kernel check and the trivial-factor
    # check each built them)
    p = canonical_pencil(4)
    counts = count_biquad_ops(monkeypatch)
    for i in range(3):
        x, xi = sample_pair(p, 0, index=i)
        phi_X(x, xi)
        frame = tangent_frame(x)
        f_H(x, xi)
        kb = v_perp_kernel(p, x)
        assert n_tilde_splitting(kb).degrees == (0,) * 7 + (1,)
        assert trivial_factor_matches_tangent(kb, frame)
    assert counts["mul"] <= 3 * 119
    assert counts["inverse"] <= 3 * 4
    assert counts["norm"] == 0


def test_f_H_cost_grows_polynomially(monkeypatch):
    # f_H takes 2g-1 determinants of size 3 and fixed rational maps of the
    # pencil applied on integer numerators, which take no Biquad product,
    # so its products grow linearly: 32 / 52 / 72 / 92 / 112 at g = 2..6,
    # 20g - 8, as x_k^2, x_k eta_k and eta_k^2 come from the numerators of x
    # and eta and a sampled covector keeps the degeneracy verdict of the
    # sampler (20g + 2 when f_H tested the covector again; 24g + 4 when the
    # products were operator products; with one product per term of its
    # weighted sums and of a Newton interpolation it took 91 / 171 / 268 /
    # 394 / 533).  A rep built by hand is tested: its f_H costs exactly one
    # closed-form degeneracy test more, and the inverses of that test are
    # those of the point's invertible pair, 2 on a point whose pair was
    # never looked up and none once sample_pair has looked it up
    muls = {}
    for g in range(2, 7):
        x, xi = sample_pair(canonical_pencil(g), 0)
        fresh = PointOnX(x.pencil, x.coords)
        fresh_xi = CotangentRep(fresh, xi.eta)
        counts = count_biquad_ops(monkeypatch)
        f_H(x, xi)
        muls[g] = counts["mul"]
        assert counts["inverse"] == 0, g
        _vanishes_on_S(PointOnX(x.pencil, x.coords), xi.eta)
        test = counts["mul"] - muls[g]
        assert test > 0 and counts["inverse"] == 2, g
        f_H(fresh, fresh_xi)
        assert counts["mul"] == 2 * muls[g] + 2 * test, g
        assert counts["inverse"] == 4, g
        monkeypatch.undo()
    assert muls[6] - muls[5] == muls[3] - muls[2]
    assert muls[2] == 32


def test_verify_lagrangian_cost_grows_cubically(monkeypatch):
    # the certificate's Biquad products are those of one rank_exact of the
    # (2g+3) x (2g+2) matrix [x^T; J]: its derivatives, gauge sums and
    # brackets run on integer numerators.  It takes 86 / 199 / 380 / 645 /
    # 1010 products at g = 2..6 and one inverse per pivot, 2g
    muls = {}
    for g in range(2, 7):
        x, xi = sample_pair(canonical_pencil(g), 0)
        verify_lagrangian(x, xi)  # the pencil's tables
        counts = count_biquad_ops(monkeypatch)
        assert verify_lagrangian(x, xi)["pass"], g
        muls[g] = counts["mul"]
        assert counts["inverse"] == 2 * g, g
        assert counts["norm"] == 0, g
        monkeypatch.undo()
    for g in range(3, 7):
        assert muls[g] <= muls[2] * ((2 * g + 2) / 6) ** 3, g


def test_phi_components_takes_no_biquad_product(monkeypatch):
    # phi_components forms each w_jk^2 on integer numerators and reduces
    # each of its 2g + 2 components once (_reduce), so it takes no Biquad
    # product and exactly 2g + 2 reductions at every g, on X and on Y (with
    # the Biquad operators on each pair j < k it took 45 / 135 / 273
    # products at g = 2 / 4 / 6)
    for g in range(2, 9):
        p = canonical_pencil(g)
        for on_Y in (False, True):
            x, xi = sample_pair(p, 0, on_Y=on_Y)
            phi_components(p, x.coords, xi.eta)  # the pencil's table
            counts = count_biquad_ops(monkeypatch)
            reductions = []
            monkeypatch.setattr(
                fibration, "_reduce",
                lambda *args: reductions.append(1) or _reduce(*args),
            )
            phi_components(p, x.coords, xi.eta)
            assert counts["mul"] == 0, (g, on_Y)
            assert counts["inverse"] == 0, (g, on_Y)
            assert len(reductions) == 2 * g + 2, (g, on_Y)
            monkeypatch.undo()


def test_sample_point_takes_no_biquad_product(monkeypatch):
    # sample_point solves its head on Python ints, builds its coordinates in
    # canonical form and checks q1 = q2 = 0 on their numerators, so it takes
    # no Biquad product and no inverse at any g, on X and on Y (6g + 5
    # products on X and 6g + 3 on Y when it embedded Fractions and the
    # membership check ran the Biquad operators)
    for g in range(2, 9):
        p = canonical_pencil(g)
        for on_Y in (False, True):
            sample_point(p, 0, on_Y=on_Y)  # the pencil's integer form
            counts = count_biquad_ops(monkeypatch)
            for index in range(3):
                x = sample_point(p, 0, index=index, on_Y=on_Y)
                assert x.on_Y is on_Y
            assert counts["mul"] == 0, (g, on_Y)
            assert counts["inverse"] == 0, (g, on_Y)
            monkeypatch.undo()


def test_splitting_chain_cost_grows_linearly(monkeypatch):
    # tangent_frame, v_perp_kernel, n_tilde_splitting and the trivial-factor
    # check take 20 / 28 / 36 / 44 / 52 / 60 / 68 products (8g + 4) and 2
    # inverses at g = 2..8, in either order of the frame and the kernel
    # basis: the point builds its closed-form basis of S once, 4 products
    # per coordinate off its pair and 2 for the scales, the Koszul column
    # takes 2, and the membership tests of the columns and of the frame's
    # vectors, like the Koszul column's M(t) * column = 0, read the point's
    # numerators.  In the coordinates of that basis the constant columns are
    # unit vectors and the frame is unit vectors and v, so the ranks take no
    # product: the one inverse of the frame's search for x_m and the one of
    # the rank of v's entry x_m are all.  (20g products and 4g + 1 inverses
    # when the frame's lifts were taken in a chart of their own and the
    # ranks eliminated them sparsest column first; 22g + 8 for the chain and
    # 10g + 12 for v_perp_kernel when the point built the rows q1(v, .) and
    # q2(v, .) and the Koszul column was applied to them; 81 / 131 / 189 /
    # 255 / 329 / 411 / 501 products and 8g + 4 inverses with one nullspace
    # for the frame and its columns eliminated in index order; 130 / 206 /
    # 290 / 382 / 482 / 590 / 706 products when the membership tests applied
    # the rows to each vector term by term; with a nullspace for the
    # constant columns and ranks of ambient vectors it took 540 products at
    # g = 3 and 3865 at g = 8, and 8g + 10 inverses; with the pair looked up
    # again by the frame and the kernel basis, 8g + 7)
    for frame_first in (True, False):
        for g in range(2, 9):
            x, _ = sample_pair(canonical_pencil(g), 0)
            counts = count_biquad_ops(monkeypatch)
            if frame_first:
                frame = tangent_frame(x)
                kb = v_perp_kernel(x.pencil, x)
            else:
                kb = v_perp_kernel(x.pencil, x)
                frame = tangent_frame(x)
            assert n_tilde_splitting(kb).degrees == (0,) * (2 * g - 1) + (1,)
            assert trivial_factor_matches_tangent(kb, frame)
            assert counts["mul"] == 8 * g + 4, (g, frame_first)
            assert counts["inverse"] == 2, (g, frame_first)
            monkeypatch.undo()


def test_tangent_frame_takes_no_elimination(monkeypatch):
    # the frame is v and the point's closed-form basis of S less one
    # vector: no forward elimination runs.  The first frame of a point
    # builds that basis, 4 products per coordinate x_k != 0 off the pair and
    # 2 for its two scales, 8g + 2 on X and 8g - 2 on Y (8g - 2 and 8g - 6
    # when the frame took 2g - 1 lifts in a chart of its own); a second
    # frame takes none.  Each takes the one inverse of its search for x_m
    import qplab.linalg as linalg

    def forbidden(*args):
        raise AssertionError("tangent_frame eliminated")

    for g in range(2, 9):
        for on_Y in (False, True):
            x = sample_point(canonical_pencil(g), 0, on_Y=on_Y)
            x.pair()
            monkeypatch.setattr(linalg, "_eliminate", forbidden)
            monkeypatch.setattr(linalg, "_bareiss", forbidden)
            counts = count_biquad_ops(monkeypatch)
            frame = tangent_frame(x)
            assert len(frame.S_basis) == 2 * g
            assert counts["mul"] == 8 * g + 2 - 4 * on_Y, (g, on_Y)
            assert counts["inverse"] == 1, (g, on_Y)
            assert tangent_frame(x).S_basis == frame.S_basis
            assert counts["mul"] == 8 * g + 2 - 4 * on_Y, (g, on_Y)
            assert counts["inverse"] == 2, (g, on_Y)
            monkeypatch.undo()


def test_pivot_columns_take_no_norms(monkeypatch):
    # a 16x10 matrix of rank 8: the pivot search tests each candidate by
    # inverting it, and the echelon form needs no norm
    ctx = BiquadContext(10, -14)
    rng = random.Random(8)
    left = random_biquad_entries(ctx, 16, 8, rng)
    right = random_biquad_entries(ctx, 8, 10, rng)
    m = [[sum((left[i][t] * right[t][j] for t in range(8)), ctx.embed(0))
          for j in range(10)] for i in range(16)]
    counts = count_biquad_ops(monkeypatch)
    assert len(_pivot_columns(m)) == 8
    assert counts["norm"] == 0
    assert counts["inverse"] == 8


def test_same_span_takes_two_eliminations(monkeypatch):
    import qplab.linalg as linalg

    calls = []
    for name in ("_eliminate", "_bareiss"):
        routine = getattr(linalg, name)

        def counted(*args, routine=routine):
            calls.append(1)
            return routine(*args)

        monkeypatch.setattr(linalg, name, counted)
    ctx = BiquadContext(10, -14)
    r = ctx.sqrt_u()
    e1, e2 = [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]
    cases = [
        ([e1, e2], [[1, 1], [1, -1]], True),
        ([e1], [e2], False),
        ([e1], [e1, e2], False),
        ([e1, e2], [e1], False),
        ([[0, 0]], [e1], False),
        ([[0, 0]], [[0, 0], [0, 0]], True),
        ([[r, r * r], [ctx.embed(1), r]], [[r + 1, r * r + r]], True),
        ([[r, ctx.embed(1)]], [[ctx.embed(1), r]], False),
    ]
    for a, b, expected in cases:
        calls.clear()
        assert same_span(a, b) is expected
        assert 1 <= len(calls) <= 2


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


# -- scaled_matvec: a fixed rational matrix on integer numerators -----------

KERNEL_CTX = BiquadContext(Fraction(-7, 3), 5)
_small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_kernel_entries = st.one_of(
    st.integers(-9, 9),
    _small_fractions,
    st.just(KERNEL_CTX.embed(0)),
    st.lists(_small_fractions, min_size=4, max_size=4).map(
        lambda c: KERNEL_CTX.element(*c)),
    # rational-valued elements and elements with one sparse coordinate
    _small_fractions.map(KERNEL_CTX.embed),
    _small_fractions.map(lambda c: KERNEL_CTX.element(0, 0, c, 0)),
)


@st.composite
def _rational_map_and_vector(draw):
    n = draw(st.integers(1, 6))
    row = st.lists(st.one_of(st.just(Fraction(0)), _small_fractions),
                   min_size=n, max_size=n)
    m = draw(st.lists(row, min_size=1, max_size=5))
    kind = draw(st.sampled_from(["mixed", "biquad", "rational"]))
    entries = {
        "mixed": _kernel_entries,
        "biquad": _kernel_entries.filter(lambda x: isinstance(x, Biquad)),
        "rational": _kernel_entries.filter(lambda x: not isinstance(x, Biquad)),
    }[kind]
    return m, draw(st.lists(entries, min_size=n, max_size=n))


def _fields(x):
    if isinstance(x, Biquad):
        return "biquad", x._n, x._d
    return "rational", x.numerator, x.denominator


@given(_rational_map_and_vector())
@settings(max_examples=300, deadline=None)
def test_scaled_matvec_equals_dot_field_for_field(case):
    # zero, negative and sparse entries, rational, biquadratic and mixed
    # vectors: each output equals dot's value and is typed by the vector's
    # context, a canonical Biquad iff the vector has a Biquad entry and a
    # Fraction otherwise
    m, v = case
    got = scaled_matvec(*_integer_rows(m), v)
    assert got == [dot(v, row) for row in m]
    typed = Biquad if any(isinstance(x, Biquad) for x in v) else Fraction
    assert all(type(x) is typed for x in got)
    for x in got:
        if isinstance(x, Biquad):
            assert _fields(Biquad(KERNEL_CTX, *x.c)) == _fields(x)


def test_scaled_matvec_typed_zero_and_rational_terms():
    q = KERNEL_CTX.element(1, 2, 0, -1)
    zero = KERNEL_CTX.embed(0)
    m = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(3, 2)]]
    rows = _integer_rows(m)
    # a Biquad entry types every output: the all-zero row gives a Biquad
    # zero and the rational term a rational-valued Biquad
    got = scaled_matvec(*rows, [q, Fraction(2)])
    assert [_fields(x) for x in got] == [
        ("biquad", (0, 0, 0, 0), 1), _fields(q), ("biquad", (3, 0, 0, 0), 1)]
    # a zero Biquad entry enters no term, but it still types every output
    got = scaled_matvec(*rows, [Fraction(5), zero])
    assert [_fields(x) for x in got] == [
        ("biquad", (0, 0, 0, 0), 1), ("biquad", (5, 0, 0, 0), 1),
        ("biquad", (0, 0, 0, 0), 1)]
    # a rational vector gives Fractions
    got = scaled_matvec(*rows, [Fraction(5), 2])
    assert [_fields(x) for x in got] == [
        ("rational", 0, 1), ("rational", 5, 1), ("rational", 3, 1)]
    # and the empty vector a rational zero per row
    got = scaled_matvec([[], []], [1, 2], [])
    assert [_fields(x) for x in got] == [("rational", 0, 1), ("rational", 0, 1)]


def test_scaled_matvec_refuses_mixed_contexts_and_inexact_entries():
    other = BiquadContext(2, 3)
    rows, scales = _integer_rows([[Fraction(1), Fraction(1)]])
    # the foreign element is refused even where its row entry is zero
    for v in ([KERNEL_CTX.element(1, 1), other.element(0, 1)],
              [other.element(0, 1), KERNEL_CTX.embed(0)]):
        with pytest.raises(ModeMismatchError):
            scaled_matvec(rows, [1], v)
        with pytest.raises(ModeMismatchError):
            scaled_matvec([[1, 0]], [1], v)
    # an equal context in another object is the same context
    twin = BiquadContext(Fraction(-7, 3), 5)
    got = scaled_matvec(rows, scales, [KERNEL_CTX.element(1, 1), twin.element(0, 1)])
    assert _fields(got[0]) == _fields(KERNEL_CTX.element(1, 2))
    for bad in (0.5, 1j, "1"):
        with pytest.raises(ModeMismatchError):
            scaled_matvec(rows, scales, [Fraction(1), bad])
        with pytest.raises(ModeMismatchError):
            scaled_matvec(rows, scales, [KERNEL_CTX.embed(1), bad])
