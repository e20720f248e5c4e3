"""Kernel bases of the pencil row map, splitting types, Vandermonde kernel."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qplab.p1bundle as p1bundle
from qplab import (
    BiquadContext,
    ModeMismatchError,
    NonInvertibleError,
    PencilOfQuadrics,
    PointOnX,
    canonical_pencil,
    n_tilde_splitting,
    nullspace_exact,
    rank_exact,
    sample_point,
    tangent_frame,
    to_complex,
    trivial_factor_matches_tangent,
    v_perp_kernel,
    vandermonde_normalizer,
)
from qplab.linalg import in_span
from qplab.p1bundle import KernelBasis, SplittingError, _verify_kernel
from qplab.variety import TangentFrame, _invertible_pair
from test_fibration import SPLIT_PAIRS, one_invertible_point

P2 = canonical_pencil(2)
P3 = canonical_pencil(3)


def same_span(a, b):
    """Oracle: rank(a) == rank(b) == rank(a + b), three eliminations."""
    return rank_exact(a) == rank_exact(b) == rank_exact(a + b)


def row_map_at(p, x, t, col):
    """sum_k (t - lambda_k) x_k w_k(t) for a column of coefficient vectors."""
    total = Fraction(0)
    for k, (lam, c) in enumerate(zip(p.lambdas, x.coords)):
        w = col[0][k]
        for d, coeffs in enumerate(col[1:], start=1):
            w = w + coeffs[k] * t ** d
        total = total + (t - lam) * c * w
    return total


def test_kernel_basis_shape_and_exactness():
    for p in (P2, P3):
        x = sample_point(p, 41)
        kb = v_perp_kernel(p, x)
        # a column of d+1 coefficient vectors has degree d
        assert kb.degrees == [0] * (2 * p.g) + [1]
        assert [len(col) for col in kb.columns] == [d + 1 for d in kb.degrees]
        # every column is annihilated by M(t): a polynomial of degree <= 2 in t
        # that vanishes at three values of t is zero
        for col in kb.columns:
            for t in (Fraction(0), Fraction(1), Fraction(-7, 3)):
                assert not row_map_at(p, x, t, col)


def test_verify_kernel_rejects_broken_columns():
    x = sample_point(P2, 41)
    kb = v_perp_kernel(P2, x)
    assert x.coords[0]
    e0 = [Fraction(int(k == 0)) for k in range(P2.dim_ambient)]
    # w1 + e0 moves the t^2 coefficient a.w1 by x_0
    d1 = kb.degrees.index(1)
    w0, w1 = kb.columns[d1]
    broken = list(kb.columns)
    broken[d1] = [w0, [c + e for c, e in zip(w1, e0)]]
    with pytest.raises(SplittingError):
        _verify_kernel(KernelBasis(x, broken))
    # e0 is off S: its product with x is x_0
    broken = list(kb.columns)
    broken[kb.degrees.index(0)] = [e0]
    with pytest.raises(SplittingError):
        _verify_kernel(KernelBasis(x, broken))


CLOSED_FORM_POINTS = (
    [(canonical_pencil(g), 0, i, False) for g in range(2, 7) for i in range(2)]
    + [(canonical_pencil(g), 3, 0, True) for g in (2, 3)]
    + [(PencilOfQuadrics([-3, Fraction(1, 2), 2, Fraction(7, 3), 5, 11]), 9, i, y)
       for i in range(3) for y in (False, True)]
    + [(canonical_pencil(g), s, i, y) for g, s, i, y in SPLIT_PAIRS]
)


@pytest.mark.parametrize(
    "p, seed, index, on_Y", CLOSED_FORM_POINTS,
    ids=[f"{p.fingerprint()[:6]}-g{p.g}-seed{s}-{i}{'-on_Y' if y else ''}"
         for p, s, i, y in CLOSED_FORM_POINTS],
)
def test_closed_form_constants_are_the_nullspace(p, seed, index, on_Y):
    x = sample_point(p, seed, index=index, on_Y=on_Y)
    kb = v_perp_kernel(p, x)
    constants = kb.constants()
    v = x.coords
    nullspace = nullspace_exact([p.q1_row(v), p.q2_row(v)])
    assert same_span(constants, nullspace)
    # the rows have pivot columns 0 and 1 on a sampled point, which is the
    # pair the closed form is taken on, so the two bases coincide
    assert x.pair()[0] == 0 and x.pair()[2] == 1
    assert constants == nullspace


def test_kernel_needs_two_invertible_coordinates():
    # the closed-form basis of S and the Koszul column are taken on two
    # invertible coordinates; without them the chain stops, as f_H does
    x = one_invertible_point()
    with pytest.raises(NonInvertibleError, match="no second invertible"):
        v_perp_kernel(x.pencil, x)
    with pytest.raises(NonInvertibleError, match="no second invertible"):
        n_tilde_splitting(KernelBasis(x, []))


def test_verify_kernel_rejects_perturbed_closed_form():
    x = sample_point(P3, 41)
    kb = v_perp_kernel(P3, x)
    p, _, q, _ = x.pair()
    for c, col in enumerate(kb.columns):
        if len(col) != 1:
            continue
        k = next(k for k, w in enumerate(col[0]) if w and k not in (p, q))
        for entry in (p, q, k):
            moved = list(col[0])
            moved[entry] = moved[entry] + Fraction(1, 7)
            broken = list(kb.columns)
            broken[c] = [moved]
            with pytest.raises(SplittingError, match="M\\(t\\)"):
                _verify_kernel(KernelBasis(x, broken))


def test_verify_kernel_rejects_lead_in_S():
    # t * c0 + c1 for two constant columns is annihilated by M(t), but its
    # lead c0 lies in S, in the span of the constant columns
    x = sample_point(P2, 41)
    kb = v_perp_kernel(P2, x)
    c0, c1 = kb.constants()[:2]
    broken = [col for col in kb.columns if len(col) == 1] + [[c1, c0]]
    with pytest.raises(SplittingError, match="leading coefficient vectors are dependent"):
        _verify_kernel(KernelBasis(x, broken))
    # so is a constant column repeated in place of another
    broken = [[c1]] + kb.columns[1:]
    with pytest.raises(SplittingError, match="leading coefficient vectors are dependent"):
        _verify_kernel(KernelBasis(x, broken))
    # a missing constant column leaves the degree profile short
    with pytest.raises(SplittingError, match="kernel column degrees"):
        _verify_kernel(KernelBasis(x, kb.columns[1:]))


def test_trivial_factor_rejects_frames_off_S_or_short():
    x = sample_point(P3, 43)
    kb = v_perp_kernel(P3, x)
    frame = tangent_frame(x)
    assert trivial_factor_matches_tangent(kb, frame)
    for i in range(len(frame.S_basis)):
        moved = [list(s) for s in frame.S_basis]
        moved[i][3] = moved[i][3] + Fraction(1, 7)
        assert not trivial_factor_matches_tangent(kb, TangentFrame(x, moved))
    # vectors of S that span less than S
    short = frame.S_basis[:-1] + [frame.S_basis[1]]
    assert not trivial_factor_matches_tangent(kb, TangentFrame(x, short))
    # and constant columns that span less than S
    fewer = KernelBasis(x, kb.columns[1:])
    assert not trivial_factor_matches_tangent(fewer, frame)


def test_constant_columns_span_common_orthogonal():
    x = sample_point(P2, 43)
    kb = v_perp_kernel(P2, x)
    frame = tangent_frame(x)
    constants = [col[0] for col, d in zip(kb.columns, kb.degrees) if d == 0]
    assert same_span(constants, frame.S_basis)
    assert trivial_factor_matches_tangent(kb, frame)


def test_splitting_type():
    for p in (P2, P3):
        x = sample_point(p, 47)
        st = n_tilde_splitting(v_perp_kernel(p, x))
        assert st.degrees == tuple([0] * (2 * p.g - 1) + [1])
        assert st.total_degree() == -1


def greedy_constant_count(kb):
    """Oracle: degree-0 summands counted by the greedy in_span loop."""
    v = kb.point.coords
    pivot, inv_vp = _invertible_pair(v)[:2]
    kept = []
    for col, d in zip(kb.columns, kb.degrees):
        if d == 0:
            w = col[0]
            f = w[pivot] * inv_vp
            r = [wi - f * vi for wi, vi in zip(w, v)]
            if any(r) and not in_span(kept, r):
                kept.append(r)
    return len(kept)


def test_splitting_matches_greedy_span_loop():
    for p, seed in ((P2, 59), (P3, 59)):
        x = sample_point(p, seed)
        kb = v_perp_kernel(p, x)
        assert greedy_constant_count(kb) == 2 * p.g - 1
        st = n_tilde_splitting(kb)
        assert st.degrees.count(0) == greedy_constant_count(kb)
        const = [c for c, d in zip(kb.columns, kb.degrees) if d == 0]
        other = [c for c, d in zip(kb.columns, kb.degrees) if d != 0]
        point_col = [list(x.coords)]
        # repeated columns and the line of x add no summand
        padded = KernelBasis(x, const + const[:2] + [point_col] + other)
        assert greedy_constant_count(padded) == 2 * p.g - 1
        assert n_tilde_splitting(padded) == st
        # two missing constant columns leave one summand short for both
        short = KernelBasis(x, const[2:] + other)
        assert greedy_constant_count(short) == 2 * p.g - 2
        with pytest.raises(SplittingError):
            n_tilde_splitting(short)


# Q(sqrt 2, sqrt 3) is a field, so every nonzero entry is invertible there
FIELD = BiquadContext(2, 3)


@st.composite
def sparse_rows(draw):
    """A few sparse rows of one kind, rational or Biquad of FIELD: entries
    mostly zero, some rows zero, and singleton rows (rational or irrational
    entry) drawn again and again on few columns."""
    biquad = draw(st.booleans())
    cols = draw(st.integers(1, 6))
    small = st.integers(-3, 3)
    if biquad:
        entry = st.builds(FIELD.element, small, small, small, small)
        rational = st.builds(FIELD.embed, small)
        zero = FIELD.embed(0)
    else:
        entry = rational = st.builds(Fraction, small, st.integers(1, 4))
        zero = Fraction(0)
    sparse = st.one_of(st.just(zero), st.just(zero), entry)
    dense = st.lists(sparse, min_size=cols, max_size=cols)
    singleton = st.tuples(st.integers(0, min(cols, 3) - 1), st.one_of(rational, entry))
    rows = draw(st.lists(st.one_of(dense, singleton), max_size=7))
    out = []
    for row in rows:
        if isinstance(row, tuple):
            c, value = row
            row = [zero] * cols
            row[c] = value
        out.append(row)
    return out


@given(sparse_rows())
@settings(max_examples=150, deadline=None)
def test_rank_of_rows_is_the_rank_of_the_rows(rows):
    # clearing singleton columns and permuting rows and columns keeps the
    # rank of the rows as given
    assert p1bundle._rank_of_rows(rows) == rank_exact(rows)


def test_rank_of_rows_leaves_a_zero_divisor_to_the_elimination():
    # in a split algebra only a unit clears its column: a singleton zero
    # divisor has no invertible pivot, as in rank_exact, and a rational one
    # beside it clears that column first
    ctx = BiquadContext(4, 3)
    zd, zero = ctx.sqrt_u() - 2, ctx.embed(0)
    for rows in ([[zd]], [[zero, zd], [zd, zero]]):
        for rank in (rank_exact, p1bundle._rank_of_rows):
            with pytest.raises(NonInvertibleError):
                rank(rows)
    rows = [[zd, zero], [ctx.embed(3), zero]]
    assert p1bundle._rank_of_rows(rows) == rank_exact(rows) == 1


def test_rank_of_rows_clears_an_identity_block_without_elimination(monkeypatch):
    # the coordinates of the constant columns are an identity block; with a
    # dense row beneath it the rank is still read without an elimination:
    # what is left for rank_exact has no rows
    import qplab.linalg as linalg

    eliminated = []
    for name in ("_eliminate", "_bareiss"):
        routine = getattr(linalg, name)

        def recorded(a, routine=routine):
            eliminated.append(len(a))
            return routine(a)

        monkeypatch.setattr(linalg, name, recorded)
    for g in (2, 4):
        x = sample_point(canonical_pencil(g), 0)
        kb = v_perp_kernel(x.pencil, x)
        for rows in (kb.S_coordinates(kb.constants()),
                     kb.S_coordinates([x.coords] + kb.constants())):
            eliminated.clear()
            assert p1bundle._rank_of_rows(rows) == 2 * g
            assert eliminated == [0]


def test_kernel_requires_exact_point():
    # a point, and so a kernel basis, only exists with exact coordinates
    x = sample_point(P2, 53)
    with pytest.raises(ModeMismatchError):
        PointOnX(P2, [to_complex(c) for c in x.coords])


def test_vandermonde_closed_form_canonical():
    a = vandermonde_normalizer(P2)
    assert a == [
        Fraction(-1, 120),
        Fraction(1, 24),
        Fraction(-1, 12),
        Fraction(1, 12),
        Fraction(-1, 24),
        Fraction(1, 120),
    ]


def test_vandermonde_closed_form_general():
    p = PencilOfQuadrics([Fraction(-1, 2), 1, 2, Fraction(7, 3), 4, 5])
    a = vandermonde_normalizer(p)
    n = 6
    assert a == _closed_form(p.lambdas)
    # it annihilates every power row lambda^0 .. lambda^{2g}
    for k in range(n - 1):
        assert sum(a[j] * p.lambdas[j] ** k for j in range(n)) == 0


def _closed_form(lambdas):
    """a_j = 1 / prod_{k != j} (lambda_j - lambda_k), in Fraction arithmetic."""
    out = []
    for j, lam in enumerate(lambdas):
        target = Fraction(1)
        for k, other in enumerate(lambdas):
            if k != j:
                target /= lam - other
        out.append(target)
    return out


@st.composite
def branch_points(draw):
    """2g + 2 distinct rationals at g = 2..8; the first is negative and not
    an integer, so the lcm L of the denominators is more than 1."""
    g = draw(st.integers(2, 8))
    first = -(draw(st.integers(0, 30)) + Fraction(1, draw(st.integers(2, 12))))
    rest = draw(st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=12),
                         min_size=2 * g + 1, max_size=2 * g + 1, unique=True))
    assume(first not in rest)
    return [first] + rest


@given(branch_points())
@settings(max_examples=40, deadline=None)
def test_vandermonde_normalizer_is_the_closed_form(lambdas):
    a = vandermonde_normalizer(PencilOfQuadrics(lambdas))
    assert all(type(c) is Fraction for c in a)
    expected = _closed_form(lambdas)
    assert [(c.numerator, c.denominator) for c in a] == [
        (c.numerator, c.denominator) for c in expected
    ]


def test_vandermonde_normalizer_checks_raise(monkeypatch):
    # the line is read from the elimination, so each of its checks sees a
    # broken one: a lost pivot leaves a plane, a zero entry is refused, and
    # an entry off by one breaks an exact division by a pivot
    p = PencilOfQuadrics([Fraction(-1, 2), 1, 2, Fraction(7, 3), 4, 5])
    real_bareiss = p1bundle._bareiss

    def drop_last_pivot(a):
        pivots, negate = real_bareiss(a)
        a[len(pivots) - 1] = [0] * len(a[0])
        return pivots[:-1], negate

    monkeypatch.setattr(p1bundle, "_bareiss", drop_last_pivot)
    with pytest.raises(ArithmeticError, match="kernel dimension 2, expected 1"):
        vandermonde_normalizer(p)

    def off_by_one(a):
        pivots, negate = real_bareiss(a)
        a[3][4] += 1
        return pivots, negate

    monkeypatch.setattr(p1bundle, "_bareiss", off_by_one)
    with pytest.raises(ArithmeticError, match="pivot 2 does not divide"):
        vandermonde_normalizer(p)
    monkeypatch.undo()

    real_null = p1bundle._integer_null_vectors

    def zero_first(a, pivots, free):
        d, (w,) = real_null(a, pivots, free)
        return d, ([0] + w[1:],)

    monkeypatch.setattr(p1bundle, "_integer_null_vectors", zero_first)
    with pytest.raises(ArithmeticError, match="kernel vector has a zero entry"):
        vandermonde_normalizer(p)


def _irrational_moves(x):
    """Shifts of a vector w, as lists of (entry, shift), that move q1(v, w)
    or q2(v, w) only in sqrt(u), sqrt(w) or sqrt(uw): on a sampled point
    v_0 = sqrt(u0) and v_1 = sqrt(u1), so 1/7 at entry 0 or 1 and sqrt(w)/7
    at entry 0 do, and sqrt(w) e_0 - sqrt(u) e_1 leaves q1(v, w) alone and
    moves q2(v, w) by (lambda_0 - lambda_1) sqrt(uw)."""
    ctx = x.context()
    r, s = ctx.sqrt_u(), ctx.sqrt_w()
    return [[(0, Fraction(1, 7))], [(1, Fraction(1, 7))], [(0, s * Fraction(1, 7))],
            [(0, s), (1, -r)]]


def _moved(w, move):
    w = list(w)
    for entry, shift in move:
        w[entry] = w[entry] + shift
    return w


def _assert_irrational_defect(x, w):
    from qplab.linalg import matvec

    p = x.pencil
    q1, q2 = matvec([p.q1_row(x.coords), p.q2_row(x.coords)], w)
    assert (q1 or q2) and not q1.c[0] and not q2.c[0]


@pytest.mark.parametrize("p", [P2, P3])
def test_verify_kernel_rejects_a_column_off_S_in_an_irrational_coordinate_only(p):
    # a_k (entry i of the column) or b_k (entry j) off by 1/7, a_k off by
    # sqrt(w)/7, or both moved so that only q2(v, w) is off: q1(v, w) and
    # q2(v, w) have a zero rational part
    x = sample_point(p, 43)
    kb = v_perp_kernel(p, x)
    for c, col in enumerate(kb.columns):
        if len(col) != 1:
            continue
        for move in _irrational_moves(x):
            moved = _moved(col[0], move)
            _assert_irrational_defect(x, moved)
            broken = list(kb.columns)
            broken[c] = [moved]
            with pytest.raises(SplittingError, match="M\\(t\\)"):
                _verify_kernel(KernelBasis(x, broken))


@pytest.mark.parametrize("p", [P2, P3])
def test_trivial_factor_rejects_a_frame_off_S_in_an_irrational_coordinate_only(p):
    # the moved entries are those of the pair, which the coordinates of S
    # drop, so only the S-membership test can see the move
    x = sample_point(p, 43)
    kb = v_perp_kernel(p, x)
    frame = tangent_frame(x)
    assert x.pair()[0] == 0 and x.pair()[2] == 1
    for i in range(len(frame.S_basis)):
        for move in _irrational_moves(x):
            moved = [list(s) for s in frame.S_basis]
            moved[i] = _moved(moved[i], move)
            _assert_irrational_defect(x, moved[i])
            assert not trivial_factor_matches_tangent(kb, TangentFrame(x, moved))
