"""Skew-symmetric invariants: characteristic coefficients, Pfaffian, rank two."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplab import (
    BiquadContext,
    DecompositionError,
    ModeMismatchError,
    SkewMap,
    SkewnessError,
    char_coeffs,
    det_exact,
    hitchin_vector,
    nilpotency_and_rank,
    pfaffian,
    rank2_orthogonal_decomposition,
)
from qplab.linalg import in_span


def skew_matrices(size):
    count = size * (size - 1) // 2
    return st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=3),
        min_size=count,
        max_size=count,
    ).map(lambda upper: SkewMap.from_upper(size, upper))


def _char_coeffs_fraction(a):
    """Oracle for char_coeffs: the Faddeev-LeVerrier recursion on Fractions."""
    size = len(a)
    mk = [[Fraction(x) for x in row] for row in a]
    coeffs = []
    for k in range(1, size + 1):
        ck = -sum(mk[i][i] for i in range(size)) / k
        coeffs.append(ck)
        if k == size:
            break
        for i in range(size):
            mk[i][i] += ck
        mk = [
            [sum((a[i][t] * mk[t][j] for t in range(size)), Fraction(0))
             for j in range(size)]
            for i in range(size)
        ]
    assert not any(coeffs[0::2])
    return tuple(coeffs[1::2])


def _pfaffian_schur_fraction(a):
    """Oracle for pfaffian: repeated Schur complements on Fractions,
    Pf(A) = p * Pf(B) with p = a[0][1] after a pivoting swap and
    B[i][j] = a[i][j] - (a[0][i]a[1][j] - a[0][j]a[1][i])/p."""
    a = [[Fraction(x) for x in row] for row in a]
    sign = 1
    pf = Fraction(1)
    while a:
        size = len(a)
        piv = next((j for j in range(1, size) if a[0][j]), None)
        if piv is None:
            return Fraction(0)
        if piv != 1:
            a[piv], a[1] = a[1], a[piv]
            for row in a:
                row[piv], row[1] = row[1], row[piv]
            sign = -sign
        p = a[0][1]
        pf *= p
        a = [
            [
                a[i][j] - (a[0][i] * a[1][j] - a[0][j] * a[1][i]) / p
                for j in range(2, size)
            ]
            for i in range(2, size)
        ]
    return sign * pf


def _pfaffian_recursive(a):
    """Oracle for pfaffian: cofactor expansion along the first row."""
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


def random_skew_cases(seed):
    """Rational skew maps of size 0..12 with denominators up to 6: dense ones,
    sparse ones (zero pivots that need swaps, many singular) and ones of rank
    size - 2."""
    rng = random.Random(seed)
    for size in range(0, 13, 2):
        for density in (0.9, 0.35, 0.15):
            upper = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                if rng.random() < density else Fraction(0)
                for _ in range(size * (size - 1) // 2)
            ]
            yield SkewMap.from_upper(size, upper)
        if size:
            # a zero last index: det = Pf = 0, with a nonzero a_1 from size 4
            c = Fraction(rng.randint(1, 9), 7)
            upper = [
                Fraction(0) if j == size - 1 else c
                for i in range(size)
                for j in range(i + 1, size)
            ]
            yield SkewMap.from_upper(size, upper)


def test_integer_kernels_match_fraction_oracles():
    for m in random_skew_cases(seed=3):
        coeffs = char_coeffs(m)
        pf = pfaffian(m)
        assert all(type(x) is Fraction for x in coeffs) and type(pf) is Fraction
        assert coeffs == _char_coeffs_fraction(m.entries)
        assert pf == _pfaffian_schur_fraction(m.entries)
        if m.size:
            assert coeffs[-1] == pf ** 2


def test_block_diagonal_known_answers():
    # blocks b_k: det(xI - A) = prod (x^2 + b_k^2), so a_j = e_j(b_k^2) and
    # Pf = prod b_k; a permutation P of the basis keeps the coefficients and
    # multiplies Pf by sign(P)
    rng = random.Random(4)
    for n in range(1, 6):
        b = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
             for _ in range(n)]
        size = 2 * n
        a = [[Fraction(0)] * size for _ in range(size)]
        for k, bk in enumerate(b):
            a[2 * k][2 * k + 1], a[2 * k + 1][2 * k] = bk, -bk
        squares = [x * x for x in b]
        expected = tuple(
            sum(
                (math.prod(c, start=Fraction(1))
                 for c in itertools.combinations(squares, j)),
                Fraction(0),
            )
            for j in range(1, n + 1)
        )
        perm = list(range(size))
        rng.shuffle(perm)
        inversions = sum(
            perm[i] > perm[j] for i in range(size) for j in range(i + 1, size)
        )
        permuted = [[a[perm[i]][perm[j]] for j in range(size)] for i in range(size)]
        for entries, sign in ((a, 1), (permuted, (-1) ** inversions)):
            m = SkewMap(entries)
            assert char_coeffs(m) == expected
            pf = pfaffian(m)
            assert type(pf) is Fraction and pf == sign * math.prod(b)


def test_skewness_enforced():
    with pytest.raises(SkewnessError):
        SkewMap([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        SkewMap([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])  # odd size


def test_pfaffian_sign_convention():
    # direct sum of standard blocks with +1 above the diagonal
    for n in (1, 2, 3):
        m = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
        for k in range(n):
            m[2 * k][2 * k + 1] = Fraction(1)
            m[2 * k + 1][2 * k] = Fraction(-1)
        assert pfaffian(SkewMap(m)) == 1


def test_pfaffian_4x4_symbolic_identity():
    # Pf = af - be + cd for upper entries (a,b,c,d,e,f)
    vals = [Fraction(v) for v in (2, 3, 5, 7, 11, 13)]
    a, b, c, d, e, f = vals
    m = SkewMap.from_upper(4, vals)
    assert pfaffian(m) == a * f - b * e + c * d


@given(skew_matrices(6))
@settings(max_examples=60, deadline=None)
def test_pfaffian_squares_to_determinant(m):
    assert pfaffian(m) ** 2 == det_exact(m.entries)


@given(skew_matrices(6))
@settings(max_examples=30, deadline=None)
def test_pfaffian_elimination_matches_cofactor_oracle(m):
    assert pfaffian(m) == _pfaffian_recursive(m.entries)


@given(skew_matrices(6))
@settings(max_examples=40, deadline=None)
def test_char_coeffs_match_numpy(m):
    coeffs = char_coeffs(m)
    cs = np.poly(np.array([[complex(x) for x in row] for row in m.entries]))
    scale = max(1.0, np.abs(cs).max())
    for k, a in enumerate(coeffs):
        assert abs(float(a) - cs[2 * (k + 1)].real) < 1e-6 * scale
    # last even coefficient is the determinant, i.e. Pf^2
    assert coeffs[-1] == pfaffian(m) ** 2


def test_integer_kernels_reject_biquad_entries():
    # u^v over Q(i, sqrt 2) is a valid skew map; its rank and decomposition
    # are computed over the algebra, its invariants need rational entries
    ctx = BiquadContext(-1, 2)
    one, zero, i = ctx.embed(1), ctx.embed(0), ctx.sqrt_u()
    u, v = [one, i, zero, zero], [zero, zero, one, one]
    m = SkewMap([[u[a] * v[b] - v[a] * u[b] for b in range(4)] for a in range(4)])
    for invariant in (char_coeffs, pfaffian, nilpotency_and_rank,
                      lambda m: hitchin_vector(m, 2)):
        with pytest.raises(ModeMismatchError, match="rational entries"):
            invariant(m)


def test_hitchin_vector_layout():
    m = SkewMap.from_upper(6, [Fraction(v) for v in range(1, 16)])
    hv = hitchin_vector(m, 3)
    assert len(hv.a) == 2
    assert hv.pf == pfaffian(m)
    with pytest.raises(ValueError):
        hitchin_vector(m, 2)


@given(skew_matrices(4))
@settings(max_examples=40, deadline=None)
def test_nilpotency_dichotomy(m):
    # nilpotent (A^4 = 0) exactly when every invariant vanishes
    info = nilpotency_and_rank(m)
    a = [[Fraction(x) for x in row] for row in m.entries]

    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]

    power = a
    for _ in range(3):
        power = matmul(power, a)
    is_nilpotent = all(not x for row in power for x in row)
    assert info["nilpotent"] == is_nilpotent


def test_rank2_decomposition_properties():
    n = 6
    u = [Fraction(v) for v in (1, 2, 0, 1, -1, 3)]
    v = [Fraction(v) for v in (0, 1, 1, -2, 2, 1)]
    m = [[u[i] * v[j] - v[i] * u[j] for j in range(n)] for i in range(n)]
    sm = SkewMap(m)
    info = nilpotency_and_rank(sm)
    assert info["rank"] == 2 and not info["nilpotent"]
    ker, im = rank2_orthogonal_decomposition(sm)
    assert len(ker) == n - 2 and len(im) == 2
    # orthogonality for the standard symmetric form and directness
    for a in ker:
        for b in im:
            assert sum((x * y for x, y in zip(a, b)), start=Fraction(0)) == 0
    from qplab.linalg import rank_exact

    assert rank_exact(ker + im) == n


def test_rank2_decomposition_errors_distinct():
    n = 4
    z = Fraction(0)
    full_rank = SkewMap.from_upper(4, [Fraction(v) for v in (1, 0, 0, 0, 0, 1)])
    with pytest.raises(DecompositionError, match="rank"):
        rank2_orthogonal_decomposition(full_rank)
    zero = SkewMap([[z] * n for _ in range(n)])
    with pytest.raises(DecompositionError):
        rank2_orthogonal_decomposition(zero)


def test_rank2_decomposition_rejects_nilpotent_map():
    # over Q(i, sqrt 2): u = (1, i, 0, 0) is isotropic, so u^v - v^u has rank 2
    # and a_1 = (u.u)(v.v) - (u.v)^2 = 0 (Lagrange's identity): nilpotent,
    # while the same map with a non-isotropic u decomposes
    ctx = BiquadContext(-1, 2)
    one, zero, i = ctx.embed(1), ctx.embed(0), ctx.sqrt_u()
    v = [zero, zero, one, one]

    def wedge(u):
        return SkewMap([[u[a] * v[b] - v[a] * u[b] for b in range(4)] for a in range(4)])

    with pytest.raises(DecompositionError, match="nilpotent"):
        rank2_orthogonal_decomposition(wedge([one, i, zero, zero]))
    ker, im = rank2_orthogonal_decomposition(wedge([one, i, one, zero]))
    assert len(ker) == 2 and len(im) == 2
    for a in ker:
        for b in im:
            assert not (a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3])


def greedy_image_columns(a):
    """The greedy loop rank2_orthogonal_decomposition used to pick its image
    columns with: keep a nonzero column unless it lies in the span of those
    kept, and stop at two."""
    size = len(a)
    im = []
    for c in ([a[i][j] for i in range(size)] for j in range(size)):
        if any(c) and not in_span(im, c):
            im.append(c)
        if len(im) == 2:
            break
    return im


def test_rank2_image_columns_match_greedy_span_loop():
    # column j of u v^T - v u^T is v_j u - u_j v: zero when u_j = v_j = 0 and
    # repeated or a multiple when (u_j, v_j) repeats or is a multiple
    families = [
        ([0, 1, 1, 2, 0, 1], [0, 1, 1, 2, 1, 3]),
        ([0, 0, 1, 2, 3, 1], [0, 0, 1, 2, 3, -1]),
        ([0, 2, 1, 1, 0, 0, 5, 1], [0, 2, 1, 1, 0, 1, 2, 1]),
        ([1, 2, 0, 1, -1, 3], [0, 1, 1, -2, 2, 1]),
    ]
    for u, v in families:
        u = [Fraction(x, 3) for x in u]
        n = len(u)
        a = [[u[i] * v[j] - v[i] * u[j] for j in range(n)] for i in range(n)]
        ker, im = rank2_orthogonal_decomposition(SkewMap(a))
        assert im == greedy_image_columns(a)
        assert len(ker) == n - 2
