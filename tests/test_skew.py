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
    NonInvertibleError,
    SkewMap,
    SkewnessError,
    char_coeffs,
    det_exact,
    pfaffian,
    rank2_orthogonal_decomposition,
)
from qplab.linalg import _back_substitute, _echelon, in_span, rank_exact


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


def test_char_coeffs_from_power_sums_match_fraction_oracle():
    # rational maps of sizes 2..12 with denominators, the zero maps and
    # integer rank-2 maps u v^T - v u^T, whose a_1 is the sum of the squares
    # of the upper entries and whose other coefficients vanish
    rng = random.Random(11)
    cases = []
    for size in range(2, 13, 2):
        count = size * (size - 1) // 2
        for _ in range(6):
            upper = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(count)]
            cases.append(SkewMap.from_upper(size, upper))
        cases.append(SkewMap.from_upper(size, [0] * count))
        for _ in range(4):
            u = [rng.randint(-5, 5) for _ in range(size)]
            v = [rng.randint(-5, 5) for _ in range(size)]
            cases.append(
                SkewMap([[u[a] * v[b] - v[a] * u[b] for b in range(size)]
                         for a in range(size)])
            )
    for m in cases:
        coeffs = char_coeffs(m)
        assert all(type(x) is Fraction for x in coeffs)
        assert coeffs == _char_coeffs_fraction(m.entries)
        if rank_exact(m.entries) <= 2:
            a = m.entries
            squares = sum(a[i][j] ** 2 for i in range(m.size) for j in range(i + 1, m.size))
            assert coeffs[0] == squares and not any(coeffs[1:])


def rank_sweep_cases(seed):
    """(map, rank) for sizes 2..12 and every even rank r from 0 to the size:
    sums of r/2 rational wedges u v^T - v u^T with denominators, and the
    zero map of each size."""
    rng = random.Random(seed)
    for size in range(2, 13, 2):
        yield SkewMap.from_upper(size, [Fraction(0)] * (size * (size - 1) // 2)), 0
        for r in range(2, size + 1, 2):
            a = None
            while a is None or rank_exact(a) < r:  # redraw a degenerate sum
                a = [[Fraction(0)] * size for _ in range(size)]
                for _ in range(r // 2):
                    u = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(size)]
                    v = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(size)]
                    for x in range(size):
                        for y in range(size):
                            a[x][y] += u[x] * v[y] - v[x] * u[y]
            yield SkewMap(a), r


def test_char_coeffs_rank_sweep_match_fraction_oracle(monkeypatch):
    # the coefficients come from the power sums of the rank-r core at every
    # rank: below full rank one integer back substitution builds the core,
    # at full rank the core is B and none runs, nor for the zero map
    import qplab.skew as skew

    substitutions = []

    def counted_null_vectors(*args, null_vectors=skew._integer_null_vectors):
        substitutions.append(1)
        return null_vectors(*args)

    monkeypatch.setattr(skew, "_integer_null_vectors", counted_null_vectors)
    for m, r in rank_sweep_cases(seed=23):
        assert m.rank == r, (m.size, r)
        substitutions.clear()
        coeffs = char_coeffs(m)
        assert all(type(x) is Fraction for x in coeffs)
        assert coeffs == _char_coeffs_fraction(m.entries), (m.size, r)
        assert not any(coeffs[r // 2:]), (m.size, r)
        if r:
            assert coeffs[r // 2 - 1], (m.size, r)
        assert len(substitutions) == (1 if 0 < r < m.size else 0), (m.size, r)


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
    third = Fraction(1, 3)
    rational = [[0, third, 2, Fraction(-1, 2)],
                [-third, 0, Fraction(5, 4), 1],
                [-2, Fraction(-5, 4), 0, 7],
                [Fraction(1, 2), -1, -7, 0]]
    SkewMap(rational)
    # int 0 and Fraction(0) are both zero, on and off the diagonal
    mixed_zeros = [row[:] for row in rational]
    mixed_zeros[0][0] = Fraction(0)
    mixed_zeros[1][3], mixed_zeros[3][1] = 0, Fraction(0)
    SkewMap(mixed_zeros)
    # equal denominators with the wrong sign, a wrong denominator and a
    # nonzero diagonal entry: the first (i, j) with i <= j is named
    for (i, j), value, first in [
        ((1, 2), Fraction(-5, 4), (1, 2)),
        ((0, 1), Fraction(1, 6), (0, 1)),
        ((2, 2), Fraction(1, 9), (2, 2)),
        ((3, 0), Fraction(-1, 2), (0, 3)),
    ]:
        broken = [row[:] for row in rational]
        broken[i][j] = value
        with pytest.raises(SkewnessError, match=rf"entry \({first[0]},{first[1]}\) "):
            SkewMap(broken)
    ctx = BiquadContext(2, 3)
    a, b = ctx.element(1, 2, 0, -1), ctx.element(0, third, 5, 0)
    biquad = [[0, a, b, 1], [-a, 0, 2, b], [-b, -2, 0, a], [-1, -b, -a, 0]]
    SkewMap(biquad)
    biquad[3][2] = a
    with pytest.raises(SkewnessError, match=r"entry \(2,3\) "):
        SkewMap(biquad)
    # a Biquad equal to a rational against that rational's negative
    biquad[3][2] = -a
    biquad[1][2], biquad[2][1] = ctx.embed(2), Fraction(-2)
    SkewMap(biquad)


def _first_asymmetry_fraction(a):
    """Oracle for the skewness check: the first (i, j), i <= j, with
    a[i][j] != -a[j][i], compared as Fractions."""
    size = len(a)
    for i in range(size):
        for j in range(i, size):
            if Fraction(a[i][j]) != -Fraction(a[j][i]):
                return i, j
    return None


def test_skewness_error_names_first_entry_like_fraction_scan():
    # a rational map is checked on its integer image D*A; one or two broken
    # entries, ints and Fractions mixed, name the entry a scan of the
    # Fractions names
    rng = random.Random(24)
    for size in range(2, 13, 2):
        for _ in range(20):
            upper = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                     for _ in range(size * (size - 1) // 2)]
            a = SkewMap.from_upper(size, upper).entries
            for _ in range(rng.randint(1, 2)):
                i, j = rng.randrange(size), rng.randrange(size)
                a[i][j] = rng.choice([a[i][j] + Fraction(1, rng.randint(1, 7)),
                                      -a[i][j] if a[i][j] else Fraction(1, 5),
                                      rng.randint(-3, 3)])
            first = _first_asymmetry_fraction(a)
            if first is None:
                SkewMap(a)
                continue
            with pytest.raises(SkewnessError, match=rf"entry \({first[0]},{first[1]}\) "):
                SkewMap(a)


def test_skewness_error_for_a_break_in_the_lower_triangle_only():
    # the diagonal and the upper triangle are those of a skew map; one entry
    # below the diagonal, at (j, i), is off its mirror, by a sign, a
    # denominator or an int in place of a Fraction: the entry named is
    # (i, j), i < j, as the Fraction scan names it
    rng = random.Random(25)
    for size in (2, 4, 6, 8):
        upper = [Fraction(rng.randint(1, 9), rng.randint(1, 6))
                 for _ in range(size * (size - 1) // 2)]
        for j in range(1, size):
            for i in range(j):
                for value in ("sign", "denominator", "int"):
                    a = SkewMap.from_upper(size, upper).entries
                    mirror = a[i][j]
                    a[j][i] = {"sign": mirror,
                               "denominator": -mirror * Fraction(6, 7),
                               "int": mirror.numerator}[value]
                    assert all(a[k][k] == 0 for k in range(size))
                    assert _first_asymmetry_fraction(a) == (i, j)
                    with pytest.raises(SkewnessError, match=rf"entry \({i},{j}\) "):
                        SkewMap(a)


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


def test_from_upper_keeps_entries_and_refuses_floats():
    m = SkewMap.from_upper(4, [1, -2, 3, 0, 5, -6])
    assert all(type(x) is int for row in m.entries for x in row)
    assert m.entries[0][1] == 1 and m.entries[1][0] == -1
    # 0.1 is not 1/10; like the constructor, from_upper does not round it
    with pytest.raises(ModeMismatchError, match="float"):
        SkewMap.from_upper(4, [0.1] * 6)


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
    for invariant in (char_coeffs, pfaffian):
        with pytest.raises(ModeMismatchError, match="rational entries"):
            invariant(m)


@given(skew_matrices(4))
@settings(max_examples=40, deadline=None)
def test_nilpotency_dichotomy(m):
    # nilpotent (A^4 = 0) exactly when every invariant vanishes, which is
    # how skew-invariants reports it
    invariants_vanish = not any(char_coeffs(m)) and not pfaffian(m)
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
    assert invariants_vanish == is_nilpotent


def test_rank2_decomposition_properties():
    n = 6
    u = [Fraction(v) for v in (1, 2, 0, 1, -1, 3)]
    v = [Fraction(v) for v in (0, 1, 1, -2, 2, 1)]
    m = [[u[i] * v[j] - v[i] * u[j] for j in range(n)] for i in range(n)]
    sm = SkewMap(m)
    assert rank_exact(m) == 2 and char_coeffs(sm)[0]
    ker, im = rank2_orthogonal_decomposition(sm)
    assert len(ker) == n - 2 and len(im) == 2
    # orthogonality for the standard symmetric form and directness
    for a in ker:
        for b in im:
            assert sum((x * y for x, y in zip(a, b)), start=Fraction(0)) == 0
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


# column j of u v^T - v u^T is v_j u - u_j v: zero when u_j = v_j = 0 and
# repeated or a multiple when (u_j, v_j) repeats or is a multiple
REPEATED_AND_ZERO_COLUMN_FAMILIES = [
    ([0, 1, 1, 2, 0, 1], [0, 1, 1, 2, 1, 3]),
    ([0, 0, 1, 2, 3, 1], [0, 0, 1, 2, 3, -1]),
    ([0, 2, 1, 1, 0, 0, 5, 1], [0, 2, 1, 1, 0, 1, 2, 1]),
    ([1, 2, 0, 1, -1, 3], [0, 1, 1, -2, 2, 1]),
]


def test_rank2_image_columns_match_greedy_span_loop():
    for u, v in REPEATED_AND_ZERO_COLUMN_FAMILIES:
        u = [Fraction(x, 3) for x in u]
        n = len(u)
        a = [[u[i] * v[j] - v[i] * u[j] for j in range(n)] for i in range(n)]
        ker, im = rank2_orthogonal_decomposition(SkewMap(a))
        assert im == greedy_image_columns(a)
        assert len(ker) == n - 2


def test_rank2_decomposition_takes_one_elimination(monkeypatch):
    # one echelon form of A gives the rank, the image and the kernel, and
    # the spanning test is the 2x2 Gram determinant of the image columns;
    # the map keeps that echelon, so char_coeffs, the decomposition and the
    # rank share it.  char_coeffs refuses a Biquad map before eliminating.
    # The routines are counted under every name they are looked up by: in
    # qplab.linalg, and in qplab.skew where it binds them.
    import qplab.linalg as linalg
    import qplab.skew as skew

    calls = []
    for module in (linalg, skew):
        for name in ("_eliminate", "_bareiss"):
            routine = getattr(module, name, None)
            if routine is None:
                continue

            def counted(*args, routine=routine):
                calls.append(1)
                return routine(*args)

            monkeypatch.setattr(module, name, counted)
    ctx = BiquadContext(-1, 2)
    one, zero, i = ctx.embed(1), ctx.embed(0), ctx.sqrt_u()
    rational = [Fraction(x, 3) for x in (1, 2, 0, 1, -1, 3)]
    cases = [
        (_wedge(rational, [Fraction(x) for x in (0, 1, 1, -2, 2, 1)]), None),
        (_wedge([one, i, one, zero], [zero, zero, one, one]), None),
        (_wedge([one, i, zero, zero], [zero, zero, one, one]), "nilpotent"),
        (SkewMap.from_upper(4, [Fraction(v) for v in (1, 0, 0, 0, 0, 1)]), "rank"),
    ]
    for m, error in cases:
        for first_char_coeffs in (False, True):
            m = SkewMap(m.entries)  # a fresh map, with no echelon yet
            calls.clear()
            rational_map = all(isinstance(x, (int, Fraction)) for row in m.entries for x in row)
            if first_char_coeffs and rational_map:
                assert char_coeffs(m) == _char_coeffs_fraction(m.entries)
            elif first_char_coeffs:
                with pytest.raises(ModeMismatchError, match="rational entries"):
                    char_coeffs(m)
            if error:
                with pytest.raises(DecompositionError, match=error):
                    rank2_orthogonal_decomposition(m)
            else:
                ker, im = rank2_orthogonal_decomposition(m)
                assert len(ker) == m.size - 2 and len(im) == 2
            assert m.rank == (4 if error == "rank" else 2)
            assert len(calls) == 1


def _rank2_by_second_elimination(m):
    """Oracle for rank2_orthogonal_decomposition: the spanning test as the
    rank of the stacked columns [ker | im], one more elimination."""
    a = m.entries
    size = m.size
    echelon, pivots, ctx = _echelon(a)
    if len(pivots) != 2:
        raise DecompositionError(f"rank is {len(pivots)}, expected 2")
    ker = _back_substitute(echelon, pivots, ctx)
    im = [[a[i][j] for i in range(size)] for j in pivots]
    stacked = ker + im
    if rank_exact([[v[c] for v in stacked] for c in range(size)]) != size:
        raise DecompositionError("map is nilpotent; no orthogonal decomposition")
    return ker, im


def _decomposition_outcome(route, m):
    """What a route gives: its bases with the type of every entry, the
    message of its DecompositionError, or NonInvertibleError (whose message
    names the zero divisor each route met)."""
    try:
        ker, im = route(m)
    except DecompositionError as exc:
        return "DecompositionError", str(exc)
    except NonInvertibleError:
        return ("NonInvertibleError",)
    return ker, im, [[type(x) for x in w] for w in ker + im]


def _wedge(u, v):
    n = len(u)
    return SkewMap([[u[a] * v[b] - v[a] * u[b] for b in range(n)] for a in range(n)])


# u^v over Q(1, 4), the split algebra Q(sqrt 1, sqrt 4): the Gram
# determinant of its image columns is invertible, so ker ⊕ im is the whole
# space, yet the elimination of [ker | im] meets a nonzero column of zero
# divisors and raises NonInvertibleError
SPLIT_GRAM_INVERTIBLE = (
    [(-2, 2, -1, 0), (-1, -1, 2, 0), (1, -1, 2, 1), (-2, -2, 0, -2)],
    [(-1, -2, 2, 1), (-1, 1, 1, 0), (0, -2, -2, 0), (-1, -1, 2, 2)],
)


def test_rank2_gram_certificate_matches_second_elimination():
    rng = random.Random(20)
    maps = []
    for u, v in REPEATED_AND_ZERO_COLUMN_FAMILIES:
        maps.append(_wedge([Fraction(x, 3) for x in u], [Fraction(x) for x in v]))
    for size in range(2, 13, 2):
        for _ in range(6):
            u = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(size)]
            v = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(size)]
            maps.append(_wedge(u, v))
    maps.append(_wedge([Fraction(1)] * 4, [Fraction(2)] * 4))  # the zero map
    maps.append(SkewMap.from_upper(4, [Fraction(v) for v in (1, 0, 0, 0, 0, 1)]))
    for u, w in ((-1, 2), (1, 2), (1, 4), (4, 3)):
        ctx = BiquadContext(u, w)

        def entry():
            if rng.random() < 0.3:
                return ctx.embed(0)
            return ctx.element(*[rng.randint(-2, 2) for _ in range(4)])

        for size in (4, 4, 6) * 50:
            maps.append(_wedge([entry() for _ in range(size)],
                               [entry() for _ in range(size)]))
    # over the field Q(i, sqrt 2), G = 0 and the map is nilpotent: for an
    # isotropic u orthogonal to v, and for v = u + n with n = (1, i, 1, i)
    # isotropic and orthogonal to u, where the image columns u - n and i u
    # have a nonzero product (u - n).(i u) = 2i
    ctx = BiquadContext(-1, 2)
    one, zero, i = ctx.embed(1), ctx.embed(0), ctx.sqrt_u()
    maps.append(_wedge([one, i, zero, zero], [zero, zero, one, one]))
    maps.append(_wedge([one, zero, -one, zero], [one + one, i, zero, i]))
    # over Q(sqrt 1, sqrt -1), u = (1, e sqrt(-1), 0, 0) with the idempotent
    # e = (1 + sqrt 1) / 2 is isotropic in one factor only: both pivots are
    # invertible, and G = u.u = 1 - e is a nonzero zero divisor
    ctx = BiquadContext(1, -1)
    one, zero = ctx.embed(1), ctx.embed(0)
    e = (one + ctx.sqrt_u()) * Fraction(1, 2)
    maps.append(_wedge([one, e * ctx.sqrt_w(), zero, zero], [zero, zero, one, zero]))
    seen = set()
    for m in maps:
        expected = _decomposition_outcome(_rank2_by_second_elimination, m)
        assert _decomposition_outcome(rank2_orthogonal_decomposition, m) == expected
        seen.add(expected[0] if isinstance(expected[0], str) else "decomposed")
    assert seen == {"decomposed", "DecompositionError", "NonInvertibleError"}
    ctx = BiquadContext(1, 4)
    u, v = ([ctx.element(*c) for c in w] for w in SPLIT_GRAM_INVERTIBLE)
    m = _wedge(u, v)
    with pytest.raises(NonInvertibleError):
        _rank2_by_second_elimination(m)
    ker, im = rank2_orthogonal_decomposition(m)
    assert len(ker) == 2 and len(im) == 2
    assert all(not sum((x * y for x, y in zip(a, b)), ctx.embed(0))
               for a in ker for b in im)
    det_exact([[w[c] for w in ker + im] for c in range(4)]).inverse()
