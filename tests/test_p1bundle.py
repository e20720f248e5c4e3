"""Kernel bases of the pencil row map, splitting types, Vandermonde kernel."""

from fractions import Fraction

import pytest

from qplab import (
    ModeMismatchError,
    PencilOfQuadrics,
    PointOnX,
    canonical_pencil,
    n_tilde_splitting,
    sample_point,
    tangent_frame,
    to_complex,
    trivial_factor_matches_tangent,
    v_perp_kernel,
    vandermonde_normalizer,
)
from qplab.linalg import in_span, same_span
from qplab.p1bundle import KernelBasis, SplittingError, _verify_kernel
from qplab.variety import _invert, _invertible_pivot

P2 = canonical_pencil(2)
P3 = canonical_pencil(3)


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
        assert sorted(kb.degrees) == [0] * (2 * p.g) + [1]
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
        _verify_kernel(KernelBasis(x, broken, kb.degrees))
    # e0 is off S: its product with x is x_0
    broken = list(kb.columns)
    broken[kb.degrees.index(0)] = [e0]
    with pytest.raises(SplittingError):
        _verify_kernel(KernelBasis(x, broken, kb.degrees))


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
        assert st.as_multiset()[0] == 2 * p.g - 1


def greedy_constant_count(kb):
    """Oracle: degree-0 summands counted by the greedy in_span loop."""
    v = kb.point.coords
    pivot = _invertible_pivot(v)
    inv_vp = _invert(v[pivot])
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
        padded = KernelBasis(x, const + const[:2] + [point_col] + other,
                             [0] * (len(const) + 3) + [1])
        assert greedy_constant_count(padded) == 2 * p.g - 1
        assert n_tilde_splitting(padded) == st
        # two missing constant columns leave one summand short for both
        short = KernelBasis(x, const[2:] + other, [0] * (len(const) - 2) + [1])
        assert greedy_constant_count(short) == 2 * p.g - 2
        with pytest.raises(SplittingError):
            n_tilde_splitting(short)


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
    for j in range(n):
        target = Fraction(1)
        for k in range(n):
            if k != j:
                target /= p.lambdas[j] - p.lambdas[k]
        assert a[j] == target
    # it annihilates every power row lambda^0 .. lambda^{2g}
    for k in range(n - 1):
        assert sum(a[j] * p.lambdas[j] ** k for j in range(n)) == 0
