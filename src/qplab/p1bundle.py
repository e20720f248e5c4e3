"""Vector bundles on P^1 attached to a point of X, as kernels of a row map.

For an exact point x the row map M(t) = ((t - lambda_k) x_k) has a minimal
kernel basis of rank 2g+1 with column degrees {0 repeated 2g, 1}.  A column of
degree d is stored as its d+1 coefficient vectors, the t^k one at index k.  The
constant columns span S = V^perp(q1) ∩ V^perp(q2) (which contains x itself),
and quotienting by the line of x realizes the splitting O^{2g-1} ⊕ O(-1) whose
trivial part is the tangent space.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    _pivot_columns,
    in_span,
    matvec,
    nullspace_exact,
    rank_exact,
    same_span,
)
from .pencil import PencilOfQuadrics
from .variety import PointOnX, TangentFrame, _invert, _invertible_pivot

__all__ = [
    "KernelBasis",
    "SplittingType",
    "SplittingError",
    "v_perp_kernel",
    "n_tilde_splitting",
    "trivial_factor_matches_tangent",
    "vandermonde_normalizer",
]


class SplittingError(ArithmeticError):
    """Computed degrees differ from the structure theorem's prediction."""


@dataclass
class KernelBasis:
    """Minimal kernel basis of the 1x(2g+2) row map M(t) = ((t-lambda_k) x_k)."""

    point: PointOnX
    columns: list          # per column, its coefficient vectors [w0] or [w0, w1]
    degrees: list          # per-column minimal degree


@dataclass(frozen=True)
class SplittingType:
    """Multiset of degrees d_i; a degree-d column corresponds to O(-d)."""

    degrees: tuple

    def as_multiset(self) -> Counter:
        return Counter(self.degrees)

    def total_degree(self) -> int:
        return -sum(self.degrees)


def v_perp_kernel(p: PencilOfQuadrics, x: PointOnX) -> KernelBasis:
    """Minimal kernel basis of M(t), by degree-ansatz linear algebra.

    Degree-0 columns solve the two constant constraints (they are exactly S);
    one extra degree-1 column completes the rank-(2g+1) kernel.  Anything
    outside the predicted degree profile raises SplittingError.
    """
    if x.pencil != p:
        raise ValueError("point does not belong to the pencil")
    v = x.coords
    lam = p.lambdas
    n = p.dim_ambient
    # constant columns: sum x_k w_k = 0 and sum lambda_k x_k w_k = 0
    const_rows = [list(v), [l * c for l, c in zip(lam, v)]]
    constants = nullspace_exact(const_rows)
    if len(constants) != 2 * p.g:
        raise SplittingError(
            f"constant kernel has dimension {len(constants)}, expected {2 * p.g}"
        )
    # degree-1 ansatz w(t) = w0 + t*w1: coefficient blocks give three rows
    zero = v[0] - v[0]
    r_t2 = [zero] * n + list(v)
    r_t1 = list(v) + [-l * c for l, c in zip(lam, v)]
    r_t0 = [-l * c for l, c in zip(lam, v)] + [zero] * n
    big = nullspace_exact([r_t2, r_t1, r_t0])
    degree_one = None
    for sol in big:
        w1 = sol[n:]
        if any(w1) and not in_span(constants, w1):
            degree_one = [sol[:n], w1]
            break
    if degree_one is None:
        raise SplittingError("no degree-1 kernel column with independent leading term")
    cols = [[w] for w in constants] + [degree_one]
    degrees = [0] * len(constants) + [1]
    kb = KernelBasis(point=x, columns=cols, degrees=degrees)
    _verify_kernel(kb)
    return kb


def _verify_kernel(kb: KernelBasis):
    # M(t) = t*a - b with a = x and b = (lambda_k x_k), so the t^k coefficient
    # of M(t) * sum_k t^k w_k is a.w_{k-1} - b.w_k
    v = kb.point.coords
    rows = [v, [l * c for l, c in zip(kb.point.pencil.lambdas, v)]]
    for col in kb.columns:
        aw, bw = zip(*(matvec(rows, w) for w in col))
        out = [-bw[0]] + [x - y for x, y in zip(aw, bw[1:])] + [aw[-1]]
        if any(out):
            raise SplittingError("column fails M(t) * column = 0")
    # predictable-degree certificate: leading coefficient vectors independent
    leads = [col[d] for col, d in zip(kb.columns, kb.degrees)]
    m = [[leads[c][r] for c in range(len(leads))] for r in range(len(leads[0]))]
    if rank_exact(m) != len(leads):
        raise SplittingError("leading coefficient vectors are dependent")


def n_tilde_splitting(kb: KernelBasis) -> SplittingType:
    """Splitting type of V^perp/(V ⊗ O): quotient the columns by the line of x."""
    v = kb.point.coords
    pivot = _invertible_pivot(v)
    inv_vp = _invert(v[pivot])
    degrees = []
    reduced = []
    for col, d in zip(kb.columns, kb.degrees):
        if d == 0:
            w = col[0]
            f = w[pivot] * inv_vp
            reduced.append([wi - f * vi for wi, vi in zip(w, v)])
        else:
            degrees.append(d)
    # one O summand per reduced constant outside the span of those before it
    degrees += [0] * len(_pivot_columns(list(zip(*reduced))))
    degrees.sort()
    expected = [0] * (2 * kb.point.pencil.g - 1) + [1]
    if degrees != expected:
        raise SplittingError(f"unexpected splitting degrees {degrees}")
    return SplittingType(degrees=tuple(degrees))


def trivial_factor_matches_tangent(kb: KernelBasis, frame: TangentFrame) -> bool:
    """True iff the constant kernel columns span exactly S of the frame."""
    constants = [col[0] for col, d in zip(kb.columns, kb.degrees) if d == 0]
    return same_span(constants, frame.S_basis)


def vandermonde_normalizer(p: PencilOfQuadrics):
    """The kernel line of the (2g+1) x (2g+2) power matrix of the lambdas.

    Normalized to the closed form a_j = 1 / prod_{k != j} (lambda_j - lambda_k);
    every entry is nonzero.
    """
    lam = p.lambdas
    n = p.dim_ambient
    rows = [[lam[j] ** k for j in range(n)] for k in range(n - 1)]
    basis = nullspace_exact(rows)
    if len(basis) != 1:
        raise ArithmeticError(f"kernel dimension {len(basis)}, expected 1")
    a = basis[0]
    if any(not c for c in a):
        raise ArithmeticError("kernel vector has a zero entry")
    # rescale onto the closed form via the last entry
    target_last = Fraction(1)
    for k in range(n - 1):
        target_last /= lam[n - 1] - lam[k]
    scale = target_last / a[n - 1]
    return [scale * c for c in a]
