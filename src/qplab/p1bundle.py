"""Vector bundles on P^1 attached to a point of X, as kernels of a row map.

For an exact point x the row map M(t) = ((t - lambda_k) x_k) has a minimal
kernel basis of rank 2g+1 with column degrees {0 repeated 2g, 1}.  A column of
degree d is stored as its d+1 coefficient vectors, the t^k one at index k.  The
constant columns are one nullspace and span S = V^perp(q1) ∩ V^perp(q2)
(which contains x itself); the degree-1 column is the Koszul syzygy of two
coordinates of x, in closed form.  Quotienting by the line of x realizes the
splitting O^{2g-1} ⊕ O(-1) whose trivial part is the tangent space: the
constant columns and x span a space of dimension one more than the number of
O summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .linalg import matvec, nullspace_exact, rank_exact, same_span
from .pencil import PencilOfQuadrics
from .variety import PointOnX, TangentFrame

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

    @property
    def degrees(self) -> list:
        """Per-column degree: a column of d+1 coefficient vectors has degree d."""
        return [len(col) - 1 for col in self.columns]


@dataclass(frozen=True)
class SplittingType:
    """Multiset of degrees d_i; a degree-d column corresponds to O(-d)."""

    degrees: tuple

    def total_degree(self) -> int:
        return -sum(self.degrees)


def v_perp_kernel(p: PencilOfQuadrics, x: PointOnX) -> KernelBasis:
    """Minimal kernel basis of M(t): a nullspace and one closed-form column.

    Degree-0 columns solve the two constant constraints (they are exactly S).
    The degree-1 column is the Koszul syzygy of the first pair i < j with
    x_i x_j != 0: w_i = (t - lambda_j) x_j and w_j = -(t - lambda_i) x_i.
    Its leading term lies off S because lambda_i != lambda_j, which the
    predictable-degree certificate checks exactly; anything outside the
    predicted degree profile raises SplittingError.
    """
    if x.pencil != p:
        raise ValueError("point does not belong to the pencil")
    v = x.coords
    lam = p.lambdas
    n = p.dim_ambient
    # constant columns: sum x_k w_k = 0 and sum lambda_k x_k w_k = 0
    constants = nullspace_exact([p.q1_row(v), p.q2_row(v)])
    if len(constants) != 2 * p.g:
        raise SplittingError(
            f"constant kernel has dimension {len(constants)}, expected {2 * p.g}"
        )
    pair = next(((i, j) for i, j in combinations(range(n), 2) if v[i] * v[j]), None)
    if pair is None:
        raise SplittingError("no two coordinates of the point have a nonzero product")
    i, j = pair
    zero = v[i] - v[i]
    w0, w1 = [zero] * n, [zero] * n
    w0[i], w0[j] = -lam[j] * v[j], lam[i] * v[i]
    w1[i], w1[j] = v[j], -v[i]
    cols = [[w] for w in constants] + [[w0, w1]]
    kb = KernelBasis(point=x, columns=cols)
    _verify_kernel(kb)
    return kb


def _verify_kernel(kb: KernelBasis):
    # M(t) = t*a - b with a = x and b = (lambda_k x_k), so the t^k coefficient
    # of M(t) * sum_k t^k w_k is a.w_{k-1} - b.w_k
    p, v = kb.point.pencil, kb.point.coords
    rows = [p.q1_row(v), p.q2_row(v)]
    for col in kb.columns:
        # a list, not a generator expression: star-unpacking a generator
        # made the peak RSS of long runs creep up (measured on CPython 3.11)
        aw, bw = zip(*[matvec(rows, w) for w in col])
        out = [-bw[0]] + [x - y for x, y in zip(aw, bw[1:])] + [aw[-1]]
        if any(out):
            raise SplittingError("column fails M(t) * column = 0")
    # predictable-degree certificate: leading coefficient vectors independent
    leads = [col[-1] for col in kb.columns]
    m = [[leads[c][r] for c in range(len(leads))] for r in range(len(leads[0]))]
    if rank_exact(m) != len(leads):
        raise SplittingError("leading coefficient vectors are dependent")


def n_tilde_splitting(kb: KernelBasis) -> SplittingType:
    """Splitting type of V^perp/(V ⊗ O): quotient the columns by the line of x.

    The constant columns give rank([x] + constants) - 1 summands O.
    """
    constants = [col[0] for col, d in zip(kb.columns, kb.degrees) if d == 0]
    degrees = [d for d in kb.degrees if d]
    degrees += [0] * (rank_exact([list(kb.point.coords)] + constants) - 1)
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
