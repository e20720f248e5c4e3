"""Vector bundles on P^1 attached to a point of X, as kernels of a row map.

For an exact point x the row map M(t) = ((t - lambda_k) x_k) has a minimal
kernel basis of rank 2g+1 with column degrees {0 repeated 2g, 1}.  A column of
degree d is stored as its d+1 coefficient vectors, the t^k one at index k.  The
constant columns span S = V^perp(q1) ∩ V^perp(q2) (which contains x itself)
and are its closed-form basis: for the first two invertible coordinates i < j
of x and each other k, the vector of S that is e_k off {i, j}.  The degree-1
column is the Koszul syzygy of x_i and x_j.  Every span question about
vectors of S is answered in the coordinates of that basis, which are just
their entries off {i, j}; no nullspace is taken.  Quotienting by the line of
x realizes the splitting O^{2g-1} ⊕ O(-1) whose trivial part is the tangent
space: the constant columns and x span a space of dimension one more than the
number of O summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import _pivot_columns, dot, matvec, nullspace_exact, rank_exact
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
    """Minimal kernel basis of the 1x(2g+2) row map M(t) = ((t-lambda_k) x_k).

    The coordinates of S are taken off the point's pair
    (:meth:`~qplab.variety.PointOnX.pair`).
    """

    point: PointOnX
    columns: list          # per column, its coefficient vectors [w0] or [w0, w1]

    @property
    def degrees(self) -> list:
        """Per-column degree: a column of d+1 coefficient vectors has degree d."""
        return [len(col) - 1 for col in self.columns]

    def constants(self) -> list:
        """The constant vectors of the degree-0 columns; they lie in S, as
        M(t) w = 0 for a constant w says exactly that."""
        return [col[0] for col in self.columns if len(col) == 1]

    def S_coordinates(self, vectors) -> list:
        """Coordinates of vectors of S in the closed-form basis: their
        entries off the pair (i, j), as that basis is e_k there."""
        i, _, j, _ = self.point.pair()
        return [[c for k, c in enumerate(w) if k != i and k != j] for w in vectors]


@dataclass(frozen=True)
class SplittingType:
    """Multiset of degrees d_i; a degree-d column corresponds to O(-d)."""

    degrees: tuple

    def total_degree(self) -> int:
        return -sum(self.degrees)


def v_perp_kernel(p: PencilOfQuadrics, x: PointOnX) -> KernelBasis:
    """Minimal kernel basis of M(t): 2g closed-form constant columns and one
    Koszul column.

    Let i < j be the pair of x (:meth:`~qplab.variety.PointOnX.pair`), its
    first two invertible coordinates.  For each other
    k the constant column is w = e_k + a_k e_i + b_k e_j with
    a_k = x_k (lambda_k - lambda_j) / ((lambda_j - lambda_i) x_i) and
    b_k = x_k (lambda_i - lambda_k) / ((lambda_j - lambda_i) x_j), the one
    vector of S that is e_k off {i, j}; so these 2g columns are a basis of S.
    When the rows q1(v, .), q2(v, .) have pivot columns i, j they are also
    the nullspace basis of those rows.  The degree-1 column is the Koszul
    syzygy w_i = (t - lambda_j) x_j, w_j = -(t - lambda_i) x_i.  Its leading
    term lies off S because lambda_i != lambda_j, which the predictable-degree
    certificate checks exactly; anything outside the predicted degree
    profile raises SplittingError.

    Sampled points have the invertible coordinates x_0 = sqrt(u0) and
    x_1 = sqrt(u1), even when the radicands make the algebra split, so the
    pair is (0, 1) there.  A point with fewer than two invertible
    coordinates has no such basis, and this raises
    :class:`~qplab.scalars.NonInvertibleError`, as f_H does.
    """
    if x.pencil != p:
        raise ValueError("point does not belong to the pencil")
    v = x.coords
    lam = p.lambdas
    i, inv_i, j, inv_j = x.pair()
    d = lam[j] - lam[i]
    c_i, c_j = inv_i * (1 / d), inv_j * (1 / d)
    zero = v[i] - v[i]
    one = zero + 1
    cols = []
    for k in range(len(v)):
        if k == i or k == j:
            continue
        w = [zero] * len(v)
        w[k] = one
        w[i] = v[k] * (lam[k] - lam[j]) * c_i
        w[j] = v[k] * (lam[i] - lam[k]) * c_j
        cols.append([w])
    w0, w1 = [zero] * len(v), [zero] * len(v)
    w0[i], w0[j] = v[j] * -lam[j], v[i] * lam[i]
    w1[i], w1[j] = v[j], -v[i]
    cols.append([w0, w1])
    kb = KernelBasis(point=x, columns=cols)
    _verify_kernel(kb)
    return kb


def _verify_kernel(kb: KernelBasis):
    # M(t) = t*a - b with a = x and b = (lambda_k x_k), so the t^k coefficient
    # of M(t) * sum_k t^k w_k is a.w_{k-1} - b.w_k
    p = kb.point.pencil
    rows = kb.point.rows()
    for col in kb.columns:
        # a list, not a generator expression: star-unpacking a generator
        # made the peak RSS of long runs creep up (measured on CPython 3.11)
        aw, bw = zip(*[matvec(rows, w) for w in col])
        out = [-bw[0]] + [x - y for x, y in zip(aw, bw[1:])] + [aw[-1]]
        if any(out):
            raise SplittingError("column fails M(t) * column = 0")
    degrees = sorted(kb.degrees)
    expected = [0] * (2 * p.g) + [1]
    if degrees != expected:
        raise SplittingError(f"kernel column degrees {degrees}, expected {expected}")
    # predictable-degree certificate: the leading coefficient vectors are
    # independent.  The constant columns lie in S, so they are independent
    # iff their coordinates have full rank, and then they span S; the lead
    # w1 of the degree-1 column has a.w1 = 0, so it lies off S iff b.w1 != 0
    constants = kb.constants()
    w1 = next(col[1] for col in kb.columns if len(col) == 2)
    independent = _rank_of_rows(kb.S_coordinates(constants)) == len(constants)
    if not independent or not dot(rows[1], w1):
        raise SplittingError("leading coefficient vectors are dependent")


def _rank_of_rows(rows) -> int:
    """Rank of the rows, eliminated sparsest first.  The rank does not depend
    on their order, and a row with one nonzero entry, like the coordinates of
    a closed-form basis vector, clears its column without fill-in."""
    return rank_exact(sorted(rows, key=lambda row: sum(1 for c in row if c)))


def n_tilde_splitting(kb: KernelBasis) -> SplittingType:
    """Splitting type of V^perp/(V ⊗ O): quotient the columns by the line of x.

    The constant columns give rank([x] + constants) - 1 summands O.  x and
    the constant columns lie in S, so that rank is the rank of their
    coordinates in the closed-form basis (:meth:`KernelBasis.S_coordinates`).
    """
    degrees = [d for d in kb.degrees if d]
    rows = kb.S_coordinates([kb.point.coords] + kb.constants())
    degrees += [0] * (_rank_of_rows(rows) - 1)
    degrees.sort()
    expected = [0] * (2 * kb.point.pencil.g - 1) + [1]
    if degrees != expected:
        raise SplittingError(f"unexpected splitting degrees {degrees}")
    return SplittingType(degrees=tuple(degrees))


def trivial_factor_matches_tangent(kb: KernelBasis, frame: TangentFrame) -> bool:
    """True iff the constant kernel columns span exactly S of the frame.

    Every vector of the frame must lie in S: both rows q1(v, .) and
    q2(v, .) vanish on it.  The constant columns lie in S, so the two spans
    agree iff rank(constants) = rank(frame) = rank(constants + frame) in the
    coordinates of the closed-form basis.  The pivot columns of one echelon
    form of the constants followed by the frame give the first and the
    last of these; the frame's rows, sparsest first, give the second.
    """
    rows = kb.point.rows()
    if any(any(matvec(rows, s)) for s in frame.S_basis):
        return False
    constants = kb.S_coordinates(kb.constants())
    tangent = kb.S_coordinates(frame.S_basis)
    pivots = _pivot_columns(list(zip(*constants, *tangent)))
    if pivots and pivots[-1] >= len(constants):
        return False
    return _rank_of_rows(tangent) == len(pivots)


def vandermonde_normalizer(p: PencilOfQuadrics):
    """The kernel line of the (2g+1) x (2g+2) power matrix of the lambdas.

    Normalized to the closed form a_j = 1 / prod_{k != j} (lambda_j - lambda_k);
    every entry is nonzero.  Row k scaled by L^k, for L the lcm of the
    lambdas' denominators, is the row of k-th powers of the integers
    m_j = L * lambda_j; row scaling keeps the kernel, so the matrix is built
    from integer powers.
    """
    lam = p.lambdas
    n = p.dim_ambient
    den = lcm(*[x.denominator for x in lam])
    ms = [x.numerator * (den // x.denominator) for x in lam]
    rows = [[m ** k for m in ms] for k in range(n - 1)]
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
