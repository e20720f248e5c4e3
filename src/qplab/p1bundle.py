"""Vector bundles on P^1 attached to a point of X, as kernels of a row map.

For an exact point x the row map M(t) = ((t - lambda_k) x_k) has a minimal
kernel basis of rank 2g+1 with column degrees {0 repeated 2g, 1}.  A column of
degree d is stored as its d+1 coefficient vectors, the t^k one at index k.  The
constant columns span S = V^perp(q1) ∩ V^perp(q2) (which contains x itself)
and are its closed-form basis, kept by the point
(:meth:`~qplab.variety.PointOnX.S_vectors`): for its first two invertible
coordinates i < j and each other k, the vector of S that is e_k off {i, j}.
The degree-1 column is the Koszul syzygy of x_i and x_j.  Every span
question about vectors of S is a rank of their coordinates in that basis,
their entries off {i, j}; no nullspace is taken.  Whether a vector lies in
S at all is asked of the point (:meth:`~qplab.variety.PointOnX.in_S`), on
its numerators.  Quotienting by the line of x realizes the splitting
O^{2g-1} ⊕ O(-1) whose trivial part is the tangent space: the constant
columns and x span a space of dimension one more than the number of O
summands.

The Vandermonde normalizer, the kernel line of the power matrix of the
lambdas, runs on Python ints from the pencil's integer form to one
``Fraction`` per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import prod
from operator import sub

from .linalg import _bareiss, _integer_null_vectors, rank_exact
from .pencil import PencilOfQuadrics
from .scalars import _common_numerators, _is_rational, _product_sums
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
    first two invertible coordinates.  For each other k the constant column
    is the one vector of S that is e_k off {i, j}, from the closed-form basis
    of S that the point keeps (:meth:`~qplab.variety.PointOnX.S_vectors`)
    and the tangent frame shares; so these 2g columns are a basis of S.
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
    i, _, j, _ = x.pair()
    cols = [[w] for w in x.S_vectors()]
    zero = v[i] - v[i]
    w0, w1 = [zero] * len(v), [zero] * len(v)
    w0[i], w0[j] = v[j] * -lam[j], v[i] * lam[i]
    w1[i], w1[j] = v[j], -v[i]
    cols.append([w0, w1])
    kb = KernelBasis(point=x, columns=cols)
    _verify_kernel(kb)
    return kb


def _verify_kernel(kb: KernelBasis):
    # M(t) = t*a - b with a = x and b = (lambda_k x_k), so the t^k coefficient
    # of M(t) * sum_k t^k w_k is a.w_{k-1} - b.w_k; for a constant column w
    # that says a.w = b.w = 0, that is w lies in S.  The products are taken
    # on the point's numerators (:func:`~qplab.scalars._product_sums`): with
    # m_k = L lambda_k, each w_k gives the integer columns of a.w_k and of
    # L b.w_k, all over one denominator
    x = kb.point
    p = x.pencil
    view, (L, ms) = x.numerators(), p.integer_form()
    n = p.dim_ambient
    for col in kb.columns:
        if len(col) == 1:
            if not x.in_S(col[0]):
                raise SplittingError("column fails M(t) * column = 0")
            continue
        ctx, nums, d = _common_numerators(list(chain.from_iterable(col)))
        sums = [_product_sums(view, (ctx, nums[k:k + n], d), ms)
                for k in range(0, len(nums), n)]
        aw = [[L * c for c in a] for a, _ in sums]
        bw = [b for _, b in sums]
        out = [bw[0]] + [list(map(sub, a, b)) for a, b in zip(aw, bw[1:])] + [aw[-1]]
        if any(any(c) for c in out):
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
    b_w1 = _product_sums(view, _common_numerators(w1), ms)[1]
    if not independent or not any(b_w1):
        raise SplittingError("leading coefficient vectors are dependent")


def _rank_of_rows(rows) -> int:
    """Rank of the rows, their singleton rows cleared without elimination.

    A row with one nonzero entry of rational value, like a coordinate
    vector of the closed-form basis, spans its column's unit vector, so it
    clears that column; the other rows go to :func:`~qplab.linalg.rank_exact`
    on the columns left.  The constant columns and a tangent frame are unit
    vectors and v in these coordinates, so what is left of them is at most
    v's entry x_m.  Over a split algebra the rest may meet a nonzero column
    of zero divisors, and then rank_exact raises NonInvertibleError.
    """
    cleared = set()
    rest = []
    for row in rows:
        live = [c for c, x in enumerate(row) if x]
        if len(live) == 1 and _is_rational(row[live[0]]):
            cleared.add(live[0])
        else:
            rest.append(row)
    rest = [[x for c, x in enumerate(row) if c not in cleared] for row in rest]
    return len(cleared) + rank_exact([row for row in rest if any(row)])


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
    q2(v, .) vanish on it (:meth:`~qplab.variety.PointOnX.in_S`, on the
    point's numerators).  The constant columns lie in S, so the two spans
    agree iff rank(constants) = rank(frame) = rank(constants + frame) in the
    coordinates of the closed-form basis, three :func:`_rank_of_rows`, which
    eliminate nothing on a frame of :func:`~qplab.variety.tangent_frame`.
    """
    if not all(kb.point.in_S(s) for s in frame.S_basis):
        return False
    constants = kb.S_coordinates(kb.constants())
    tangent = kb.S_coordinates(frame.S_basis)
    rank = _rank_of_rows(constants)
    return _rank_of_rows(tangent) == rank == _rank_of_rows(constants + tangent)


def vandermonde_normalizer(p: PencilOfQuadrics):
    """The kernel line of the (2g+1) x (2g+2) power matrix of the lambdas.

    Normalized to the closed form a_j = 1 / prod_{k != j} (lambda_j - lambda_k);
    every entry is nonzero.  Row k scaled by L^k, for L the lcm of the
    lambdas' denominators, is the row of k-th powers of the integers
    m_j = L * lambda_j (the pencil's
    :meth:`~qplab.pencil.PencilOfQuadrics.integer_form`); row scaling keeps
    the kernel, so the matrix is built from integer powers.  It is
    eliminated on ints (:func:`~qplab.linalg._bareiss`), and its one null
    vector w = D v comes from the integer back substitution, which checks
    every division by a pivot to be exact.  The line is read from w and
    only scaled by the closed form of its last entry,
    L^(n-1) / prod_{k < n-1} (m_{n-1} - m_k), so entry j is one
    ``Fraction`` of ints.  Raises ``ArithmeticError`` when the kernel is not
    a line, when it has a zero entry and when a division by a pivot leaves a
    remainder.
    """
    n = p.dim_ambient
    L, ms = p.integer_form()
    rows = [[m ** k for m in ms] for k in range(n - 1)]
    pivots, _ = _bareiss(rows)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise ArithmeticError(f"kernel dimension {len(free)}, expected 1")
    _, (w,) = _integer_null_vectors(rows, pivots, free)
    if not all(w):
        raise ArithmeticError("kernel vector has a zero entry")
    # rescale onto the closed form via the last entry
    num = L ** (n - 1)
    den = prod([ms[n - 1] - m for m in ms[:n - 1]]) * w[n - 1]
    return [Fraction(num * c, den) for c in w]
