"""The Lagrangian fibration computed two ways.

phi_X evaluates the quadratic generator fields on a cotangent representative:
component j is sum_{k != j} (x_j eta_k - x_k eta_j)^2 / (lambda_k - lambda_j).
They are computed in one loop on integer numerator 4-tuples, with the weights
1/(lambda_k - lambda_j) kept as a table of the pencil, and each component is
reduced once.
f_H computes the same data geometrically: the binary form (degree 2g-2) cutting
out the degenerate members of the pencil restricted to the hyperplane
H = ker(eta) of the tangent space S/V.  The determinant of q_t on H is a
bordered determinant: det(D_t) det(C^T D_t^-1 C) for D_t = diag(t - lambda_k)
and C the four rows that cut H out of the ambient space, which the identities
q1(x) = q2(x) = eta(x) = 0 reduce to 3x3 at every g.  The two are matched by a
closed-form rational matrix of the pencil: the coefficients of
sum_j F_j prod_{k != j}(t - lambda_k) lose their top three (the moments of F,
which vanish) and are proportional to those of f_H, which verify_identification
checks exactly.  verify_lagrangian certifies the fibration property itself
by one exact rank of the closed-form Jacobian dF/deta and exact brackets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from .binary_forms import BinaryForm, _lagrange_matrix, _root_quotients
from .linalg import (
    _integer_rows, _scaled_matvec_numerators, det_exact, rank_exact, scaled_matvec)
from .pencil import PencilOfQuadrics
from .scalars import (
    _ZERO_N, _common_numerators, _product_numerators, _raw, _reduce, _scaled_product)
from .variety import CotangentRep, PointOnX, _sums_vanish, _vanishes_on_S

__all__ = [
    "FibrationValue",
    "IdentificationMap",
    "DegenerateCovectorError",
    "phi_components",
    "phi_X",
    "f_H",
    "fit_identification",
    "verify_identification",
    "verify_lagrangian",
]


class DegenerateCovectorError(ValueError):
    """eta restricted to S/V vanishes; H is not a hyperplane."""


@dataclass
class FibrationValue:
    """The 2g+2 component values of the generator fields at (x, eta)."""

    components: list


def _phi_table(p: PencilOfQuadrics) -> tuple:
    """The matrix a_jk = 1/(lambda_k - lambda_j), 0 on the diagonal, as
    integer rows and one scale per row (:func:`~qplab.linalg._integer_rows`):
    row j holds the weights of the terms of F_j."""
    lam = p.lambdas
    return _integer_rows(
        [[1 / (lk - lj) if lk != lj else 0 for lk in lam] for lj in lam]
    )


def phi_components(p: PencilOfQuadrics, v, eta) -> list:
    """Raw generator-field values; only gauge/covector checks are skipped.

    F_j = sum_{k != j} a_jk w_jk^2 with w_jk = v_j eta_k - v_k eta_j and
    a_jk = 1/(lambda_k - lambda_j), on integer numerators: v and eta are put
    on one common denominator d (one numerator view,
    :func:`~qplab.scalars._common_numerators`), each pair j < k forms w_jk^2
    once and adds it into F_j and F_k (w_kj^2 = w_jk^2) with the integer rows
    of :func:`_phi_table`, and each component is reduced once
    (:func:`~qplab.scalars._reduce`).  The products are those of
    :func:`~qplab.scalars._scaled_product` (a factor of rational value
    scales the other, two irrational ones take the product formula, each
    scaled by k0 = qu*qw, 1 without a context), so w^2 lies over
    k0^3 d^4, and each component is a ``Biquad`` of the view's context or
    a ``Fraction`` without one.  Raises
    :class:`~qplab.scalars.ModeMismatchError` for an entry that is not an
    exact scalar and for two contexts.
    """
    rows, scales = p.derived("phi_table", _phi_table)
    n = len(v)
    ctx, nums, d = _common_numerators(list(v) + list(eta))
    xs, es = nums[:n], nums[n:]
    c0, c1, c2, c3 = [0] * n, [0] * n, [0] * n, [0] * n
    for j in range(n):
        xj, ej, rj = xs[j], es[j], rows[j]
        for k in range(j + 1, n):
            ajk, akj = rj[k], rows[k][j]
            a0, a1, a2, a3 = _scaled_product(ctx, xj, es[k])
            b0, b1, b2, b3 = _scaled_product(ctx, xs[k], ej)
            w = (a0 - b0, a1 - b1, a2 - b2, a3 - b3)
            w0, w1, w2, w3 = _scaled_product(ctx, w, w)
            c0[j] += ajk * w0
            c1[j] += ajk * w1
            c2[j] += ajk * w2
            c3[j] += ajk * w3
            c0[k] += akj * w0
            c1[k] += akj * w1
            c2[k] += akj * w2
            c3[k] += akj * w3
    d = (1 if ctx is None else ctx._k[0]) ** 3 * d ** 4
    return [_reduce(ctx, (c0[j], c1[j], c2[j], c3[j]), scales[j] * d) for j in range(n)]


def phi_X(x: PointOnX, xi: CotangentRep) -> FibrationValue:
    """Evaluate every generator field on (eta, eta) at x, exactly."""
    if xi.point is not x and xi.point.coords != x.coords:
        raise ValueError("covector attached to a different point")
    return FibrationValue(components=phi_components(x.pencil, x.coords, xi.eta))


def f_H(x: PointOnX, xi: CotangentRep) -> BinaryForm:
    """Degenerate-member form of the restricted pencil, exactly.

    H lifts one to one onto the kernel W of the rows e_p, x, lambda*x and
    eta, for p the first invertible coordinate of x.  For any basis B of W,
    det(B^T D_t B) is a nonzero constant times det(D_t) det(C^T D_t^-1 C),
    where D_t = diag(d_k), d_k = t - lambda_k and C has those rows as columns.
    Eliminating e_p, then using q1(x) = q2(x) = eta(x) = 0, leaves
    prod_{k != p} d_k det([[A, a_p, B], [a_p, (lambda_p - t) a_p, b_p],
    [B, b_p, C]]), where A, B, C sum x_k^2, x_k eta_k, eta_k^2 over d_k for
    k != p, a_p = x_p^2 and b_p = x_p eta_p.  That value is sampled at 2g-1
    parameters beyond max(lambda) and interpolated to a binary form of
    degree 2g-2: f_H up to a nonzero scale.  The 3x3 is not expanded
    further: up to a constant its expansion is sum_{i<j} w_ij^2
    prod_{k != i,j} d_k with w_ij = x_i eta_j - x_j eta_i, which is exactly
    -L(F)(t), so the diagram check would compare phi with itself.
    Everything rational here is a fixed map of the pencil and p
    (:func:`_f_H_table`): A, B and C at all 2g-1 parameters are the weight
    rows 1/(t - lambda_k) applied to the vectors x_k^2, x_k eta_k and
    eta_k^2, and the interpolation, with prod_{k != p} d_k folded in, is a
    Lagrange matrix applied to the 2g-1 determinants; each is one
    :func:`~qplab.linalg.scaled_matvec` on integer numerators, reduced once
    per output.  The three vectors of products are the views of
    :func:`~qplab.scalars._product_numerators` on the numerator views of x
    (:meth:`~qplab.variety.PointOnX.numerators`) and eta, so they take no
    ``Biquad`` product and no reduction of their own.
    Raises DegenerateCovectorError when eta vanishes on S/V, which the
    closed form of :func:`_vanishes_on_S` tells without an elimination; a
    rep of the point x keeps that verdict, so a sampled one is not tested
    again.
    """
    p = x.pencil
    v, eta = x.coords, xi.eta
    degenerate = xi.vanishes_on_S() if xi.point is x else _vanishes_on_S(x, eta)
    if degenerate:
        raise DegenerateCovectorError("eta vanishes on S/V")
    piv = x.pair()[0]
    # the numerator views of x and eta without the entry at piv
    xv, ev = [(ctx, nums[:piv] + nums[piv + 1:], d)
              for ctx, nums, d in (x.numerators(), _common_numerators(eta))]
    a_p, b_p = v[piv] * v[piv], v[piv] * eta[piv]
    weights, shifts, lagrange = p.derived(("f_H", piv), lambda p: _f_H_table(p, piv))
    # A, B and C at every parameter, from x_k^2, x_k eta_k and eta_k^2
    sums = [
        _scaled_matvec_numerators(*weights, _product_numerators(a, b))
        for a, b in ((xv, xv), (xv, ev), (ev, ev))
    ]
    dets = [
        det_exact([[a, a_p, b], [a_p, a_p * shift, b_p], [b, b_p, c]])
        for a, b, c, shift in zip(*sums, shifts)
    ]
    return BinaryForm(2 * p.g - 2, scaled_matvec(*lagrange, dets))


def _f_H_table(p: PencilOfQuadrics, piv: int) -> tuple:
    """The rational maps of f_H for the pencil p and the coordinate piv, at
    the parameters t_m = max(lambda) + m (m = 1..2g-1): the weights
    1/(t_m - lambda_k) for k != piv, one row per parameter; lambda_piv - t_m;
    and the Lagrange basis on the t_m with prod_{k != piv}(t_m - lambda_k)
    folded into column m, which takes the 3x3 determinants to the
    coefficients of f_H.  Both maps are kept as integer rows and scales
    (:func:`~qplab.linalg._integer_rows`)."""
    lam = p.lambdas
    others = [lam[k] for k in range(len(lam)) if k != piv]
    params = [max(lam) + m for m in range(1, 2 * p.g)]
    weights = [[1 / (t - lk) for lk in others] for t in params]
    d_prods = [prod([t - lk for lk in others]) for t in params]
    return (
        _integer_rows(weights),
        [lam[piv] - t for t in params],
        _integer_rows(_lagrange_matrix(params, d_prods)),
    )


@dataclass
class IdentificationMap:
    """The exact linear identification of fibration components with f_H.

    Row r of L holds the coefficients of t^(2g+1-r) in the polynomials
    prod_{k != j}(t - lambda_k), one column per j, so L*F lists the
    coefficients of L(F)(t) = sum_j F_j prod_{k != j}(t - lambda_k), highest
    power first.  Its first three entries are invertible triangular
    combinations of the moments sum_j lambda_j^m F_j (m = 0, 1, 2) and vanish;
    the remaining 2g-1 are proportional to the coefficients of f_H.  The map
    keeps the pencil's lambdas, not the pencil, whose table of derived values
    holds the map.
    """

    L: list
    lambdas: tuple
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._rows = _integer_rows(self.L)

    def apply(self, value: FibrationValue) -> list:
        """L*F, exactly, on the integer rows of L built with the map."""
        return scaled_matvec(*self._rows, value.components)


def _mismatch(ident: IdentificationMap, value: FibrationValue, form: BinaryForm):
    """The first identity that L*F and f_H break, "moments" or
    "proportional"; None when both hold."""
    lf = ident.apply(value)
    if any(lf[:3]):
        return "moments"
    if not _proportional(lf[3:], form.coeffs):
        return "proportional"
    return None


def _proportional(a, b) -> bool:
    """a and b are nonzero and every 2x2 minor a_i b_k - a_k b_i vanishes."""
    if len(a) != len(b) or not any(a) or not any(b):
        return False
    return not any(
        a[i] * b[k] - a[k] * b[i]
        for i in range(len(a))
        for k in range(i + 1, len(a))
    )


# The two names below are kept from the fitted identification they replace:
# the traced benchmark looks them up by name and reports their per-layer
# metrics, so they can only be renamed together with the benchmark.


def fit_identification(p: PencilOfQuadrics) -> IdentificationMap:
    """The identification of the pencil p, exactly and without samples.

    It is built on the first call for p and the same map is returned after
    that, so callers must not modify it.
    """
    return p.derived("identification", _identification)


def _identification(p: PencilOfQuadrics) -> IdentificationMap:
    """Column j of L is prod_k (t - lambda_k) divided by (t - lambda_j)."""
    L = [list(row) for row in zip(*_root_quotients(p.lambdas))]
    return IdentificationMap(L=L, lambdas=p.lambdas)


def verify_identification(ident: IdentificationMap, pairs) -> dict:
    """Check L*phi against f_H exactly on each sample (x, xi).

    Raises ValueError for a sample of another pencil.  A failing report
    names the first failing sample and the identity it breaks.
    """
    if any(x.pencil.lambdas != ident.lambdas for x, _ in pairs):
        raise ValueError("sample from a different pencil")
    values = ((phi_X(x, xi), f_H(x, xi)) for x, xi in pairs)
    return _identification_report(ident, len(pairs), values)


def _identification_report(ident: IdentificationMap, count: int, values) -> dict:
    """The report of :func:`verify_identification` on `count` samples whose
    (phi_X, f_H) values `values` yields in index order; it stops at the
    first failing sample."""
    cases = (_mismatch(ident, value, form) for value, form in values)
    return _first_failure({"pass": True, "samples": count}, enumerate(cases))


def _first_failure(report: dict, cases) -> dict:
    """`report`, failed at the first (index, case) pair of `cases` whose case
    is not None: "pass" becomes False and "first_failure" names that case and
    index.  `cases` is consumed only up to that pair, so a generator stops
    there; every section's report names its first failure here."""
    for index, case in cases:
        if case is not None:
            report["pass"] = False
            report["first_failure"] = {"case": case, "index": index}
            break
    return report


# ---------------------------------------------------------------------------
# The Lagrangian certificate: one exact rank and exact brackets
# ---------------------------------------------------------------------------


def _derivatives(x: PointOnX, eta) -> tuple:
    """(ctx, J, H, dens): J = dF/deta and H = -dF/dx at (x, eta) on integer
    numerators, for the covector entries eta.

    With w_jk = x_j eta_k - x_k eta_j and the symmetric c_jk = 2 w_jk /
    (lambda_k - lambda_j), J and H are M(x) and M(eta) for M(y)_jk = c_jk y_j
    (k != j) and M(y)_jj = -sum_{k != j} c_jk y_k.  x and eta share one
    numerator view over d, as in :func:`phi_components`; each pair j < k
    forms w_jk once, and row j of c takes the integer row j of
    :func:`_phi_table`, so entry (j, k) is its value times dens[j] = s_j k0^2
    d^3 (row scale s_j, k0 = qu*qw).  A point of X has no rational
    representative (sum x_k^2 = 0), so the view has a context.
    """
    n = len(x.coords)
    rows, scales = x.pencil.derived("phi_table", _phi_table)
    ctx, nums, d = _common_numerators(list(x.coords) + list(eta))
    xs, es = nums[:n], nums[n:]
    c = [[_ZERO_N] * n for _ in range(n)]
    for j in range(n):
        xj, ej, rj, cj = xs[j], es[j], rows[j], c[j]
        for k in range(j + 1, n):
            a0, a1, a2, a3 = _scaled_product(ctx, xj, es[k])
            b0, b1, b2, b3 = _scaled_product(ctx, xs[k], ej)
            w = (2 * (a0 - b0), 2 * (a1 - b1), 2 * (a2 - b2), 2 * (a3 - b3))
            # c_kj = c_jk is 2 w_kj = -2 w_jk times the weight of row k
            ajk, akj = rj[k], -rows[k][j]
            cj[k] = (ajk * w[0], ajk * w[1], ajk * w[2], ajk * w[3])
            c[k][j] = (akj * w[0], akj * w[1], akj * w[2], akj * w[3])
    den = ctx._k[0] ** 2 * d ** 3
    return ctx, _weighted(ctx, c, xs), _weighted(ctx, c, es), [s * den for s in scales]


def _weighted(ctx, c, y) -> list:
    """M(y) of :func:`_derivatives` for the weights c (0 on the diagonal)
    and the numerator 4-tuples y: row j holds the products c_jk y_j, and
    its diagonal entry is minus the sum of the products c_jk y_k."""
    out = []
    for j, (cj, yj) in enumerate(zip(c, y)):
        row = [_scaled_product(ctx, cjk, yj) for cjk in cj]
        terms = [_scaled_product(ctx, cjk, yk) for cjk, yk in zip(cj, y)]
        row[j] = tuple([-sum(col) for col in zip(*terms)])
        out.append(row)
    return out


def _gauge_vanishes(x: PointOnX, ctx, J) -> bool:
    """True iff J x = J (lambda x) = 0 for J of :func:`_derivatives` at x:
    each row's two sums are taken on the point's numerators and the
    pencil's integer form, unreduced (:func:`~qplab.variety._sums_vanish`).
    J x = 0 holds for every eta; (J lambda x)_j = 2 x_j^2 eta(x), so the
    test fails off the constraint eta(x) = 0."""
    view, ms = x.numerators(), x.pencil.integer_form()[1]
    return all(_sums_vanish((ctx, row, 1), view, ms) for row in J)


def _brackets_vanish(ctx, J, H) -> bool:
    """True iff {F_i, F_j} = sum_k (J_ik H_jk - H_ik J_jk) is 0 for every
    i < j, each sum tested on its integer numerator 4-tuple, unreduced."""
    for i in range(len(J)):
        for j in range(i + 1, len(J)):
            plus, minus = [zip(*_product_numerators((ctx, a, 1), (ctx, b, 1))[1])
                           for a, b in ((J[i], H[j]), (H[i], J[j]))]
            if any(sum(p) != sum(m) for p, m in zip(plus, minus)):
                return False
    return True


def verify_lagrangian(x: PointOnX, xi: CotangentRep) -> dict:
    """Exact certificate that the fibres of phi through (x, xi) are Lagrangian.

    Three exact checks on the closed forms of :func:`_derivatives`, in this
    order, decide the sample:

    * gauge: J x = J (lambda x) = 0, so F is invariant under eta -> eta +
      alpha x + beta lambda x and descends to T*X, where its brackets are the
      ambient ones.  x and lambda x lie in the cotangent directions
      {zeta : zeta . x = 0} (q1(x) = q2(x) = 0), so J has rank at most
      2g - 1 there.
    * generic: that rank, rank [J; x^T] - 1, is 2g - 1.  It bounds the rank of
      dphi from below and the three moment identities bound it from above,
      so dphi has rank 2g - 1 = dim X at the sample.
    * isotropic: {F_i, F_j} = 0 for every i < j, identities for distinct
      lambda (Moser) that test the code.

    So the fibre through the sample has dimension 2g - 1 and is isotropic.
    The rank is :func:`~qplab.linalg.rank_exact` of [x^T; J], x first for its
    cheap pivots.  In a split algebra (a product of fields) the elimination
    divides only by invertible pivots, units in every factor, so the rank
    holds in every factor; with no invertible pivot in a nonzero column it
    raises :class:`~qplab.scalars.NonInvertibleError`.  The gauge is
    :func:`_gauge_vanishes`.
    """
    ctx, J, H, _ = _derivatives(x, xi.eta)
    gauge = _gauge_vanishes(x, ctx, J)
    xs = x.numerators()[1]
    rank = rank_exact([[_raw(ctx, e, 1) for e in row] for row in [xs] + J]) - 1
    generic = rank == 2 * x.pencil.g - 1
    isotropic = _brackets_vanish(ctx, J, H)
    return {
        "jacobian_rank": rank,
        "generic": generic,
        "gauge": gauge,
        "isotropic": isotropic,
        "pass": gauge and generic and isotropic,
    }
