"""The Lagrangian fibration computed two ways.

phi_X evaluates the quadratic generator fields on a cotangent representative:
component j is sum_{k != j} (x_j eta_k - x_k eta_j)^2 / (lambda_k - lambda_j).
They are computed on integer numerators, with the weights 1/(lambda_k -
lambda_j) kept as a table of the pencil, and each component is reduced once.
f_H computes the same data geometrically: the binary form (degree 2g-2) cutting
out the degenerate members of the pencil restricted to the hyperplane
H = ker(eta) of the tangent space S/V.  The determinant of q_t on H is a
bordered determinant: det(D_t) det(C^T D_t^-1 C) for D_t = diag(t - lambda_k)
and C the four rows that cut H out of the ambient space, which the identities
q1(x) = q2(x) = eta(x) = 0 reduce to 3x3 at every g.  The two are matched by a
closed-form rational matrix of the pencil: the coefficients of
sum_j F_j prod_{k != j}(t - lambda_k) lose their top three (the moments of F,
which vanish) and are proportional to those of f_H, which verify_identification
checks exactly.  verify_lagrangian checks the fibration property itself by
finite differences in a local symplectic chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

import numpy as np

from .binary_forms import BinaryForm, _lagrange_matrix, _root_quotients
from .linalg import _integer_rows, _scaled_matvec_numerators, det_exact, scaled_matvec
from .pencil import PencilOfQuadrics
from .scalars import _common_numerators, _make, _product_numerators, _scaled_product
from .variety import CotangentRep, PointOnX, _vanishes_on_S

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
    of :func:`_phi_table`, and each component is reduced once.  The outputs
    are typed by the view's context: without one every entry is an int, w^2
    is an integer product over d^4 and each component a ``Fraction``; with
    one every entry is a numerator 4-tuple, the products are those of
    :func:`~qplab.scalars._scaled_product` (a factor of rational value
    scales the other, two irrational ones take the product formula, each
    scaled by k0 = qu*qw), w^2 lies over k0^3 d^4 and each component is a
    ``Biquad``.  Raises :class:`~qplab.scalars.ModeMismatchError` for an
    entry that is not an exact scalar and for two contexts.
    """
    rows, scales = p.derived("phi_table", _phi_table)
    n = len(v)
    ctx, nums, d = _common_numerators(list(v) + list(eta))
    xs, es = nums[:n], nums[n:]
    if ctx is None:
        c0 = [0] * n
        for j in range(n):
            xj, ej, rj = xs[j], es[j], rows[j]
            for k in range(j + 1, n):
                w = xj * es[k] - xs[k] * ej
                w2 = w * w
                c0[j] += rj[k] * w2
                c0[k] += rows[k][j] * w2
        d = d ** 4
        return [Fraction(a, s * d) for a, s in zip(c0, scales)]
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
    d = ctx._k[0] ** 3 * d ** 4
    return [_make(ctx, c0[j], c1[j], c2[j], c3[j], scales[j] * d) for j in range(n)]


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
    closed form of :func:`_vanishes_on_S` tells without an elimination.
    """
    p = x.pencil
    v, eta = x.coords, xi.eta
    if _vanishes_on_S(x, eta):
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
# Lagrangian verification by finite differences in a local chart
# ---------------------------------------------------------------------------


def _component_projector(g: int) -> np.ndarray:
    """Fixed generic (2g-1) x (2g+2) projection picking independent components."""
    rng = np.random.Generator(np.random.Philox(key=[0x51AB, g]))
    return rng.normal(size=(2 * g - 1, 2 * g + 2)) + 1j * rng.normal(
        size=(2 * g - 1, 2 * g + 2)
    )


# The finite-difference Lagrangian check: the central-difference step in the
# chart coordinates, the largest isotropy defect it accepts, and the relative
# residual at which the Newton refinement onto X stops.
FD_STEP = 1e-5
ISOTROPY_TOL = 1e-6
NEWTON_TOL = 1e-14


class _Chart:
    """Local chart of X: dehomogenize at the largest coordinate, split the
    remaining coordinates into 2 dependent and 2g-1 free by column pivoting."""

    def __init__(self, p: PencilOfQuadrics, v: np.ndarray):
        self.p = p
        self.lam = np.array([float(l) for l in p.lambdas])
        self.hom = int(np.argmax(np.abs(v)))
        self.w0 = v / v[self.hom]
        others = [k for k in range(len(v)) if k != self.hom]
        jac = self._ambient_jacobian(self.w0)[:, others]
        dep_local = _chart_pivots(jac)
        self.dep = [others[k] for k in dep_local]
        self.free = [k for k in others if k not in self.dep]
        if len(self.free) != 2 * p.g - 1:
            raise ArithmeticError("chart selection failed")

    def _ambient_jacobian(self, w):
        return np.vstack([2.0 * w, 2.0 * self.lam * w])

    def _constraints(self, w):
        return np.array([np.sum(w * w), np.sum(self.lam * w * w)])

    def point(self, z: np.ndarray) -> np.ndarray:
        """Ambient representative with hom-coordinate 1 and free coords z."""
        w = self.w0.copy()
        w[self.free] = z
        for _ in range(50):
            r = self._constraints(w)
            if np.max(np.abs(r)) < NEWTON_TOL * max(1.0, np.max(np.abs(w)) ** 2):
                return w
            jd = self._ambient_jacobian(w)[:, self.dep]
            delta = np.linalg.solve(jd, r)
            w[self.dep] -= delta
        raise ArithmeticError("Newton refinement did not converge")

    def tangent_basis(self, w) -> list:
        """Ambient lifts of d/dz_i via the implicit function theorem."""
        jac = self._ambient_jacobian(w)
        jd = jac[:, self.dep]
        jf = jac[:, self.free]
        correction = -np.linalg.solve(jd, jf)
        taus = []
        for i in range(len(self.free)):
            tau = np.zeros(len(w), dtype=complex)
            tau[self.free[i]] = 1.0
            tau[self.dep] = correction[:, i]
            taus.append(tau)
        return taus

    def covector(self, w, taus, pz: np.ndarray) -> np.ndarray:
        """eta with eta(tau_i) = pz_i, eta(v) = 0 and eta(lam*v) = 0.

        The row eta(v)=0 coincides with the first gauge generator (the
        gradient row of q1 is the point itself), so the system has rank
        2g+1 in 2g+2 unknowns; the leftover direction is the residual
        gauge freedom eta -> eta + alpha*v, which every downstream value
        is invariant under.  The minimal-norm solution fixes it smoothly.
        """
        rows = np.array(list(taus) + [w, self.lam * w], dtype=complex)
        rhs = np.concatenate([pz, [0.0, 0.0]]).astype(complex)
        eta, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        return eta

    def momenta(self, w, taus, eta: np.ndarray) -> np.ndarray:
        return np.array([eta @ tau for tau in taus])


def _chart_pivots(jac: np.ndarray) -> list:
    """The two columns of the 2 x (2g+1) constraint Jacobian that the chart
    solves for: greedily the column of largest norm, after projecting out
    the columns chosen before it."""
    cols = jac.copy()
    chosen = []
    for _ in range(2):
        norms = np.linalg.norm(cols, axis=0)
        norms[chosen] = -1.0
        k = int(np.argmax(norms))
        chosen.append(k)
        u = cols[:, k] / np.linalg.norm(cols[:, k])
        cols = cols - np.outer(u, u.conj() @ cols)
    return chosen


def _phi_complex(p: PencilOfQuadrics, v: np.ndarray, eta: np.ndarray) -> np.ndarray:
    lam = np.array([complex(l) for l in p.lambdas])
    n = len(v)
    cross = np.outer(v, eta) - np.outer(eta, v)
    denom = lam[None, :] - lam[:, None]
    np.fill_diagonal(denom, 1.0)
    terms = cross ** 2 / denom
    np.fill_diagonal(terms, 0.0)
    return terms.sum(axis=1)


def verify_lagrangian(x: PointOnX, xi: CotangentRep):
    """Finite-difference check that the fibration is Lagrangian at (x, xi).

    Builds canonical coordinates (z, p_z) on T*X in a local chart of x's
    pencil, takes the central-difference Jacobian (step FD_STEP) of 2g-1
    independent components, and reports its rank together with the maximal
    |omega(u, u')| over a kernel basis.  The sample passes when the rank is
    2g-1 and that defect is at most ISOTROPY_TOL.
    """
    p = x.pencil
    v = x.complex_coords()
    eta0 = xi.complex_eta()
    chart = _Chart(p, v)
    proj = _component_projector(p.g)
    nfree = len(chart.free)

    w_base = chart.w0
    taus0 = chart.tangent_basis(w_base)
    z0 = w_base[chart.free].astype(complex)
    pz0 = chart.momenta(w_base, taus0, eta0)

    def value(u: np.ndarray) -> np.ndarray:
        z = u[:nfree]
        pz = u[nfree:]
        w = chart.point(z)
        taus = chart.tangent_basis(w)
        eta = chart.covector(w, taus, pz)
        return proj @ _phi_complex(p, w, eta)

    u0 = np.concatenate([z0, pz0])
    base = value(u0)
    scale = np.linalg.norm(base) or 1.0
    dim = 2 * nfree
    jac = np.zeros((nfree, dim), dtype=complex)
    for m in range(dim):
        up = u0.copy()
        um = u0.copy()
        up[m] += FD_STEP
        um[m] -= FD_STEP
        jac[:, m] = (value(up) - value(um)) / (2 * FD_STEP * scale)
    _, sv, vt = np.linalg.svd(jac)
    rank_tol = 1e-6
    rank = int(np.sum(sv > rank_tol * (sv[0] if sv[0] > 0 else 1.0)))
    kernel = [vt[k].conj() for k in range(rank, dim)]
    defect = 0.0
    for i, u in enumerate(kernel):
        for up in kernel[i + 1:]:
            omega = u[:nfree] @ up[nfree:] - u[nfree:] @ up[:nfree]
            defect = max(defect, abs(omega))
    generic = rank == nfree
    return {
        "jacobian_rank": rank,
        "isotropy_defect": float(defect),
        "generic": generic,
        "pass": generic and defect <= ISOTROPY_TOL,
    }
