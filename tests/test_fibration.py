"""The fibration map, its geometric twin, the identification, isotropy."""

from fractions import Fraction

import pytest

from qplab import (
    DegenerateCovectorError,
    PencilOfQuadrics,
    canonical_pencil,
    f_H,
    fit_identification,
    phi_components,
    phi_X,
    phi_Y,
    sample_pair,
    sample_point,
    verify_identification,
    verify_lagrangian,
)
from qplab.variety import CotangentRep

P2 = canonical_pencil(2)
P3 = canonical_pencil(3)


def _pairs(p, seed, count, on_Y=False):
    return [sample_pair(p, seed, index=i, on_Y=on_Y) for i in range(count)]


def _proportional(a, b):
    """Nonzero and every 2x2 minor a_i b_k - a_k b_i exactly zero."""
    minors = [a[i] * b[k] - a[k] * b[i] for i in range(len(a)) for k in range(i)]
    return len(a) == len(b) and any(a) and any(b) and not any(minors)


def test_phi_components_sum_to_zero():
    x, xi = sample_pair(P2, 61)
    val = phi_X(x, xi)
    total = val.components[0]
    for c in val.components[1:]:
        total = total + c
    assert not total


def test_phi_gauge_invariance_exact():
    x, xi = sample_pair(P2, 67)
    base = phi_X(x, xi).components
    r1 = P2.q1_row(x.coords)
    r2 = P2.q2_row(x.coords)
    eta2 = [e + 3 * a - 2 * b for e, a, b in zip(xi.eta, r1, r2)]
    shifted = phi_components(P2, x.coords, eta2)
    assert all((a - b) == 0 for a, b in zip(base, shifted))


def test_phi_quadratic_scaling():
    x, xi = sample_pair(P2, 71)
    base = phi_X(x, xi).components
    scaled = phi_X(x, xi.scaled(Fraction(5))).components
    assert all(25 * a == b for a, b in zip(base, scaled))


def test_phi_sign_group_invariance():
    from qplab import SignGroupElement

    x, xi = sample_pair(P2, 73)
    e = SignGroupElement([0, 1, 1, 0, 1, 0])
    flipped = phi_components(P2, e.act(x.coords), e.act(xi.eta))
    assert all((a - b) == 0 for a, b in zip(phi_X(x, xi).components, flipped))


def test_phi_Y_last_component_vanishes():
    y, xi = sample_pair(P2, 79, on_Y=True)
    val = phi_Y(y, xi)
    assert not val.components[-1]
    x, eta = sample_pair(P2, 79)
    with pytest.raises(ValueError):
        phi_Y(x, eta)


def test_f_H_degree_and_gauge_invariance():
    x, xi = sample_pair(P2, 83)
    form = f_H(x, xi)
    assert form.degree == 2 * P2.g - 2
    # gauge shift leaves the form unchanged up to scale (same H)
    r1 = P2.q1_row(x.coords)
    r2 = P2.q2_row(x.coords)
    eta2 = [e + a - 4 * b for e, a, b in zip(xi.eta, r1, r2)]
    form2 = f_H(x, CotangentRep(x, eta2))
    assert _proportional(form.coeffs, form2.coeffs)


def test_f_H_scaling_covariance():
    x, xi = sample_pair(P2, 89)
    form = f_H(x, xi)
    form2 = f_H(x, xi.scaled(Fraction(3)))
    # determinant of a (2g-2)-dim restriction picks up an even power of the
    # basis change; proportionality is all the construction promises
    assert _proportional(form.coeffs, form2.coeffs)


def test_f_H_vanishes_at_last_branch_point_on_Y():
    y, xi = sample_pair(P2, 97, on_Y=True)
    form = f_H(y, xi)
    assert not form.eval_affine(P2.lambdas[-1])


def test_f_H_degenerate_covector_rejected():
    x = sample_point(P2, 101)
    # an eta vanishing on all of S: combination of the gauge generators
    eta = [a + b for a, b in zip(P2.q1_row(x.coords), P2.q2_row(x.coords))]
    with pytest.raises(DegenerateCovectorError):
        f_H(x, CotangentRep(x, eta))


def _expand(roots):
    """Coefficients of prod (t - r), highest power first, by multiplying out."""
    coeffs = [Fraction(1)]
    for r in roots:
        shifted = coeffs + [Fraction(0)]
        for k in range(1, len(shifted)):
            shifted[k] -= r * coeffs[k - 1]
        coeffs = shifted
    return coeffs


NON_INTEGER = PencilOfQuadrics(
    [Fraction(s) for s in ("1/3", "2", "7/2", "5", "-4/5", "11/7", "9", "13/2")]
)


@pytest.mark.parametrize("p", [P2, P3, NON_INTEGER], ids=["g2", "g3", "non_integer"])
def test_identification_known_answer(p):
    # column j of L: the coefficients of prod_{k != j}(t - lambda_k)
    ident = fit_identification(p)
    lam = p.lambdas
    for j in range(len(lam)):
        column = [row[j] for row in ident.L]
        assert column == _expand(lam[:j] + lam[j + 1:])
    assert ident.pencil_fingerprint == p.fingerprint()


def test_fit_and_verify_identification():
    ident = fit_identification(P2)
    pairs = _pairs(P2, 103, 20)
    assert verify_identification(ident, pairs) == {"pass": True, "samples": 20}
    for x, xi in pairs[:3]:
        lf = ident.apply(phi_X(x, xi))
        assert not any(lf[:3])
        assert _proportional(lf[3:], f_H(x, xi).coeffs)


@pytest.mark.parametrize(
    "p, on_Y",
    [(P2, True), (P3, True), (NON_INTEGER, False), (NON_INTEGER, True)],
    ids=["g2-on_Y", "g3-on_Y", "non_integer", "non_integer-on_Y"],
)
def test_identification_exact_on_T_star_Y_and_non_integer_pencil(p, on_Y):
    rep = verify_identification(fit_identification(p), _pairs(p, 113, 3, on_Y=on_Y))
    assert rep == {"pass": True, "samples": 3}


def test_every_single_entry_perturbation_is_caught():
    ident = fit_identification(P2)
    pairs = _pairs(P2, 107, 3)
    size = len(ident.L)
    for r in range(size):
        for c in range(size):
            bad = [row[:] for row in ident.L]
            bad[r][c] += Fraction(1, 7)
            perturbed = type(ident)(L=bad, pencil_fingerprint=ident.pencil_fingerprint)
            rep = verify_identification(perturbed, pairs)
            assert not rep["pass"], (r, c)
            case = "moments" if r < 3 else "proportional"
            assert rep["first_failure"] == {"case": case, "index": 0}, (r, c)


def test_verify_rejects_foreign_pencil():
    pairs = _pairs(P2, 109, 2) + _pairs(P3, 109, 1)
    with pytest.raises(ValueError, match="different pencil"):
        verify_identification(fit_identification(P2), pairs)


def test_verify_lagrangian_generic_sample():
    x, xi = sample_pair(P2, 131)
    rep = verify_lagrangian(P2, x, xi, fd_step=1e-5, tol=1e-6)
    assert rep["generic"]
    assert rep["jacobian_rank"] == 3
    assert rep["isotropy_defect"] <= 1e-6
    assert rep["pass"]


def test_verify_lagrangian_flags_zero_covector():
    x = sample_point(P2, 137)
    xi = CotangentRep(x, [Fraction(0)] * 6)
    rep = verify_lagrangian(P2, x, xi)
    assert not rep["generic"]
    assert rep["jacobian_rank"] < 3
