"""The fibration map, its geometric twin, the identification, isotropy."""

import gc
from fractions import Fraction
from math import isqrt, prod

import pytest

from qplab import (
    Biquad,
    BiquadContext,
    DegenerateCovectorError,
    NonInvertibleError,
    PencilOfQuadrics,
    PointOnX,
    SignGroupElement,
    canonical_pencil,
    det_exact,
    f_H,
    fit_identification,
    n_tilde_splitting,
    nullspace_exact,
    phi_components,
    phi_X,
    rank_exact,
    sample_covector,
    sample_pair,
    sample_point,
    solve_exact,
    tangent_frame,
    trivial_factor_matches_tangent,
    v_perp_kernel,
    verify_identification,
    verify_lagrangian,
)
from qplab.linalg import dot
from qplab.scalars import ModeMismatchError, _make, scalar_to_json, to_complex
import qplab.fibration as fibration
import qplab.variety as variety
from qplab.variety import CotangentRep, _invertible_pair, _vanishes_on_S, derived_rng
from test_linalg import _fields

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


def _nonzero_rational(rng):
    """A drawn rational +-num/den with num, den in 1..9."""
    num, den = rng.integers(1, 10, size=2)
    return Fraction(num if rng.integers(0, 2, size=1)[0] else -num, den)


def test_phi_gauge_invariance_exact():
    # the gauge shift alpha q1(v, .) + beta q2(v, .), for drawn nonzero
    # rationals alpha and beta, leaves phi fixed on X and on Y; verify-all
    # decides the same invariance by the Lagrangian gauge J x = J lambda x = 0
    for label, x, xi, rng in _identity_samples():
        p = x.pencil
        alpha, beta = _nonzero_rational(rng), _nonzero_rational(rng)
        r1, r2 = p.q1_row(x.coords), p.q2_row(x.coords)
        eta2 = [e + alpha * a + beta * b for e, a, b in zip(xi.eta, r1, r2)]
        shifted = phi_components(p, x.coords, eta2)
        base = phi_X(x, xi).components
        assert all((a - b) == 0 for a, b in zip(base, shifted)), label


def test_phi_q1_shift_is_an_identity():
    # q1(v, .) is x itself, so shifting eta by it leaves every
    # w_jk = x_j eta_k - x_k eta_j fixed whatever eta is, off the
    # constraint eta(v) = 0 too; only the shift by q2(v, .) needs it
    x, xi = sample_pair(P2, 67)
    eta = [xi.eta[0] + 1] + list(xi.eta[1:])
    base = phi_components(P2, x.coords, eta)
    eta2 = [e + 5 * a for e, a in zip(eta, P2.q1_row(x.coords))]
    shifted = phi_components(P2, x.coords, eta2)
    assert all((a - b) == 0 for a, b in zip(base, shifted))


def _identity_samples():
    """(label, x, xi, rng) over g = 2..5, X and Y, seeds 0-3: the samples
    on which the sign and scaling identities of phi are checked, with an
    rng of each sample's own for the group element or the scale."""
    for g in (2, 3, 4, 5):
        p = canonical_pencil(g)
        for on_Y in (False, True):
            for seed in range(4):
                x, xi = sample_pair(p, seed, index=seed, on_Y=on_Y)
                rng = derived_rng(seed, (g << 8) + 2 * seed + on_Y)
                yield (g, "Y" if on_Y else "X", seed), x, xi, rng


def test_phi_quadratic_scaling():
    # phi is quadratic in the covector: scaling eta by s scales every
    # component by s^2, for a drawn rational s != 0
    for label, x, xi, rng in _identity_samples():
        s = _nonzero_rational(rng)
        base = phi_X(x, xi).components
        scaled = phi_X(x, xi.scaled(s)).components
        assert all(s * s * a == b for a, b in zip(base, scaled)), label


def test_phi_sign_group_invariance():
    # a drawn sign flip of point and covector together leaves phi fixed
    for label, x, xi, rng in _identity_samples():
        e = SignGroupElement(rng.integers(0, 2, size=len(x.coords)))
        flipped = phi_components(x.pencil, e.act(x.coords), e.act(xi.eta))
        base = phi_X(x, xi).components
        assert all((a - b) == 0 for a, b in zip(base, flipped)), label


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
    # a rep of another object for the same point carries no verdict for x
    twin = PointOnX(P2, x.coords)
    for covector in (eta, [Fraction(0)] * 6, P2.q2_row(x.coords)):
        for point in (x, twin):
            with pytest.raises(DegenerateCovectorError):
                f_H(x, CotangentRep(point, covector))


def vanishes_by_rank(x, eta):
    """Oracle for _vanishes_on_S: the rows e_p, q1(v, .), q2(v, .) and eta
    lose rank, p being the first invertible coordinate of v."""
    p, v = x.pencil, x.coords
    k = _invertible_pair(v)[0]
    unit = [int(i == k) for i in range(len(v))]
    return rank_exact([unit, p.q1_row(v), p.q2_row(v), eta]) != 4


def test_degenerate_covector_test_matches_rank_test():
    # sampled covectors, combinations a q1(v, .) + b q2(v, .) (rational and
    # biquadratic a, b, zero included) and sampled ones shifted by those
    pairs = [(g, 5, i, y) for g in (2, 3, 4) for i in range(3) for y in (False, True)]
    seen = {True: 0, False: 0}
    for g, seed, index, on_Y in pairs + SPLIT_PAIRS:
        p = canonical_pencil(g)
        x, xi = sample_pair(p, seed, index=index, on_Y=on_Y)
        r1, r2 = p.q1_row(x.coords), p.q2_row(x.coords)
        root = x.context().sqrt_w()
        coefficients = [(0, 0), (1, 0), (0, -2), (Fraction(3, 4), 5), (root, 1 - root)]
        gauge = [[a * s + b * t for s, t in zip(r1, r2)] for a, b in coefficients]
        covectors = [xi.eta] + gauge + [[e + d for e, d in zip(xi.eta, w)] for w in gauge]
        for eta in covectors:
            expected = vanishes_by_rank(x, eta)
            assert _vanishes_on_S(x, eta) is expected
            seen[expected] += 1
    assert seen[True] and seen[False]


def test_sampler_redraws_covectors_vanishing_on_S(monkeypatch):
    # the first covector drawn for Y-sample 0 of this seed vanishes on S; the
    # sampler draws again, and f_H takes the second draw
    results = []

    def recorded(*args):
        results.append(_vanishes_on_S(*args))
        return results[-1]

    monkeypatch.setattr(variety, "_vanishes_on_S", recorded)
    y, xi = sample_pair(P2, 612749189, index=0, on_Y=True)
    assert results == [True, False]
    assert f_H(y, xi).degree == 2


def one_invertible_point():
    """A point of X whose only invertible coordinate is v_0 = 1.

    Over Q(i, s) with s^2 = 1 the idempotents e = (1 + s)/2 and 1 - e are
    zero divisors; on each factor of the split algebra the point has three
    nonzero coordinates.
    """
    ctx = BiquadContext(-1, 1)
    i, e = ctx.sqrt_u(), (1 + ctx.sqrt_w()) * Fraction(1, 2)
    p = PencilOfQuadrics([0, 16, -9, 32, -18, 1])
    coords = [ctx.embed(1), e * i * Fraction(3, 5), e * i * Fraction(4, 5),
              (1 - e) * i * Fraction(3, 5), (1 - e) * i * Fraction(4, 5), ctx.embed(0)]
    return PointOnX(p, coords)


def test_point_with_one_invertible_coordinate():
    # with one invertible coordinate neither sampler nor f_H can fix a and b
    x = one_invertible_point()
    assert [c.norm() == 0 for c in x.coords] == [False] + [True] * 5
    with pytest.raises(NonInvertibleError, match="no second invertible"):
        sample_covector(x, 0)
    with pytest.raises(NonInvertibleError, match="no second invertible"):
        f_H(x, CotangentRep(x, [0, 0, 0, 0, 0, 1]))
    # the frame is taken in the same chart, so it stops there too
    with pytest.raises(NonInvertibleError, match="no second invertible"):
        tangent_frame(x)


def f_H_gram_oracle(x, xi):
    """Oracle: f_H from Gram determinants of size 2g-2.

    H lifts to the nullspace of the rows e_p, q1(v, .), q2(v, .) and eta;
    q_t | H is t*G1 - G2 for the Gram matrices of q1 and q2 on that basis,
    its determinant is taken at 2g-1 parameters beyond max(lambda), and a
    Vandermonde solve gives the coefficients.
    """
    p = x.pencil
    v = x.coords
    k = _invertible_pair(v)[0]
    unit = [int(i == k) for i in range(len(v))]
    h = nullspace_exact([unit, p.q1_row(v), p.q2_row(v), xi.eta])
    assert len(h) == 2 * p.g - 2

    def gram(weights):
        weighted = [[c * w for c, w in zip(b, weights)] for b in h]
        return [[dot(a, b) for b in h] for a in weighted]

    g1, g2 = gram([1] * len(v)), gram(p.lambdas)
    ts = [max(p.lambdas) + m for m in range(1, 2 * p.g)]
    dets = [
        det_exact([[a * t - b for a, b in zip(r1, r2)] for r1, r2 in zip(g1, g2)])
        for t in ts
    ]
    deg = 2 * p.g - 2
    return solve_exact([[t ** (deg - j) for j in range(deg + 1)] for t in ts], dets)


# (g, seed, index, on_Y) of sampled pairs whose radicand u = x_0^2 is a
# rational square r^2: their coordinates lie in a split algebra, where
# sqrt(u) - r is a nonzero zero divisor
SPLIT_PAIRS = [
    (2, 1, 23, False),
    (2, 1, 0, True),
    (2, 2, 14, False),
    (3, 0, 19, False),
    (3, 0, 0, True),
    (3, 2, 14, True),
]


@pytest.mark.parametrize(
    "g, seed, index, on_Y", SPLIT_PAIRS,
    ids=[f"g{g}-seed{s}-{i}{'-on_Y' if y else ''}" for g, s, i, y in SPLIT_PAIRS],
)
def test_fibration_chain_in_split_context(g, seed, index, on_Y):
    p = canonical_pencil(g)
    x, xi = sample_pair(p, seed, index=index, on_Y=on_Y)
    ctx = x.context()
    r = Fraction(isqrt(ctx.u.numerator), isqrt(ctx.u.denominator))
    assert r * r == ctx.u
    assert (ctx.sqrt_u() - r).norm() == 0
    frame = tangent_frame(x)
    assert len(frame.S_basis[1:]) == 2 * g - 1
    assert rank_exact(frame.S_basis) == 2 * g
    form = f_H(x, xi)
    assert form.degree == 2 * g - 2 and not form.is_zero()
    kb = v_perp_kernel(p, x)
    assert n_tilde_splitting(kb).degrees == (0,) * (2 * g - 1) + (1,)
    assert trivial_factor_matches_tangent(kb, frame)
    rep = verify_identification(fit_identification(p), [(x, xi)])
    assert rep == {"pass": True, "samples": 1}
    # the elimination divides by units of every factor, so the rank holds in
    # each; on T*Y the last component drops out (see the test on Y below)
    lagrangian = verify_lagrangian(x, xi)
    assert lagrangian["jacobian_rank"] == 2 * g - 1 - on_Y
    assert lagrangian["pass"] is not on_Y


def test_chain_looks_up_the_pair_once(monkeypatch):
    # the covector sampler, the frame, f_H and the kernel basis all read the
    # invertible pair that the point keeps
    calls = []
    lookup = variety._invertible_pair

    def counted(v):
        calls.append(1)
        return lookup(v)

    monkeypatch.setattr(variety, "_invertible_pair", counted)
    for p in (P2, P3):
        for index in range(2):
            calls.clear()
            x, xi = sample_pair(p, 0, index=index)
            phi_X(x, xi)
            frame = tangent_frame(x)
            f_H(x, xi)
            kb = v_perp_kernel(p, x)
            n_tilde_splitting(kb)
            assert trivial_factor_matches_tangent(kb, frame)
            assert len(calls) == 1
            assert x.pair() == lookup(x.coords)


def test_chain_builds_the_basis_of_S_once(monkeypatch):
    # the kernel columns and the frame share the closed-form basis of S that
    # the point keeps, whichever of the two asks first
    calls = []
    build = variety._S_vectors

    def counted(x):
        calls.append(1)
        return build(x)

    monkeypatch.setattr(variety, "_S_vectors", counted)
    for p in (P2, P3):
        for frame_first in (True, False):
            calls.clear()
            x, _ = sample_pair(p, 0)
            if frame_first:
                frame = tangent_frame(x)
                kb = v_perp_kernel(p, x)
            else:
                kb = v_perp_kernel(p, x)
                frame = tangent_frame(x)
            n_tilde_splitting(kb)
            assert trivial_factor_matches_tangent(kb, frame)
            assert len(calls) == 1
            assert kb.constants() == x.S_vectors() == build(x)


def test_pair_on_Y_ignores_the_last_coordinate():
    # on Y the last coordinate is 0, which the pivot search passes by, so an
    # even-restricted covector is drawn in the same chart as any other
    points = [(g, 5, i) for g in (2, 3, 4) for i in range(3)]
    points += [(g, s, i) for g, s, i, on_Y in SPLIT_PAIRS if on_Y]
    for g, seed, index in points:
        v = sample_point(canonical_pencil(g), seed, index=index, on_Y=True).coords
        assert not v[-1]
        assert _invertible_pair(v) == _invertible_pair(v[:-1])


def phi_components_double_loop(p, v, eta):
    """Oracle: F_j = sum_{k != j} w_jk^2 / (lambda_k - lambda_j), term by term."""
    comps = []
    for j in range(len(v)):
        s = None
        for k in range(len(v)):
            if k != j:
                w = v[j] * eta[k] - v[k] * eta[j]
                term = (w * w) / (p.lambdas[k] - p.lambdas[j])
                s = term if s is None else s + term
        comps.append(s)
    return comps


def _typed_fields(values):
    """Type and fields of each value: a Biquad equal to a rational compares
    equal to a Fraction, so == alone would not tell them apart."""
    return [(type(c), _fields(c)) for c in values]


def _phi_cases():
    """(pencil, v, eta) on X and Y samples at g = 2..8, on SPLIT_PAIRS and
    on a pencil with non-integer lambdas (radicands with denominators), each
    with a zero eta entry, with the Biquad entries of v replaced by
    rationals and with an all-rational covector; and all-rational vectors."""
    pairs = [(canonical_pencil(g), 61, i, on_Y) for g in range(2, 9)
             for i in range(3) for on_Y in (False, True)]
    pairs += [(canonical_pencil(g), seed, i, on_Y) for g, seed, i, on_Y in
              [(3, 5, 0, False), (2, 7, 1, True), (3, 2, 2, True)] + SPLIT_PAIRS]
    pairs += [(NON_INTEGER, 61, i, on_Y) for i in range(3) for on_Y in (False, True)]
    cases = []
    for p, seed, index, on_Y in pairs:
        x, xi = sample_pair(p, seed, index=index, on_Y=on_Y)
        v, eta = list(x.coords), list(xi.eta)
        n = len(v)
        rational_v = [Fraction(k * k - 3, k + 1) for k in range(n)]
        rational_eta = [Fraction(2 - k, 3) for k in range(n)]
        cases += [
            (p, v, eta),
            (p, v, eta[:2] + [Fraction(0)] + eta[3:]),
            (p, rational_v[:2] + v[2:], eta),
            (p, v, rational_eta),
            (p, rational_v, rational_eta),
        ]
    lambdas = [Fraction(s) for s in ("1/3", "2", "7/2", "5", "-4/5", "11/7")]
    cases.append((PencilOfQuadrics(lambdas), [3, Fraction(-1, 2), 0, 4, 1, 2],
                  [Fraction(5, 6), 1, -2, 0, Fraction(7, 3), 1]))
    return cases


def test_phi_components_matches_double_loop():
    for p, v, eta in _phi_cases():
        got = phi_components(p, v, eta)
        assert _typed_fields(got) == _typed_fields(phi_components_double_loop(p, v, eta))
        if any(isinstance(c, Biquad) for c in v + eta):
            assert all(isinstance(c, Biquad) for c in got)
        else:
            assert all(type(c) is Fraction for c in got)
    # entries of two contexts are refused, as the Biquad operators refuse them
    x, xi = sample_pair(P2, 61)
    other = BiquadContext(2, 3).sqrt_u()
    with pytest.raises(ModeMismatchError):
        phi_components(P2, x.coords, list(xi.eta[:-1]) + [other])


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
    assert ident.lambdas == p.lambdas


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
            perturbed = type(ident)(L=bad, lambdas=ident.lambdas)
            rep = verify_identification(perturbed, pairs)
            assert not rep["pass"], (r, c)
            case = "moments" if r < 3 else "proportional"
            assert rep["first_failure"] == {"case": case, "index": 0}, (r, c)


def test_perturbed_map_builds_its_own_rows():
    # the falsifiability control: a map built from a changed L applies that
    # L, not the integer rows of the map it was copied from
    ident = fit_identification(P2)
    pairs = _pairs(P2, 107, 3)
    bad = [row[:] for row in ident.L]
    bad[3][0] += Fraction(1, 7)
    perturbed = type(ident)(L=bad, lambdas=ident.lambdas)
    value = phi_X(*pairs[0])
    assert perturbed.apply(value) == [dot(value.components, row) for row in bad]
    assert perturbed.apply(value) != ident.apply(value)
    assert not verify_identification(perturbed, pairs)["pass"]
    assert verify_identification(ident, pairs)["pass"]


def test_identification_map_does_not_hold_its_pencil():
    # the pencil's derived table holds the map, so a map holding the pencil
    # would make a cycle that only the cyclic collector frees
    p = canonical_pencil(2)
    ident = fit_identification(p)
    assert p._derived["identification"] is ident
    referents = gc.get_referents(ident)
    assert all(r is not p for r in referents)
    assert all(r is not p for r in gc.get_referents(*referents))


@pytest.mark.parametrize("p", [P2, P3, canonical_pencil(4), NON_INTEGER],
                         ids=["g2", "g3", "g4", "non_integer"])
def test_apply_equals_dot_rows(p):
    ident = fit_identification(p)
    for on_Y in (False, True):
        for x, xi in _pairs(p, 127, 3, on_Y=on_Y):
            value = phi_X(x, xi)
            assert [_fields(c) for c in ident.apply(value)] == [
                _fields(dot(value.components, row)) for row in ident.L]


def _newton_coefficients(samples, degree):
    """Newton divided differences through (t_i, value_i), multiplied out
    from the inside: the coefficients of the interpolating polynomial,
    highest power first, one Biquad product per term."""
    params = [t for t, _ in samples]
    newton = [v for _, v in samples]
    for j in range(1, degree + 1):
        for i in range(degree, j - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) * (1 / (params[i] - params[i - j]))
    coeffs = [newton[degree]]
    for i in range(degree - 1, -1, -1):
        t = params[i]
        coeffs = ([coeffs[0]] + [a - b * t for a, b in zip(coeffs[1:], coeffs)]
                  + [newton[i] - coeffs[-1] * t])
    return coeffs


def _f_H_by_terms(x, xi):
    """f_H term by term: the weighted sums with dot, the bordered 3x3
    determinant times prod_{k != p}(t - lambda_k) at each parameter, and a
    Newton interpolation of those values."""
    p = x.pencil
    lam, v, eta = p.lambdas, x.coords, xi.eta
    piv = x.pair()[0]
    others = [k for k in range(len(v)) if k != piv]
    xx = [v[k] * v[k] for k in others]
    xe = [v[k] * eta[k] for k in others]
    ee = [eta[k] * eta[k] for k in others]
    a_p, b_p = v[piv] * v[piv], v[piv] * eta[piv]
    samples = []
    for m in range(1, 2 * p.g):
        t = max(lam) + m
        d = [t - lam[k] for k in others]
        w = [1 / dk for dk in d]
        a, b, c = dot(xx, w), dot(xe, w), dot(ee, w)
        det = det_exact([[a, a_p, b], [a_p, a_p * (lam[piv] - t), b_p], [b, b_p, c]])
        samples.append((t, det * prod(d)))
    return _newton_coefficients(samples, 2 * p.g - 2)


@pytest.mark.parametrize("g", range(2, 7))
def test_f_H_equals_term_by_term_route(g):
    # the fixed rational maps give the coefficients of the term-by-term
    # route exactly, type and canonical fields included
    p = canonical_pencil(g)
    for on_Y in (False, True):
        for x, xi in _pairs(p, 131, 3, on_Y=on_Y):
            got = f_H(x, xi).coeffs
            want = _f_H_by_terms(x, xi)
            assert [scalar_to_json(c) for c in got] == [scalar_to_json(c) for c in want]
            assert [_fields(c) for c in got] == [_fields(c) for c in want]


def test_verify_rejects_foreign_pencil():
    pairs = _pairs(P2, 109, 2) + _pairs(P3, 109, 1)
    with pytest.raises(ValueError, match="different pencil"):
        verify_identification(fit_identification(P2), pairs)


def test_verify_lagrangian_generic_sample():
    x, xi = sample_pair(P2, 131)
    assert verify_lagrangian(x, xi) == {
        "jacobian_rank": 3, "generic": True, "gauge": True, "isotropic": True,
        "pass": True,
    }


def test_verify_lagrangian_flags_zero_covector():
    x = sample_point(P2, 137)
    xi = CotangentRep(x, [Fraction(0)] * 6)
    rep = verify_lagrangian(x, xi)
    assert not rep["generic"] and not rep["pass"]
    assert rep["jacobian_rank"] < 3
    # J = 0 passes the gauge check and has rank 0 on the cotangent directions
    assert rep["gauge"] and rep["jacobian_rank"] == 0


def test_verify_lagrangian_fails_with_a_moved_weight():
    # control: at g = 3, F built with lambda_{2g+1} moved by 1/7 is no longer
    # invariant under eta -> eta + lambda x, and J has rank 6 instead of 5 on
    # the cotangent directions, on every sample
    p = canonical_pencil(3)
    moved = list(p.lambdas)
    moved[-1] += Fraction(1, 7)
    p.derived("phi_table", lambda _: fibration._phi_table(PencilOfQuadrics(moved)))
    for index in range(4):
        rep = verify_lagrangian(*sample_pair(p, 0, index=index))
        assert rep["jacobian_rank"] == 6 and not rep["generic"], index
        assert not rep["gauge"] and not rep["pass"], index


def test_brackets_catch_a_wrong_x_gradient(monkeypatch):
    # control for the isotropy check: one entry of dF/dx changed leaves J,
    # and so the gauge and the rank, as they are, but breaks a bracket
    derivatives = fibration._derivatives

    def wrong(x, eta):
        ctx, J, H, dens = derivatives(x, eta)
        H[0][1] = tuple([2 * c + 1 for c in H[0][1]])
        return ctx, J, H, dens

    monkeypatch.setattr(fibration, "_derivatives", wrong)
    rep = verify_lagrangian(*sample_pair(P2, 131))
    assert rep == {
        "jacobian_rank": 3, "generic": True, "gauge": True, "isotropic": False,
        "pass": False,
    }


@pytest.mark.parametrize("g", [2, 3, 4])
def test_verify_lagrangian_on_Y_loses_the_last_component(g):
    # with x_{2g+1} = eta_{2g+1} = 0 every w_{2g+1,k} vanishes, so F_{2g+1}
    # vanishes to second order and its row of J is 0: the rank on the
    # cotangent directions is 2g - 2, while the gauge and the brackets hold
    p = canonical_pencil(g)
    for index in range(2):
        rep = verify_lagrangian(*sample_pair(p, 0, index=index, on_Y=True))
        assert rep["jacobian_rank"] == 2 * g - 2, index
        assert rep["gauge"] and rep["isotropic"] and not rep["pass"], index


def _phi_float(lambdas, v, eta):
    """F_j = sum_{k != j} (v_j eta_k - v_k eta_j)^2 / (lambda_k - lambda_j)
    in complex floats."""
    lam = [float(c) for c in lambdas]
    n = len(v)
    return [sum((v[j] * eta[k] - v[k] * eta[j]) ** 2 / (lam[k] - lam[j])
                for k in range(n) if k != j) for j in range(n)]


def _central_difference(f, base, direction, h=1e-3):
    plus = f([b + h * d for b, d in zip(base, direction)])
    minus = f([b - h * d for b, d in zip(base, direction)])
    return [(a - b) / (2 * h) for a, b in zip(plus, minus)]


@pytest.mark.parametrize("g", [2, 3, 4])
def test_derivatives_match_central_differences(g):
    # the one numerical check of the closed forms: J zeta for covector
    # directions zeta (zeta . x = 0) and dF/dx tau = -H tau for tangent
    # directions tau of X, against central differences of a complex-float
    # phi.  F is quadratic in eta and in x, so the differences are exact up
    # to rounding
    p = canonical_pencil(g)
    for index in range(2):
        x, xi = sample_pair(p, 0, index=index)
        ctx, J, H, dens = fibration._derivatives(x, xi.eta)
        jac, minus_grad = [
            [[to_complex(_make(ctx, *e, d)) for e in row] for row, d in zip(m, dens)]
            for m in (J, H)
        ]
        v = [to_complex(c) for c in x.coords]
        eta = [to_complex(c) for c in xi.eta]
        zetas = [sample_covector(x, 1, index=k).eta for k in range(2)]
        taus = tangent_frame(x).S_basis[1:3]
        cases = [(jac, 1, z, lambda e: _phi_float(p.lambdas, v, e), eta) for z in zetas]
        cases += [(minus_grad, -1, t, lambda u: _phi_float(p.lambdas, u, eta), v)
                  for t in taus]
        for matrix, sign, direction, f, base in cases:
            d = [to_complex(c) for c in direction]
            exact = [sign * sum(a * b for a, b in zip(row, d)) for row in matrix]
            numeric = _central_difference(f, base, d)
            scale = max(map(abs, exact))
            assert scale > 0
            assert max(abs(a - b) for a, b in zip(exact, numeric)) <= 1e-8 * scale


ORACLE_PAIRS = (
    [(canonical_pencil(g), 0, i, False) for g in range(2, 6) for i in range(3)]
    + [(canonical_pencil(g), 3, i, True) for g in (2, 3, 4) for i in range(3)]
    + [(canonical_pencil(g), s, i, y) for g, s, i, y in SPLIT_PAIRS]
    + [(NON_INTEGER, 3, i, y) for i in range(5) for y in (False, True)]
)


@pytest.mark.parametrize(
    "p, seed, index, on_Y", ORACLE_PAIRS,
    ids=[f"g{p.g}-seed{s}-{i}{'-on_Y' if y else ''}" for p, s, i, y in ORACLE_PAIRS],
)
def test_f_H_matches_gram_determinant_oracle(p, seed, index, on_Y):
    x, xi = sample_pair(p, seed, index=index, on_Y=on_Y)
    assert _proportional(f_H(x, xi).coeffs, f_H_gram_oracle(x, xi))
