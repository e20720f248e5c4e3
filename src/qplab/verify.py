"""Seed-driven verification batteries aggregating every structural check.

Each run_* function is deterministic in (pencil, seed, counts) and returns a
plain dict with a "pass" key plus section-specific metrics; verify_all stitches
them into one report.  Samples are drawn and checked one after another in
index order.  The diagram, even and falsifiability sections check the
closed-form identification of the fibration with f_H exactly, on samples
0..n-1: no training samples, no fit and no tolerance.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fibration import (
    _mismatch,
    f_H,
    fit_identification,
    phi_components,
    phi_X,
    phi_Y,
    verify_identification,
    verify_lagrangian,
)
from .linalg import det_exact
from .p1bundle import (
    SplittingError,
    n_tilde_splitting,
    trivial_factor_matches_tangent,
    v_perp_kernel,
    vandermonde_normalizer,
)
from .pencil import PencilOfQuadrics, SignGroupElement
from .scalars import to_complex
from .skew import (
    DecompositionError,
    SkewMap,
    char_coeffs,
    pfaffian,
    rank2_orthogonal_decomposition,
)
from .variety import (
    CotangentRep,
    GaugeError,
    derived_rng,
    quotient_even,
    sample_pair,
    sample_point,
    tangent_frame,
)

__all__ = [
    "run_diagram_check",
    "run_even_check",
    "run_lagrangian_check",
    "run_splitting_check",
    "run_vandermonde_check",
    "run_quotient_check",
    "run_skew_battery",
    "run_invariance_check",
    "run_falsifiability_check",
    "verify_all",
]


def run_diagram_check(p: PencilOfQuadrics, seed: int, holdout: int) -> dict:
    """The exact identification L*phi ∝ f_H on samples 0..holdout-1."""
    pairs = [sample_pair(p, seed, index=i) for i in range(holdout)]
    return verify_identification(fit_identification(p), pairs)


def run_even_check(p: PencilOfQuadrics, seed: int, holdout: int) -> dict:
    """Diagram check on T*Y samples 0..holdout-1, plus the exact vanishing.

    On each Y-sample the last fibration component (phi_Y raises otherwise)
    and f_H(lambda_{2g+1}) vanish identically; the vanishing is checked
    first, then the identification.  A failing report names the first
    failing sample and its case.
    """
    ident = fit_identification(p)
    lam_last = p.lambdas[-1]
    report = {"pass": True, "exact_vanishing": True, "samples": holdout}
    for i in range(holdout):
        y, xi = sample_pair(p, seed, index=i, on_Y=True)
        value = phi_Y(y, xi)
        form = f_H(y, xi)
        if form.eval_affine(lam_last):
            report["exact_vanishing"] = False
            case = "vanishing"
        else:
            case = _mismatch(ident, value, form)
        if case and report["pass"]:
            report["pass"] = False
            report["first_failure"] = {"case": case, "index": i}
    return report


def run_lagrangian_check(
    p: PencilOfQuadrics,
    seed: int,
    count: int,
    fd_step: float = 1e-5,
    tol: float = 1e-6,
) -> dict:
    def one(i: int):
        x, xi = sample_pair(p, seed, index=i)
        return verify_lagrangian(p, x, xi, fd_step=fd_step, tol=tol)

    reports = [one(i) for i in range(count)]
    generic = [r for r in reports if r["generic"]]
    defect = max((r["isotropy_defect"] for r in generic), default=0.0)
    ranks = sorted({r["jacobian_rank"] for r in reports})
    ok = all(r["pass"] for r in generic) and len(generic) == len(reports)
    return {
        "pass": ok,
        "samples": count,
        "generic_samples": len(generic),
        "jacobian_ranks": ranks,
        "max_isotropy_defect": defect,
        "fd_step": fd_step,
        "tol": tol,
    }


def run_splitting_check(p: PencilOfQuadrics, seed: int, count: int) -> dict:
    """Splitting type (0, ..., 0, 1) and the trivial factor along the tangent
    frame at each sample; a failing report names the first failing index."""

    def one(i: int) -> bool:
        x = sample_point(p, seed, index=i)
        kb = v_perp_kernel(p, x)
        st = n_tilde_splitting(kb)
        frame = tangent_frame(x)
        expected = tuple([0] * (2 * p.g - 1) + [1])
        return st.degrees == expected and trivial_factor_matches_tangent(kb, frame)

    results = []
    for i in range(count):
        try:
            results.append(one(i))
        except SplittingError as exc:
            return {
                "pass": False,
                "samples": count,
                "error": str(exc),
                "first_failure": {"case": "splitting_error", "index": i},
            }
    report = {"pass": all(results), "samples": count, "matches": sum(results)}
    if not report["pass"]:
        report["first_failure"] = {
            "case": "splitting_type",
            "index": results.index(False),
        }
    return report


def _random_distinct_lambdas(rng, n: int):
    for _ in range(256):
        nums = rng.integers(-60, 61, size=n)
        dens = rng.integers(1, 13, size=n)
        lam = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
        if len(set(lam)) == n:
            return lam
    raise RuntimeError("failed to draw distinct rationals")


def run_vandermonde_check(g: int, seed: int, count: int) -> dict:
    """Random distinct-rational pencils: kernel line is 1-dim, entrywise equal
    to a_j = 1 / prod_{k != j}(lambda_j - lambda_k)."""
    n = 2 * g + 2

    def one(i: int) -> bool:
        rng = derived_rng(seed, (g << 32) + i)
        p = PencilOfQuadrics(_random_distinct_lambdas(rng, n))
        a = vandermonde_normalizer(p)
        for j in range(n):
            target = Fraction(1)
            for k in range(n):
                if k != j:
                    target /= p.lambdas[j] - p.lambdas[k]
            if a[j] != target:
                return False
        return True

    results = [one(i) for i in range(count)]
    return {"pass": all(results), "pencils": count, "g": g}


def run_quotient_check(p: PencilOfQuadrics, seed: int, count: int) -> dict:
    """Squared coordinates land on Z: two linear equations and the weighted
    quadric y_{2g+2}^2 = prod y_j, all exactly."""

    def one(i: int) -> bool:
        x = sample_point(p, seed, index=i)
        ys = quotient_even(x)
        lin1 = sum(ys[:-1], start=Fraction(0))
        lin2 = ys[0] * p.lambdas[0]
        for lam, y in zip(p.lambdas[1:], ys[1:-1]):
            lin2 = lin2 + lam * y
        prod = ys[0]
        for y in ys[1:-1]:
            prod = prod * y
        return (not lin1) and (not lin2) and (ys[-1] * ys[-1] - prod == 0)

    results = [one(i) for i in range(count)]
    return {"pass": all(results), "samples": count}


def _random_skew(rng, n: int):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = Fraction(int(rng.integers(-9, 10)))
            m[i][j] = c
            m[j][i] = -c
    return m


def run_skew_battery(
    seed: int, pf_cases: int = 500, rank2_cases: int = 200
) -> dict:
    """Pf^2 = det on random skew maps; rank-2 maps have a_{>=2} = 0 and a
    verified orthogonal kernel/image decomposition when non-nilpotent.

    A failing report names its first failing case and that case's index.
    """
    sizes = [4, 6, 8, 10]

    def pf_one(i: int) -> bool:
        rng = derived_rng(seed, (1 << 44) + i)
        m = _random_skew(rng, sizes[i % len(sizes)])
        return pfaffian(SkewMap(m)) ** 2 == det_exact(m)

    def rank2_one(i: int) -> bool:
        rng = derived_rng(seed, (1 << 40) + i)
        n = sizes[i % len(sizes)]
        for _ in range(64):
            u = [Fraction(int(c)) for c in rng.integers(-5, 6, size=n)]
            v = [Fraction(int(c)) for c in rng.integers(-5, 6, size=n)]
            m = [[u[a] * v[b] - v[a] * u[b] for b in range(n)] for a in range(n)]
            if not any(any(row) for row in m):
                continue
            skew = SkewMap(m)
            coeffs = char_coeffs(skew)
            if any(coeffs[1:]):
                return False
            if not coeffs[0]:
                continue  # nilpotent rank-2: decomposition not applicable
            try:
                rank2_orthogonal_decomposition(skew)
            except DecompositionError:
                return False
            return True
        return False

    pf_results = [pf_one(i) for i in range(pf_cases)]
    rank2_results = [rank2_one(i) for i in range(rank2_cases)]
    pf_ok, rank2_ok = all(pf_results), all(rank2_results)
    report = {
        "pass": pf_ok and rank2_ok,
        "pfaffian_cases": pf_cases,
        "rank2_cases": rank2_cases,
        "pfaffian_pass": pf_ok,
        "rank2_pass": rank2_ok,
    }
    for case, results in (("pfaffian", pf_results), ("rank2", rank2_results)):
        if not all(results):
            report["first_failure"] = {"case": case, "index": results.index(False)}
            break
    return report


def run_invariance_check(p: PencilOfQuadrics, seed: int, count: int) -> dict:
    """Sign-group invariance, gauge invariance and quadratic scaling of the
    fibration map, exactly; plus numeric rank 2g-1 of the sampled image."""
    n = p.dim_ambient

    def one(i: int):
        x, xi = sample_pair(p, seed, index=i)
        base = phi_X(x, xi).components
        rng = derived_rng(seed, (1 << 48) + i)
        # sign-group action on point and covector together
        e = SignGroupElement(int(b) for b in rng.integers(0, 2, size=n))
        flipped = phi_components(p, e.act(x.coords), e.act(xi.eta))
        sign_ok = all((a - b) == 0 for a, b in zip(base, flipped))
        # gauge shift by the two generators
        alpha = Fraction(int(rng.integers(-9, 10)))
        beta = Fraction(int(rng.integers(-9, 10)))
        r1 = p.q1_row(x.coords)
        r2 = p.q2_row(x.coords)
        eta2 = [e0 + alpha * a + beta * b for e0, a, b in zip(xi.eta, r1, r2)]
        gauge_ok = all(
            (a - b) == 0 for a, b in zip(base, phi_components(p, x.coords, eta2))
        )
        # quadratic homogeneity in the covector
        s = Fraction(int(rng.integers(2, 7)))
        scaled = phi_components(p, x.coords, [s * c for c in xi.eta])
        scale_ok = all((s * s * a - b) == 0 for a, b in zip(base, scaled))
        row = np.array([to_complex(c) for c in base])
        return sign_ok and gauge_ok and scale_ok, row

    results = [one(i) for i in range(count)]
    ok_flags = [r[0] for r in results]
    matrix = np.array([r[1] for r in results])
    sv = np.linalg.svd(matrix, compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    expected = 2 * p.g - 1
    return {
        "pass": all(ok_flags) and rank == expected,
        "samples": count,
        "exact_invariance": all(ok_flags),
        "image_rank": rank,
        "expected_rank": expected,
    }


def run_falsifiability_check(p: PencilOfQuadrics, seed: int) -> dict:
    """Controls that must FAIL: an identification matrix with one entry off
    by 1/7 and a covector with eta(v) != 0.  The section passes iff both are
    caught."""
    ident = fit_identification(p)
    holdout = [sample_pair(p, seed, index=i) for i in range(10)]
    clean = verify_identification(ident, holdout)

    bad_l = [row[:] for row in ident.L]
    bad_l[3][0] += Fraction(1, 7)  # a row compared with f_H
    perturbed = type(ident)(L=bad_l, pencil_fingerprint=ident.pencil_fingerprint)
    broken_map = verify_identification(perturbed, holdout)

    x, xi = holdout[0]
    bad_eta = list(xi.eta)
    bad_eta[0] = bad_eta[0] + 1  # eta(v) != 0 generically
    gauge_rejected = False
    try:
        CotangentRep(x, bad_eta)
    except GaugeError:
        gauge_rejected = True
    # off the constraint eta(v) = 0 the formula is no longer invariant under
    # the second gauge generator q2(v, .)
    base = phi_components(p, x.coords, bad_eta)
    r2 = p.q2_row(x.coords)
    shifted = phi_components(
        p, x.coords, [e + a for e, a in zip(bad_eta, r2)]
    )
    gauge_broken = any((a - b) != 0 for a, b in zip(base, shifted))

    ok = (
        bool(clean["pass"])
        and not broken_map["pass"]
        and gauge_rejected
        and gauge_broken
    )
    return {
        "pass": ok,
        "clean_pass": bool(clean["pass"]),
        "perturbed_map_fails": not broken_map["pass"],
        "gauge_violation_rejected": gauge_rejected,
        "gauge_invariance_broken": gauge_broken,
    }


def verify_all(p: PencilOfQuadrics, seed: int, budget: float = 1.0) -> dict:
    """Run every section at desk scale; counts scale with `budget` (>= 0.05)."""
    if budget <= 0:
        raise ValueError("budget must be positive")

    def scaled(n: int, floor: int = 1) -> int:
        return max(floor, int(round(n * budget)))

    sections = {
        "diagram": run_diagram_check(p, seed, scaled(100)),
        "even": run_even_check(p, seed, scaled(50)),
        "lagrangian": run_lagrangian_check(p, seed, scaled(20)),
        "splitting": run_splitting_check(p, seed, scaled(50)),
        "vandermonde": run_vandermonde_check(p.g, seed, scaled(100)),
        "quotient": run_quotient_check(p, seed, scaled(200)),
        "skew": run_skew_battery(seed, scaled(500), scaled(200)),
        "invariance": run_invariance_check(p, seed, scaled(100, 2 * p.g - 1)),
        "falsifiability": run_falsifiability_check(p, seed),
    }
    return {
        "pass": all(s["pass"] for s in sections.values()),
        "sections": sections,
        "seed": seed,
        "budget": budget,
    }
