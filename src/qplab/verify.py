"""Seed-driven verification batteries aggregating every structural check.

Each run_* function is deterministic in (pencil, seed, counts) and returns a
plain dict with a "pass" key plus section-specific metrics; verify_all stitches
them into one report.  Samples are drawn and checked one after another in
index order.  The diagram, even and falsifiability sections check the
closed-form identification of the fibration with f_H exactly, on samples
0..n-1: no training samples, no fit and no tolerance.

verify_all holds one sample store for the run: X-sample i of (pencil, seed),
and its phi_X and f_H once a section asks for them, are computed once and
shared by every section that uses them.  A section called on its own makes
its own store, and nothing is kept after the call.  The Y-samples of the
even section are other draws and are not stored.

A failing section names its first failure, {case, index}, through one
function, fibration._first_failure.  A section whose report holds a field
over all samples (exact_vanishing, max_isotropy_defect, matches,
image_rank) checks every sample first; the others stop at the first
failing one.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fibration import (
    FD_STEP,
    ISOTROPY_TOL,
    _first_failure,
    _identification_report,
    _mismatch,
    f_H,
    fit_identification,
    phi_components,
    phi_X,
    verify_lagrangian,
)
from .linalg import det_exact, dot, rank_exact
from .p1bundle import (
    SplittingError,
    n_tilde_splitting,
    trivial_factor_matches_tangent,
    v_perp_kernel,
    vandermonde_normalizer,
)
from .pencil import PencilOfQuadrics, SignGroupElement
from .scalars import Biquad
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
    sample_covector,
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


class _Samples:
    """The X-samples of one run of (p, seed), each made at most once.

    point(i) is sample_point(p, seed, i) and pair(i) is sample_pair(p, seed,
    i) on that point; phi(i) and f_H(i) are phi_X and f_H at pair(i).  Every
    section that asks gets the same objects, so none may modify them.
    """

    def __init__(self, p: PencilOfQuadrics, seed: int):
        self.p, self.seed = p, seed
        self._made = {}

    def _once(self, kind: str, i: int, make):
        key = (kind, i)
        if key not in self._made:
            self._made[key] = make()
        return self._made[key]

    def point(self, i: int):
        return self._once("point", i, lambda: sample_point(self.p, self.seed, index=i))

    def pair(self, i: int):
        xi = self._once(
            "covector", i, lambda: sample_covector(self.point(i), self.seed, index=i)
        )
        return xi.point, xi

    def phi(self, i: int):
        return self._once("phi", i, lambda: phi_X(*self.pair(i)))

    def f_H(self, i: int):
        return self._once("f_H", i, lambda: f_H(*self.pair(i)))

    def values(self, count: int):
        """(phi, f_H) of samples 0..count-1, each made when it is reached."""
        return ((self.phi(i), self.f_H(i)) for i in range(count))


def _store(samples, p: PencilOfQuadrics, seed: int) -> _Samples:
    """`samples` when it is a store of (p, seed); a new store when it is None."""
    if samples is None:
        return _Samples(p, seed)
    if samples.p != p or samples.seed != seed:
        raise ValueError("sample store of another pencil or seed")
    return samples


def run_diagram_check(
    p: PencilOfQuadrics, seed: int, holdout: int, *, samples=None
) -> dict:
    """The exact identification L*phi ∝ f_H on samples 0..holdout-1.

    `samples` is the run's sample store of (p, seed) (verify_all passes
    one); without it the section makes its own.  The same holds for every
    section that draws X-samples.
    """
    samples = _store(samples, p, seed)
    return _identification_report(
        fit_identification(p), holdout, samples.values(holdout)
    )


def run_even_check(p: PencilOfQuadrics, seed: int, holdout: int) -> dict:
    """Diagram check on T*Y samples 0..holdout-1, plus the exact vanishing.

    On each Y-sample (y_{2g+1} = eta_{2g+1} = 0) the last fibration component
    and f_H(lambda_{2g+1}) vanish identically; the vanishing is checked
    first, then the identification.  A failing report names the first
    failing sample and its case, "vanishing" when either of the two is
    nonzero.
    """
    ident = fit_identification(p)
    lam_last = p.lambdas[-1]

    def one(i: int):
        y, xi = sample_pair(p, seed, index=i, on_Y=True)
        value = phi_X(y, xi)
        form = f_H(y, xi)
        if value.components[-1] or form.eval_affine(lam_last):
            return "vanishing"
        return _mismatch(ident, value, form)

    cases = [one(i) for i in range(holdout)]
    report = {
        "pass": True,
        "exact_vanishing": "vanishing" not in cases,
        "samples": holdout,
    }
    return _first_failure(report, enumerate(cases))


def run_lagrangian_check(
    p: PencilOfQuadrics, seed: int, count: int, *, samples=None
) -> dict:
    """Finite-difference Lagrangian check on samples 0..count-1.

    The report states the step and the tolerance of the check.  A failing
    report names the first failing sample: "nongeneric" when its Jacobian
    rank is short, "isotropy" when the kernel is not isotropic.
    """
    samples = _store(samples, p, seed)
    reports = [verify_lagrangian(*samples.pair(i)) for i in range(count)]
    generic = [r for r in reports if r["generic"]]
    report = {
        "pass": True,
        "samples": count,
        "generic_samples": len(generic),
        "jacobian_ranks": sorted({r["jacobian_rank"] for r in reports}),
        "max_isotropy_defect": max((r["isotropy_defect"] for r in generic), default=0.0),
        "fd_step": FD_STEP,
        "tol": ISOTROPY_TOL,
    }
    # a sample passes only when it is generic
    cases = (
        None if r["pass"] else "isotropy" if r["generic"] else "nongeneric"
        for r in reports
    )
    return _first_failure(report, enumerate(cases))


def run_splitting_check(
    p: PencilOfQuadrics, seed: int, count: int, *, samples=None
) -> dict:
    """Splitting type (0, ..., 0, 1) and the trivial factor along the tangent
    frame at each sample; a failing report names the first failing index."""
    samples = _store(samples, p, seed)

    def one(i: int) -> bool:
        x = samples.point(i)
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
            report = {"pass": False, "samples": count, "error": str(exc)}
            return _first_failure(report, [(i, "splitting_error")])
    report = {"pass": True, "samples": count, "matches": sum(results)}
    cases = (None if ok else "splitting_type" for ok in results)
    return _first_failure(report, enumerate(cases))


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
    to a_j = 1 / prod_{k != j}(lambda_j - lambda_k).  A failing report names
    the first failing pencil."""
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

    cases = (None if one(i) else "vandermonde" for i in range(count))
    return _first_failure({"pass": True, "pencils": count, "g": g}, enumerate(cases))


def run_quotient_check(
    p: PencilOfQuadrics, seed: int, count: int, *, samples=None
) -> dict:
    """Squared coordinates land on Z: two linear equations and the weighted
    quadric y_{2g+2}^2 = prod y_j, all exactly.  A failing report names the
    first failing sample."""
    samples = _store(samples, p, seed)

    def one(i: int) -> bool:
        x = samples.point(i)
        ys = quotient_even(x)
        lin1 = sum(ys[1:-1], start=ys[0])
        lin2 = dot(ys[:-1], p.lambdas)
        prod = ys[0]
        for y in ys[1:-1]:
            prod = prod * y
        return (not lin1) and (not lin2) and (ys[-1] * ys[-1] - prod == 0)

    cases = (None if one(i) else "quotient" for i in range(count))
    return _first_failure({"pass": True, "samples": count}, enumerate(cases))


def run_skew_battery(
    seed: int, pf_cases: int = 500, rank2_cases: int = 200
) -> dict:
    """Pf^2 = det on random skew maps; rank-2 maps have a_1 = sum_{i<j}
    m_ij^2 (the sum of the principal 2 x 2 minors), a_{>=2} = 0 and a
    verified orthogonal kernel/image decomposition.

    Every map has small integer entries and reaches the kernels as Python
    ints, so each kernel scales it by D = 1.  The n(n-1)/2 upper entries of
    a Pfaffian case are one vector draw from [-9, 9], the same numbers as
    that many scalar draws.  A nonzero rational skew map is
    never nilpotent, as a_1 > 0, so every rank-2 case decomposes.  A failing
    report names its first failing case and that case's index.
    """
    sizes = [4, 6, 8, 10]

    def pf_one(i: int) -> bool:
        rng = derived_rng(seed, (1 << 44) + i)
        n = sizes[i % len(sizes)]
        upper = rng.integers(-9, 10, size=n * (n - 1) // 2).tolist()
        skew = SkewMap.from_upper(n, upper)
        return pfaffian(skew) ** 2 == det_exact(skew.entries)

    def rank2_one(i: int) -> bool:
        rng = derived_rng(seed, (1 << 40) + i)
        n = sizes[i % len(sizes)]
        for _ in range(64):
            u = rng.integers(-5, 6, size=n).tolist()
            v = rng.integers(-5, 6, size=n).tolist()
            m = [[u[a] * v[b] - v[a] * u[b] for b in range(n)] for a in range(n)]
            if not any(any(row) for row in m):
                continue
            skew = SkewMap(m)
            coeffs = char_coeffs(skew)
            a1 = sum([x * x for a, row in enumerate(m) for x in row[a + 1:]])
            if coeffs[0] != a1 or any(coeffs[1:]):
                return False
            try:
                rank2_orthogonal_decomposition(skew)
            except DecompositionError:
                return False
            return True
        return False

    pf_results = [pf_one(i) for i in range(pf_cases)]
    rank2_results = [rank2_one(i) for i in range(rank2_cases)]
    report = {
        "pass": True,
        "pfaffian_cases": pf_cases,
        "rank2_cases": rank2_cases,
        "pfaffian_pass": all(pf_results),
        "rank2_pass": all(rank2_results),
    }
    failures = (
        (i, case)
        for case, results in (("pfaffian", pf_results), ("rank2", rank2_results))
        for i, ok in enumerate(results)
        if not ok
    )
    return _first_failure(report, failures)


def run_invariance_check(
    p: PencilOfQuadrics, seed: int, count: int, *, samples=None
) -> dict:
    """Sign-group invariance, gauge invariance and quadratic scaling of the
    fibration map, exactly; plus the exact rank 2g-1 of the sampled image.

    Each sample contributes four rational rows, the coordinates of its
    components in the basis 1, sqrt(u), sqrt(w), sqrt(uw).  A rational
    relation among the components holds in the algebra iff it holds in all
    four coordinates, so the rank of those rows is the rank of the image.
    A report whose invariance fails names the first failing sample and the
    first of "sign", "gauge" and "scaling" that it breaks.

    The sign and scaling checks are identities of any code that squares
    w_jk = x_j eta_k - x_k eta_j, as phi_components does: flipping the sign
    of coordinate k of x and eta changes at most the sign of each w_jk, and
    scaling eta by s scales every w_jk by s.  The gauge shift and the exact
    rank of the image are the substantive checks: the shift by
    beta q2(v, .) changes each w_jk by beta (lambda_k - lambda_j) x_j x_k,
    and phi stays fixed only because eta(x) = q1(x) = q2(x) = 0.
    """
    n = p.dim_ambient
    samples = _store(samples, p, seed)

    def one(i: int):
        x, xi = samples.pair(i)
        base = samples.phi(i).components
        rng = derived_rng(seed, (1 << 48) + i)
        # sign-group action on point and covector together
        e = SignGroupElement([int(b) for b in rng.integers(0, 2, size=n)])
        flipped = phi_components(p, e.act(x.coords), e.act(xi.eta))
        sign_ok = all((a - b) == 0 for a, b in zip(base, flipped))
        # gauge shift by the two generators
        alpha = Fraction(int(rng.integers(-9, 10)))
        beta = Fraction(int(rng.integers(-9, 10)))
        r1, r2 = x.rows()
        eta2 = [a * alpha + b * beta + e0 for e0, a, b in zip(xi.eta, r1, r2)]
        gauge_ok = all(
            (a - b) == 0 for a, b in zip(base, phi_components(p, x.coords, eta2))
        )
        # quadratic homogeneity in the covector
        s = Fraction(int(rng.integers(2, 7)))
        scaled = phi_components(p, x.coords, [c * s for c in xi.eta])
        scale_ok = all((a * (s * s) - b) == 0 for a, b in zip(base, scaled))
        coords = [c.c if isinstance(c, Biquad) else (c, 0, 0, 0) for c in base]
        checks = (("sign", sign_ok), ("gauge", gauge_ok), ("scaling", scale_ok))
        case = next((case for case, ok in checks if not ok), None)
        return case, [list(r) for r in zip(*coords)]

    results = [one(i) for i in range(count)]
    cases = [case for case, _ in results]
    rank = rank_exact([row for _, rows in results for row in rows])
    expected = 2 * p.g - 1
    report = {
        "pass": rank == expected,
        "samples": count,
        "exact_invariance": cases.count(None) == count,
        "image_rank": rank,
        "expected_rank": expected,
    }
    return _first_failure(report, enumerate(cases))


def run_falsifiability_check(
    p: PencilOfQuadrics, seed: int, *, samples=None
) -> dict:
    """Controls that must FAIL: an identification matrix with one entry off
    by 1/7 and a covector with eta(v) != 0.  The section passes iff both are
    caught.  Both identification matrices are checked on the phi_X and f_H
    values of samples 0..9, the covector is that of sample 0.  A failing
    report names the first of "clean", "perturbed_map", "gauge_rejected" and
    "gauge_invariance" that fails, with the clean map's first failing sample
    as its index and 0 for the others."""
    samples = _store(samples, p, seed)
    ident = fit_identification(p)
    clean = _identification_report(ident, 10, samples.values(10))

    bad_l = [row[:] for row in ident.L]
    bad_l[3][0] += Fraction(1, 7)  # a row compared with f_H
    perturbed = type(ident)(L=bad_l, lambdas=ident.lambdas)
    broken_map = _identification_report(perturbed, 10, samples.values(10))

    x, xi = samples.pair(0)
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
    r2 = x.rows()[1]
    shifted = phi_components(
        p, x.coords, [a + e for e, a in zip(bad_eta, r2)]
    )
    gauge_broken = any((a - b) != 0 for a, b in zip(base, shifted))

    checks = (
        ("clean", bool(clean["pass"])),
        ("perturbed_map", not broken_map["pass"]),
        ("gauge_rejected", gauge_rejected),
        ("gauge_invariance", gauge_broken),
    )
    report = {
        "pass": True,
        "clean_pass": bool(clean["pass"]),
        "perturbed_map_fails": not broken_map["pass"],
        "gauge_violation_rejected": gauge_rejected,
        "gauge_invariance_broken": gauge_broken,
    }
    # the clean map names its failing sample; the other controls are
    # either no sample's verdict or that of sample 0
    failures = (
        (clean["first_failure"]["index"] if case == "clean" else 0, case)
        for case, ok in checks
        if not ok
    )
    return _first_failure(report, failures)


def verify_all(p: PencilOfQuadrics, seed: int, budget: float = 1.0) -> dict:
    """Run every section at desk scale; counts scale with `budget`.

    Any finite budget > 0 is accepted: a section of n samples at budget 1
    gets max(floor, round(n * budget)), where the floor is 1, or 2g - 1 for
    the invariance section, whose image rank needs that many samples.  So a
    budget of 1e-300 runs every section at its floor.  The sections share
    one sample store for the run.
    """
    if not 0 < budget < math.inf:
        raise ValueError("budget must be finite and positive")

    def scaled(n: int, floor: int = 1) -> int:
        return max(floor, int(round(n * budget)))

    samples = _Samples(p, seed)
    sections = {
        "diagram": run_diagram_check(p, seed, scaled(100), samples=samples),
        "even": run_even_check(p, seed, scaled(50)),
        "lagrangian": run_lagrangian_check(p, seed, scaled(20), samples=samples),
        "splitting": run_splitting_check(p, seed, scaled(50), samples=samples),
        "vandermonde": run_vandermonde_check(p.g, seed, scaled(100)),
        "quotient": run_quotient_check(p, seed, scaled(200), samples=samples),
        "skew": run_skew_battery(seed, scaled(500), scaled(200)),
        "invariance": run_invariance_check(
            p, seed, scaled(100, 2 * p.g - 1), samples=samples
        ),
        "falsifiability": run_falsifiability_check(p, seed, samples=samples),
    }
    return {
        "pass": all(s["pass"] for s in sections.values()),
        "sections": sections,
        "seed": seed,
        "budget": budget,
    }
