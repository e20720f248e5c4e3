"""Acceptance battery: nine end-to-end criteria, one pass/fail line each."""

import time


from qplab import SkewMap, canonical_pencil, det_exact, pfaffian
from qplab.variety import derived_rng
from qplab.verify import (
    run_diagram_check,
    run_even_check,
    run_falsifiability_check,
    run_invariance_check,
    run_lagrangian_check,
    run_quotient_check,
    run_skew_battery,
    run_splitting_check,
    run_vandermonde_check,
)

SEED = 20260826


def _announce(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_diagram_commutativity():
    for g in (2, 3):
        p = canonical_pencil(g)
        t0 = time.perf_counter()
        rep = run_diagram_check(p, SEED, holdout=100)
        elapsed = time.perf_counter() - t0
        _announce(
            f"diagram commutativity g={g}",
            rep == {"pass": True, "samples": 100} and elapsed < 10.0,
            f"exact on {rep['samples']} samples, {elapsed:.1f}s",
        )


def test_criterion_2_even_case_commutativity():
    for g in (2, 3):
        p = canonical_pencil(g)
        rep = run_even_check(p, SEED, holdout=100)
        _announce(
            f"even-case commutativity g={g}",
            rep == {"pass": True, "exact_vanishing": True, "samples": 100},
            f"exact_vanishing={rep['exact_vanishing']}",
        )


def test_criterion_3_lagrangian_verification():
    p = canonical_pencil(2)
    t0 = time.perf_counter()
    rep = run_lagrangian_check(p, SEED, 20)
    elapsed = time.perf_counter() - t0
    ok = (
        rep == {"pass": True, "samples": 20, "generic_samples": 20,
                "jacobian_ranks": [3]}
        and elapsed < 5.0
    )
    _announce(
        "Lagrangian verification g=2",
        ok,
        f"exact rank={rep['jacobian_ranks']} on {rep['generic_samples']} samples, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_splitting_type():
    for g in (2, 3):
        p = canonical_pencil(g)
        rep = run_splitting_check(p, SEED, 50)
        _announce(
            f"splitting type g={g}",
            rep["pass"] and rep.get("matches") == 50,
            f"matches={rep.get('matches')}/50",
        )


def test_criterion_5_vandermonde_normalizer():
    for g in (2, 3, 4):
        rep = run_vandermonde_check(g, SEED, 100)
        _announce(f"vandermonde normalizer g={g}", rep["pass"], "100 pencils, exact")


def test_criterion_6_quotient_equations():
    for g in (2, 3):
        p = canonical_pencil(g)
        rep = run_quotient_check(p, SEED, 200)
        _announce(f"quotient equations g={g}", rep["pass"], "200 points, exact")


def test_criterion_7_skew_battery():
    # Pf^2 = det on 500 random integer skew maps of sizes 4/6/8/10, with the
    # upper entries one vector draw from [-9, 9] per map
    sizes = [4, 6, 8, 10]
    t0 = time.perf_counter()
    failing = []
    for i in range(500):
        n = sizes[i % len(sizes)]
        rng = derived_rng(SEED, (1 << 44) + i)
        upper = rng.integers(-9, 10, size=n * (n - 1) // 2)
        skew = SkewMap.from_upper(n, upper)
        if pfaffian(skew) ** 2 != det_exact(skew.entries):
            failing.append(i)
    elapsed = time.perf_counter() - t0
    _announce(
        "Pfaffian battery",
        not failing and elapsed < 10.0,
        f"500 maps, failing {failing[:5]}, {elapsed:.1f}s",
    )

    t0 = time.perf_counter()
    rep = run_skew_battery(SEED, 200)
    elapsed = time.perf_counter() - t0
    _announce(
        "rank-2 skew battery",
        rep == {"pass": True, "rank2_cases": 200} and elapsed < 10.0,
        f"{rep}, {elapsed:.1f}s",
    )


def test_criterion_8_invariance_suite():
    for g in (2, 3):
        p = canonical_pencil(g)
        rep = run_invariance_check(p, SEED, 100)
        _announce(
            f"invariance suite g={g}",
            rep["pass"] and rep["image_rank"] == 2 * g - 1,
            f"rank={rep['image_rank']}",
        )


def test_criterion_9_falsifiability_controls():
    p = canonical_pencil(2)
    rep = run_falsifiability_check(p, SEED)
    _announce(
        "falsifiability controls",
        rep["pass"],
        f"perturbed_fails={rep['perturbed_map_fails']}, "
        f"gauge_rejected={rep['gauge_violation_rejected']}, "
        f"gauge_broken={rep['gauge_invariance_broken']}",
    )
