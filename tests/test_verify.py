"""Failing verification sections name the first failing sample."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from qplab import (
    BinaryForm,
    DecompositionError,
    FibrationValue,
    SkewMap,
    canonical_pencil,
    char_coeffs,
    rank2_orthogonal_decomposition,
    sample_pair,
)
from qplab import fibration, verify
from qplab.p1bundle import SplittingError
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
    verify_all,
)

P2 = canonical_pencil(2)


def failing_at(fn, index, failure):
    """fn, except that its call number `index` (from 0) returns failure()."""
    calls = [0]

    def wrapped(*args, **kwargs):
        i = calls[0]
        calls[0] += 1
        return failure() if i == index else fn(*args, **kwargs)

    return wrapped


def test_passing_reports_have_no_failure_fields():
    assert run_skew_battery(seed=3, cases=4) == {"pass": True, "rank2_cases": 4}
    split = run_splitting_check(P2, seed=3, count=3)
    assert split["pass"] and "first_failure" not in split and "error" not in split
    assert run_diagram_check(P2, seed=3, holdout=3) == {"pass": True, "samples": 3}
    assert run_even_check(P2, seed=3, holdout=3) == {
        "pass": True,
        "exact_vanishing": True,
        "samples": 3,
    }
    assert run_vandermonde_check(2, seed=3, count=3) == {
        "pass": True,
        "pencils": 3,
        "g": 2,
    }
    assert run_quotient_check(P2, seed=3, count=3) == {"pass": True, "samples": 3}
    lagrangian = run_lagrangian_check(P2, seed=3, count=2)
    assert lagrangian["pass"] and "first_failure" not in lagrangian
    assert run_invariance_check(P2, seed=3, count=3) == {
        "pass": True,
        "samples": 3,
        "image_rank": 3,
        "expected_rank": 3,
    }


def wrong_form():
    # degree 2g - 2 = 2, nonzero at lambda_last = 5 and not proportional to f_H
    return BinaryForm(2, [Fraction(1), Fraction(2), Fraction(3)])


def test_diagram_check_names_wrong_f_H(monkeypatch):
    # the diagram section calls f_H once per sample, in index order, through
    # its sample store
    monkeypatch.setattr(verify, "f_H", failing_at(verify.f_H, 2, wrong_form))
    rep = run_diagram_check(P2, seed=3, holdout=4)
    assert rep == {
        "pass": False,
        "samples": 4,
        "first_failure": {"case": "proportional", "index": 2},
    }


def test_only_sections_with_all_sample_fields_read_past_a_failure(monkeypatch):
    # the diagram section stops at its first failing sample; the even
    # section reads every sample, as exact_vanishing is about all of them
    real, calls = verify.f_H, []

    def wrong_at_1(*args):
        calls.append(args)
        return wrong_form() if len(calls) == 2 else real(*args)

    monkeypatch.setattr(verify, "f_H", wrong_at_1)
    rep = run_diagram_check(P2, seed=3, holdout=5)
    assert rep["first_failure"] == {"case": "proportional", "index": 1}
    assert len(calls) == 2
    calls.clear()
    rep = run_even_check(P2, seed=3, holdout=5)
    assert rep["first_failure"] == {"case": "vanishing", "index": 1}
    assert rep["exact_vanishing"] is False and len(calls) == 5


@pytest.mark.parametrize(
    "components, case",
    [
        ([Fraction(1)] + [Fraction(0)] * 5, "moments"),
        # L*0 = 0 has vanishing minors with any f_H, but is no match for it
        ([Fraction(0)] * 6, "proportional"),
    ],
    ids=["moments", "zero"],
)
def test_diagram_check_names_broken_phi(monkeypatch, components, case):
    def broken_phi():
        return FibrationValue(components=components)

    monkeypatch.setattr(verify, "phi_X", failing_at(verify.phi_X, 1, broken_phi))
    rep = run_diagram_check(P2, seed=3, holdout=3)
    assert not rep["pass"]
    assert rep["first_failure"] == {"case": case, "index": 1}


@pytest.mark.parametrize(
    "form, case, vanishing",
    [
        (wrong_form, "vanishing", False),
        # vanishes at lambda_last = 5 but is not proportional to f_H
        (lambda: BinaryForm(2, [Fraction(1), Fraction(-5), Fraction(0)]),
         "proportional", True),
    ],
    ids=["vanishing", "proportional"],
)
def test_even_check_names_wrong_f_H(monkeypatch, form, case, vanishing):
    # run_even_check calls f_H once per Y-sample, in index order; samples 2
    # and 3 fail, and the report names the first of them
    real, calls = verify.f_H, []

    def wrong_from_2(*args):
        calls.append(args)
        return form() if len(calls) > 2 else real(*args)

    monkeypatch.setattr(verify, "f_H", wrong_from_2)
    rep = run_even_check(P2, seed=3, holdout=4)
    assert rep == {
        "pass": False,
        "exact_vanishing": vanishing,
        "samples": 4,
        "first_failure": {"case": case, "index": 2},
    }


def test_even_check_names_nonzero_last_component(monkeypatch):
    # run_even_check calls phi_X once per Y-sample, in index order; sample 1
    # gets a last component of 1, which must vanish on T*Y
    real, calls = verify.phi_X, []

    def last_nonzero_at_1(*args):
        calls.append(args)
        value = real(*args)
        if len(calls) == 2:
            value.components[-1] = value.components[-1] + 1
        return value

    monkeypatch.setattr(verify, "phi_X", last_nonzero_at_1)
    rep = run_even_check(P2, seed=3, holdout=3)
    assert rep == {
        "pass": False,
        "exact_vanishing": False,
        "samples": 3,
        "first_failure": {"case": "vanishing", "index": 1},
    }


def test_skew_battery_names_first_failure(monkeypatch):
    # the decomposition is called once per case, in index order, and fails
    # case 2; the battery stops there
    def refused():
        raise DecompositionError("no orthogonal complement")

    decomposition = failing_at(verify.rank2_orthogonal_decomposition, 2, refused)
    monkeypatch.setattr(verify, "rank2_orthogonal_decomposition", decomposition)
    calls = []
    monkeypatch.setattr(verify, "char_coeffs", counting(verify, "char_coeffs", calls))
    rep = run_skew_battery(seed=3, cases=4)
    assert rep == {
        "pass": False,
        "rank2_cases": 4,
        "first_failure": {"case": "rank2", "index": 2},
    }
    assert len(calls) == 3


def test_skew_battery_names_first_rank2_failure(monkeypatch):
    # char_coeffs is called once per rank-2 case: a_2 != 0 fails that case
    monkeypatch.setattr(
        verify, "char_coeffs", failing_at(verify.char_coeffs, 2, lambda: (1, 1))
    )
    rep = run_skew_battery(seed=3, cases=4)
    assert rep == {
        "pass": False,
        "rank2_cases": 4,
        "first_failure": {"case": "rank2", "index": 2},
    }


def test_skew_battery_checks_a1_closed_form(monkeypatch):
    # a_1 of a rank-2 map is the sum of the squares of its upper entries; a
    # char_coeffs whose a_1 is off by 1 on its second call fails that case
    real = verify.char_coeffs
    calls = [0]

    def off_by_one(m):
        coeffs = real(m)
        calls[0] += 1
        return (coeffs[0] + 1,) + coeffs[1:] if calls[0] == 2 else coeffs

    monkeypatch.setattr(verify, "char_coeffs", off_by_one)
    rep = run_skew_battery(seed=3, cases=4)
    assert rep == {
        "pass": False,
        "rank2_cases": 4,
        "first_failure": {"case": "rank2", "index": 1},
    }
    assert calls[0] == 2


def recording(log, name, kernel):
    """kernel, logging (name, the matrix it got, what it returned)."""

    def wrapped(arg):
        out = kernel(arg)
        entries = arg.entries if isinstance(arg, SkewMap) else arg
        log.append((name, [list(row) for row in entries], out))
        return out

    return wrapped


def fraction_skew_battery(seed, cases, log):
    """Oracle for run_skew_battery: the battery built on Fractions, with
    every entry a Fraction (so each kernel scales its matrix back to
    integers) and a redraw of a map whose a_1 vanishes.  Logs every kernel
    call like `recording`."""
    kernels = {
        name: recording(log, name, kernel)
        for name, kernel in (
            ("char_coeffs", char_coeffs),
            ("decomposition", rank2_orthogonal_decomposition),
        )
    }
    sizes = [4, 6, 8, 10]

    def one(i):
        rng = derived_rng(seed, (1 << 40) + i)
        n = sizes[i % len(sizes)]
        for _ in range(64):
            u = [Fraction(int(c)) for c in rng.integers(-5, 6, size=n)]
            v = [Fraction(int(c)) for c in rng.integers(-5, 6, size=n)]
            m = [[u[a] * v[b] - v[a] * u[b] for b in range(n)] for a in range(n)]
            if not any(any(row) for row in m):
                continue
            skew = SkewMap(m)
            coeffs = kernels["char_coeffs"](skew)
            if any(coeffs[1:]):
                return False
            if not coeffs[0]:
                continue
            try:
                kernels["decomposition"](skew)
            except DecompositionError:
                return False
            return True
        return False

    report = {"pass": True, "rank2_cases": cases}
    for i in range(cases):
        if not one(i):
            report["pass"] = False
            report["first_failure"] = {"case": "rank2", "index": i}
            break
    return report


@pytest.mark.parametrize("cases", [10, 24])
def test_skew_battery_matches_fraction_battery(monkeypatch, cases):
    # the same maps reach the same kernels, which return the same values,
    # case by case; the battery's maps hold Python ints
    log = []
    for name, attr in (
        ("char_coeffs", "char_coeffs"),
        ("decomposition", "rank2_orthogonal_decomposition"),
    ):
        monkeypatch.setattr(verify, attr, recording(log, name, getattr(verify, attr)))
    for seed in range(10):
        expected_log = []
        expected = fraction_skew_battery(seed, cases, expected_log)
        log.clear()
        assert run_skew_battery(seed, cases) == expected
        assert log == expected_log
        assert all(type(x) is int for _, m, _ in log for row in m for x in row)
        calls = [name for name, _, _ in log]
        assert calls.count("char_coeffs") == calls.count("decomposition") == cases


def test_skew_draw_matches_scalar_draws():
    # one vector draw of the upper entries gives the numbers that one draw of
    # size 1 per entry gives, so the Pf^2 = det maps of test_acceptance are the
    # ones the battery always drew; from_upper keeps them as Python ints
    for seed in range(20):
        for n in (4, 6, 8, 10):
            count = n * (n - 1) // 2
            vector = derived_rng(seed, n).integers(-9, 10, size=count)
            rng = derived_rng(seed, n)
            assert vector == [rng.integers(-9, 10, size=1)[0] for _ in range(count)]
            m = SkewMap.from_upper(n, vector).entries
            upper = iter(vector)
            for a in range(n):
                assert m[a][a] == 0 and type(m[a][a]) is int
                for b in range(a + 1, n):
                    c = next(upper)
                    assert type(m[a][b]) is int and (m[a][b], m[b][a]) == (c, -c)


def test_splitting_error_report_names_index(monkeypatch):
    def boom():
        raise SplittingError("kernel column of degree 2")

    monkeypatch.setattr(
        verify, "n_tilde_splitting", failing_at(verify.n_tilde_splitting, 2, boom)
    )
    rep = run_splitting_check(P2, seed=3, count=4)
    assert not rep["pass"]
    assert rep["error"] == "kernel column of degree 2"
    assert rep["first_failure"] == {"case": "splitting_error", "index": 2}


def test_splitting_mismatch_report_names_index(monkeypatch):
    monkeypatch.setattr(
        verify,
        "trivial_factor_matches_tangent",
        failing_at(verify.trivial_factor_matches_tangent, 1, lambda: False),
    )
    rep = run_splitting_check(P2, seed=3, count=3)
    assert not rep["pass"] and rep["matches"] == 2
    assert rep["first_failure"] == {"case": "splitting_type", "index": 1}


def test_vandermonde_check_names_first_failure(monkeypatch):
    # vandermonde_normalizer is called once per pencil: all-ones is off the
    # closed form
    monkeypatch.setattr(
        verify,
        "vandermonde_normalizer",
        failing_at(verify.vandermonde_normalizer, 2, lambda: [Fraction(1)] * 6),
    )
    rep = run_vandermonde_check(2, seed=3, count=4)
    assert rep == {
        "pass": False,
        "pencils": 4,
        "g": 2,
        "first_failure": {"case": "vandermonde", "index": 2},
    }


def test_quotient_check_names_first_failure(monkeypatch):
    # quotient_even is called once per sample: all-ones breaks the linear
    # equations
    monkeypatch.setattr(
        verify,
        "quotient_even",
        failing_at(verify.quotient_even, 2, lambda: [Fraction(1)] * 7),
    )
    rep = run_quotient_check(P2, seed=3, count=4)
    assert rep == {
        "pass": False,
        "samples": 4,
        "first_failure": {"case": "quotient", "index": 2},
    }


def test_invariance_check_fails_on_a_rank_one_image(monkeypatch):
    # every sample maps to F_0 times one fixed vector: still invariant and
    # quadratic in eta, but the sampled image has rank 1, not 2g-1 = 3
    real = verify.phi_X
    direction = [Fraction(k + 1) for k in range(6)]

    def proportional(x, xi):
        f0 = real(x, xi).components[0]
        return FibrationValue([f0 * d for d in direction])

    monkeypatch.setattr(verify, "phi_X", proportional)
    rep = run_invariance_check(P2, seed=3, count=5)
    assert rep == {
        "pass": False,
        "samples": 5,
        "image_rank": 1,
        "expected_rank": 3,
    }


def _store_off_the_constraint(seed, pairs, moved):
    """A sample store of (P2, seed) holding `pairs`, its samples 0.., with
    eta_0 moved by 1 at the indices in `moved`, so that eta(v) != 0 there."""
    samples = verify._Samples(P2, seed)
    for i, (x, xi) in enumerate(pairs):
        eta = [xi.eta[0] + 1] + list(xi.eta[1:]) if i in moved else xi.eta
        samples._made["covector", i] = SimpleNamespace(point=x, eta=eta)
    return samples


def test_lagrangian_check_catches_a_covector_off_the_constraint():
    # the gauge test is not an identity: with eta(v) != 0,
    # (J lambda x)_j = 2 x_j^2 eta(v), so a store whose covectors all break
    # eta(v) = 0 fails at its first sample
    pairs = [sample_pair(P2, 3, index=i) for i in range(4)]
    samples = _store_off_the_constraint(3, pairs, range(4))
    rep = run_lagrangian_check(P2, seed=3, count=4, samples=samples)
    assert not rep["pass"]
    assert rep["first_failure"] == {"case": "gauge", "index": 0}


def test_lagrangian_check_catches_one_covector_off_the_constraint():
    # a covector off eta(v) = 0 at sample k alone fails the section at k
    pairs = [sample_pair(P2, 0, index=i) for i in range(19)]
    for k in range(19):
        samples = _store_off_the_constraint(0, pairs, {k})
        rep = run_lagrangian_check(P2, seed=0, count=19, samples=samples)
        assert rep["first_failure"] == {"case": "gauge", "index": k}, k


@pytest.mark.parametrize(
    "fake, case",
    [
        ({"jacobian_rank": 4, "generic": False, "gauge": False, "isotropic": True,
          "pass": False}, "gauge"),
        ({"jacobian_rank": 2, "generic": False, "gauge": True, "isotropic": False,
          "pass": False}, "nongeneric"),
        ({"jacobian_rank": 3, "generic": True, "gauge": True, "isotropic": False,
          "pass": False}, "isotropy"),
    ],
    ids=["gauge", "nongeneric", "isotropy"],
)
def test_lagrangian_check_names_first_failure(monkeypatch, fake, case):
    # verify_lagrangian is called once per sample, in index order
    monkeypatch.setattr(
        verify,
        "verify_lagrangian",
        failing_at(verify.verify_lagrangian, 1, lambda: dict(fake)),
    )
    rep = run_lagrangian_check(P2, seed=3, count=3)
    assert not rep["pass"]
    assert rep["generic_samples"] == 2 + fake["generic"]
    assert rep["jacobian_ranks"] == sorted({3, fake["jacobian_rank"]})
    assert rep["first_failure"] == {"case": case, "index": 1}


def _clean_map_fails_at_3(monkeypatch):
    # the clean and the perturbed map are checked on the stored f_H of
    # samples 0..9, each computed once, in index order
    monkeypatch.setattr(verify, "f_H", failing_at(verify.f_H, 3, wrong_form))


def _perturbed_map_passes(monkeypatch):
    # the second identification report is that of the perturbed map
    passing = failing_at(
        verify._identification_report, 1, lambda: {"pass": True, "samples": 10}
    )
    monkeypatch.setattr(verify, "_identification_report", passing)


def _gauge_accepted(monkeypatch):
    monkeypatch.setattr(verify, "CotangentRep", lambda *args: None)


def _gauge_invariant(monkeypatch):
    # the Lagrangian section's gauge test, forced to pass
    monkeypatch.setattr(verify, "_gauge_vanishes", lambda x, ctx, J: True)


@pytest.mark.parametrize(
    "breaking, case, index",
    [
        (_clean_map_fails_at_3, "clean", 3),
        (_perturbed_map_passes, "perturbed_map", 0),
        (_gauge_accepted, "gauge_rejected", 0),
        (_gauge_invariant, "gauge_invariance", 0),
    ],
    ids=["clean", "perturbed_map", "gauge_rejected", "gauge_invariance"],
)
def test_falsifiability_check_names_first_failure(monkeypatch, breaking, case, index):
    passing = run_falsifiability_check(P2, seed=3)
    assert passing == {
        "pass": True,
        "clean_pass": True,
        "perturbed_map_fails": True,
        "gauge_violation_rejected": True,
        "gauge_invariance_broken": True,
    }
    breaking(monkeypatch)
    rep = run_falsifiability_check(P2, seed=3)
    flag = {
        "clean": "clean_pass",
        "perturbed_map": "perturbed_map_fails",
        "gauge_rejected": "gauge_violation_rejected",
        "gauge_invariance": "gauge_invariance_broken",
    }[case]
    assert rep == {
        **passing,
        flag: False,
        "pass": False,
        "first_failure": {"case": case, "index": index},
    }


@pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf")])
def test_verify_all_refuses_a_budget_that_is_not_finite_and_positive(budget):
    with pytest.raises(ValueError, match="budget must be finite and positive"):
        verify_all(P2, 0, budget)


def _section_counts(g, budget):
    """The counts verify_all gives each section at this budget."""

    def scaled(n, floor=1):
        return max(floor, int(round(n * budget)))

    return {
        "diagram": scaled(100),
        "even": scaled(50),
        "lagrangian": scaled(20),
        "splitting": scaled(50),
        "vandermonde": scaled(100),
        "quotient": scaled(200),
        "skew": scaled(200),
        "invariance": scaled(100, 2 * g - 1),
    }


@pytest.mark.parametrize("budget", [0.05, 0.2])
@pytest.mark.parametrize("g", [2, 3])
def test_shared_samples_give_the_sections_run_alone(g, budget):
    # verify_all shares one sample store among its sections; each section
    # run on its own, with its own store, must give the same report
    for seed in range(3):
        n = _section_counts(g, budget)
        alone = {
            "diagram": run_diagram_check(canonical_pencil(g), seed, n["diagram"]),
            "even": run_even_check(canonical_pencil(g), seed, n["even"]),
            "lagrangian": run_lagrangian_check(
                canonical_pencil(g), seed, n["lagrangian"]
            ),
            "splitting": run_splitting_check(canonical_pencil(g), seed, n["splitting"]),
            "vandermonde": run_vandermonde_check(g, seed, n["vandermonde"]),
            "quotient": run_quotient_check(canonical_pencil(g), seed, n["quotient"]),
            "skew": run_skew_battery(seed, n["skew"]),
            "invariance": run_invariance_check(
                canonical_pencil(g), seed, n["invariance"]
            ),
            "falsifiability": run_falsifiability_check(canonical_pencil(g), seed),
        }
        assert verify_all(canonical_pencil(g), seed, budget)["sections"] == alone


def test_section_refuses_a_store_of_another_run():
    samples = verify._Samples(P2, 3)
    with pytest.raises(ValueError):
        run_quotient_check(P2, seed=4, count=2, samples=samples)
    with pytest.raises(ValueError):
        run_quotient_check(canonical_pencil(3), seed=3, count=2, samples=samples)
    assert run_quotient_check(P2, seed=3, count=2, samples=samples)["pass"]


def counting(module, name, calls):
    """module.name wrapped so that each call appends its arguments to calls."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))
        return real(*args, **kwargs)

    return counted


def test_verify_all_computes_each_sample_once(monkeypatch):
    p = canonical_pencil(2)  # a new pencil: no constants built yet
    calls = {}
    for module, name in [
        (verify, "sample_point"),
        (verify, "sample_covector"),
        (verify, "phi_X"),
        (verify, "f_H"),
        (fibration, "_identification"),
        (fibration, "_phi_table"),
        (fibration, "_f_H_table"),
    ]:
        calls[name] = []
        monkeypatch.setattr(module, name, counting(module, name, calls[name]))
    budget = 0.05
    assert verify_all(p, 4, budget)["pass"]
    n = _section_counts(2, budget)
    # X-samples 0..9 (quotient draws 10 points, falsifiability 10 pairs), each
    # drawn once; the even section draws its Y-samples with sample_pair
    assert [args[1:] for args in calls["sample_point"]] == [(4, i) for i in range(10)]
    covectors = sorted(args[1:] for args in calls["sample_covector"])
    assert covectors == [(4, i) for i in range(10)]
    x_calls = [args for args in calls["f_H"] if not args[0].on_Y]
    y_calls = [args for args in calls["f_H"] if args[0].on_Y]
    # f_H: once per X-index of the diagram and falsifiability sections, and
    # once per Y-sample of the even section
    assert len(x_calls) == max(n["diagram"], 10)
    assert len({tuple(x.coords) for x, _ in x_calls}) == len(x_calls)
    assert len(y_calls) == n["even"]
    # phi_X: once per X-index (the invariance section needs it too) and once
    # per Y-sample
    phi_x = [args for args in calls["phi_X"] if not args[0].on_Y]
    assert len(phi_x) == max(n["diagram"], n["invariance"], 10)
    assert len({tuple(x.coords) for x, _ in phi_x}) == len(phi_x)
    # the pencil's constants are built once: sampled points have an
    # invertible first coordinate, so f_H uses one pivot
    assert calls["_identification"] == [(p,)]
    assert calls["_phi_table"] == [(p,)]
    assert calls["_f_H_table"] == [(p, 0)]
