"""Failing verification sections name the first failing sample."""

from fractions import Fraction

import pytest

from qplab import BinaryForm, FibrationValue, canonical_pencil
from qplab import fibration, verify
from qplab.p1bundle import SplittingError
from qplab.verify import (
    run_diagram_check,
    run_even_check,
    run_skew_battery,
    run_splitting_check,
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
    skew = run_skew_battery(seed=3, pf_cases=8, rank2_cases=4)
    split = run_splitting_check(P2, seed=3, count=3)
    assert skew["pass"] and "first_failure" not in skew
    assert split["pass"] and "first_failure" not in split and "error" not in split
    assert run_diagram_check(P2, seed=3, holdout=3) == {"pass": True, "samples": 3}
    assert run_even_check(P2, seed=3, holdout=3) == {
        "pass": True,
        "exact_vanishing": True,
        "samples": 3,
    }


def wrong_form():
    # degree 2g - 2 = 2, nonzero at lambda_last = 5 and not proportional to f_H
    return BinaryForm(2, [Fraction(1), Fraction(2), Fraction(3)])


def test_diagram_check_names_wrong_f_H(monkeypatch):
    # verify_identification calls f_H once per sample, in index order
    monkeypatch.setattr(fibration, "f_H", failing_at(fibration.f_H, 2, wrong_form))
    rep = run_diagram_check(P2, seed=3, holdout=4)
    assert rep == {
        "pass": False,
        "samples": 4,
        "first_failure": {"case": "proportional", "index": 2},
    }


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

    monkeypatch.setattr(fibration, "phi_X", failing_at(fibration.phi_X, 1, broken_phi))
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


def test_skew_battery_names_first_failure(monkeypatch):
    # pfaffian is called once per Pfaffian case, in index order
    monkeypatch.setattr(verify, "pfaffian", failing_at(verify.pfaffian, 5, lambda: 7))
    rep = run_skew_battery(seed=3, pf_cases=8, rank2_cases=4)
    assert not rep["pass"] and not rep["pfaffian_pass"] and rep["rank2_pass"]
    assert rep["first_failure"] == {"case": "pfaffian", "index": 5}


def test_skew_battery_names_first_rank2_failure(monkeypatch):
    # char_coeffs is called once per rank-2 case: a_2 != 0 fails that case
    monkeypatch.setattr(
        verify, "char_coeffs", failing_at(verify.char_coeffs, 2, lambda: (1, 1))
    )
    rep = run_skew_battery(seed=3, pf_cases=8, rank2_cases=4)
    assert not rep["pass"] and rep["pfaffian_pass"] and not rep["rank2_pass"]
    assert rep["first_failure"] == {"case": "rank2", "index": 2}


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
