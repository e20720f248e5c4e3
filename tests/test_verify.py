"""Failing verification sections name the first failing sample."""

from qplab import canonical_pencil
from qplab import verify
from qplab.p1bundle import SplittingError
from qplab.verify import run_skew_battery, run_splitting_check

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
