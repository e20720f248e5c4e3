"""CLI: subcommands, JSON reports, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "qplab.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


def test_pencil_info():
    r = run_cli("pencil-info", "--g", "2")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["pass"] and rep["version"] == "2"
    assert rep["metrics"]["g"] == 2
    assert rep["metrics"]["sign_group_order"] == 32


def test_sample_deterministic():
    a = run_cli("sample", "--g", "2", "--seed", "9")
    b = run_cli("sample", "--g", "2", "--seed", "9")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_phi_and_fh_reports():
    r = run_cli("phi", "--g", "2", "--seed", "3")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert len(rep["metrics"]["components"]) == 6
    r = run_cli("fh", "--g", "2", "--seed", "3")
    rep = json.loads(r.stdout)
    assert rep["metrics"]["degree"] == 2


def test_vandermonde_rational_strings():
    r = run_cli("vandermonde", "--lambdas", "0,1,2,3,4,5")
    rep = json.loads(r.stdout)
    assert rep["metrics"]["normalizer"] == [
        "-1/120",
        "1/24",
        "-1/12",
        "1/12",
        "-1/24",
        "1/120",
    ]


def test_malformed_lambdas_exit_2():
    assert run_cli("vandermonde", "--lambdas", "abc").returncode == 2
    assert run_cli("vandermonde", "--lambdas", "0,1,2,3,4,4").returncode == 2
    assert run_cli("pencil-info").returncode == 2  # neither --g nor --lambdas


@pytest.mark.parametrize("g", ["0", "1"])
def test_genus_below_two_exit_2(g):
    r = run_cli("pencil-info", "--g", g)
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "need g >= 2"


@pytest.mark.parametrize(
    "args",
    [
        ["verify-all", "--g", "2", "--budget", "0"],
        ["verify-all", "--g", "2", "--budget", "-1"],
        ["verify-all", "--g", "2", "--budget", "nan"],
        ["verify-diagram", "--g", "2", "--holdout", "0"],
        ["verify-even", "--g", "2", "--holdout", "-3"],
        ["verify-lagrangian", "--g", "2", "--count", "0"],
    ],
    ids=" ".join,
)
def test_bad_counts_exit_2(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"].startswith("need ")


@pytest.mark.parametrize(
    "args",
    [
        ["verify-diagram", "--g", "2", "--train", "3"],
        ["verify-even", "--g", "2", "--tol", "1e-8"],
    ],
    ids=" ".join,
)
def test_removed_fit_flags_exit_2(args):
    # the identification is exact, so there is no training set or tolerance
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unrecognized arguments" in r.stderr


def test_bundle_splitting_roundtrip(tmp_path):
    r = run_cli("sample", "--g", "2", "--seed", "5")
    point = json.loads(r.stdout)["metrics"]["point"]
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(point))
    r = run_cli("bundle-splitting", "--g", "2", "--point", str(path))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["metrics"]["degrees"] == [0, 0, 0, 1]
    assert rep["metrics"]["trivial_matches_tangent"] is True


def _bad_point_payloads():
    """Point files that bundle-splitting must refuse as input errors."""
    from qplab import canonical_pencil, sample_point

    x = sample_point(canonical_pencil(2), 5)
    good = x.to_json()
    return {
        # the layout the removed float mode wrote
        "float_mode": {"coords": [[z.real, z.imag] for z in x.complex_coords()],
                       "mode": "float"},
        "not_an_object": [1, 2],
        "coords_not_a_list": {"mode": "exact", "coords": 5},
        "one_radicand": dict(good, radicands=good["radicands"][:1]),
    }


@pytest.mark.parametrize("name", sorted(_bad_point_payloads()))
def test_bad_point_file_exit_2(tmp_path, name):
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(_bad_point_payloads()[name]))
    r = run_cli("bundle-splitting", "--g", "2", "--point", str(path))
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"].startswith("bad point file: ")


def test_skew_invariants_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[0,1,0,0],[-1,0,0,0],[0,0,0,1],[0,0,-1,0]]")
    r = run_cli("skew-invariants", "--matrix", str(path))
    rep = json.loads(r.stdout)
    assert rep["metrics"] == {"a": ["2", "1"], "pf": "1", "rank": 4, "nilpotent": False}
    bad = tmp_path / "bad.json"
    bad.write_text("[[0,1],[1,0]]")
    assert run_cli("skew-invariants", "--matrix", str(bad)).returncode == 2
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    r = run_cli("skew-invariants", "--matrix", str(empty))
    assert r.returncode == 2 and r.stdout == ""
    assert json.loads(r.stderr)["error"] == "bad matrix file: empty matrix"


# stdout of `qplab skew-invariants`, pinned byte for byte; the outputs are
# exact rationals, so they do not depend on the platform or on BLAS
SKEW_PINS = {
    # non-integer rational entries, a_01 = 0 (a pivot swap)
    "rational6": (
        [
            ["0", "0", "1/2", "-2/3", "3/4", "5/7"],
            ["0", "0", "-1/5", "7/3", "0", "2"],
            ["-1/2", "1/5", "0", "-3/4", "1/6", "4/9"],
            ["2/3", "-7/3", "3/4", "0", "-5/2", "8/3"],
            ["-3/4", "0", "-1/6", "5/2", "0", "1/11"],
            ["-5/7", "-2", "-4/9", "-8/3", "-1/11", "0"],
        ],
        "{\n"
        "  \"command\": \"skew-invariants\",\n"
        "  \"metrics\": {\n"
        "    \"a\": [\n"
        "      \"2440507967/96049800\",\n"
        "      \"1956339112577/27662342400\",\n"
        "      \"16019711761/768398400\"\n"
        "    ],\n"
        "    \"nilpotent\": false,\n"
        "    \"pf\": \"126569/27720\",\n"
        "    \"rank\": 6\n"
        "  },\n"
        "  \"pass\": true,\n"
        "  \"rng\": \"philox4x64 with per-sample counter substreams key=[seed, index]\",\n"
        "  \"samples_used\": 0,\n"
        "  \"seed\": 0,\n"
        "  \"version\": \"2\"\n"
        "}\n"
    ),
    # a rank-2 map u v^T - v u^T
    "rank2": (
        [
            ["0", "1", "1", "-2", "2", "1"],
            ["-1", "0", "2", "-5", "5", "-1"],
            ["-1", "-2", "0", "-1", "1", "-3"],
            ["2", "5", "1", "0", "0", "7"],
            ["-2", "-5", "-1", "0", "0", "-7"],
            ["-1", "1", "3", "-7", "7", "0"],
        ],
        "{\n"
        "  \"command\": \"skew-invariants\",\n"
        "  \"metrics\": {\n"
        "    \"a\": [\n"
        "      \"175\",\n"
        "      \"0\",\n"
        "      \"0\"\n"
        "    ],\n"
        "    \"nilpotent\": false,\n"
        "    \"pf\": \"0\",\n"
        "    \"rank\": 2\n"
        "  },\n"
        "  \"pass\": true,\n"
        "  \"rng\": \"philox4x64 with per-sample counter substreams key=[seed, index]\",\n"
        "  \"samples_used\": 0,\n"
        "  \"seed\": 0,\n"
        "  \"version\": \"2\"\n"
        "}\n"
    ),
    # the zero map: a real skew map A has a_1 = sum of a_ij^2 over
    # i < j, so the zero map is the only nilpotent rational one
    "zero4": (
        [
            ["0", "0", "0", "0"],
            ["0", "0", "0", "0"],
            ["0", "0", "0", "0"],
            ["0", "0", "0", "0"],
        ],
        "{\n"
        "  \"command\": \"skew-invariants\",\n"
        "  \"metrics\": {\n"
        "    \"a\": [\n"
        "      \"0\",\n"
        "      \"0\"\n"
        "    ],\n"
        "    \"nilpotent\": true,\n"
        "    \"pf\": \"0\",\n"
        "    \"rank\": 0\n"
        "  },\n"
        "  \"pass\": true,\n"
        "  \"rng\": \"philox4x64 with per-sample counter substreams key=[seed, index]\",\n"
        "  \"samples_used\": 0,\n"
        "  \"seed\": 0,\n"
        "  \"version\": \"2\"\n"
        "}\n"
    ),
}


@pytest.mark.parametrize("name", sorted(SKEW_PINS))
def test_skew_invariants_stdout_pinned(tmp_path, name):
    matrix, expected = SKEW_PINS[name]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    r = run_cli("skew-invariants", "--matrix", str(path))
    assert r.returncode == 0
    assert r.stdout == expected


def test_verify_diagram_exit_codes(monkeypatch, capsys):
    r = run_cli("verify-diagram", "--g", "2", "--seed", "1", "--holdout", "5")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["pass"] and rep["samples_used"] == 5
    assert rep["metrics"] == {"pass": True, "samples": 5}
    # a wrong f_H flips the verdict and the exit code
    from qplab import BinaryForm, cli, fibration

    monkeypatch.setattr(fibration, "f_H", lambda x, xi: BinaryForm(2, [1, 2, 3]))
    code = cli.main(["verify-diagram", "--g", "2", "--seed", "1", "--holdout", "5"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1 and rep["pass"] is False
    assert rep["metrics"]["first_failure"] == {"case": "proportional", "index": 0}


def test_verify_even_and_lagrangian():
    r = run_cli("verify-even", "--g", "2", "--seed", "1", "--holdout", "4")
    rep = json.loads(r.stdout)
    assert r.returncode == 0 and rep["metrics"]["exact_vanishing"]
    r = run_cli("verify-lagrangian", "--g", "2", "--seed", "1", "--count", "3")
    rep = json.loads(r.stdout)
    assert r.returncode == 0 and rep["metrics"]["jacobian_ranks"] == [3]


def test_verify_all_deterministic():
    args = ["verify-all", "--g", "2", "--seed", "4", "--budget", "0.05"]
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_verify_all_g4_smallest_budget_passes():
    # the invariance section draws at least 2g - 1 samples, enough for its rank
    r = run_cli("verify-all", "--g", "4", "--seed", "0", "--budget", "0.05")
    assert r.returncode == 0, r.stdout + r.stderr
    invariance = json.loads(r.stdout)["metrics"]["sections"]["invariance"]
    assert invariance["pass"] and invariance["image_rank"] == invariance["expected_rank"] == 7


def test_json_out_flag(tmp_path):
    out = tmp_path / "rep.json"
    r = run_cli("pencil-info", "--g", "2", "--json-out", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["metrics"]["g"] == 2


@pytest.mark.slow
def test_verify_all_verdict_stable_over_seeds():
    for seed in range(3):
        r = run_cli("verify-all", "--g", "2", "--seed", str(seed), "--budget", "0.05")
        assert r.returncode == 0
