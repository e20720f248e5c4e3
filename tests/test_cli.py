"""CLI: subcommands, JSON reports, determinism, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "qplab.cli"]
SRC = Path(__file__).resolve().parents[1] / "src"


def cli_env():
    """The environment of a subprocess: this checkout's src in front of
    PYTHONPATH, so that it runs without an install."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=cli_env())


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


# f_H of `fh --g 2 --seed 7` (a split context, u = 441) computed in another
# basis of H; any basis gives these coefficients up to one nonzero factor
FH_G2_SEED7 = [
    ["67801345630939/40828009356288", "0", "84592960745/1944190921728", "0"],
    ["-62082916422553/6804668226048", "0", "-74953901075/324031820288", "0"],
    ["62126393086315/5103501169536", "0", "71323705625/243023865216", "0"],
]


def test_fh_coefficients_pinned_up_to_scale():
    from qplab import BiquadContext

    r = run_cli("fh", "--g", "2", "--seed", "7")
    assert r.returncode == 0
    metrics = json.loads(r.stdout)["metrics"]
    ctx = BiquadContext(*metrics["point"]["radicands"])

    def elements(coeffs):
        return [ctx.element(*(Fraction(c) for c in coords)) for coords in coeffs]

    new, ref = elements(metrics["coefficients"]), elements(FH_G2_SEED7)
    scale = new[0] / ref[0]
    scale.inverse()  # raises unless the scale is invertible
    assert new == [scale * c for c in ref]


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


# the message of each count flag's input error, in full
COUNT_ERRORS = {
    "--budget": "need a finite --budget > 0",
    "--holdout": "need --holdout >= 1",
    "--count": "need --count >= 1",
}


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
    assert json.loads(r.stderr)["error"] == COUNT_ERRORS[args[3]]


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


def test_index_only_where_it_is_read():
    # --index picks one sample; batch commands draw samples 0..n-1 and take
    # no --index
    r = run_cli("verify-all", "--g", "2", "--index", "3")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unrecognized arguments: --index 3" in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["pencil-info", "--g", "2"],
        ["vandermonde", "--g", "2"],
        ["skew-invariants", "--matrix", "m.json"],
    ],
    ids=lambda args: args[0],
)
def test_seed_only_where_it_is_read(args):
    # these commands draw no sample, so they take no --seed and their
    # reports carry "seed": null
    r = run_cli(*args, "--seed", "5")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unrecognized arguments: --seed 5" in r.stderr
    if args[0] != "skew-invariants":
        r = run_cli(*args)
        assert r.returncode == 0 and json.loads(r.stdout)["seed"] is None


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
    from qplab import canonical_pencil, sample_point, to_complex

    x = sample_point(canonical_pencil(2), 5)
    good = x.to_json()
    return {
        # the layout the removed float mode wrote
        "float_mode": {"coords": [[z.real, z.imag] for z in map(to_complex, x.coords)],
                       "mode": "float"},
        "not_an_object": [1, 2],
        "coords_not_a_list": {"mode": "exact", "coords": 5},
        "one_radicand": dict(good, radicands=good["radicands"][:1]),
        # a zero denominator as a coordinate, inside a biquadratic
        # coordinate and as a radicand
        "zero_denominator_coordinate": dict(good, coords=["1/0"] + good["coords"][1:]),
        "zero_denominator_biquad_coordinate": dict(
            good, coords=[["1/0", "0", "0", "0"]] + good["coords"][1:]),
        "zero_denominator_radicand": dict(good, radicands=["1/0", good["radicands"][1]]),
        # JSON's Infinity, which no Fraction holds
        "infinite_biquad_coordinate": dict(
            good, coords=[[float("inf"), "0", "0", "0"]] + good["coords"][1:]),
        "infinite_radicand": dict(good, radicands=[float("inf"), good["radicands"][1]]),
    }


@pytest.mark.parametrize("name", sorted(_bad_point_payloads()))
def test_bad_point_file_exit_2(tmp_path, name):
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(_bad_point_payloads()[name]))
    r = run_cli("bundle-splitting", "--g", "2", "--point", str(path))
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"].startswith("bad point file: ")


def test_point_with_one_invertible_coordinate_exit_2(tmp_path):
    # a point of a split algebra whose coordinates are all zero divisors but
    # one: there is no chart, so the point file is refused
    from test_fibration import one_invertible_point

    path = tmp_path / "pt.json"
    path.write_text(json.dumps(one_invertible_point().to_json()))
    r = run_cli("bundle-splitting", "--lambdas=0,16,-9,32,-18,1", "--point", str(path))
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"] == (
        "bad point file: no second invertible coordinate in the point"
    )


def _gaussian_point_file(tmp_path, *names):
    from test_variety import GAUSSIAN_POINTS, gaussian_point

    points = dict(zip(["a", "b", "c", "c_flip", "d", "f"], GAUSSIAN_POINTS))
    path = tmp_path / f"{'_'.join(names)}.json"
    path.write_text(json.dumps(gaussian_point(*[points[n] for n in names]).to_json()))
    return str(path)


@pytest.mark.parametrize("names", [("a", "b"), ("a", "c")])
def test_point_with_no_unit_off_its_pair_exit_2(tmp_path, names):
    # points of X over the split algebra Q(i)^2 whose coordinates off the
    # pair are zero divisors or 0: no coordinate can take the place of v in
    # the tangent frame, so the point file is refused
    path = _gaussian_point_file(tmp_path, *names)
    r = run_cli("bundle-splitting", "--lambdas=0,9,25,-16,-144,1", "--point", path)
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"] == (
        "bad point file: no invertible coordinate off the point's pair"
    )


@pytest.mark.parametrize(
    "names", [("a",), ("c",), ("a", "d"), ("c", "c_flip"), ("f", "b")])
def test_gaussian_point_files_split(tmp_path, names):
    # points over Q(i, sqrt 2) and over the split algebra with a unit off
    # the pair, which f with b has at x_4 beside the zero divisor x_1
    path = _gaussian_point_file(tmp_path, *names)
    r = run_cli("bundle-splitting", "--lambdas=0,9,25,-16,-144,1", "--point", path)
    assert r.returncode == 0, r.stderr
    metrics = json.loads(r.stdout)["metrics"]
    assert metrics["degrees"] == [0, 0, 0, 1]
    assert metrics["trivial_matches_tangent"] is True


def test_closed_stdout_stops_quietly(tmp_path):
    # a reader that closes before the report is written, and one that closes
    # after 10 bytes (`qplab fh --g=3 | head -c 10`), which may come before
    # or after the write: no JSON on stderr, and 141 unless the report got out;
    # a --json-out file is written in full either way
    from qplab.cli import EXIT_CLOSED, EXIT_PASS

    out = tmp_path / "fh.json"
    read, write = os.pipe()
    os.close(read)
    try:
        r = subprocess.run(CLI + ["fh", "--g=3", "--json-out", str(out)], stdout=write,
                           stderr=subprocess.PIPE, env=cli_env())
    finally:
        os.close(write)
    assert (r.returncode, r.stderr) == (EXIT_CLOSED, b"")
    assert out.read_text() == run_cli("fh", "--g=3").stdout
    with subprocess.Popen(CLI + ["fh", "--g=3"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=cli_env()) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        assert proc.wait() in (EXIT_PASS, EXIT_CLOSED)
        assert proc.stderr.read() == b""
    assert head == b'{\n  "comma'


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
    zero_den = tmp_path / "zero_den.json"
    zero_den.write_text('[["0", "1/0"], ["-1", "0"]]')
    r = run_cli("skew-invariants", "--matrix", str(zero_den))
    assert r.returncode == 2 and r.stdout == ""
    assert json.loads(r.stderr)["error"].startswith("bad matrix file: ")


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
        "  \"seed\": null,\n"
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
        "  \"seed\": null,\n"
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
        "  \"seed\": null,\n"
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
    from qplab import BinaryForm, cli, verify

    monkeypatch.setattr(verify, "f_H", lambda x, xi: BinaryForm(2, [1, 2, 3]))
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


@pytest.mark.parametrize(
    "lambdas, budget",
    [
        ("0,1/1000,2/1000,3,4,5", "1"),
        ("0,1/1000,2/1000,3,4,5", "0.05"),
        ("0,1/1000000,2/1000000,3,4,5", "1"),
        ("0,1/1000000,2/1000000,3,4,5", "0.05"),
        ("0,1/1000000000000,2/1000000000000,3,4,5", "1"),
    ],
    ids=["gap-1e-3-budget-1", "gap-1e-3-budget-0.05", "gap-1e-6-budget-1",
         "gap-1e-6-budget-0.05", "gap-1e-12-budget-1"],
)
def test_verify_all_passes_on_clustered_pencils(capsys, lambdas, budget):
    # valid pencils with close branch points: the exact certificate reads
    # rank 2g - 1 = 3 on every sample.  A finite-difference check with a
    # fixed step and tolerance failed the 1/1000 pencil at budget 1
    # (isotropy, sample 4) and the 1/10^6 pencil at both budgets
    # (nongeneric, sample 0)
    from qplab import cli

    argv = ["verify-all", f"--lambdas={lambdas}", "--seed", "0", "--budget", budget]
    assert cli.main(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    lagrangian = rep["metrics"]["sections"]["lagrangian"]
    assert rep["pass"] and lagrangian["pass"]
    assert lagrangian["jacobian_ranks"] == [3]
    assert lagrangian["generic_samples"] == lagrangian["samples"]


# stdout of two runs that carry the Lagrangian report, pinned byte for byte;
# every field of the exact certificate is an integer or a verdict.
LAGRANGIAN_PINS = {
    ("verify-lagrangian", "--g", "2", "--seed", "1", "--count", "3"): """\
{
  "command": "verify-lagrangian",
  "metrics": {
    "generic_samples": 3,
    "jacobian_ranks": [
      3
    ],
    "pass": true,
    "samples": 3
  },
  "pass": true,
  "rng": "philox4x64 with per-sample counter substreams key=[seed, index]",
  "samples_used": 3,
  "seed": 1,
  "version": "2"
}
""",
    ("verify-all", "--g", "2", "--seed", "1", "--budget", "0.05"): """\
{
  "command": "verify-all",
  "metrics": {
    "budget": 0.05,
    "pass": true,
    "sections": {
      "diagram": {
        "pass": true,
        "samples": 5
      },
      "even": {
        "exact_vanishing": true,
        "pass": true,
        "samples": 2
      },
      "falsifiability": {
        "clean_pass": true,
        "gauge_invariance_broken": true,
        "gauge_violation_rejected": true,
        "pass": true,
        "perturbed_map_fails": true
      },
      "invariance": {
        "expected_rank": 3,
        "image_rank": 3,
        "pass": true,
        "samples": 5
      },
      "lagrangian": {
        "generic_samples": 1,
        "jacobian_ranks": [
          3
        ],
        "pass": true,
        "samples": 1
      },
      "quotient": {
        "pass": true,
        "samples": 10
      },
      "skew": {
        "pass": true,
        "rank2_cases": 10
      },
      "splitting": {
        "matches": 2,
        "pass": true,
        "samples": 2
      },
      "vandermonde": {
        "g": 2,
        "pass": true,
        "pencils": 5
      }
    },
    "seed": 1
  },
  "pass": true,
  "rng": "philox4x64 with per-sample counter substreams key=[seed, index]",
  "samples_used": 40,
  "seed": 1,
  "version": "2"
}
""",
}


@pytest.mark.parametrize("args", sorted(LAGRANGIAN_PINS), ids=lambda args: args[0])
def test_lagrangian_reports_stdout_pinned(args):
    r = run_cli(*args)
    assert r.returncode == 0
    assert r.stdout == LAGRANGIAN_PINS[args]


@pytest.mark.parametrize("flag", [["--fd-step", "1e-4"], ["--tol", "1e-3"]], ids=lambda f: f[0])
def test_lagrangian_constants_take_no_flags(flag):
    # the exact certificate has no step and no tolerance to set
    r = run_cli("verify-lagrangian", "--g", "2", "--count", "1", *flag)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unrecognized arguments" in r.stderr


# every subcommand's options: a new option fails here until it is reviewed
SUBCOMMAND_FLAGS = {
    "pencil-info": ["--g", "--json-out", "--lambdas"],
    "sample": ["--g", "--index", "--json-out", "--lambdas", "--on-y", "--seed"],
    "phi": ["--g", "--index", "--json-out", "--lambdas", "--on-y", "--seed"],
    "fh": ["--g", "--index", "--json-out", "--lambdas", "--on-y", "--seed"],
    "bundle-splitting": ["--g", "--index", "--json-out", "--lambdas", "--point", "--seed"],
    "skew-invariants": ["--json-out", "--matrix"],
    "vandermonde": ["--g", "--json-out", "--lambdas"],
    "verify-diagram": ["--g", "--holdout", "--json-out", "--lambdas", "--seed"],
    "verify-even": ["--g", "--holdout", "--json-out", "--lambdas", "--seed"],
    "verify-lagrangian": ["--count", "--g", "--json-out", "--lambdas", "--seed"],
    "verify-all": ["--budget", "--g", "--json-out", "--lambdas", "--seed"],
}


def test_subcommand_flags_pinned():
    from qplab.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {
        name: sorted(
            o for a in sp._actions for o in a.option_strings if o not in ("-h", "--help")
        )
        for name, sp in sub.choices.items()
    }
    assert flags == SUBCOMMAND_FLAGS


def test_verify_all_redraws_covectors_vanishing_on_S():
    # the first covector drawn for Y-sample 0 of this seed vanishes on S, where
    # f_H is undefined; the sampler draws again
    r = run_cli("verify-all", "--g", "2", "--seed", "612749189", "--budget", "0.05")
    assert r.returncode == 0, r.stderr


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



def test_verify_all_samples_used_counts_every_section(capsys):
    # samples_used sums each section's count at budget 0.1: its samples, the
    # vandermonde pencils and the skew cases; falsifiability counts none
    from qplab import cli

    assert cli.main(["verify-all", "--g", "2", "--seed", "2", "--budget", "0.1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    sections = rep["metrics"]["sections"]
    counts = {
        "diagram": 10, "even": 5, "lagrangian": 2, "splitting": 5,
        "quotient": 20, "invariance": 10,
    }
    assert {name: sections[name]["samples"] for name in counts} == counts
    assert sections["vandermonde"]["pencils"] == 10
    assert sections["skew"] == {"pass": True, "rank2_cases": 20}
    assert rep["samples_used"] == sum(counts.values()) + 10 + 20


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


def test_verify_all_runs_without_numpy():
    # numpy is a test dependency only: with its import blocked, qplab imports
    # and verify-all passes
    code = (
        "import sys; sys.modules['numpy'] = None; import qplab, qplab.cli; "
        "sys.exit(qplab.cli.main(['verify-all', '--g', '2', '--budget', '0.05']))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=cli_env())
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["pass"] is True
