"""Command-line front end: seed-driven batch jobs with JSON reports.

Every command prints one JSON report to stdout (optionally also to
--json-out).  Reports are byte-identical for identical job specifications.
Exit codes: 0 pass, 1 verification failure, 2 input error, 3 internal error,
141 (as for SIGPIPE) stdout closed before the report was written (a
--json-out file is written before stdout).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .fibration import f_H, phi_X
from .p1bundle import (
    n_tilde_splitting,
    trivial_factor_matches_tangent,
    v_perp_kernel,
    vandermonde_normalizer,
)
from .pencil import PencilError, PencilOfQuadrics, canonical_pencil
from .scalars import NonInvertibleError, rational_to_string, scalar_to_json
from .skew import SkewMap, SkewnessError, char_coeffs, pfaffian
from .variety import PointOnX, sample_pair, sample_point, tangent_frame
from .verify import run_diagram_check, run_even_check, run_lagrangian_check, verify_all

REPORT_VERSION = "2"
RNG_NAME = "philox4x64 with per-sample counter substreams key=[seed, index]"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_CLOSED = 141


class InputError(ValueError):
    pass


def _pencil_from_args(args) -> PencilOfQuadrics:
    if getattr(args, "lambdas", None):
        try:
            lams = [Fraction(tok) for tok in args.lambdas.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"malformed lambdas: {exc}") from exc
        try:
            return PencilOfQuadrics(lams)
        except PencilError as exc:
            raise InputError(str(exc)) from exc
    if getattr(args, "g", None) is not None:
        if args.g < 2:
            raise InputError("need g >= 2")
        return canonical_pencil(args.g)
    raise InputError("provide --lambdas or --g")


def _report(args, passed: bool, metrics: dict, samples_used: int) -> int:
    payload = {
        "command": args.command,
        "metrics": metrics,
        "pass": bool(passed),
        "rng": RNG_NAME,
        "samples_used": samples_used,
        "seed": getattr(args, "seed", None),
        "version": REPORT_VERSION,
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if getattr(args, "json_out", None):  # first, so a closed stdout keeps it
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    print(text, flush=True)  # a closed stdout raises here, not at exit
    return EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_pencil_info(args) -> int:
    p = _pencil_from_args(args)
    hyp = p.hyperelliptic_data()
    metrics = {
        "g": p.g,
        "lambdas": [rational_to_string(l) for l in p.lambdas],
        "branch_params": [
            [rational_to_string(a), rational_to_string(b)]
            for a, b in hyp.branch_params
        ],
        "sign_group_order": 2 ** (p.dim_ambient - 1),
        "even_sign_group_order": 2 ** (p.dim_ambient - 2),
        "fingerprint": p.fingerprint(),
    }
    return _report(args, True, metrics, 0)


def _cmd_sample(args) -> int:
    p = _pencil_from_args(args)
    x = sample_point(p, args.seed, index=args.index, on_Y=args.on_y)
    return _report(args, True, {"point": x.to_json()}, 1)


def _cmd_phi(args) -> int:
    p = _pencil_from_args(args)
    x, xi = sample_pair(p, args.seed, index=args.index, on_Y=args.on_y)
    val = phi_X(x, xi)
    metrics = {
        "point": x.to_json(),
        "eta": [scalar_to_json(c) for c in xi.eta],
        "components": [scalar_to_json(c) for c in val.components],
    }
    return _report(args, True, metrics, 1)


def _cmd_fh(args) -> int:
    p = _pencil_from_args(args)
    x, xi = sample_pair(p, args.seed, index=args.index, on_Y=args.on_y)
    form = f_H(x, xi)
    metrics = {
        "point": x.to_json(),
        "degree": form.degree,
        "coefficients": [scalar_to_json(c) for c in form.coeffs],
    }
    return _report(args, True, metrics, 1)


def _cmd_bundle_splitting(args) -> int:
    p = _pencil_from_args(args)
    if args.point:
        try:
            with open(args.point) as fh:
                payload = json.load(fh)
            x = PointOnX.from_json(p, payload)
        except (OSError, KeyError, ValueError, TypeError,
                ZeroDivisionError, OverflowError) as exc:  # Fraction(Infinity) overflows
            raise InputError(f"bad point file: {exc}") from exc
    else:
        x = sample_point(p, args.seed, index=args.index)
    try:
        kb = v_perp_kernel(p, x)
        st = n_tilde_splitting(kb)
        matches = trivial_factor_matches_tangent(kb, tangent_frame(x))
    except NonInvertibleError as exc:  # only a point file can lack the units
        raise InputError(f"bad point file: {exc}") from exc
    metrics = {
        "degrees": list(st.degrees),
        "kernel_column_degrees": kb.degrees,
        "trivial_matches_tangent": bool(matches),
    }
    return _report(args, bool(matches), metrics, 1)


def _cmd_skew_invariants(args) -> int:
    try:
        with open(args.matrix) as fh:
            rows = json.load(fh)
        m = [[Fraction(str(c)) for c in row] for row in rows]
    except (OSError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad matrix file: {exc}") from exc
    if not m:
        raise InputError("bad matrix file: empty matrix")
    try:
        skew = SkewMap(m)
    except (SkewnessError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    coeffs = char_coeffs(skew)
    pf = pfaffian(skew)
    metrics = {
        "a": [rational_to_string(c) for c in coeffs],
        "pf": rational_to_string(pf),
        "rank": skew.rank,
        # nilpotent iff every invariant vanishes
        "nilpotent": not any(coeffs) and not pf,
    }
    return _report(args, True, metrics, 0)


def _cmd_vandermonde(args) -> int:
    p = _pencil_from_args(args)
    a = vandermonde_normalizer(p)
    metrics = {"normalizer": [rational_to_string(c) for c in a]}
    return _report(args, True, metrics, 0)


def _cmd_verify_section(args) -> int:
    """verify-diagram, verify-even and verify-lagrangian: the command's
    section on samples 0..n-1, n the value of its count flag."""
    p = _pencil_from_args(args)
    count = getattr(args, args.count_flag)
    if count < 1:
        raise InputError(f"need --{args.count_flag} >= 1")
    rep = args.section(p, args.seed, count)
    return _report(args, rep["pass"], rep, count)


def _cmd_verify_all(args) -> int:
    p = _pencil_from_args(args)
    if not (math.isfinite(args.budget) and args.budget > 0):
        raise InputError("need a finite --budget > 0")
    rep = verify_all(p, args.seed, budget=args.budget)
    total = sum(
        s.get("samples", s.get("pencils", s.get("rank2_cases", 0)))
        for s in rep["sections"].values()
    )
    return _report(args, rep["pass"], rep, total)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _flags(**flags) -> argparse.ArgumentParser:
    """A parser to pass in parents=: --NAME for each keyword NAME (an
    underscore becomes a dash), with its add_argument options."""
    ap = argparse.ArgumentParser(add_help=False)
    for name, options in flags.items():
        ap.add_argument("--" + name.replace("_", "-"), **options)
    return ap


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qplab parser, built on the first call and shared by every later
    call in the process, so callers must not modify it.  Each handler and
    section is bound here and looks up what it calls when it runs."""
    ap = argparse.ArgumentParser(
        prog="qplab",
        description="Pencils of diagonal quadrics: sampling, fibration maps, "
        "bundle splitting, skew invariants, and seeded verification.",
    )
    ap.add_argument("--version", action="version", version=f"qplab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    # the shared flags, each declared once; every usage line lists them in
    # this order, before the command's own flags
    out = _flags(json_out={"metavar": "PATH"})
    lambdas_g = _flags(
        lambdas={"help": "comma-separated rationals, e.g. 0,1,2,3,4,5"},
        g={"type": int, "help": "use the canonical pencil 0..2g+1"},
    )
    pencil = [lambdas_g, out]
    seeded = pencil + [_flags(seed={"type": int, "default": 0})]
    one_sample = seeded + [_flags(index={"type": int, "default": 0})]
    on_y = one_sample + [_flags(on_y={"action": "store_true"})]
    holdout = seeded + [_flags(holdout={"type": int, "default": 100})]

    def command(name, summary, parents, fn, **defaults):
        sp = sub.add_parser(name, help=summary, parents=parents)
        sp.set_defaults(fn=fn, **defaults)
        return sp

    command("pencil-info", "pencil summary and group orders", pencil, _cmd_pencil_info)
    command("sample", "draw a point of X (or Y)", on_y, _cmd_sample)
    command("phi", "fibration components at a sampled pair", on_y, _cmd_phi)
    command("fh", "degenerate-member form of the restricted pencil", on_y, _cmd_fh)
    command(
        "bundle-splitting", "kernel-basis splitting type", one_sample, _cmd_bundle_splitting
    ).add_argument("--point", metavar="FILE", help="point JSON (default: sample)")
    command(
        "skew-invariants", "char coefficients, Pfaffian, rank", [out], _cmd_skew_invariants
    ).add_argument("--matrix", metavar="FILE", required=True)
    command("vandermonde", "kernel line of the power matrix", pencil, _cmd_vandermonde)
    command("verify-diagram", "exact identification of phi with f_H", holdout,
            _cmd_verify_section, section=run_diagram_check, count_flag="holdout")
    command("verify-even", "diagram check on T*Y + exact vanishing", holdout,
            _cmd_verify_section, section=run_even_check, count_flag="holdout")
    command("verify-lagrangian", "exact Lagrangian certificate", seeded,
            _cmd_verify_section, section=run_lagrangian_check, count_flag="count"
            ).add_argument("--count", type=int, default=20)
    command(
        "verify-all", "every verification section in one run", seeded, _cmd_verify_all
    ).add_argument("--budget", type=float, default=1.0, help="sample-count scale")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)  # argparse exits 2 on usage errors
    try:
        return args.fn(args)
    except BrokenPipeError:  # stop quietly; stdout on devnull, for the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED
    except (InputError, PencilError) as exc:
        code, error = EXIT_INPUT, {"error": str(exc)}
    except Exception as exc:  # internal invariant violation
        code, error = EXIT_INTERNAL, {"internal_error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps({**error, "version": REPORT_VERSION}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
