"""Command-line front end: seed-driven batch jobs with JSON reports.

Every command prints one JSON report to stdout (optionally also to
--json-out).  Reports are byte-identical for identical job specifications.
Exit codes: 0 pass, 1 verification failure, 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .fibration import f_H, phi_X
from .p1bundle import n_tilde_splitting, v_perp_kernel, vandermonde_normalizer
from .pencil import PencilError, PencilOfQuadrics, canonical_pencil
from .scalars import rational_to_string, scalar_to_json
from .skew import SkewMap, SkewnessError, char_coeffs, nilpotency_and_rank, pfaffian
from .variety import sample_pair, sample_point
from .verify import (
    run_diagram_check,
    run_even_check,
    run_lagrangian_check,
    verify_all,
)

REPORT_VERSION = "2"
RNG_NAME = "philox4x64 with per-sample counter substreams key=[seed, index]"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


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


def _report(args, command: str, passed: bool, metrics: dict, samples_used: int) -> int:
    payload = {
        "command": command,
        "metrics": metrics,
        "pass": bool(passed),
        "rng": RNG_NAME,
        "samples_used": samples_used,
        "seed": getattr(args, "seed", None),
        "version": REPORT_VERSION,
    }
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
    print(text)
    if getattr(args, "json_out", None):
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    return EXIT_PASS if passed else EXIT_FAIL


def _json_default(obj):
    if isinstance(obj, Fraction):
        return rational_to_string(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


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
    return _report(args, "pencil-info", True, metrics, 0)


def _cmd_sample(args) -> int:
    p = _pencil_from_args(args)
    x = sample_point(p, args.seed, index=args.index, on_Y=args.on_y)
    return _report(args, "sample", True, {"point": x.to_json()}, 1)


def _cmd_phi(args) -> int:
    p = _pencil_from_args(args)
    x, xi = sample_pair(p, args.seed, index=args.index, on_Y=args.on_y)
    val = phi_X(x, xi)
    metrics = {
        "point": x.to_json(),
        "eta": [scalar_to_json(c) for c in xi.eta],
        "components": [scalar_to_json(c) for c in val.components],
    }
    return _report(args, "phi", True, metrics, 1)


def _cmd_fh(args) -> int:
    p = _pencil_from_args(args)
    x, xi = sample_pair(p, args.seed, index=args.index, on_Y=args.on_y)
    form = f_H(x, xi)
    metrics = {
        "point": x.to_json(),
        "degree": form.degree,
        "coefficients": [scalar_to_json(c) for c in form.coeffs],
    }
    return _report(args, "fh", True, metrics, 1)


def _cmd_bundle_splitting(args) -> int:
    from .variety import PointOnX, tangent_frame
    from .p1bundle import trivial_factor_matches_tangent

    p = _pencil_from_args(args)
    if args.point:
        try:
            with open(args.point) as fh:
                payload = json.load(fh)
            x = PointOnX.from_json(p, payload)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            raise InputError(f"bad point file: {exc}") from exc
    else:
        x = sample_point(p, args.seed, index=args.index)
    kb = v_perp_kernel(p, x)
    st = n_tilde_splitting(kb)
    matches = trivial_factor_matches_tangent(kb, tangent_frame(x))
    metrics = {
        "degrees": list(st.degrees),
        "kernel_column_degrees": kb.degrees,
        "trivial_matches_tangent": bool(matches),
    }
    return _report(args, "bundle-splitting", bool(matches), metrics, 1)


def _cmd_skew_invariants(args) -> int:
    try:
        with open(args.matrix) as fh:
            rows = json.load(fh)
        m = [[Fraction(str(c)) for c in row] for row in rows]
    except (OSError, ValueError, TypeError) as exc:
        raise InputError(f"bad matrix file: {exc}") from exc
    if not m:
        raise InputError("bad matrix file: empty matrix")
    try:
        skew = SkewMap(m)
    except (SkewnessError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    coeffs = char_coeffs(skew)
    pf = pfaffian(skew)
    info = nilpotency_and_rank(skew)
    metrics = {
        "a": [rational_to_string(c) for c in coeffs],
        "pf": rational_to_string(pf),
        "rank": info["rank"],
        "nilpotent": bool(info["nilpotent"]),
    }
    return _report(args, "skew-invariants", True, metrics, 0)


def _cmd_vandermonde(args) -> int:
    p = _pencil_from_args(args)
    a = vandermonde_normalizer(p)
    metrics = {"normalizer": [rational_to_string(c) for c in a]}
    return _report(args, "vandermonde", True, metrics, 0)


def _check_holdout(args):
    if args.holdout < 1:
        raise InputError("need --holdout >= 1")


def _cmd_verify_diagram(args) -> int:
    p = _pencil_from_args(args)
    _check_holdout(args)
    rep = run_diagram_check(p, args.seed, args.holdout)
    return _report(args, "verify-diagram", rep["pass"], rep, args.holdout)


def _cmd_verify_even(args) -> int:
    p = _pencil_from_args(args)
    _check_holdout(args)
    rep = run_even_check(p, args.seed, args.holdout)
    return _report(args, "verify-even", rep["pass"], rep, args.holdout)


def _cmd_verify_lagrangian(args) -> int:
    p = _pencil_from_args(args)
    if args.count < 1:
        raise InputError("need --count >= 1")
    rep = run_lagrangian_check(
        p, args.seed, args.count, fd_step=args.fd_step, tol=args.tol
    )
    return _report(args, "verify-lagrangian", rep["pass"], rep, args.count)


def _cmd_verify_all(args) -> int:
    p = _pencil_from_args(args)
    if not (math.isfinite(args.budget) and args.budget > 0):
        raise InputError("need a finite --budget > 0")
    rep = verify_all(p, args.seed, budget=args.budget)
    total = sum(
        s.get("samples", s.get("pencils", s.get("pfaffian_cases", 0)))
        for s in rep["sections"].values()
    )
    return _report(args, "verify-all", rep["pass"], rep, total)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_pencil_flags(sp):
    sp.add_argument("--lambdas", help="comma-separated rationals, e.g. 0,1,2,3,4,5")
    sp.add_argument("--g", type=int, help="use the canonical pencil 0..2g+1")


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--json-out", dest="json_out", metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qplab",
        description="Pencils of diagonal quadrics: sampling, fibration maps, "
        "bundle splitting, skew invariants, and seeded verification.",
    )
    ap.add_argument("--version", action="version", version=f"qplab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pencil-info", help="pencil summary and group orders")
    _add_pencil_flags(sp)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_pencil_info)

    sp = sub.add_parser("sample", help="draw a point of X (or Y)")
    _add_pencil_flags(sp)
    _add_common(sp)
    sp.add_argument("--on-y", action="store_true")
    sp.set_defaults(fn=_cmd_sample)

    sp = sub.add_parser("phi", help="fibration components at a sampled pair")
    _add_pencil_flags(sp)
    _add_common(sp)
    sp.add_argument("--on-y", action="store_true")
    sp.set_defaults(fn=_cmd_phi)

    sp = sub.add_parser("fh", help="degenerate-member form of the restricted pencil")
    _add_pencil_flags(sp)
    _add_common(sp)
    sp.add_argument("--on-y", action="store_true")
    sp.set_defaults(fn=_cmd_fh)

    sp = sub.add_parser("bundle-splitting", help="kernel-basis splitting type")
    _add_pencil_flags(sp)
    _add_common(sp)
    sp.add_argument("--point", metavar="FILE", help="point JSON (default: sample)")
    sp.set_defaults(fn=_cmd_bundle_splitting)

    sp = sub.add_parser("skew-invariants", help="char coefficients, Pfaffian, rank")
    _add_common(sp)
    sp.add_argument("--matrix", metavar="FILE", required=True)
    sp.set_defaults(fn=_cmd_skew_invariants)

    sp = sub.add_parser("vandermonde", help="kernel line of the power matrix")
    _add_pencil_flags(sp)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_vandermonde)

    sp = sub.add_parser("verify-diagram", help="exact identification of phi with f_H")
    _add_pencil_flags(sp)
    _add_common(sp)
    sp.add_argument("--holdout", type=int, default=100)
    sp.set_defaults(fn=_cmd_verify_diagram)

    sp = sub.add_parser("verify-even", help="diagram check on T*Y + exact vanishing")
    _add_pencil_flags(sp)
    _add_common(sp)
    sp.add_argument("--holdout", type=int, default=100)
    sp.set_defaults(fn=_cmd_verify_even)

    sp = sub.add_parser("verify-lagrangian", help="finite-difference isotropy check")
    _add_pencil_flags(sp)
    _add_common(sp)
    sp.add_argument("--count", type=int, default=20)
    sp.add_argument("--fd-step", dest="fd_step", type=float, default=1e-5)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.set_defaults(fn=_cmd_verify_lagrangian)

    sp = sub.add_parser("verify-all", help="every verification section in one run")
    _add_pencil_flags(sp)
    _add_common(sp)
    sp.add_argument("--budget", type=float, default=1.0, help="sample-count scale")
    sp.set_defaults(fn=_cmd_verify_all)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)  # argparse exits 2 on usage errors
    try:
        return args.fn(args)
    except InputError as exc:
        print(json.dumps({"error": str(exc), "version": REPORT_VERSION}), file=sys.stderr)
        return EXIT_INPUT
    except PencilError as exc:
        print(json.dumps({"error": str(exc), "version": REPORT_VERSION}), file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # internal invariant violation
        print(
            json.dumps(
                {"internal_error": f"{type(exc).__name__}: {exc}", "version": REPORT_VERSION}
            ),
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
