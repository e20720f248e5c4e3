"""Span recorder for the traced benchmark run.

qplab is not modified: ``install`` replaces each traced public function with
a timing wrapper, in its defining module and under every name other qplab
modules bound with ``from .x import f``, and ``uninstall`` puts the originals
back.  A span (name, job, parent, start, end) is kept in memory for each
call into a traced function.

Scalar operations (``Biquad`` mul, add/sub, inverse, norm) run about a
million times per verify-all run, so they are not spans: each is counted and
timed in aggregate, and the time they cover directly under a span is stored
on that span so that its self time excludes it.  Scalar calls made while no
span is open (the benchmark's own checks) are not counted.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from qplab.scalars import Biquad

LAYERS = {
    "linalg": ("nullspace_exact", "det_exact", "solve_exact", "rank_exact", "in_span"),
    "binary_forms": ("interpolate_binary_form",),
    "variety": ("sample_pair", "tangent_frame", "quotient_even"),
    "fibration": ("phi_X", "phi_components", "f_H", "fit_identification",
                  "verify_identification", "verify_lagrangian"),
    "p1bundle": ("v_perp_kernel", "n_tilde_splitting",
                 "trivial_factor_matches_tangent", "vandermonde_normalizer"),
    "skew": ("pfaffian", "char_coeffs", "rank2_orthogonal_decomposition"),
    "verify": ("run_diagram_check", "run_even_check", "run_lagrangian_check",
               "run_splitting_check", "run_vandermonde_check", "run_quotient_check",
               "run_skew_battery", "run_invariance_check", "run_falsifiability_check"),
    "cli": ("main",),
}

SCALAR_OPS = {
    "biquad_mul": ("__mul__", "__rmul__"),
    "biquad_add_sub": ("__add__", "__radd__", "__sub__"),
    "biquad_inverse": ("inverse",),
    "biquad_norm": ("norm",),
}

# span record fields
NAME, JOB, PARENT, START, END, SCALAR_S, MULS = range(7)


def span_names():
    """Every span name the recorder can produce, in report order."""
    names = []
    for module, funcs in LAYERS.items():
        for fn in funcs:
            if fn == "det_exact":
                names += [f"{module}.det_exact.biquad", f"{module}.det_exact.rational"]
            else:
                names.append(f"{module}.{fn}")
    return names


def _det_span_name(args):
    kind = "biquad" if any(isinstance(x, Biquad) for row in args[0] for x in row) else "rational"
    return f"linalg.det_exact.{kind}"


class SpanRecorder:
    """Keeps spans and scalar counters in memory; derives self times from them."""

    def __init__(self):
        self.spans = []
        self.scalar = {op: [0, 0.0, 0.0] for op in SCALAR_OPS}  # calls, total, self
        self.job = None
        self._stack = []      # ids of open spans
        self._sstack = []     # child time of open scalar calls
        self._undo = []

    # -- instrumentation ----------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "qplab" or name.startswith("qplab.")]
        for module, funcs in LAYERS.items():
            defining = sys.modules[f"qplab.{module}"]
            for fn in funcs:
                orig = getattr(defining, fn)
                if fn == "det_exact":
                    wrapped = self._layer_wrapper(_det_span_name, orig)
                else:
                    name = f"{module}.{fn}"
                    wrapped = self._layer_wrapper(lambda args, name=name: name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, attr, orig))
                            setattr(m, attr, wrapped)
        for op, attrs in SCALAR_OPS.items():
            for attr in attrs:
                orig = Biquad.__dict__[attr]
                self._undo.append((Biquad, attr, orig))
                setattr(Biquad, attr, self._scalar_wrapper(op, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _layer_wrapper(self, name_of, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name_of(args), self.job, parent, 0.0, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if stack:
                    spans[stack[-1]][MULS] += rec[MULS]

        return traced

    def _scalar_wrapper(self, op, fn):
        spans, stack, sstack = self.spans, self._stack, self._sstack
        stats = self.scalar[op]
        is_mul = op == "biquad_mul"

        def traced(*args):
            if not stack:
                return fn(*args)
            frame = [0.0]
            sstack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                d = perf_counter() - t0
                sstack.pop()
                stats[0] += 1
                stats[1] += d
                stats[2] += d - frame[0]
                if sstack:
                    sstack[-1][0] += d
                else:
                    spans[stack[-1]][SCALAR_S] += d
                if is_mul:
                    spans[stack[-1]][MULS] += 1

        return traced

    # -- derived numbers ----------------------------------------------------

    def layer_totals(self):
        """{span name: [calls, self seconds, biquad muls, total seconds]}
        derived from the spans.

        Self time is a span's duration minus the time its child spans and the
        scalar operations directly under it cover; total time is the duration.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        totals = {name: [0, 0.0, 0, 0.0] for name in span_names()}
        for i, s in enumerate(self.spans):
            t = totals[s[NAME]]
            t[0] += 1
            t[1] += (s[END] - s[START]) - child[i] - s[SCALAR_S]
            t[2] += s[MULS]
            t[3] += s[END] - s[START]
        return totals

    def per_layer_metrics(self, jobs: int) -> dict:
        """Per-job counts and self times, in the benchmark's metric names."""
        out = {}
        totals = self.layer_totals()
        for name, (calls, self_s, _, total_s) in totals.items():
            out[f"{name}.calls"] = (calls / jobs, "count")
            out[f"{name}.self_s"] = (self_s / jobs, "s")
            if name.startswith("verify."):  # the section mix of a verify-all job
                out[f"{name}.total_s"] = (total_s / jobs, "s")
        for op, (calls, total, self_s) in self.scalar.items():
            out[f"scalars.{op}.calls"] = (calls / jobs, "count")
            out[f"scalars.{op}.self_s"] = (self_s / jobs, "s")
        for op in ("biquad_mul", "biquad_inverse"):
            calls, total, _ = self.scalar[op]
            out[f"scalars.{op}.mean_us"] = (1e6 * total / calls if calls else 0.0, "us")
        det_calls, _, det_muls, _ = totals["linalg.det_exact.biquad"]
        out["linalg.det_exact.biquad.muls_per_call"] = (
            det_muls / det_calls if det_calls else 0.0, "count")
        return out

    def write(self, path):
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "job": s[JOB], "parent": s[PARENT],
                    "start": s[START] - t0, "end": s[END] - t0,
                    "scalar_s": s[SCALAR_S], "biquad_muls": s[MULS],
                }) + "\n")
