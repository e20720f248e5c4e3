"""qplab benchmark: one command per workload, end-to-end or traced metrics.

Run from the repository root:

    python3 bench/run.py --workload fibration_g4 --seed 1 --seconds 35 --trace 0

Each workload is a single-threaded closed loop in this process: the next job
starts when the previous one ends.  Inputs come from --seed only.  Every job
output is checked.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it show the same
numbers for a reader.  A results file with the environment goes to
bench/results/.  See bench/README.md.

Timings in the result line are in reference seconds: job times are scaled
by how fast the host ran while the jobs ran (see hostspeed.py), set-up times
by reference set-up probes (see ``measure_setup``).  Wall-clock figures are
printed and stored beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 9
REF_PROBE_S = 0.15  # reference seconds in one reference set-up probe
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
REF_SLICE_S = 0.5  # job time per host-speed slice


class Phase:
    """Latencies, failures and outputs of one closed-loop pass over the jobs."""

    def __init__(self):
        self.latencies = []
        self.ref = []  # each latency in reference seconds
        self.cpu = []  # process CPU time of each timed job
        self.scales = []  # reference seconds per wall second, per slice
        self.failures = []
        self.first_output = None


def run_jobs(wl, seconds, limit=None, recorder=None):
    """Run jobs 0, 1, ... until the next one would end after `seconds`.

    At least one job runs.  Only ``wl.run`` is timed, in wall time and in
    process CPU time, less the time of host-speed samples taken during it.
    A job that raises or fails its check is recorded in ``failures``; the
    output of job 0 is kept when it passed.  Jobs are grouped into slices of
    at least REF_SLICE_S of job time (a long job is a slice of its own), and
    each slice is scaled to reference seconds by the samples taken during it.
    """
    phase = Phase()
    lat = phase.latencies
    start = time.perf_counter()
    with hostspeed.HostSampler() as host:

        def close_slice():
            phase.scales.append(hostspeed.scale(*host.take()))
            phase.ref.extend(x * phase.scales[-1] for x in lat[len(phase.ref):])

        k = 0
        while limit is None or k < limit:
            if lat and time.perf_counter() - start + sum(lat) / len(lat) > seconds:
                break
            inp = wl.make_input(k)
            if recorder is not None:
                recorder.job = k
            stage = "run"
            paused = host.paused
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out = wl.run(inp)
                lat.append(time.perf_counter() - t0 - (host.paused - paused))
                phase.cpu.append(time.process_time() - c0 - (host.paused - paused))
                stage = "check"
                wl.check(inp, out)
                if k == 0:
                    phase.first_output = out
            except Exception as exc:  # a failing job is counted, the loop goes on
                if stage == "run":
                    lat.append(time.perf_counter() - t0 - (host.paused - paused))
                    phase.cpu.append(time.process_time() - c0 - (host.paused - paused))
                phase.failures.append(
                    f"job {k} {stage}: {type(exc).__name__}: {exc}\n"
                    + traceback.format_exc(limit=-3))
            if sum(lat[len(phase.ref):]) >= REF_SLICE_S:
                close_slice()
            k += 1
        if len(phase.ref) < len(lat):
            close_slice()
    return phase


def tail_latency(latencies_ms):
    """(value, percentile): the highest of TAIL_PERCENTILES with at least ten
    jobs beyond it, by nearest rank; the maximum (percentile 100) when the
    run has too few jobs for any of them."""
    s = sorted(latencies_ms)
    n = len(s)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return s[rank - 1], p
    return s[-1], 100.0


def _ready_time(cmd) -> float:
    """Wall time from starting `cmd` until it prints its first line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe {cmd[1:3]} failed (exit {code})")
    return t1 - t0


def measure_setup(workload, seed):
    """Median time from starting a fresh interpreter until it is ready to run
    job 0 (imports, workload set-up, first input), over SETUP_PROBES.

    Returns (median in reference seconds, wall samples, scales).  Set-up is
    mostly loading modules, which the host's speed reaches differently from
    arithmetic, so it is not scaled by host-speed samples.  Each probe is
    scaled instead by reference probes just before and after it: a fresh
    interpreter that imports numpy, one of qplab's dependencies, which no
    qplab change can make faster or slower.  A reference probe defines
    REF_PROBE_S reference seconds.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    ref_cmd = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
    wall, scales = [], []
    before = _ready_time(ref_cmd)
    for _ in range(SETUP_PROBES):
        wall.append(_ready_time(cmd))
        after = _ready_time(ref_cmd)
        scales.append(2 * REF_PROBE_S / (before + after))
        before = after
    return statistics.median(w * s for w, s in zip(wall, scales)), wall, scales


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def environment():
    import numpy
    import qplab

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scalars_backend": "gmpy2" if "gmpy2" in sys.modules else "fraction",
        "nproc": os.cpu_count(),
        "QPLAB_THREADS": os.environ.get("QPLAB_THREADS"),
        "git_commit": git_commit(),
        "qplab_version": qplab.__version__,
        "platform": platform.platform(),
    }


def latency_metrics(latencies_s):
    """jobs_per_s, job_p50_ms, job_tail_ms and the tail's percentile."""
    lat_ms = [1000 * x for x in latencies_s]
    tail, pct = tail_latency(lat_ms)
    return {"jobs_per_s": (len(lat_ms) / sum(latencies_s), "jobs/s"),
            "job_p50_ms": (statistics.median(lat_ms), "ms"),
            "job_tail_ms": (tail, "ms")}, pct


def end_to_end(wl, args, record):
    setup_s, setup_wall, setup_scales = measure_setup(wl.name, args.seed)
    phase = run_jobs(wl, args.seconds)
    wall, pct = latency_metrics(phase.latencies)
    metrics, _ = latency_metrics(phase.ref)
    metrics = {"setup_s": (setup_s, "s"), **metrics,
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    wall["setup_s"] = (statistics.median(setup_wall), "s")
    record.update(setup_wall_s=setup_wall, setup_scales=setup_scales,
                  latencies_ms=[1000 * x for x in phase.latencies],
                  cpu_ms=[1000 * x for x in phase.cpu], scales=phase.scales,
                  job_tail={"percentile": pct, "jobs": len(phase.latencies)},
                  wall_metrics={k: {"value": v, "unit": u} for k, (v, u) in wall.items()})
    notes = {name: f"wall {v:.6g} {u}" for name, (v, u) in wall.items()}
    notes["job_tail_ms"] += f"; p{pct:g} of {len(phase.latencies)} jobs"
    return [phase], metrics, notes


def traced(wl, args, record):
    """Half the time untraced, then the same jobs traced for the other half."""
    import spans

    plain = run_jobs(wl, args.seconds / 2)
    rec = spans.SpanRecorder()
    rec.install()
    try:
        with_trace = run_jobs(wl, args.seconds / 2, limit=len(plain.latencies),
                              recorder=rec)
    finally:
        rec.uninstall()
    m = len(with_trace.latencies)
    metrics = rec.per_layer_metrics(m)
    metrics["trace.overhead_ratio"] = (sum(plain.ref[:m]) / sum(with_trace.ref[:m]), "ratio")
    path = RESULTS / f"{wl.name}-seed{args.seed}-spans.jsonl"
    rec.write(path)
    record.update(traced_jobs=m, spans_file=str(path.relative_to(ROOT)),
                  spans=len(rec.spans))
    return [plain, with_trace], metrics, {}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return ap, args


def main(argv=None) -> int:
    ap, args = parse_args(argv)
    if not (SRC / "qplab" / "__init__.py").is_file():
        print(f"bench: no qplab source under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("QPLAB_THREADS", "1") not in ("", "1"):
        print("bench: workloads are single-threaded; unset QPLAB_THREADS", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        wl.make_input(0)
        print("ready", flush=True)
        return 0

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    phases, metrics, notes = (traced if args.trace else end_to_end)(wl, args, record)
    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    first_output = phases[0].first_output
    if hasattr(wl, "repeat_check") and first_output is not None:
        attempted += 1
        try:
            wl.repeat_check(wl.make_input(0), first_output)
        except Exception as exc:  # counted like any failing job
            failures.append(f"repeat of job 0: {type(exc).__name__}: {exc}")
    fail_ratio = len(failures) / attempted

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"jobs {attempted}  failed {len(failures)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    print(f"  fail_ratio = {fail_ratio:.6g} fraction")
    for f in failures:
        print(f"  FAILED {f.splitlines()[0]}")

    record.update(attempted=attempted, failed=len(failures), fail_ratio=fail_ratio,
                  failures=failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    out = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
