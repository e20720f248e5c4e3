"""Tests of the benchmark itself: every metric is emitted with its unit, and
wrong program outputs count as failed jobs.

Run from the repository root: ``python3 -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import qplab  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(res):
    return json.loads(res.stdout.strip().splitlines()[-1])


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_end_to_end_metric(workload):
    res = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert res.returncode == 0, res.stdout + res.stderr
    out = _result(res)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert _units(out) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())
    for m in SPEC["end_to_end"]:
        assert f"{m['name']} = " in res.stdout
    assert "fail_ratio = 0 fraction" in res.stdout


def test_traced_run_emits_every_per_layer_metric():
    res = _bench("--workload", "rational_invariants", "--seed", "3",
                 "--seconds", "1", "--trace", "1")
    assert res.returncode == 0, res.stdout + res.stderr
    out = _result(res)
    assert _units(out) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    value = {name: m["value"] for name, m in out["metrics"].items()}
    for op in spans.SCALAR_OPS:
        assert value[f"scalars.{op}.calls"] == 0
    assert value["linalg.det_exact.rational.calls"] > 0
    assert value["trace.overhead_ratio"] > 0


def test_traced_fibration_counts_biquad_muls_per_determinant():
    res = _bench("--workload", "fibration_g4", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert res.returncode == 0, res.stdout + res.stderr
    value = {name: m["value"] for name, m in _result(res)["metrics"].items()}
    muls = value["linalg.det_exact.biquad.muls_per_call"]
    assert muls > 0 and muls == int(muls)
    assert value["linalg.det_exact.rational.calls"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = _bench("--workload", "rational_invariants", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""


def test_perturbed_phi_component_fails_the_job(monkeypatch):
    real = qplab.phi_X

    def perturbed(x, xi):
        val = real(x, xi)
        val.components[0] = val.components[0] + 1
        return val

    monkeypatch.setattr(qplab, "phi_X", perturbed)
    phase = run.run_jobs(workloads.FibrationG4(seed=5), seconds=0.1, limit=1)
    assert len(phase.failures) == 1
    assert "moment identity" in phase.failures[0]


def test_wrong_fh_digest_fails_the_job():
    wl = workloads.FibrationG4(seed=5, digests=["0" * 16] * workloads.FibrationG4.POOL_SIZE)
    phase = run.run_jobs(wl, seconds=0.1, limit=1)
    assert len(phase.failures) == 1
    assert "digest" in phase.failures[0]


def _corrupt(kind, out):
    if kind == "pfaffian":
        pf, det = out
        return pf, det + 1
    if kind == "rank2":
        coeffs, decomposition = out
        return (coeffs[0], coeffs[1] + 1) + coeffs[2:], decomposition
    return [2 * out[0]] + out[1:]


def test_rational_checks_reject_wrong_outputs():
    wl = workloads.RationalInvariants(seed=2)
    for k in range(3):
        inp = wl.make_input(k)
        out = wl.run(inp)
        wl.check(inp, out)
        with pytest.raises(workloads.CheckFailed):
            wl.check(inp, _corrupt(inp[0], out))


def test_verify_all_checks_reject_failed_or_changed_reports(monkeypatch):
    wl = workloads.VerifyAllG2(seed=1)
    with pytest.raises(workloads.CheckFailed):
        wl.check(0, (1, '{"pass": true}'))
    with pytest.raises(workloads.CheckFailed):
        wl.check(0, (0, '{"pass": false}'))
    monkeypatch.setattr(wl, "run", lambda seed: (0, '{"pass": true}\n'))
    with pytest.raises(workloads.CheckFailed):
        wl.repeat_check(0, (0, '{"pass": true}'))


def test_recorder_counts_nested_biquad_muls_and_restores_qplab():
    ctx = qplab.BiquadContext(2, 3)
    m = [[ctx.element(i + 1, j, 1, i * j + 1) for j in range(3)] for i in range(3)]
    original_det, original_mul = qplab.det_exact, qplab.Biquad.__mul__
    rec = spans.SpanRecorder()
    rec.install()
    try:
        m[0][0] * m[1][1]  # outside any span: not counted
        qplab.det_exact(m)
    finally:
        rec.uninstall()
    assert qplab.det_exact is original_det and qplab.Biquad.__mul__ is original_mul
    totals = rec.layer_totals()
    # 3x3 cofactor expansion: three products of an entry with a 2x2 minor
    # that itself takes two products
    assert totals["linalg.det_exact.biquad"][0] == 1
    assert totals["linalg.det_exact.biquad"][2] == 9
    assert rec.scalar["biquad_mul"][0] == 9


def test_self_time_excludes_child_spans_and_scalar_time():
    rec = spans.SpanRecorder()
    # name, job, parent, start, end, scalar_s, biquad muls
    rec.spans = [["cli.main", 0, -1, 0.0, 10.0, 1.0, 5],
                 ["verify.run_skew_battery", 0, 0, 2.0, 6.0, 0.5, 3]]
    totals = rec.layer_totals()
    assert totals["cli.main"][:2] == [1, 5.0]
    assert totals["verify.run_skew_battery"][:2] == [1, 3.5]
    assert totals["verify.run_skew_battery"][3] == 4.0
    metrics = rec.per_layer_metrics(jobs=2)
    assert metrics["verify.run_skew_battery.total_s"] == (2.0, "s")
    assert "cli.main.total_s" not in metrics


def test_host_sampler_scales_jobs_and_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSampler() as host:
        assert host.take()[0] >= hostspeed.UNIT  # samples when none arrived yet
        paused = host.paused
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 10 * hostspeed.INTERVAL_S:
            pass
        done, seconds = host.take()
        assert done >= 5 * hostspeed.UNIT and seconds > 0
        assert host.paused - paused == pytest.approx(seconds)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert hostspeed.scale(int(hostspeed.RATE), 1.0) == 1.0


def test_job_latency_leaves_out_the_samples_and_is_scaled_per_slice():
    class Busy:
        def make_input(self, k):
            return k

        def run(self, inp):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.2:
                pass

        def check(self, inp, out):
            pass

    phase = run.run_jobs(Busy(), seconds=10, limit=5)
    assert len(phase.latencies) == len(phase.ref) == 5
    assert len(phase.scales) == 2  # slices of at least REF_SLICE_S of job time
    assert all(x < 0.2 for x in phase.latencies)  # sample time taken out
    assert all(r == pytest.approx(x * phase.scales[i // 3])
               for i, (x, r) in enumerate(zip(phase.latencies, phase.ref)))


def test_tail_latency_needs_ten_jobs_beyond_the_percentile():
    assert run.tail_latency(list(range(1, 101))) == (90, 90.0)
    assert run.tail_latency(list(range(1, 1001))) == (990, 99.0)
    assert run.tail_latency([5.0, 1.0, 3.0]) == (5.0, 100.0)


def test_inputs_depend_only_on_the_seed():
    a, b = workloads.RationalInvariants(7), workloads.RationalInvariants(7)
    assert [a.make_input(k) for k in range(6)] == [b.make_input(k) for k in range(6)]
    assert workloads.FibrationG4(7).order == workloads.FibrationG4(7).order
    assert workloads.FibrationG4(7).order != workloads.FibrationG4(8).order
    assert workloads.VerifyAllG2(7).make_input(1) == workloads.VerifyAllG2(7).base + 1
