"""Benchmark the diracbeams command line end to end, or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the repository root against the sources in ``src/``.  Requests
from the seeded workload (perfbench/workloads.py) go through
``diracbeams.cli.main`` in this process, on one thread with BLAS pinned to
one thread, a closed loop of one client.  Each request is timed on its own
and its time scaled to a reference machine speed (see CAL_REF_S); its output
is checked outside the timed region (perfbench/gate.py), and a request that
raises or fails its check counts as failed.  Rounds run until the raw timed
total reaches S seconds.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same requests
twice, untraced and then with span tracing (perfbench/tracing.py), and
reports the per-layer metrics and the tracing overhead; the spans are
written to .bench_out/.  The last stdout line is the result object; the
line before it holds the run metadata.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads, so pin it before any import.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 9
SETUP_PROBE = ("import time; t = time.perf_counter(); import diracbeams; "
               "print(time.perf_counter() - t)")

# Machine-speed calibration.  On a shared host the speed of one core can
# swing twofold within a minute, and a median over one run cannot remove a
# slowdown that lasts the whole run.  So a fixed kernel that does not touch
# diracbeams is timed before and after every request (and every set-up
# probe), and each wall time is scaled by CAL_REF_S over the mean of the two
# kernel times: to the speed at which the kernel takes CAL_REF_S.  The raw
# wall-time figures are kept in the run metadata.
CAL_REF_S = 1.5e-3
_CAL_VEC = np.arange(1.0, 65.0)
_CAL_GRID = np.linspace(1.0, 1000.0, 4096).astype(np.longdouble)


def _calibration_kernel():
    """Fixed work of the program's two kinds: small numpy calls driven by
    the interpreter, and a longdouble three-term recurrence over an array."""
    acc = 0.0
    for k in range(120):
        acc += float(np.dot(_CAL_VEC, _CAL_VEC * k))
    inv = 1 / _CAL_GRID
    jp, jc = np.zeros_like(inv), np.full_like(inv, 1e-30)
    for m in range(24, 0, -1):
        jp, jc = jc, (2 * m) * inv * jc - jp
    return acc + float(jc[0])


def calibrate():
    """Median seconds of three runs of the calibration kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds, cal_before, cal_after):
    """Wall time rescaled to the reference machine speed."""
    return seconds * CAL_REF_S / (0.5 * (cal_before + cal_after))


def parse_args(argv=None):
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_seconds():
    """Median scaled time to import diracbeams in a fresh interpreter, and
    the raw samples."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, samples = [], []
    for _ in range(SETUP_PROBES):
        cal_before = calibrate()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        raw.append(float(done.stdout))
        samples.append(scaled(raw[-1], cal_before, calibrate()))
    return statistics.median(samples), raw


class Phase:
    """Requests run in one phase, with their timings and gate verdicts."""

    def __init__(self):
        self.rounds = []
        self.latencies = []         # scaled seconds of the passing requests
        self.raw_latencies = []
        self.calibrations = []
        self.failures = []
        self.attempted = 0
        self.timed_s = 0.0          # raw wall seconds inside cli.main
        self.scaled_s = 0.0
        self.bytes_out = 0

    @property
    def ok(self):
        return self.attempted - len(self.failures)


def run_request(cli, argv):
    """(exit code or error text, seconds, stdout) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as exc:  # a request that raises counts as failed
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - t0, out.getvalue()


def run_round(cli, rnd, phase, check, after_request=None):
    """Run one round of requests, timing each and gating its output."""
    phase.rounds.append(rnd)
    cal_before = calibrate()
    for argv in rnd:
        rc, dt, out = run_request(cli, argv)
        cal_after = calibrate()
        dt_scaled = scaled(dt, cal_before, cal_after)
        cal_before = cal_after
        phase.calibrations.append(cal_after)
        phase.attempted += 1
        phase.timed_s += dt
        phase.scaled_s += dt_scaled
        phase.bytes_out += len(out.encode())
        reason = check(argv, rc, out)
        if reason is None:
            phase.latencies.append(dt_scaled)
            phase.raw_latencies.append(dt)
        else:
            phase.failures.append({"argv": argv, "reason": reason})
        if after_request is not None:
            after_request()


def end_to_end(cli, workload, seed, seconds, check):
    from perfbench.workloads import rounds

    setup, setup_samples = setup_seconds()
    rss_before = peak_rss_mb()
    phase = Phase()
    for rnd in rounds(workload, seed):
        run_round(cli, rnd, phase, check)
        if phase.timed_s >= seconds:
            break
    # A run in which no request passes reports its timed total as latency.
    lat_ms = sorted(1e3 * x for x in phase.latencies) or [1e3 * phase.scaled_s]
    raw_ms = sorted(1e3 * x for x in phase.raw_latencies) or [0.0]
    p90 = float(np.percentile(lat_ms, 90))
    metrics = {
        "setup_s": (setup, "s"),
        "jobs_per_s": (phase.ok / phase.scaled_s, "1/s"),
        "job_ms_p50": (float(statistics.median(lat_ms)), "ms"),
        "job_ms_p90": (p90, "ms"),
        "ok_frac": (phase.ok / phase.attempted, "1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "raw": {
            "setup_s": statistics.median(setup_samples),
            "jobs_per_s": phase.ok / phase.timed_s,
            "job_ms_p50": float(statistics.median(raw_ms)),
            "job_ms_p90": float(np.percentile(raw_ms, 90)),
        },
        "setup_s_raw_samples": setup_samples,
        "calibration_s": calibration_summary(phase.calibrations),
        "rss_before_requests_mb": rss_before,
        "latency_samples": len(phase.latencies),
        "samples_above_p90": sum(x > p90 for x in lat_ms),
    }
    return phase, metrics, extra


def per_layer(cli, workload, seed, seconds, check):
    from perfbench import gate, tracing
    from perfbench.workloads import rounds

    recorder = tracing.SpanRecorder()
    bessel_err = [0.0]
    ratios = []

    def diagnose():
        for name, fn, args, kwargs, out in recorder.captured:
            if name == "bessel.bessel_j_orders":
                bessel_err.append(gate.bessel_abs_err(fn, args, kwargs, out))
            else:
                ratios.append(gate.err_bar_ratio(args[0], out))
        recorder.captured.clear()
        recorder.request_id += 1

    # Each round runs untraced and then traced, back to back, so that slow
    # drifts in machine speed fall on both sides of trace.overhead_frac.
    plain, traced = Phase(), Phase()
    recorder.request_id = 0
    for rnd in rounds(workload, seed):
        run_round(cli, rnd, plain, check)
        patches = tracing.install(recorder)
        try:
            run_round(cli, rnd, traced, check, after_request=diagnose)
        finally:
            tracing.uninstall(patches)
        if plain.timed_s >= seconds / 2.0:
            break

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
    recorder.save(spans_path)

    t = tracing.layer_totals(recorder)
    n = traced.attempted
    bessel, foldy = t["bessel"], t["foldy"]
    metrics = {
        "bessel.calls": (bessel["entries"] / n, "count/req"),
        "bessel.values": (bessel["work"] / n, "count/req"),
        "bessel.self_s": (bessel["self_s"] / n, "s/req"),
        "bessel.ns_per_value": (
            1e9 * bessel["self_s"] / bessel["work"] if bessel["work"] else 0.0,
            "ns"),
        "bessel.max_abs_err": (max(bessel_err), "1"),
        "foldy.kernel_calls": (foldy["kernel_calls"] / n, "count/req"),
        "foldy.self_s": (foldy["self_s"] / n, "s/req"),
        "foldy.us_per_kernel_call": (
            1e6 * foldy["kernel_s"] / foldy["kernel_calls"]
            if foldy["kernel_calls"] else 0.0, "us"),
        "beams.field_points": (t["beams"]["work"] / n, "count/req"),
        "beams.self_s": (t["beams"]["self_s"] / n, "s/req"),
        "dirac.calls": (t["dirac"]["entries"] / n, "count/req"),
        "dirac.self_s": (t["dirac"]["self_s"] / n, "s/req"),
        "linear_density.calls": (t["linear_density"]["entries"] / n,
                                 "count/req"),
        "linear_density.self_s": (t["linear_density"]["self_s"] / n, "s/req"),
        "linear_density.err_bar_ratio": (
            statistics.median(ratios) if ratios else 0.0, "ratio"),
        "validation.checks": (t["validation"]["work"] / n, "count/req"),
        "validation.self_s": (t["validation"]["self_s"] / n, "s/req"),
        "cli.requests": (t["cli"]["spans"], "count"),
        "cli.self_s": (t["cli"]["self_s"] / n, "s/req"),
        "cli.bytes_out": (traced.bytes_out / n, "B/req"),
        "trace.overhead_frac": (traced.scaled_s / plain.scaled_s - 1.0,
                                "ratio"),
    }
    extra = {
        "untraced_timed_s": plain.timed_s,
        "traced_timed_s": traced.timed_s,
        "calibration_s": calibration_summary(plain.calibrations
                                             + traced.calibrations),
        "spans": len(recorder.end),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "traced_names": sorted(set(recorder.names)),
        "layer_totals": t,
        "err_bar_ratio_samples": ratios,
    }
    phase = Phase()
    for part in (plain, traced):
        phase.rounds += part.rounds
        phase.attempted += part.attempted
        phase.failures += part.failures
    return phase, metrics, extra


def calibration_summary(times):
    return {"reference": CAL_REF_S, "median": statistics.median(times),
            "min": min(times), "max": max(times)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    """HEAD commit when the checkout is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "diracbeams").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(args, phase, extra):
    from perfbench.workloads import WORKLOADS

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "rounds": len(phase.rounds),
        "attempted": phase.attempted,
        "failed": len(phase.failures),
        "requests_by_command": dict(Counter(
            argv[0] for rnd in phase.rounds for argv in rnd)),
        "ranges": {k: {"range": v[0], "why": v[1]}
                   for k, v in WORKLOADS[args.workload].ranges.items()},
        "failures": phase.failures[:5],
        **extra,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "diracbeams" / "__init__.py").is_file():
        print(f"perfbench: no diracbeams sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from diracbeams import cli

    from perfbench import gate
    from perfbench.workloads import WORKLOADS

    if Path(cli.__file__).resolve().parent != SRC / "diracbeams":
        print(f"perfbench: imported diracbeams from {cli.__file__}",
              file=sys.stderr)
        return 2
    if args.workload == "profile" or args.trace:
        import scipy.special  # noqa: F401  the gate's reference, loaded untimed
    for argv in WORKLOADS[args.workload].warmup:
        run_request(cli, argv)

    measure = per_layer if args.trace else end_to_end
    phase, metrics, extra = measure(cli, args.workload, args.seed,
                                    args.seconds, gate.check)
    print(json.dumps({"metadata": metadata(args, phase, extra)}))
    print(json.dumps({
        "correct": not phase.failures,
        "attempted": phase.attempted,
        "failed": len(phase.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
