"""twsolve benchmark.

    python3 perfbench/run.py --workload {symbolic,figure,fractional} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; twsolve is imported from ./src.
Workloads, metrics and their rationale are described in perfbench/README.md.

The launcher starts fresh worker interpreters with BLAS/OpenMP threads
pinned to 1.  Set-up time is measured SETUP_SAMPLES times (interpreter
start, imports and one fixed warm-up op) and its median reported; the last
worker goes on to run the closed loop.  Every reported time is scaled to
the reference machine speed by calibration.py.  With --trace 0 the last
line of stdout holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  The line before it is a JSON report with the
environment record, the sample counts and the raw wall-clock figures.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from calibration import CAL_REF_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0

THREAD_PINS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def _worker_env():
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(args, tmp, setup_only, deadline):
    """Start a worker; return (setup seconds, its last output line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", SRC, "--tmp", tmp]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "READY":
            raise BenchError(f"worker did not become ready: {ready!r}")
        lines = proc.stdout.read().splitlines()
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if rc != 0:
            raise BenchError(f"worker exited with code {rc}")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if not lines:
        raise BenchError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def tail_percentile(values):
    """The highest percentile with at least 10 samples beyond it, as
    (percentile, value)."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        raise BenchError(f"{n} samples, need 11 for a tail percentile")
    return 100.0 * (n - 10) / n, xs[n - 11]


def environment(args, versions):
    import platform
    env = {"python": platform.python_version(), **versions,
           "platform": platform.platform(), "nproc": os.cpu_count(),
           "seed": args.seed,
           "TWSOLVE_PRECISION": os.environ.get("TWSOLVE_PRECISION", "unset (30)"),
           "thread_pins": THREAD_PINS}
    if hasattr(os, "sched_getaffinity"):
        env["affinity_cpus"] = len(os.sched_getaffinity(0))
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "twsolve", "cli.py")):
        print(f"no twsolve sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        samples = 1 if args.trace else SETUP_SAMPLES
        setups = [_spawn(args, tmp, True, deadline) for _ in range(samples - 1)]
        setups.append(_spawn(args, tmp, False, deadline))
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    res = setups[-1][1]
    raw_setup = [t for t, _ in setups]
    setup = [t * CAL_REF_S / r["setup_cal_s"] for t, r in setups]
    raw = res.pop("latencies_s")
    lat = res.pop("scaled_latencies_s")
    report = {
        "environment": environment(args, res.pop("versions")),
        "workload": args.workload, "trace": args.trace,
        "samples": {"ops": len(lat), "setup": len(setups)},
        "setup_s_samples": setup,
        "raw_setup_s_samples": raw_setup,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "error_rate": res["failed"] / res["attempted"],
        **{k: v for k, v in res.items() if k not in ("layers", "workload")},
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
        t, u = metrics["trace.traced_ops_per_s"]["value"], metrics["trace.untraced_ops_per_s"]["value"]
        report["tracing_overhead"] = u / t - 1.0
    else:
        try:
            pct, tail = tail_percentile(lat)
        except BenchError as e:
            print(f"benchmark failed: {e}", file=sys.stderr)
            return 1
        report["latency_tail_percentile"] = pct
        report["raw_latency_tail_ms"] = tail_percentile(raw)[1] * 1e3
        metrics = {
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "op/s"},
            "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "success_rate": {"value": 1.0 - res["failed"] / res["attempted"],
                             "unit": "fraction"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps(report))
    print(json.dumps({"correct": not res["unknown_failures"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
