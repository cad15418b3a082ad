"""Benchmark worker: one fresh interpreter that imports twsolve, runs a fixed
warm-up op, prints READY, then (unless --setup-only) runs the timed closed
loop in-process and prints one JSON line with its measurements.

Started by run.py, which pins BLAS/OpenMP threads and PYTHONPATH first.
Each op is one call to ``twsolve.cli.main(argv)`` with stdout captured; the
op clock covers that call only, not the output check.  A calibration unit
(calibration.py) is timed at the start, after every CAL_EVERY_S of op time
and at the end; each op's time is also reported scaled by the calibrations
on either side of it.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import mpmath
import numpy

import calibration
import checks
import workloads

CAL_EVERY_S = 0.1


def timed_op(cli, op):
    """Run one op; return its time and its check verdict (None when correct,
    else (known defect or None, reason))."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as e:        # argparse rejected the argv
            rc = e.code if isinstance(e.code, int) else 2
    dt = time.perf_counter() - t0
    verdict = checks.check(op, rc, buf.getvalue())
    if "csv" in op.info:
        with contextlib.suppress(FileNotFoundError):
            os.remove(op.info["csv"])
    return dt, verdict


class Loop:
    """Closed loop, one client: the next op starts after the previous one and
    its check finish."""

    def __init__(self, cli):
        self.cli = cli
        self.latencies = []
        self.segment = []           # index of the calibration before each op
        self.cals = [calibration.calibrate()]
        self._since_cal = 0.0
        self.failed = self.known = 0
        self.unknown = []
        self.known_ids = set()

    def run_op(self, op):
        dt, verdict = timed_op(self.cli, op)
        self.latencies.append(dt)
        if verdict is not None:
            defect, reason = verdict
            self.failed += 1
            if defect is None:
                self.unknown.append(f"{' '.join(op.argv)[:120]}: {reason}")
            else:
                self.known += 1
                self.known_ids.add(defect)
        self.segment.append(len(self.cals) - 1)
        self._since_cal += dt
        if self._since_cal >= CAL_EVERY_S:
            self.cals.append(calibration.calibrate())
            self._since_cal = 0.0
        return dt

    def scaled_latencies(self):
        """Op times scaled to the reference machine speed, using the mean of
        the calibrations just before and just after each op."""
        if self.segment and self.segment[-1] == len(self.cals) - 1:
            self.cals.append(calibration.calibrate())
        ref = calibration.CAL_REF_S
        return [dt * ref / ((self.cals[i] + self.cals[i + 1]) / 2)
                for dt, i in zip(self.latencies, self.segment)]


def run_rounds(loop, rounds, seconds):
    """Run whole rounds until the summed op time, scaled by the latest
    calibration, reaches `seconds`, so a slow spell of the machine does not
    shorten the op sample."""
    busy = 0.0
    ops = []
    for rnd in rounds:
        for op in rnd:
            scale = calibration.CAL_REF_S / loop.cals[-1]
            busy += loop.run_op(op) * scale
            ops.append(op)
        if busy >= seconds:
            return ops


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import twsolve.cli as cli
    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"twsolve imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    _, verdict = timed_op(cli, workloads.warmup_op(args.workload, args.tmp))
    if verdict is not None and verdict[0] is None:
        print(f"warm-up op failed: {verdict[1]}", file=sys.stderr)
        return 1
    sys.__stdout__.write("READY\n")
    sys.__stdout__.flush()
    setup_cal_s = calibration.calibrate_median()
    if args.setup_only:
        sys.__stdout__.write(json.dumps({"setup_cal_s": setup_cal_s}) + "\n")
        return 0

    loop = Loop(cli)
    result = {"workload": args.workload, "setup_cal_s": setup_cal_s,
              "versions": {"numpy": numpy.__version__, "mpmath": mpmath.__version__}}
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            ops = run_rounds(loop, workloads.rounds(args.workload, args.seed, args.tmp),
                             args.seconds)
        finally:
            tracer.uninstall()
        # Replay the same ops untraced: the ratio is the tracing overhead.
        plain = Loop(cli)
        for op in ops:
            plain.run_op(op)
        spans_path = os.path.join(os.path.dirname(args.tmp),
                                  f"spans-{args.workload}-{args.seed}.csv")
        tracer.write_spans(spans_path)
        layer = tracer.metrics()
        layer["trace.traced_ops_per_s"] = (len(ops) / sum(loop.scaled_latencies()), "op/s")
        layer["trace.untraced_ops_per_s"] = (len(ops) / sum(plain.scaled_latencies()), "op/s")
        result["layers"] = layer
        result["spans_file"] = os.path.relpath(spans_path)
        result["spans_kept"] = len(tracer.spans)
        result["spans_dropped"] = tracer.spans_dropped
        missing = [m for m in REQUIRED_NONZERO[args.workload] if not layer[m][0]]
        if missing:
            loop.unknown.append(f"layers with zero calls on {args.workload}: {missing}")
        loop.unknown.extend(plain.unknown)
    else:
        ops = run_rounds(loop, workloads.rounds(args.workload, args.seed, args.tmp),
                         args.seconds)
    result.update({
        "latencies_s": loop.latencies,
        "scaled_latencies_s": loop.scaled_latencies(),
        "calibrations": len(loop.cals),
        "calibration_median_s": statistics.median(loop.cals),
        "attempted": len(ops),
        "failed": loop.failed,
        "failed_known_defects": loop.known,
        "known_defects_seen": sorted(loop.known_ids),
        "unknown_failures": loop.unknown[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "xi_distinct_share": workloads.xi_distinct_share(ops),
        "abs_xi_distinct_share": workloads.xi_distinct_share(ops, abs),
        "op_mix": _op_mix(ops),
    })
    sys.__stdout__.write(json.dumps(result) + "\n")
    sys.__stdout__.flush()
    return 0


# The layers each workload must reach (calls > 0) in a traced run, so a
# missed alias cannot silently zero a layer.
REQUIRED_NONZERO = {
    "symbolic": [
        "pde_ast.parse_pde.calls", "travelling_wave.reduce.calls",
        "travelling_wave.integrate_decay.calls", "phi_calculus.balance_degree.calls",
        "phi_calculus.substitute_ansatz.calls", "algebra_system.extract_system.calls",
        "algebra_system.solve_triangular.calls", "algebra_system.solve_triangular.branches",
        "solution_verify.construct_solutions.calls", "solution_verify.residual_pde.calls",
        "rational_poly.Poly.mul.calls", "cli.main.calls",
    ],
    "figure": [
        "cli.main.calls", "solution_verify.construct_solutions.calls",
        "solution_verify.ClosedFormSolution.phi.calls", "special_fn.generalized_fn.calls",
        "special_fn.mittag_leffler.calls",
    ],
    "fractional": [
        "solution_verify.residual_fractional.calls", "special_fn.jumarie_quadrature.calls",
        "special_fn.jumarie_quadrature.integrand_calls", "special_fn.mittag_leffler.calls",
        "special_fn.generalized_fn.calls", "solution_verify.ClosedFormSolution.phi.calls",
    ],
}


def _op_mix(ops):
    mix = {}
    for op in ops:
        label = op.kind + (f" sigma={op.info['sigma']:+d}" if "sigma" in op.info else "")
        mix[label] = mix.get(label, 0) + 1
    return mix


if __name__ == "__main__":
    sys.exit(main())
