"""Self-test of the benchmark's own logic; exits non-zero on failure.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import itertools
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks      # noqa: E402
import run         # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402


def _ops(workload, seed, n_rounds=6):
    return [op for rnd in itertools.islice(workloads.rounds(workload, seed), n_rounds)
            for op in rnd]


def check_same_seed_same_ops():
    for w in workloads.WORKLOADS:
        a, b = _ops(w, 7), _ops(w, 7)
        assert [(o.argv, o.info) for o in a] == [(o.argv, o.info) for o in b], w
        c = _ops(w, 8)
        assert [o.argv for o in a] != [o.argv for o in c], w


def check_rounds_hold_every_combination():
    for w in workloads.WORKLOADS:
        for seed in (1, 2):
            first = None
            for rnd in itertools.islice(workloads.rounds(w, seed), 3):
                mix = sorted((op.kind, tuple(sorted((k, v) for k, v in op.info.items()
                                                    if k in ("alpha", "sigma", "key"))))
                             for op in rnd)
                assert len(set(mix)) == len(mix), w
                assert first is None or mix == first, w
                first = mix


def check_self_times():
    """Self time on a synthetic span tree, driven by a fake clock:
    root(3 + mid + mid + 1), mid(1 + leaf(2) + 0.5 + leaf(1)), and a leaf
    that raises after 0.25."""
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    def failing():
        tick(0.25)
        raise ValueError

    leaf = tracer.span("leaf", tick)
    bad = tracer.span("bad", failing)

    def mid_body():
        tick(1.0)
        leaf(2.0)
        tick(0.5)
        leaf(1.0)
        try:
            bad()
        except ValueError:
            pass
    mid = tracer.span("mid", mid_body)

    def root_body():
        tick(3.0)
        mid()
        mid()
        tick(1.0)
    tracer.span("root", root_body)()

    assert tracer.self_s == {"leaf": 6.0, "bad": 0.5, "mid": 3.0, "root": 4.0}, tracer.self_s
    assert tracer.calls == {"leaf": 4, "bad": 2, "mid": 2, "root": 1}, tracer.calls
    assert tracer.errors == {"bad": 2}, tracer.errors
    spans = {sid: (parent, name, t0, t1) for sid, parent, name, t0, t1 in tracer.spans}
    assert len(spans) == 9
    for sid, (parent, name, t0, t1) in spans.items():
        assert (parent is None) == (name == "root"), (sid, parent, name)
        if parent is not None:
            p0, p1 = spans[parent][2:]
            assert p0 <= t0 <= t1 <= p1, (sid, parent)
    assert spans[0][1:] == ("root", 0.0, 4.0 + 2 * 4.75)


def check_tail_percentile():
    pct, v = run.tail_percentile(list(range(100)))
    assert pct == 90.0 and v == 89, (pct, v)
    pct, v = run.tail_percentile(list(range(11)))
    assert v == 0 and math.isclose(pct, 100 / 11), (pct, v)


def check_references():
    for x in (-3.0, -0.5, 0.0, 2.0):
        assert math.isclose(float(checks.ml_reference(1.0, x)), math.exp(x), rel_tol=1e-14)
        assert math.isclose(float(checks.ml_reference(2.0, x * x)), math.cosh(x), rel_tol=1e-14)
    assert checks.tanh_alpha_reference(1.0, 0.7) == math.tanh(0.7)
    assert math.isclose(checks.tanh_alpha_reference(0.9999999999, 0.7), math.tanh(0.7),
                        rel_tol=1e-8)
    assert checks.tanh_alpha_reference(0.8, -1.3) == -checks.tanh_alpha_reference(0.8, 1.3)


def check_tracer_rebinds_every_alias():
    import twsolve.cli as cli
    import twsolve.solution_verify as sv
    originals = (cli.parse_pde, sv.generalized_fn, sv.ClosedFormSolution.phi)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.parse_pde is not originals[0]
        assert sv.generalized_fn is not originals[1]
        assert sv.ClosedFormSolution.phi is not originals[2]
        assert sys.modules["twsolve.pde_ast"].parse_pde is cli.parse_pde
    finally:
        tracer.uninstall()
    assert (cli.parse_pde, sv.generalized_fn, sv.ClosedFormSolution.phi) == originals


def main():
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("check_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
