"""Acceptance gate: the nine release criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to stream the lines).
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from twsolve import (
    jumarie_power_rule, jumarie_quadrature, mittag_leffler,
    residual_fractional, residual_ode, residual_pde,
)
from twsolve.cli import main as cli_main
from twsolve.rational_poly import Poly

from oracles import solve_numeric
from conftest import (
    run_pipeline, TOY_DSL, SWW_DSL, KP_DSL, BSQ_DSL, SWW_FRAC_DSL,
    KP_FRAC_DSL, BSQ_FRAC_DSL,
)

MODULE_START = time.time()
BSQ_C = 5 ** 0.5


def report(n, ok, detail):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def tanh_sol(d, params, **kw):
    sols = d.solutions(d.branches[0], params, **kw)
    return next(s for s in sols if s.family == "Tanh")


def test_criterion_1_toy_pipeline():
    t0 = time.time()
    d = run_pipeline(TOY_DSL)
    (b,) = d.branches
    exact = (str(b.assignments["a0"]) == "0" and
             str(b.assignments["a1"]) == "-2*k^2 / c")
    s = tanh_sol(d, {"k": 1, "c": 2})
    rep = residual_pde(s, d.definition)
    elapsed = time.time() - t0
    report(1, exact and rep.max_abs < 1e-10 and elapsed < 1.0,
           f"toy a0=0, a1=-2k^2/c exact; residual {rep.max_abs:.2e} < 1e-10; "
           f"{elapsed:.2f}s < 1s")


def test_criterion_2_sww():
    d = run_pipeline(SWW_DSL, integrate=1)
    (b,) = d.branches
    exact = str(b.assignments["a1"]) == "12*k*m / (c*p + c*q)"
    constraint = [str(c) for c in b.constraints] == ["4*k^2*m - c - k"]
    s = tanh_sol(d, {"k": 1, "m": 1, "c": 3, "p": 1, "q": 1})
    rep = residual_pde(s, d.definition)
    report(2, exact and constraint and rep.max_abs < 1e-9,
           f"a1=12km/(c(p+q)) exact; constraint (c+k)-4k^2m; "
           f"figure-1 residual {rep.max_abs:.2e} < 1e-9")


def test_criterion_3_kp():
    d = run_pipeline(KP_DSL, integrate=2)
    (b,) = d.branches
    exact = (str(b.assignments["a2"]) == "-2*k^2" and
             str(b.assignments["a0"]) == "(4/3*k^4 - 1/6*c*k + 1/6*m^2) / k^2")
    # phi^0 constraint is the a0-quadratic: q(a0) = -(1/12) * emitted constraint
    num, den = b.assignments["a0"].num, b.assignments["a0"].den
    k2 = Poly.var("k", 2)
    q = Poly.const(3) * num ** 2 - Poly.const(8) * k2 * num * den \
        + Poly.const(4) * k2 ** 2 * den ** 2
    quad_ok = q == Poly.const(Fraction(-1, 12)) * b.constraints[0]
    roots = solve_numeric(d.system, {"k": 1, "m": 1})
    found = sorted((r["a0"], r["c"]) for r in roots)
    want = sorted([(2 / 3, 5.0), (2.0, -3.0)])
    numeric_ok = len(found) == 2 and all(
        abs(a - wa) < 1e-8 and abs(c - wc) < 1e-8
        for (a, c), (wa, wc) in zip(found, want))
    residual_ok = True
    for c in (5, -3):
        s = tanh_sol(d, {"k": 1, "m": 1, "c": c})
        residual_ok &= residual_pde(s, d.definition).max_abs < 1e-9
    # the printed relation 9a0^2 = 8k^2 + 2k^4 must NOT hold on the branch
    printed = 9 * (2 / 3) ** 2 - 8 - 2
    not_reproduced = abs(printed) > 1e-6
    report(3, exact and quad_ok and numeric_ok and residual_ok and
           not_reproduced,
           "a2=-2k^2, a0=(8k^4+m^2-kc)/(6k^2) exact; phi^0 quadratic "
           "3a0^2-8k^2a0+4k^4=0 derived; numeric branches {(2/3,5),(2,-3)}; "
           "residuals < 1e-9; printed relation 9a0^2=8k^2+2k^4 correctly "
           "not reproduced")


def test_criterion_4_boussinesq():
    d = run_pipeline(BSQ_DSL, integrate=2)
    (b,) = d.branches
    a2_ok = str(b.assignments["a2"]) == "-2*k^2"
    # denominator normalization: a0 = (8k^4 + c^2 - k^2) / (6k^2)
    den_ok = str(b.assignments["a0"]) == "(4/3*k^4 + 1/6*c^2 - 1/6*k^2) / k^2"
    s = tanh_sol(d, {"k": 1, "c": BSQ_C})
    phys_ok = (not s.constraint_violated and
               float(s.coefficients[0]) == pytest.approx(2.0, abs=1e-12))
    rep = residual_pde(s, d.definition)
    s5 = tanh_sol(d, {"k": 1, "c": 1})
    rep5 = residual_ode(s5, d.ode)
    report(4, a2_ok and den_ok and phys_ok and rep.max_abs < 1e-10 and
           rep5.max_abs >= 0.1,
           f"a2=-2k^2; a0 denominator 6k^2; physical branch a0=2k^2, "
           f"c^2=k^2+4k^4 residual {rep.max_abs:.2e} < 1e-10; figure-5 "
           f"constant residual {rep5.max_abs:.3f} >= 0.1 (vs the "
           f"twice-integrated ODE: the quartic form annihilates the constant)")


def test_criterion_5_fractional_systems():
    sww = run_pipeline(SWW_FRAC_DSL, integrate=1)
    kp = run_pipeline(KP_FRAC_DSL, integrate=2)
    bsq = run_pipeline(BSQ_FRAC_DSL, integrate=2)
    top = bsq.phi_poly.coefficients[bsq.phi_poly.degree]
    prod = Poly.const(3) * Poly.var("k_a", 2) * Poly.var("a2") * \
        (Poly.var("a2") + Poly.const(2) * Poly.var("k_a", 2))
    row_ok = top == prod
    a2_ok = all(str(d.branches[0].assignments["a2"]) == "-2*k_a^2"
                for d in (kp, bsq))
    cons_ok = [str(c) for c in sww.branches[0].constraints] == \
        ["4*k_a^2*m_a*sigma + c_a + k_a"]
    report(5, row_ok and a2_ok and cons_ok,
           "fractional top row = 3 k^(2a) a2 (a2 + 2k^(2a)); a2 = -2k^(2a) "
           "in both quartic systems; shallow-water constraint "
           "(c^a + k^a) + 4 sigma k^(2a) m^a = 0 exact")


def test_criterion_6_special_functions():
    xs = [-5 + 10 * i / 100 for i in range(101)]
    e1 = max(abs(v - math.exp(x))
             for x, v in zip(xs, mittag_leffler(1.0, tuple(xs)).tolist()))
    xs = [3 * i / 30 for i in range(31)]
    e2 = max(abs(v - math.cosh(x))
             for x, v in zip(xs, mittag_leffler(2.0, tuple(x ** 2 for x in xs)).tolist()))
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for gamma in (0.5, 1.0, 2.0):
            for x in (0.5, 1.0, 2.0):
                want = jumarie_power_rule(alpha, gamma, x)
                got = jumarie_quadrature(lambda s: s ** gamma, alpha, np.array([x]))[0]
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    report(6, e1 < 1e-12 and e2 < 1e-12 and worst < 1e-6,
           f"|E1 - exp| {e1:.1e} < 1e-12; |E2(x^2) - cosh| {e2:.1e} < 1e-12; "
           f"quadrature vs power rule worst {worst:.1e} < 1e-6")


def test_criterion_7_classical_limit():
    alphas = [0.9, 0.99, 0.999, 1.0]
    xis = np.linspace(0.1, 4.0, 41)
    ok = True
    details = []
    for name, cdsl, fdsl, it, cp, fp in [
        ("boussinesq", BSQ_DSL, BSQ_FRAC_DSL, 2,
         {"k": 1, "c": BSQ_C}, {"k": 1, "c": BSQ_C}),
        ("sww", SWW_DSL, SWW_FRAC_DSL, 1,
         {"k": 1, "m": 1, "c": 3, "p": 1, "q": 1}, {"k": 1, "m": 1, "c": 3}),
    ]:
        classical = run_pipeline(cdsl, integrate=it)
        frac = run_pipeline(fdsl, integrate=it)
        sc = tanh_sol(classical, cp)

        def factory(alpha, frac=frac, cp=cp):
            pv = {f"{b}_a": float(cp[b]) ** alpha
                  for b in ("k", "m", "c") if b in cp}
            pv.update({k: v for k, v in cp.items() if k in ("p", "q")})
            return tanh_sol(frac, pv, alpha=alpha, sigma=-1)

        dev = {alpha: max(np.abs(factory(alpha).u_on(xis) - sc.u_on(xis)).tolist())
               for alpha in alphas}
        mono = dev[0.9] > dev[0.99] > dev[0.999] > dev[1.0]
        ok &= mono and dev[1.0] < 1e-10
        details.append(f"{name} deviations "
                       + " > ".join(f"{dev[a]:.1e}" for a in alphas))
    report(7, ok, "; ".join(details) + " (strictly decreasing, < 1e-10 at "
           "alpha = 1)")


def test_criterion_8_fractional_residual_measurement():
    cases = [
        (SWW_FRAC_DSL, 1, {"k_a": 1.0, "m_a": 1.0, "p": 1, "q": 1},
         lambda a: {"k_a": 1.0, "m_a": 1.0, "c_a": 3.0 ** a,
                    "p": 1, "q": 1}),
        (KP_FRAC_DSL, 2, None,
         lambda a: {"k_a": 1.0, "m_a": 1.0, "c_a": 5.0 ** a}),
        (BSQ_FRAC_DSL, 2, None,
         lambda a: {"k_a": 1.0, "c_a": BSQ_C ** a}),
    ]
    ok = True
    finite = []
    for dsl, it, _, pv_of in cases:
        d = run_pipeline(dsl, integrate=it)
        for alpha in (0.5, 0.8):
            pv = pv_of(alpha)
            s = tanh_sol(d, pv, alpha=alpha, sigma=-1)
            rep = residual_fractional(s, d.ode)
            ok &= math.isfinite(rep.max_abs)
            finite.append(rep.max_abs)
        pv1 = pv_of(1.0)
        s1 = tanh_sol(d, pv1, alpha=1.0, sigma=-1)
        rep1 = residual_fractional(s1, d.ode)
        ok &= rep1.max_abs < 1e-8
    report(8, ok,
           f"all three fractional case studies emit finite reports at "
           f"alpha in {{0.5, 0.8}} (max {max(finite):.2e}); alpha = 1 "
           f"reports match the classical residuals < 1e-8")


def test_criterion_9_determinism(capsys, tmp_path):
    outs = []
    for _ in range(2):
        cli_main(["solve", "boussinesq4"])
        a = capsys.readouterr().out
        cli_main(["figure", "3", "--xgrid=-5:5:21", "--tgrid=0:2:5"])
        b = capsys.readouterr().out
        cli_main(["solve", "kp", "--method", "subeq", "--alpha", "0.8",
                  "--sigma", "-1", "--params", "k=1,m=1,c=5"])
        c = capsys.readouterr().out
        outs.append((a, b, c))
    identical = outs[0] == outs[1]
    elapsed = time.time() - MODULE_START
    with capsys.disabled():
        report(9, identical and elapsed < 60.0,
               f"two runs byte-identical (JSON and CSV); acceptance suite "
               f"runtime {elapsed:.1f}s < 60s")
