"""Output checks against references the benchmark computes itself.

``check(op, rc, text)`` returns ``None`` for a correct output, or a
``(defect, reason)`` pair.  ``defect`` names a known, documented defect of
the program when the failure is that defect's signature, else it is None.
Both kinds count as failed ops; only an unknown failure makes a run
incorrect.
"""
from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import mpmath

from workloads import FIGURE_PARAMS, FIGURE_TVALUES, FIGURE_XGRID

# Known defects (see ROADMAP open item 2).
D1_UNSATISFIABLE_CONSTRAINT = "D1"   # a branch kept with the constraint "1"
D2_PASS_WHEN_VIOLATED = "D2"         # verify: pass true, constraintViolated true

RESIDUAL_TOL = 1e-9
VALUE_RTOL = 1e-9
REF_DIGITS = 40


class CheckFailed(Exception):
    def __init__(self, reason, defect=None):
        super().__init__(reason)
        self.defect = defect


def _require(cond, reason, defect=None):
    if not cond:
        raise CheckFailed(reason, defect)


def _close(got, want, rtol=VALUE_RTOL):
    return abs(float(got) - float(want)) <= rtol * max(1.0, abs(float(want)))


def _finite_num(s) -> float:
    v = float(Fraction(s)) if "/" in str(s) else float(s)
    _require(math.isfinite(v), f"non-finite value {s!r}")
    return v


# ---------------------------------------------------------------------------
# symbolic: hand-written expected branches

# Exact strings, as derived in the acceptance tests (criteria 2-5).
EXPECTED_STRINGS = {
    "sww": ({"a1": "12*k*m / (c*p + c*q)"}, ["4*k^2*m - c - k"]),
    "kp": ({"a2": "-2*k^2", "a0": "(4/3*k^4 - 1/6*c*k + 1/6*m^2) / k^2"}, None),
    "boussinesq4": ({"a2": "-2*k^2", "a0": "(4/3*k^4 + 1/6*c^2 - 1/6*k^2) / k^2"}, None),
    "sww_frac": ({}, ["4*k_a^2*m_a*sigma + c_a + k_a"]),
    "kp_frac": ({"a2": "-2*k_a^2"}, None),
    "boussinesq4_frac": ({"a2": "-2*k_a^2"}, None),
}

# Figure-caption parameters of the registry entries and whether their
# branch constraint holds there (acceptance criteria 2-4).
REGISTRY_CONSTRAINT_HOLDS = {"sww": True, "kp": False, "boussinesq4": False}


def _classical_coefficients(name, p):
    """Tanh-method coefficients a_0..a_n of the literature solitary waves in
    the frame xi = k*x (+ m*y) + c*t, phi = tanh(xi)."""
    k, c = p["k"], p["c"]
    if name == "kdv":           # u = 12 k^2 sech^2, speed 4 k^2
        return [8 * k ** 2 - c / k, 0, -12 * k ** 2]
    if name == "burgers":       # u = v - 2k tanh(k (x - v t))
        return [-c / k, -2 * k]
    if name == "bbm":           # amplitude 3(v - 1), 4 k^2 v = v - 1
        return [-8 * c * k - c / k - 1, 0, 12 * c * k]
    if name == "zk":            # KdV with k^2 -> k^2 + m^2
        s = k ** 2 + p["m"] ** 2
        return [8 * s - c / k, 0, -12 * s]
    if name == "kawahara":      # u = 105/169 sech^4, speed 36/169, k^2 = 1/52
        return [Fraction(69, 169) - c / k, 0, Fraction(-210, 169), 0,
                Fraction(105, 169)]
    raise KeyError(name)


def _check_symbolic(op, rc, text):
    _require(rc == 0, f"exit code {rc}")
    log = json.loads(text)
    _require("error" not in log, f"error payload {log.get('error')}")
    st = log["stages"]
    branches = st["branches"]
    name = op.kind
    if name == "kdv5":
        # u_t + u*u_x + u_xxxxx = 0 has no tanh-polynomial solitary wave: the
        # only candidate branch needs k = 0.
        if any(b["constraints"] == ["1"] for b in branches):
            raise CheckFailed("branch kept with constraint 1 = 0",
                              D1_UNSATISFIABLE_CONSTRAINT)
        _require(not branches, f"{len(branches)} branches, expected none")
        return
    _require(len(branches) == 1, f"{len(branches)} branches, expected 1")
    b = branches[0]
    _require(b["constraints"] != ["1"], "branch kept with constraint 1 = 0",
             D1_UNSATISFIABLE_CONSTRAINT)
    if name in EXPECTED_STRINGS:
        assigns, constraints = EXPECTED_STRINGS[name]
        for u, want in assigns.items():
            _require(b["assignments"].get(u) == want,
                     f"{u} = {b['assignments'].get(u)!r}, expected {want!r}")
        if constraints is not None:
            _require(b["constraints"] == constraints,
                     f"constraints {b['constraints']}, expected {constraints}")
    sols = st["solutions"]
    if name.endswith("_frac"):
        _require(not sols and not st["residuals"], "solutions without params")
        return
    _require([s["family"] for s in sols] == ["Tanh", "Coth"],
             f"families {[s['family'] for s in sols]}")
    tanh = sols[0]
    violated = tanh["constraint_violated"]
    if name in REGISTRY_CONSTRAINT_HOLDS:
        _require(violated != REGISTRY_CONSTRAINT_HOLDS[name],
                 f"constraint_violated = {violated}")
        if name == "sww":
            _require([Fraction(a) for a in tanh["coefficients"]] == [0, 2],
                     f"coefficients {tanh['coefficients']}, expected [0, 2]")
    else:
        _require(not violated, "constraint reported violated")
        want = _classical_coefficients(name, op.info["params"])
        got = [Fraction(a) for a in tanh["coefficients"]]
        _require(len(got) == len(want) and all(_close(g, w) for g, w in zip(got, want)),
                 f"coefficients {[float(g) for g in got]}, expected "
                 f"{[float(w) for w in want]}")
    (rep,) = st["residuals"]
    res = _finite_num(rep["maxAbs"])
    if not violated:
        _require(res < RESIDUAL_TOL, f"residual {res:.3e} where the constraints hold")


# ---------------------------------------------------------------------------
# figure: rows against an independent mpmath Mittag-Leffler series

def ml_reference(alpha: float, z, digits: int = REF_DIGITS):
    """E_alpha(z) = sum z^k / Gamma(1 + k alpha) at `digits` significant
    digits, with the working precision widened for cancellation."""
    extra = int(abs(z) ** (1.0 / alpha)) + 10
    with mpmath.workdps(digits + extra):
        z = mpmath.mpf(z)
        a = mpmath.mpf(alpha)
        eps = mpmath.mpf(10) ** (-(digits + 5))
        total, power, k = mpmath.mpf(1), mpmath.mpf(1), 0
        while True:
            k += 1
            power *= z
            term = power / mpmath.gamma(1 + k * a)
            total += term
            if abs(term) < eps * max(abs(total), 1) and k > abs(z) ** (1 / alpha):
                return total


def tanh_alpha_reference(alpha: float, x: float) -> float:
    """Generalized tanh_alpha, odd-extended; math.tanh at alpha = 1."""
    if alpha == 1.0:
        return math.tanh(x)
    if x == 0:
        return 0.0
    with mpmath.workdps(REF_DIGITS):
        xa = mpmath.mpf(abs(x)) ** mpmath.mpf(alpha)
    ep = ml_reference(alpha, xa)
    em = ml_reference(alpha, -xa)
    return math.copysign(float((ep - em) / (ep + em)), x)


def figure_u_reference(n: int, alpha: float, x: float, t: float) -> float:
    """u(x, t) of figures 2/4/6: Tanh family, sigma = -1, a0 free = 0, with
    phi = -tanh_alpha(xi) and xi = k*x + c*t (y = 0).  The coefficients are
    the sub-equation branches at the caption parameters raised to alpha."""
    p = FIGURE_PARAMS[n]
    phi = -tanh_alpha_reference(alpha, p["k"] * x + p["c"] * t)
    c_a = p["c"] ** alpha
    if n == 2:      # a1 = -12 k^a m^a / (c^a (p + q)), k = m = 1
        return -12.0 / (c_a * (p["p"] + p["q"])) * phi
    if n == 4:      # a0 = (4/3 k^4a - c^a k^a / 6 + m^2a / 6) / k^2a, a2 = -2 k^2a
        return 4 / 3 - c_a / 6 + 1 / 6 - 2 * phi * phi
    if n == 6:      # a0 = (4/3 k^4a + c^2a / 6 - k^2a / 6) / k^2a, a2 = -2 k^2a
        return 4 / 3 + c_a ** 2 / 6 - 1 / 6 - 2 * phi * phi
    raise KeyError(n)


def _check_figure(op, rc, text):
    _require(rc == 0, f"exit code {rc}")
    _require(text == "", "unexpected stdout with --out")
    with open(op.info["csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["x", "t", "alpha", "u"], f"header {rows[0]}")
    body = rows[1:]
    nx = FIGURE_XGRID[2]
    _require(len(body) == nx * len(FIGURE_TVALUES), f"{len(body)} rows")
    alpha = op.info["alpha"]
    for r in body:
        _require(len(r) == 4 and float(r[2]) == alpha, f"bad row {r}")
        _finite_num(r[3])
    for i in op.info["rows"]:
        x, t, _, u = (float(v) for v in body[i])
        _require(t == FIGURE_TVALUES[i // nx], f"row {i}: t = {t}")
        want = figure_u_reference(op.info["n"], alpha, x, t)
        _require(_close(u, want), f"row {i}: u = {u!r}, reference {want!r}")


# ---------------------------------------------------------------------------
# fractional: schema and finiteness; pass never true when violated

VERIFY_KEYS = {"maxAbs", "meanAbs", "grid", "excludedPoints", "equationForm",
               "constraintViolated", "pass"}


def _check_verify(op, rc, text):
    rep = json.loads(text)
    _require("error" not in rep, f"error payload {rep.get('error')}")
    _require(set(rep) == VERIFY_KEYS, f"keys {sorted(rep)}")
    _finite_num(rep["maxAbs"])
    _finite_num(rep["meanAbs"])
    for p in rep["excludedPoints"]:
        _finite_num(p)
    _require(isinstance(rep["pass"], bool) and isinstance(rep["constraintViolated"], bool),
             "pass/constraintViolated not booleans")
    _require(rc == (0 if rep["pass"] else 1), f"exit code {rc} with pass = {rep['pass']}")
    _require(not (rep["pass"] and rep["constraintViolated"]),
             "pass true while constraintViolated true", D2_PASS_WHEN_VIOLATED)


def _check_fractional_solve(op, rc, text):
    _require(rc == 0, f"exit code {rc}")
    log = json.loads(text)
    _require("error" not in log, f"error payload {log.get('error')}")
    st = log["stages"]
    _require(len(st["branches"]) == 1, f"{len(st['branches'])} branches")
    sigma = op.info["sigma"]
    want = ["Tanh", "Coth"] if sigma < 0 else ["Tan", "Cot"]
    _require([s["family"] for s in st["solutions"]] == want,
             f"families {[s['family'] for s in st['solutions']]}")
    for s in st["solutions"]:
        for a in s["coefficients"]:
            _finite_num(a)
        for v in s["constraint_values"]:
            _finite_num(v)
        _require(_close(float(s["alpha"]), op.info["alpha"]), f"alpha {s['alpha']}")
    _require(len(st["residuals"]) == (1 if sigma < 0 else 0),
             f"{len(st['residuals'])} residual reports")
    for rep in st["residuals"]:
        _finite_num(rep["maxAbs"])
        _finite_num(rep["meanAbs"])


def check(op, rc, text):
    try:
        if op.workload == "symbolic":
            _check_symbolic(op, rc, text)
        elif op.workload == "figure":
            _check_figure(op, rc, text)
        elif op.kind == "verify":
            _check_verify(op, rc, text)
        else:
            _check_fractional_solve(op, rc, text)
    except CheckFailed as e:
        return e.defect, str(e)
    except (ValueError, KeyError, TypeError, IndexError, OSError, ZeroDivisionError) as e:
        return None, f"malformed output: {type(e).__name__}: {e}"
    return None
