"""Independent references for the test suite: a numeric root finder for
coefficient systems, the Jumarie quadrature as a scalar loop, and the
Mittag-Leffler series with its fallback on mpmath's number objects.  None
is part of twsolve; each checks one of its exact, vectorised or raw paths."""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

from twsolve import CoefficientSystem, NonConvergence
from twsolve.special_fn import (
    _FALLBACK_DIGITS, _ML_TERM_TOL, DomainGuardExceeded, MLSeriesSpec,
    _gamma_1p, _ml_float,
)


class NoRootFound(RuntimeError):
    pass


def solve_numeric(s: CoefficientSystem, param_values: dict, seeds: int = 64,
                  rng_seed: int = 0, tol: float = 1e-12,
                  cluster_tol: float = 1e-9, verify_tol: float = 1e-10):
    """Multistart damped Gauss-Newton on the polynomial system with the given
    parameters bound; unbound parameters are solved for alongside the ansatz
    unknowns. Returns a deterministically ordered list of root dicts."""
    bound = {k: Fraction(v) if isinstance(v, (int, Fraction)) else v
             for k, v in param_values.items()}
    variables = list(s.unknowns) + [p for p in s.parameters if p not in param_values]
    polys = []
    for _, poly in s.equations:
        sub = poly.substitute({k: v for k, v in bound.items() if isinstance(v, Fraction)})
        fl = {k: v for k, v in bound.items() if not isinstance(v, Fraction)}
        polys.append((sub, fl))
    grads = [{v: sub.derivative(v) for v in variables} for sub, _ in polys]

    def fval(x):
        vals = {v: x[i] for i, v in enumerate(variables)}
        out = np.empty(len(polys))
        for i, (sub, fl) in enumerate(polys):
            out[i] = float(sub.eval({**vals, **fl}))
        return out

    def jval(x):
        vals = {v: x[i] for i, v in enumerate(variables)}
        J = np.empty((len(polys), len(variables)))
        for i, (sub, fl) in enumerate(polys):
            for j, v in enumerate(variables):
                J[i, j] = float(grads[i][v].eval({**vals, **fl}))
        return J

    rng = np.random.default_rng(rng_seed)
    roots = []
    for _ in range(seeds):
        x = rng.uniform(-5.0, 5.0, size=len(variables))
        for _ in range(100):
            r = fval(x)
            if not np.all(np.isfinite(r)):
                break
            if np.max(np.abs(r)) < tol:
                break
            J = jval(x)
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
            lam = 1.0
            base = np.linalg.norm(r)
            while lam > 1e-8:
                xn = x + lam * step
                rn = fval(xn)
                if np.all(np.isfinite(rn)) and np.linalg.norm(rn) < base:
                    break
                lam *= 0.5
            else:
                break
            x = x + lam * step
        r = fval(x)
        higher = [i for i, v in enumerate(variables) if v in s.unknowns and v != "a0"]
        if np.all(np.isfinite(r)) and np.max(np.abs(r)) < verify_tol \
                and max(abs(x[i]) for i in higher) > 1e-6:
            for known in roots:
                if np.max(np.abs(known - x)) < cluster_tol:
                    break
            else:
                roots.append(x.copy())
    if not roots:
        raise NoRootFound(f"no root after {seeds} seeds")
    roots.sort(key=lambda x: tuple(np.round(x, 8)))
    return [{v: float(x[i]) for i, v in enumerate(variables)} for x in roots]


def scalar_quadrature(f, alpha, x, X, max_refine=9, n0=64):
    """The quadrature as a scalar loop over nodes and cells, one float
    operation at a time: the reference that the vectorised cells must
    reproduce bit for bit."""
    oma = 1.0 - alpha
    g = min(2.0 / (1.0 - alpha), 4.0)

    def inner(y, n):
        nodes = [y * (1.0 - ((n - i) / n) ** g) for i in range(n + 1)]
        fx = [f(s) for s in nodes]
        total = 0.0
        for i in range(n):
            a, b = nodes[i], min(nodes[i + 1], y)
            if a >= y:
                break
            h = nodes[i + 1] - nodes[i]
            if h == 0.0:
                continue
            slope = (fx[i + 1] - fx[i]) / h
            pa = (y - a) ** oma
            pb = (y - b) ** oma if y > b else 0.0
            w1 = (pa - pb) / oma
            qa = (y - a) ** (2 - alpha)
            qb = (y - b) ** (2 - alpha) if y > b else 0.0
            w2 = (y - a) * w1 - (qa - qb) / (2 - alpha)
            total += (fx[i] - fx[0]) * w1 + slope * w2
        return total

    def estimate(n, h):
        d1 = (inner(x + h, n) - inner(x - h, n)) / (2 * h)
        d2 = (inner(x + h / 2, n) - inner(x - h / 2, n)) / h
        return (4 * d2 - d1) / 3.0 / math.gamma(1.0 - alpha)

    n, h = n0, min(x, X - x) / 4.0
    prev = estimate(n, h)
    if max_refine == 0:
        return prev
    for _ in range(max_refine):
        n, h = 2 * n, h / 2
        cur = estimate(n, h)
        if abs(cur - prev) <= 1e-6 * max(abs(cur), 1.0):
            return cur
        prev = cur
    raise NonConvergence("quadrature refinement cap reached")


def operator_mittag_leffler(spec: MLSeriesSpec, z: complex) -> complex:
    """`special_fn.mittag_leffler` with its fallback written with mpmath's
    mpf/mpc operators: the reference that the raw libmp loop must
    reproduce bit for bit."""
    if abs(z) > spec.domain_guard:
        raise DomainGuardExceeded(f"|z| = {abs(z):g} exceeds guard {spec.domain_guard:g}")
    fast = _ml_float(spec, z)
    if fast is not None:
        return fast
    # cancellation for negative/complex z eats ~|z|^(1/alpha)*log10(e) digits;
    # widen the working precision accordingly (capped)
    extra = int(min(0.5 * abs(z) ** (1.0 / spec.alpha), 200.0))
    with mpmath.workdps(_FALLBACK_DIGITS + extra):
        zz = mpmath.mpmathify(z)
        total = mpmath.mpf(1)
        power = mpmath.mpf(1)
        for k in range(1, spec.truncation + 1):
            power = power * zz
            term = power / _gamma_1p(spec.alpha, k)
            total = total + term
            if abs(term) < _ML_TERM_TOL * max(abs(total), 1e-30):
                break
        else:
            raise NonConvergence(f"series did not converge in {spec.truncation} terms")
        result = complex(total)
    if abs(result.imag) < 1e-30 and isinstance(z, (int, float)):
        return result.real
    return result
