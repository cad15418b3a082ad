"""Numeric kernels: one-parameter Mittag-Leffler function, the generalized
hyperbolic/trigonometric functions built from it, and the modified
Riemann-Liouville (Jumarie) fractional derivative via power rule and
weakly-singular product-integration quadrature.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import mpmath
import numpy as np
from mpmath import libmp

DEFAULT_GUARD = 50.0
_ML_TERMS = 400             # term cap of the series, read at call time
_POLE_TOL = 1e-13
_FALLBACK_DIGITS = 30
_FLOAT_REL_TOL = 1e-13      # accepted rounding-error bound of the float series
_ML_TERM_TOL = 1e-16        # the series stops at a term below this share of the sum
_QUAD_REL_TOL = 1e-6        # agreement of two quadrature refinements
_ML_BLOCK = 24              # series terms summed per array step


class DomainGuardExceeded(ValueError):
    pass


class NonConvergence(RuntimeError):
    pass


class PoleAt(ZeroDivisionError):
    def __init__(self, x):
        self.x = x
        super().__init__(f"pole at x = {x}")


class GammaPole(ValueError):
    pass


class EndpointTooClose(ValueError):
    pass


@functools.lru_cache(maxsize=32)
def _gamma_row(alpha: float, dps: int) -> list:
    """Gamma(1 + k*alpha) for k = 0, 1, ... at `dps` digits; `_gamma_1p`
    appends entries as the series asks for them."""
    return []


def _gamma_1p(alpha: float, k: int):
    """Gamma(1 + k*alpha) at the current working precision.  k*alpha is
    formed in mpmath: rounded to float first, it would carry a relative
    error of 1e-16 that the cancellation at negative z magnifies."""
    row = _gamma_row(alpha, mpmath.mp.dps)
    while len(row) <= k:
        row.append(mpmath.gamma(1 + len(row) * mpmath.mpf(alpha)))
    return row[k]


@functools.lru_cache(maxsize=32)
def _inv_gamma_floats(alpha: float, terms: int) -> np.ndarray:
    """1/Gamma(1 + k*alpha) rounded to float for k = 0..terms, cut before
    the first entry below the normal float range (read-only)."""
    out = []
    with mpmath.workdps(_FALLBACK_DIGITS):
        a = mpmath.mpf(alpha)
        for k in range(terms + 1):
            v = float(mpmath.rgamma(1 + k * a))
            if v < sys.float_info.min:
                break
            out.append(v)
    out = np.array(out)
    out.flags.writeable = False
    return out


def _ml_float(alpha: float, z: np.ndarray):
    """The series in float at each element of the 1-D float or complex
    array z: (sums, accepted).  Each element makes the scalar series' float
    operations in their order, stops at its own first term below
    _ML_TERM_TOL of the sum, and is accepted when the sum is finite and its
    rounding error, bounded by 4*k*eps*sum|t_k| over k terms, is within
    _FLOAT_REL_TOL of it.  Terms go _ML_BLOCK at a time along a second axis,
    summed by accumulate (in order, unlike np.sum); complex z on Python
    complex objects, as numpy's complex product and abs round differently."""
    inv = _inv_gamma_floats(alpha, _ML_TERMS)
    n, dtype = len(z), (object if np.iscomplexobj(z) else float)
    sums, accepted, size = np.zeros(n, z.dtype), np.zeros(n, bool), np.ones(n)
    live, zz = np.arange(n), z.astype(dtype)[:, None]
    power = total = np.full(n, 1.0, dtype)

    def run(op, first, block):      # first op block[0] op block[1] ..., in order
        return op.accumulate(np.hstack((first[:, None], block)), axis=1)[:, 1:]

    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(1, len(inv), _ML_BLOCK):
            f = inv[k0:k0 + _ML_BLOCK]
            power = run(np.multiply, power, np.broadcast_to(zz, (len(live), len(f))))
            terms = power * f
            total, mag = run(np.add, total, terms), np.abs(terms).astype(float)
            size, tot = run(np.add, size, mag), np.abs(total).astype(float)
            stop = mag < _ML_TERM_TOL * np.maximum(tot, 1e-30)
            hit = stop.any(axis=1)
            rows, j = np.flatnonzero(hit), stop[hit].argmax(axis=1)
            sums[live[rows]], s = total[rows, j], size[rows, j]
            accepted[live[rows]] = np.isfinite(s) & (
                4 * (k0 + j) * 2.0 ** -52 * s <= _FLOAT_REL_TOL * tot[rows, j])
            live, zz = live[~hit], zz[~hit]
            power, total, size = power[~hit, -1], total[~hit, -1], size[~hit, -1]
            if not len(live):
                break
    return sums, accepted


def _top(z):
    """e with 2^(e-1) <= |z| < 2^(e+1) for a raw libmp complex of finite
    parts (the larger exp + bc of its nonzero parts), -inf for zero."""
    (_, m1, e1, b1), (_, m2, e2, b2) = z
    return max(e1 + b1 if m1 else -math.inf, e2 + b2 if m2 else -math.inf)


def mittag_leffler(alpha: float, zs: tuple, guard: float = DEFAULT_GUARD):
    """E_alpha(z) = sum_k z^k / Gamma(1 + k*alpha) at each z of a tuple (so
    that a call's arguments stay hashable), as a 1-D array: by direct series
    in float when its rounding error is certified small, otherwise with
    extended-precision accumulation to control cancellation at negative or
    imaginary z.  |z| beyond `guard` is refused.  The first element with an
    error raises it; no fallback runs past that element."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not isinstance(zs, tuple) or np.ndim(zs) != 1:
        raise ValueError("z must be a tuple of numbers")
    zs = np.array(zs)
    zs = zs.astype(np.result_type(zs, 0.0))
    size = np.hypot(zs.real, zs.imag)       # abs() of each element
    beyond = np.flatnonzero(size > guard)
    first = beyond[0] if len(beyond) else len(zs)
    out, accepted = _ml_float(alpha, np.where(size > guard, 0, zs))
    for i in np.flatnonzero(~accepted[:first]):
        out[i] = _ml_fallback(alpha, zs[i].item())
    if first < len(zs):
        raise DomainGuardExceeded(f"|z| = {size[first]:g} exceeds guard {guard:g}")
    return out


def _ml_fallback(alpha: float, z: complex) -> complex:
    """The series in mpmath, for a z whose float sum is not certified."""
    # cancellation for negative/complex z eats ~|z|^(1/alpha)*log10(e) digits;
    # widen the working precision accordingly (capped).  The loop works on
    # raw libmp parts with the operations, precision and rounding that the
    # mpf/mpc operators would apply, without their object layer.
    extra = int(min(0.5 * abs(z) ** (1.0 / alpha), 200.0))
    with mpmath.workdps(_FALLBACK_DIGITS + extra):
        prec, rnd = mpmath.mp._prec_rounding
        c = complex(z)
        zz = (libmp.from_float(c.real), libmp.from_float(c.imag))
        total = power = (libmp.fone, libmp.fzero)
        tol = libmp.from_float(_ML_TERM_TOL)
        tiny = libmp.from_float(1e-30)
        tiny_bound = libmp.from_float(_ML_TERM_TOL * 1e-30)
        for k in range(1, _ML_TERMS + 1):
            power = libmp.mpc_mul(power, zz, prec, rnd)
            term = libmp.mpc_div_mpf(power, _gamma_1p(alpha, k)._mpf_, prec, rnd)
            total = libmp.mpc_add(total, term, prec, rnd)
            # |term| < _ML_TERM_TOL*max(|total|, 1e-30), 2^-54 < _ML_TERM_TOL <
            # 2^-53: if lm >= -97, lt <= lm-56 gives |term| < 2^(lm-55) < the
            # bound and lt >= lm-50 gives |term| >= 2^(lm-51) > it; else hypot
            lt, lm = _top(term), _top(total)
            if lm >= -97:
                if lt <= lm - 56:
                    break
                if lt >= lm - 50:
                    continue
            size = libmp.mpc_abs(total, prec, rnd)
            bound = (tiny_bound if libmp.mpf_lt(size, tiny)
                     else libmp.mpf_mul(size, tol, prec, rnd))
            if libmp.mpf_lt(libmp.mpc_abs(term, prec, rnd), bound):
                break
        else:
            raise NonConvergence(f"series did not converge in {_ML_TERMS} terms")
        # to_float rounds down unless told the context's rounding
        result = libmp.mpc_to_complex(total, rnd=rnd)
    if abs(result.imag) < 1e-30 and isinstance(z, (int, float)):
        return result.real
    return result


def _power(x: float, alpha: float) -> float:
    try:
        return x ** alpha       # libm's pow, as the scalar code takes it
    except OverflowError:       # beyond every guard: the series refuses it
        return math.inf


GENERALIZED_FN_NAMES = ("sinh", "cosh", "tanh", "coth", "sin", "cos", "tan", "cot")


def generalized_fn(name: str, alpha: float, xs):
    """Generalized hyperbolic/trig functions at each x >= 0 of a 1-D array:
    cosh_alpha(x) = E_2alpha(x^2alpha), sinh_alpha(x) = E_alpha(x^alpha) -
    cosh_alpha(x), and the trig family from E_alpha(+/- i x^alpha), reducing
    to the classical functions at alpha = 1.  NaN at a pole; the first x
    with a guard or convergence error raises it."""
    if name not in GENERALIZED_FN_NAMES:
        raise ValueError(f"unknown generalized function {name!r}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("x must be a 1-D array")
    if np.any(xs < 0):
        raise ValueError("generalized functions take x >= 0")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    xa = np.array([_power(v, alpha) for v in xs.tolist()])
    with np.errstate(over="ignore", invalid="ignore"):    # as Python floats: inf, nan
        if name in ("sinh", "cosh", "tanh", "coth"):
            # cosh_a(x) = E_2a(x^2a) holds the even terms of E_a(x^a), so both
            # series sum positive terms and E_a(-x^a) is never formed.  The
            # first series fails wherever the second does (their guards agree
            # and it needs twice the terms), so its error comes first in x
            ep = mittag_leffler(alpha, tuple(xa.tolist()))
            even = mittag_leffler(2 * alpha, tuple((xa * xa).tolist()),
                                  guard=DEFAULT_GUARD ** 2)
            odd = ep - even
        else:
            # E_a(-i t) is the conjugate of E_a(i t), so (E_a(i t) -/+
            # E_a(-i t)) / 2(i) are exactly the parts of E_a(i t)
            ep = mittag_leffler(alpha, tuple((1j * xa).tolist()))
            odd, even = ep.imag, ep.real
        kind = GENERALIZED_FN_NAMES.index(name) % 4   # odd, even, odd/even, even/odd
        num, den = (odd, even) if kind % 2 == 0 else (even, odd)
        pole = (kind > 1) & (np.abs(den) < _POLE_TOL)
        return num / np.where(pole, np.nan, den) if kind > 1 else num


def jumarie_power_rule(alpha: float, gamma: float, x: float) -> float:
    """D^alpha[x^gamma] = Gamma(1+gamma)/Gamma(1+gamma-alpha) * x^(gamma-alpha)."""
    if gamma <= 0:
        raise ValueError("power-law exponent must be > 0")
    if x <= 0:
        raise ValueError("x must be > 0")
    arg = 1 + gamma - alpha
    if arg <= 0 and float(arg).is_integer():
        raise GammaPole(f"Gamma pole at 1+gamma-alpha = {arg}")
    return math.gamma(1 + gamma) / math.gamma(arg) * x ** (gamma - alpha)


_BLOCK_ROWS = 16             # kernel rows are applied this many at a time


@dataclass(frozen=True, eq=False)
class JumarieMesh:
    """The product-integration mesh of one quadrature estimate: for the
    four difference offsets y of every point, the nodes s of n cells graded
    toward the singular endpoint s = y, and the exact kernel weights w1, w2
    of each cell, each row one unit row scaled by its y.  The weights depend
    on alpha, the points, X and n but not on the integrand, so one mesh
    serves any number of integrands."""
    alpha: float
    x: np.ndarray           # the points, 1-D
    X: object               # the X the points were checked against
    n: int                  # cells per offset
    h: np.ndarray           # difference step of each point
    s: np.ndarray           # graded nodes, one row per offset
    w1: np.ndarray
    w2: np.ndarray
    live: np.ndarray        # the cells that add to their row's integral


def _build_mesh(alpha: float, xs, X, n: int, h) -> JumarieMesh:
    """Nodes and weights of int_0^y (y-s)^(-alpha) (f(s)-f(0)) ds for
    f piecewise linear on the graded nodes, at y in {x+h, x-h, x+h/2,
    x-h/2}.  Node i is y*(1 - c_i), c_i = ((n-i)/n)^g, so y - s_i = y*c_i
    and cell i weighs y^(1-alpha)*A_i and y^(2-alpha)*B_i, A and B the
    unit row's exact cell integrals.  g <= 4 and c_(n-1) >= 2^-52 keep the
    rounded nodes distinct and below y, so no cell drops out of the kernel.
    Every power is libm's pow on a Python float: numpy's SIMD `**` may
    differ in the last bit, which the outer difference quotient magnifies."""
    ys = np.concatenate((xs + h, xs - h, xs + h / 2, xs - h / 2))
    g = min(2.0 / (1.0 - alpha), 4.0, 52.0 / math.log2(max(n, 2)))
    oma, tma = 1.0 - alpha, 2.0 - alpha
    c = [((n - i) / n) ** g for i in range(n + 1)]
    p, q = [ci ** oma for ci in c], [ci ** tma for ci in c]
    A = [(p[i] - p[i + 1]) / oma for i in range(n)]
    B = [c[i] * A[i] - (q[i] - q[i + 1]) / tma for i in range(n)]
    s = ys[:, None] * np.array([1.0 - ci for ci in c])
    w1 = np.array([v ** oma for v in ys.tolist()])[:, None] * np.array(A)
    w2 = np.array([v ** tma for v in ys.tolist()])[:, None] * np.array(B)
    # cells from the first one that starts at y on, and empty cells, add 0
    live = np.logical_and.accumulate(s[:, :-1] < ys[:, None], axis=1) & (np.diff(s) != 0.0)
    return JumarieMesh(alpha, xs, X, n, h, s, w1, w2, live)


def _estimate(mesh: JumarieMesh, f):
    """The Richardson-extrapolated central difference of the inner
    integrals at every point of the mesh.  f is sampled once, on the nodes
    of every row together.  Each cell repeats the float operations of a
    scalar cell loop, and the cells are summed in order (cumsum, not the
    pairwise np.sum), in blocks of _BLOCK_ROWS rows."""
    s = mesh.s
    fx = np.broadcast_to(f(s), s.shape)
    ints = np.empty(len(s))
    for lo in range(0, len(s), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        fb = fx[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.diff(fb) / np.diff(s[rows])
            cells = (fb[:, :-1] - fb[:, :1]) * mesh.w1[rows] + slope * mesh.w2[rows]
        ints[rows] = np.cumsum(np.where(mesh.live[rows], cells, 0.0), axis=1)[:, -1]
    ints = ints.reshape(4, -1)
    h = mesh.h
    d1 = (ints[0] - ints[1]) / (2 * h)
    d2 = (ints[2] - ints[3]) / h
    return (4 * d2 - d1) / 3.0 / math.gamma(1.0 - mesh.alpha)


def _points(alpha: float, xs, X):
    """Checked points: (xs as a 1-D float array, X, difference step)."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("x must be a 1-D array")
    X = X if X is not None else 2.0 * xs
    if np.any(xs <= 0) or np.any(xs >= X):
        raise ValueError("x must lie in (0, X)")
    h = np.minimum(xs, X - xs) / 4.0
    if np.any(h <= 0):
        raise EndpointTooClose("x within one cell of an endpoint")
    return xs, X, h


def jumarie_mesh(alpha: float, xs, X=None, n0: int = 64) -> JumarieMesh:
    """The mesh of the first estimate of `jumarie_quadrature(f, alpha, xs,
    X, n0=n0)`: pass it to such calls as `mesh=` to weigh the kernel once
    for several integrands on the same points."""
    xs, X, h = _points(alpha, xs, X)
    return _build_mesh(alpha, xs, X, n0, h)


def jumarie_quadrature(f, alpha: float, xs, X=None,
                       max_refine: int = 9, n0: int = 64, mesh=None):
    """Modified Riemann-Liouville derivative of a continuous f at each x of
    a 1-D array, as an array: (1/Gamma(1-alpha)) d/dx int_0^x (x-s)^(-alpha)
    (f(s)-f(0)) ds.  f maps an ndarray of points to their values and is
    called once per estimate, on the meshes of all the points it serves.

    The inner integral uses product integration (piecewise-linear f against
    the exact kernel) on a mesh graded toward the singularity; the outer
    derivative is a Richardson-extrapolated central difference. Each point's
    mesh is refined until its last two estimates agree to _QUAD_REL_TOL; a
    converged point drops out, so each point gets the estimates a call on
    it alone makes.  max_refine = 0 returns the first estimate, for sampled
    integrands whose interpolation error would defeat that test.  A `mesh`
    from `jumarie_mesh` of the same alpha, x, X and n0 serves the first
    estimate; the result is the same, bit for bit."""
    xs, X, h = _points(alpha, xs, X)
    if mesh is None:
        mesh = _build_mesh(alpha, xs, X, n0, h)
    elif (mesh.alpha != alpha or mesh.n != n0 or not np.array_equal(mesh.x, xs)
          or not np.array_equal(mesh.X, X)):
        raise ValueError("the mesh was built for another alpha, x, X or n0")
    prev = _estimate(mesh, f)
    if max_refine == 0:
        return prev
    out, live, n = np.empty(len(xs)), np.arange(len(xs)), n0
    for _ in range(max_refine):
        n, h = 2 * n, h / 2
        cur = _estimate(_build_mesh(alpha, xs[live], X, n, h), f)
        done = np.abs(cur - prev) <= _QUAD_REL_TOL * np.maximum(np.abs(cur), 1.0)
        out[live[done]] = cur[done]
        live, prev, h = live[~done], cur[~done], h[~done]
        if not len(live):
            return out
    raise NonConvergence("quadrature refinement cap reached")
