"""Numeric kernels: one-parameter Mittag-Leffler function, the generalized
hyperbolic/trigonometric functions built from it, and the modified
Riemann-Liouville (Jumarie) fractional derivative via power rule and
weakly-singular product-integration quadrature.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace

import mpmath
import numpy as np
from mpmath import libmp

DEFAULT_GUARD = 50.0
_POLE_TOL = 1e-13
_FALLBACK_DIGITS = 30
_FLOAT_REL_TOL = 1e-13      # accepted rounding-error bound of the float series
_ML_TERM_TOL = 1e-16        # the series stops at a term below this share of the sum
_QUAD_REL_TOL = 1e-6        # agreement of two quadrature refinements


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
def _inv_gamma_floats(alpha: float, truncation: int) -> tuple:
    """1/Gamma(1 + k*alpha) rounded to float for k = 0..truncation, cut
    before the first entry below the normal float range."""
    out = []
    with mpmath.workdps(_FALLBACK_DIGITS):
        a = mpmath.mpf(alpha)
        for k in range(truncation + 1):
            v = float(mpmath.rgamma(1 + k * a))
            if v < sys.float_info.min:
                break
            out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class MLSeriesSpec:
    alpha: float
    truncation: int = 400
    domain_guard: float = DEFAULT_GUARD

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.truncation < 1:
            raise ValueError("truncation must be at least 1")


def _ml_float(spec: MLSeriesSpec, z):
    """The series in float (complex for complex z), or None unless it
    converged to a finite sum whose rounding error, bounded by
    4*k*eps*sum|t_k| over k terms, is within _FLOAT_REL_TOL of the sum."""
    inv = _inv_gamma_floats(spec.alpha, spec.truncation)
    total = size = power = 1.0
    for k in range(1, len(inv)):
        power *= z
        term = power * inv[k]
        total += term
        mag = abs(term)
        size += mag
        if mag < _ML_TERM_TOL * max(abs(total), 1e-30):
            break
    else:
        return None
    if math.isfinite(size) and 4 * k * 2.0 ** -52 * size <= _FLOAT_REL_TOL * abs(total):
        return total
    return None


def mittag_leffler(spec: MLSeriesSpec, z: complex) -> complex:
    """E_alpha(z) = sum_k z^k / Gamma(1 + k*alpha), by direct series: in
    float when its rounding error is certified small, otherwise with
    extended-precision accumulation to control cancellation at negative or
    imaginary z."""
    if abs(z) > spec.domain_guard:
        raise DomainGuardExceeded(f"|z| = {abs(z):g} exceeds guard {spec.domain_guard:g}")
    fast = _ml_float(spec, z)
    if fast is not None:
        return fast
    # cancellation for negative/complex z eats ~|z|^(1/alpha)*log10(e) digits;
    # widen the working precision accordingly (capped).  The loop works on
    # raw libmp parts with the operations, precision and rounding that the
    # mpf/mpc operators would apply, without their object layer.
    extra = int(min(0.5 * abs(z) ** (1.0 / spec.alpha), 200.0))
    with mpmath.workdps(_FALLBACK_DIGITS + extra):
        prec, rnd = mpmath.mp._prec_rounding
        c = complex(z)
        zz = (libmp.from_float(c.real), libmp.from_float(c.imag))
        total = power = (libmp.fone, libmp.fzero)
        tol = libmp.from_float(_ML_TERM_TOL)
        tiny = libmp.from_float(1e-30)
        tiny_bound = libmp.from_float(_ML_TERM_TOL * 1e-30)
        for k in range(1, spec.truncation + 1):
            power = libmp.mpc_mul(power, zz, prec, rnd)
            term = libmp.mpc_div_mpf(power, _gamma_1p(spec.alpha, k)._mpf_, prec, rnd)
            total = libmp.mpc_add(total, term, prec, rnd)
            # |term| < _ML_TERM_TOL * max(|total|, 1e-30)
            size = libmp.mpc_abs(total, prec, rnd)
            bound = (tiny_bound if libmp.mpf_lt(size, tiny)
                     else libmp.mpf_mul(size, tol, prec, rnd))
            if libmp.mpf_lt(libmp.mpc_abs(term, prec, rnd), bound):
                break
        else:
            raise NonConvergence(f"series did not converge in {spec.truncation} terms")
        # to_float rounds down unless told the context's rounding
        result = libmp.mpc_to_complex(total, rnd=rnd)
    if abs(result.imag) < 1e-30 and isinstance(z, (int, float)):
        return result.real
    return result


GENERALIZED_FN_NAMES = ("sinh", "cosh", "tanh", "coth", "sin", "cos", "tan", "cot")


def generalized_fn(name: str, alpha: float, x: float,
                   spec: MLSeriesSpec = None) -> float:
    """Generalized hyperbolic/trig functions: cosh_alpha(x) = E_2alpha(x^2alpha),
    sinh_alpha(x) = E_alpha(x^alpha) - cosh_alpha(x), and the trig family from
    E_alpha(+/- i x^alpha), reducing to the classical functions at alpha = 1.
    Requires x >= 0 since the argument enters as x^alpha."""
    if name not in GENERALIZED_FN_NAMES:
        raise ValueError(f"unknown generalized function {name!r}")
    if x < 0:
        raise ValueError("generalized functions take x >= 0")
    spec = spec or MLSeriesSpec(alpha)
    xa = x ** alpha
    if name in ("sinh", "cosh", "tanh", "coth"):
        # cosh_a(x) = E_2a(x^2a) holds the even terms of E_a(x^a), so both
        # series sum positive terms and E_a(-x^a) is never formed
        ep = mittag_leffler(spec, xa)
        cosh_a = mittag_leffler(replace(spec, alpha=2 * spec.alpha,
                                        domain_guard=spec.domain_guard ** 2), xa * xa)
        sinh_a = ep - cosh_a
        if name == "sinh":
            return sinh_a
        if name == "cosh":
            return cosh_a
        num, den = (sinh_a, cosh_a) if name == "tanh" else (cosh_a, sinh_a)
    else:
        # E_a(-i t) is the conjugate of E_a(i t), bit for bit on both paths
        ep = mittag_leffler(spec, 1j * xa)
        em = ep.conjugate()
        sin_a = ((ep - em) / 2j).real
        cos_a = ((ep + em) / 2.0).real
        if name == "sin":
            return sin_a
        if name == "cos":
            return cos_a
        num, den = (sin_a, cos_a) if name == "tan" else (cos_a, sin_a)
    if abs(den) < _POLE_TOL:
        raise PoleAt(x)
    return num / den


@dataclass(frozen=True)
class PowerLawTerm:
    gamma: float
    coefficient: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("power-law exponent must be > 0")


def jumarie_power_rule(alpha: float, t: PowerLawTerm, x: float) -> float:
    """D^alpha[c x^gamma] = c * Gamma(1+gamma)/Gamma(1+gamma-alpha) * x^(gamma-alpha)."""
    if x <= 0:
        raise ValueError("x must be > 0")
    arg = 1 + t.gamma - alpha
    if arg <= 0 and float(arg).is_integer():
        raise GammaPole(f"Gamma pole at 1+gamma-alpha = {arg}")
    return t.coefficient * math.gamma(1 + t.gamma) / math.gamma(arg) * x ** (t.gamma - alpha)


_BLOCK_ROWS = 16             # kernel rows are weighed and applied this many at a time


def _libm_pow(d, e: float):
    """d ** e elementwise for d >= 0 through libm's pow, as Python's float
    `**` computes it: numpy's SIMD `**` may differ in the last bit, which
    the outer difference quotient magnifies."""
    return np.fromiter(map(math.pow, d.ravel().tolist(), itertools.repeat(e)),
                       float, d.size).reshape(d.shape)


@dataclass(frozen=True, eq=False)
class JumarieMesh:
    """The product-integration mesh of one single-shot quadrature: for the
    four difference offsets y of every point, the nodes s of n cells graded
    toward the singular endpoint s = y, and the exact kernel weights w1, w2
    of each cell.  The weights depend on alpha, the points, X and n but not
    on the integrand, so one mesh serves any number of integrands."""
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
    x-h/2}.  The grading exponent is capped so adjacent nodes stay distinct
    in double precision.  The weights are built in blocks of _BLOCK_ROWS
    rows, so the temporaries stay small."""
    ys = np.concatenate((xs + h, xs - h, xs + h / 2, xs - h / 2))
    g = min(2.0 / (1.0 - alpha), 4.0)
    y = ys[:, None]
    s = y * np.array([1.0 - ((n - i) / n) ** g for i in range(n + 1)])
    oma, tma = 1.0 - alpha, 2.0 - alpha
    w1 = np.empty((len(ys), n))
    w2 = np.empty_like(w1)
    for lo in range(0, len(ys), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        d = y[rows] - s[rows]
        p = _libm_pow(d, oma)
        q = _libm_pow(d, tma)
        w1[rows] = (p[:, :-1] - p[:, 1:]) / oma
        w2[rows] = d[:, :-1] * w1[rows] - (q[:, :-1] - q[:, 1:]) / tma
    # cells from the first one that starts at y on, and empty cells, add 0
    live = np.logical_and.accumulate(s[:, :-1] < y, axis=1) & (np.diff(s) != 0.0)
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


def _points(alpha: float, x, X):
    """Checked points: (x is scalar, x as a 1-D array, X, difference step)."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if np.ndim(x) > 1:
        raise ValueError("x must be a scalar or a 1-D array")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    X = X if X is not None else 2.0 * xs
    if np.any(xs <= 0) or np.any(xs >= X):
        raise ValueError("x must lie in (0, X)")
    h = np.minimum(xs, X - xs) / 4.0
    if np.any(h <= 0):
        raise EndpointTooClose("x within one cell of an endpoint")
    return np.ndim(x) == 0, xs, X, h


def jumarie_mesh(alpha: float, x, X=None, n0: int = 64) -> JumarieMesh:
    """The mesh of a single-shot `jumarie_quadrature(f, alpha, x, X,
    max_refine=0, n0=n0)`: pass it to such calls as `mesh=` to weigh the
    kernel once for several integrands on the same points."""
    _, xs, X, h = _points(alpha, x, X)
    return _build_mesh(alpha, xs, X, n0, h)


def jumarie_quadrature(f, alpha: float, x, X=None,
                       max_refine: int = 9, n0: int = 64, mesh=None):
    """Modified Riemann-Liouville derivative of a continuous f at x:
    (1/Gamma(1-alpha)) d/dx int_0^x (x-s)^(-alpha) (f(s)-f(0)) ds.
    f maps an ndarray of points to their values and is called once per
    estimate.

    The inner integral uses product integration (piecewise-linear f against
    the exact kernel) on a mesh graded toward the singularity; the outer
    derivative is a Richardson-extrapolated central difference. The mesh is
    refined until two successive refinements agree to _QUAD_REL_TOL.

    x may be a 1-D array of points, in single-shot mode (max_refine = 0)
    only: every point then gets the estimate it would get alone, from one
    sample of f on all of their meshes together, and the result is an
    array.  A single-shot call may take its mesh from `jumarie_mesh` of the
    same alpha, x, X and n0; the result is the same, bit for bit."""
    scalar, xs, X, h0 = _points(alpha, x, X)
    if (not scalar or mesh is not None) and max_refine != 0:
        raise ValueError("an array x or a mesh needs single-shot mode (max_refine = 0)")
    if mesh is None:
        mesh = _build_mesh(alpha, xs, X, n0, h0)
    elif (mesh.alpha != alpha or mesh.n != n0 or not np.array_equal(mesh.x, xs)
          or not np.array_equal(mesh.X, X)):
        raise ValueError("the mesh was built for another alpha, x, X or n0")
    prev = _estimate(mesh, f)
    if max_refine == 0:
        # non-adaptive single-shot mode (sampled/interpolated integrands whose
        # interpolation error would defeat the refinement test)
        return float(prev[0]) if scalar else prev
    prev = float(prev[0])
    n, h = n0, h0
    for _ in range(max_refine):
        n *= 2
        h = h / 2
        cur = float(_estimate(_build_mesh(alpha, xs, X, n, h), f)[0])
        if abs(cur - prev) <= _QUAD_REL_TOL * max(abs(cur), 1.0):
            return cur
        prev = cur
    raise NonConvergence("quadrature refinement cap reached")
