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
_SPLIT = 2.0 ** 27 + 1      # Veltkamp's splitter of a float into two halves
# sys.getrefcount of an array held only by one local name and the call's
# argument; CPython 3.14 may borrow such references, so no count is trusted
_OWNED_REFS = 2 if sys.implementation.name == "cpython" and sys.version_info < (3, 14) else 0


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
def _inv_gamma(alpha: float, terms: int) -> np.ndarray:
    """1/Gamma(1 + k*alpha) for k = 0..terms as hi + lo rows of a read-only
    2 x n array, from mpmath at 40 digits, cut before the first hi below
    the normal float range.  hi alone is the float series' table."""
    pairs = []
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        for k in range(terms + 1):
            v = mpmath.rgamma(1 + k * a)
            if float(v) < sys.float_info.min:
                break
            pairs.append((float(v), float(v - float(v))))
    out = np.array(pairs).T
    out.flags.writeable = False
    return out


def _ml_float(alpha: float, z: np.ndarray):
    """The series in float at each element of the 1-D array z of reals:
    (sums, accepted), float sums.  Each element makes the scalar series' float
    operations in their order, stops at its own first term below
    _ML_TERM_TOL of the sum, and is accepted when the sum is finite and its
    rounding error, bounded by 4*k*eps*sum|t_k| over k terms, is within
    _FLOAT_REL_TOL of it.  Terms go _ML_BLOCK at a time along a second axis,
    summed by accumulate (in order, unlike np.sum)."""
    inv, n = _inv_gamma(alpha, _ML_TERMS)[0], len(z)
    sums, accepted, size = np.zeros(n), np.zeros(n, bool), np.ones(n)
    live, zz, power, total = np.arange(n), z.real[:, None], np.ones(n), np.ones(n)

    def run(op, first, block):      # first op block[0] op block[1] ..., in order
        return op.accumulate(np.hstack((first[:, None], block)), axis=1)[:, 1:]

    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(1, len(inv), _ML_BLOCK):
            f = inv[k0:k0 + _ML_BLOCK]
            power = run(np.multiply, power, np.broadcast_to(zz, (len(live), len(f))))
            terms = power * f
            total, mag = run(np.add, total, terms), np.abs(terms)
            size, tot = run(np.add, size, mag), np.abs(total)
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


def _dd_mul(ah, al, bh, bl):
    """(ah + al)*(bh + bl) as a hi + lo pair: Dekker's exact product of the
    highs (Veltkamp's split into 26-bit halves), plus the cross products."""
    c, d, p = _SPLIT * ah, _SPLIT * bh, ah * bh
    a1, b1 = c - (c - ah), d - (d - bh)
    a2, b2 = ah - a1, bh - b1
    e = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2 + (ah * bl + al * bh)
    h = p + e
    return h, e - (h - p)


def _dd_add(ah, al, bh, bl):
    """(ah + al) + (bh + bl) as a hi + lo pair: Knuth's TwoSum, then lows."""
    s = ah + bh
    v = s - ah
    e = ((ah - (s - v)) + (bh - v)) + (al + bl)
    h = s + e
    return h, e - (h - s)


def _ml_dd(alpha: float, z: np.ndarray):
    """The series in double-double at each element of a 1-D array z on the
    real or imaginary axis: (sums, accepted), sums of z's dtype.  For z =
    t*i^q the real coefficient of z^k is that of z^(k-1) times t, or -t at
    even k for imaginary z, so the even and the odd terms are two real sums:
    Re E and Im E for imaginary z, halves of E for real z.  Each element
    stops at its own first term below _ML_TERM_TOL of the part it certifies
    (|E|, or the smaller of |Re E| and |Im E|), and is accepted when each
    part's rounding error, bounded by 8*k*2^-104*sum|t_k| over its k terms,
    is within 2^-53 of it.  A stopped element adds exact zeros, so its bits
    do not depend on the rest of its grid."""
    hi, lo = _inv_gamma(alpha, _ML_TERMS).tolist()
    n, imag = len(z), z.imag != 0
    steps = (np.where(imag, -z.imag, z.real), np.where(imag, z.imag, z.real))
    ph, pl, passes, stop = np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n, bool)
    # hi, lo and sum|t_k| of the even and of the odd terms
    parts = [[np.ones(n), np.zeros(n), np.ones(n)], [np.zeros(n)] * 3]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(hi)):
            ph, pl = _dd_mul(ph, pl, steps[k % 2], 0.0)
            th, tl = _dd_mul(ph, pl, hi[k], lo[k])
            acc = parts[k % 2]
            acc[:] = *_dd_add(acc[0], acc[1], th, tl), acc[2] + np.abs(th)
            (eh, _, _), (oh, _, _) = parts
            part = np.where(imag, np.minimum(np.abs(eh), np.abs(oh)), np.abs(eh + oh))
            stop = np.abs(th) < _ML_TERM_TOL * part
            passes += ~stop
            if stop.all():
                break
            ph[stop] = pl[stop] = 0.0
    (eh, el, es), (oh, ol, os_) = parts
    whole = _dd_add(eh, el, oh, ol)[0]
    bound = 8 * (passes + 1) * 2.0 ** -51
    accepted = stop & np.isfinite(es + os_) & np.where(
        imag, (bound * es <= np.abs(eh)) & (bound * os_ <= np.abs(oh)),
        bound * (es + os_) <= np.abs(whole))
    sums = np.where(imag, eh, whole).astype(z.dtype)
    if imag.any():
        sums.imag[imag] = oh[imag]
    return sums, accepted


def mittag_leffler(alpha: float, zs: tuple, guard: float = DEFAULT_GUARD):
    """E_alpha(z) = sum_k z^k / Gamma(1 + k*alpha) at each z of a tuple (so
    that a call's arguments stay hashable), as a 1-D array: by direct series
    in float (real z), then in double-double (either axis), each where its
    rounding error is certified small, otherwise with extended-precision
    accumulation.  |z| beyond `guard` is refused.  The first element with an
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
    z = np.where(size > guard, 0, zs)
    out, todo = np.zeros(len(z), z.dtype), np.ones(len(z), bool)
    for kernel, domain in ((_ml_float, z.imag == 0), (_ml_dd, (z.real == 0) | (z.imag == 0))):
        idx = np.flatnonzero(todo & domain)
        if len(idx):
            out[idx], done = kernel(alpha, z[idx])
            todo[idx[done]] = False
    for i in np.flatnonzero(todo[:first]):
        out[i] = _ml_fallback(alpha, zs[i].item())
    if first < len(zs):
        raise DomainGuardExceeded(f"|z| = {size[first]:g} exceeds guard {guard:g}")
    return out


def _ml_fallback(alpha: float, z: complex) -> complex:
    """The series in mpmath for a z that the float and double-double sums
    leave, on raw libmp parts with the mpf/mpc operators' operations,
    precision and rounding; for imaginary z against min(|Re|, |Im|)."""
    imag = z.real == 0 and z.imag != 0
    # cancellation eats ~|z|^(1/alpha)*log10(e) digits of |E| at negative or
    # complex z, twice as many for a part of E(i t), down to exp(-|z|^(1/alpha))
    extra = int(min((0.9 if imag else 0.5) * abs(z) ** (1.0 / alpha), 200.0))
    with mpmath.workdps(_FALLBACK_DIGITS + extra):
        prec, rnd = mpmath.mp._prec_rounding
        zz = (libmp.from_float(z.real), libmp.from_float(z.imag))
        total = power = (libmp.fone, libmp.fzero)
        tol = libmp.from_float(_ML_TERM_TOL)
        tiny = libmp.from_float(1e-30)
        tiny_bound = libmp.from_float(_ML_TERM_TOL * 1e-30)
        for k in range(1, _ML_TERMS + 1):
            power = libmp.mpc_mul(power, zz, prec, rnd)
            term = libmp.mpc_div_mpf(power, _gamma_1p(alpha, k)._mpf_, prec, rnd)
            total = libmp.mpc_add(total, term, prec, rnd)
            size = (min(map(libmp.mpf_abs, total), key=functools.cmp_to_key(libmp.mpf_cmp))
                    if imag else libmp.mpc_abs(total, prec, rnd))
            bound = (tiny_bound if libmp.mpf_lt(size, tiny)
                     else libmp.mpf_mul(size, tol, prec, rnd))
            if libmp.mpf_lt(libmp.mpc_abs(term, prec, rnd), bound):
                break
        else:
            raise NonConvergence(f"series did not converge in {_ML_TERMS} terms")
        # to_float rounds down unless told the context's rounding
        result = libmp.mpc_to_complex(total, rnd=rnd)
    return result.real if isinstance(z, (int, float)) else result


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


@dataclass(frozen=True, eq=False)
class JumarieMesh:
    """The product-integration mesh of one quadrature estimate: for the
    four difference offsets y of every point, the nodes s of n cells graded
    toward the singular endpoint s = y, and the kernel's sample weights, one
    unit row w scaled by y^(1-alpha) per row.  They depend on alpha, the
    points, X and n but not on the integrand: one mesh serves them all."""
    alpha: float
    x: np.ndarray           # the points, 1-D
    X: object               # the X the points were checked against
    n: int                  # cells per offset
    h: np.ndarray           # difference step of each point
    s: np.ndarray           # graded nodes, one row per offset
    scale: np.ndarray       # y^(1-alpha) of each row
    w: np.ndarray           # sample weights of the unit row, n + 1
    live: np.ndarray        # the unit row's cells that add to the integral


def _unit_row(alpha: float, n: int):
    """(1 - c, w, live) of the unit row of n cells, read-only: the nodes'
    shares 1 - c_i of y, the n + 1 sample weights and the cells of nonzero
    width, 17n + 16 bytes in all."""
    g = min(2.0 / (1.0 - alpha), 4.0, 52.0 / math.log2(max(n, 2)))
    oma, tma = 1.0 - alpha, 2.0 - alpha
    c = [((n - i) / n) ** g for i in range(n + 1)]
    p, q = [ci ** oma for ci in c], [ci ** tma for ci in c]
    A = [(p[i] - p[i + 1]) / oma for i in range(n)]
    B = [c[i] * A[i] - (q[i] - q[i + 1]) / tma for i in range(n)]
    d = -np.diff(c)
    live = d > 0.0                  # a cell of zero width adds 0
    r = np.divide(B, d, out=np.zeros(n), where=live)
    w = np.append(np.where(live, A, 0.0) - r, 0.0) + np.append(0.0, r)
    row = (1.0 - np.array(c), w, live)
    for a in row:
        a.flags.writeable = False
    return row


# the unit rows of `jumarie_mesh`, which the residual asks for again at
# every call: at most 8 * (17 n0 + 16) bytes, 35 KB at its n0 = 256.  The
# refinements' rows are not kept: an adaptive call takes 9 sizes in turn,
# more than the cache holds, so the next call would find none of them
_mesh_row = functools.lru_cache(maxsize=8)(_unit_row)


def _build_mesh(alpha: float, xs, X, n: int, h, row) -> JumarieMesh:
    """Nodes and weights of int_0^y (y-s)^(-alpha) (f(s)-f(0)) ds for
    f piecewise linear on the graded nodes, at y in {x+h, x-h, x+h/2,
    x-h/2}.  Node i is y*(1 - c_i), c_i = ((n-i)/n)^g, so y - s_i = y*c_i
    and the integral is y^(1-alpha) sum_i w_i (f_i - f_0), w_i = A_i +
    B_(i-1)/d_(i-1) - B_i/d_i, A and B the exact integrals and d the widths
    of the unit row's cells: `row`, the `_unit_row` of (alpha, n).
    g <= 4 and c_(n-1) >= 2^-52 keep the rounded nodes distinct and below
    y.  Every power is libm's pow on a Python float: numpy's SIMD `**` may
    differ in the last bit on another CPU."""
    ys = np.concatenate((xs + h, xs - h, xs + h / 2, xs - h / 2))
    share, w, live = row
    scale = np.array([v ** (1.0 - alpha) for v in ys.tolist()])
    return JumarieMesh(alpha, xs, X, n, h, ys[:, None] * share, scale, w, live)


def _estimate(mesh: JumarieMesh, f):
    """The Richardson-extrapolated central difference of the inner
    integrals at every point of the mesh.  f is sampled once, on the nodes
    of every row together.  Samples that only this call holds (a float
    array of the nodes' shape that owns its data and has no other
    reference, the test numpy's own temporary elision makes) become the
    cells in place; any other result is copied first.  A row is its scale
    times its weighted samples' sum by numpy's pairwise reduce, whose
    order, unlike BLAS's, is fixed."""
    fx = f(mesh.s)
    if (type(fx) is np.ndarray and sys.getrefcount(fx) == _OWNED_REFS
            and fx.base is None and fx.shape == mesh.s.shape
            and fx.dtype == np.float64 and fx.flags.writeable):
        fx -= fx[:, :1].copy()      # the view itself would make numpy copy all of fx
        cells = fx
    else:
        fx = np.broadcast_to(fx, mesh.s.shape)
        cells = fx - fx[:, :1]
    cells *= mesh.w
    ints = (np.add.reduce(cells, axis=1) * mesh.scale).reshape(4, -1)
    d1 = (ints[0] - ints[1]) / (2 * mesh.h)
    d2 = (ints[2] - ints[3]) / mesh.h
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
    return _build_mesh(alpha, xs, X, n0, h, _mesh_row(alpha, n0))


def jumarie_quadrature(f, alpha: float, xs, X=None,
                       max_refine: int = 9, n0: int = 64, mesh=None):
    """Modified Riemann-Liouville derivative of a continuous f at each x of
    a 1-D array, as an array: (1/Gamma(1-alpha)) d/dx int_0^x (x-s)^(-alpha)
    (f(s)-f(0)) ds.  f maps an ndarray of points to their values and is
    called once per estimate, on the meshes of all the points it serves.
    An array f returns and keeps no reference to is the estimate's to
    overwrite (on CPython 3.10 to 3.13; elsewhere every result is copied);
    an array f keeps, a view, a broadcast or a scalar is copied, and f
    never sees its values change.

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
        mesh = _build_mesh(alpha, xs, X, n0, h, _unit_row(alpha, n0))
    elif (mesh.alpha != alpha or mesh.n != n0 or not np.array_equal(mesh.x, xs)
          or not np.array_equal(mesh.X, X)):
        raise ValueError("the mesh was built for another alpha, x, X or n0")
    prev = _estimate(mesh, f)
    if max_refine == 0:
        return prev
    out, live, n = np.empty(len(xs)), np.arange(len(xs)), n0
    for _ in range(max_refine):
        n, h = 2 * n, h / 2
        cur = _estimate(_build_mesh(alpha, xs[live], X, n, h, _unit_row(alpha, n)), f)
        done = np.abs(cur - prev) <= _QUAD_REL_TOL * np.maximum(np.abs(cur), 1.0)
        out[live[done]] = cur[done]
        live, prev, h = live[~done], cur[~done], h[~done]
        if not len(live):
            return out
    raise NonConvergence("quadrature refinement cap reached")
