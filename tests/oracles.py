"""Independent references for the test suite: a numeric root finder and a
sympy solver for coefficient systems, the Jumarie quadrature as a scalar
loop, the Mittag-Leffler fallback on mpmath's number objects, and the
float and double-double series, the Mittag-Leffler tiers at one z, the
generalized functions, phi and the pole distance of a closed-form solution
as the scalar per-point code they replaced, the fractional residual's
derivative levels at every inner dense node, as the loop that the last
level's read nodes replaced, and the substitution of a solved value into a
coefficient row as the per-row formula that the branch step's power tables
replaced.  None is part of twsolve; each checks one of its exact,
vectorised or raw paths.
`riccati_probe` measures how far a closed-form phi is from solving the
fractional Riccati equation, the reference for a certificate of the
fractional sub-equation method.  sympy is imported inside the two
functions that use it, so the other oracles load where sympy is missing."""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

from twsolve import CoefficientSystem, NonConvergence, special_fn
from twsolve.rational_poly import Poly, RationalFn
from twsolve.solution_verify import (
    FRACTIONAL_GRID, ClosedFormSolution, ResidualReport, _grid_points,
    _no_pole, _report,
)
from twsolve.special_fn import (
    _FALLBACK_DIGITS, _FLOAT_REL_TOL, _ML_TERM_TOL, _POLE_TOL, _SPLIT,
    DEFAULT_GUARD, GENERALIZED_FN_NAMES, DomainGuardExceeded, PoleAt,
    _gamma_1p, _inv_gamma, _ml_fallback, jumarie_mesh, jumarie_quadrature,
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


def to_sympy(value, symbols: dict):
    """A Poly or RationalFn as a sympy expression; `symbols` maps each name
    to its sympy Symbol."""
    import sympy
    if isinstance(value, RationalFn):
        return to_sympy(value.num, symbols) / to_sympy(value.den, symbols)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(symbols[s] ** e for s, e in mono))
                       for mono, c in value.terms.items()))


def subs_per_row(poly: Poly, unknown: str, value: RationalFn) -> Poly:
    """unknown = num/den substituted into poly, the denominator cleared, as
    sum_d uni[d] * num^d * den^(deg - d) with every power formed afresh:
    the reference for `algebra_system._subs_assignment`."""
    uni = poly.as_univariate(unknown)
    deg = max(uni)
    out = Poly()
    for d in range(deg + 1):
        if d in uni:
            out = out + uni[d] * value.num ** d * value.den ** (deg - d)
    return out


def sympy_solutions(s: CoefficientSystem, speed: str):
    """sympy.solve on the coefficient rows for the unknowns and the wave
    speed together, as Baldwin, Goktas, Hereman et al. (J. Symb. Comput. 37
    (2004) 669) solve for the a_i and c.  The other parameters are positive
    symbols, so that sqrt(k**8) simplifies to k**4.  Returns the symbol
    table and the solutions as dicts Symbol -> expression."""
    import sympy
    solved = (*s.unknowns, speed)
    symbols = {name: sympy.Symbol(name) if name in solved
               else sympy.Symbol(name, positive=True)
               for name in (*s.unknowns, *s.parameters)}
    rows = [to_sympy(row, symbols) for _, row in s.equations]
    return symbols, sympy.solve(rows, [symbols[n] for n in solved], dict=True)


def scalar_quadrature(f, alpha, x, X, max_refine=9, n0=64):
    """The quadrature as a scalar loop over nodes and cells, one float
    operation at a time, each cell weighed by its own y: the reference for
    the array quadrature, which takes one scale per row, one unit row of
    sample weights and a pairwise sum, and must agree with it to within
    1e-10*max(1, |value|)."""
    oma, tma = 1.0 - alpha, 2.0 - alpha

    def inner(y, n):
        g = min(2.0 / (1.0 - alpha), 4.0, 52.0 / math.log2(max(n, 2)))
        # node i is y*(1 - c_i), so y - s = y*c_i on the cell's ends
        c = [((n - i) / n) ** g for i in range(n + 1)]
        nodes = [y * (1.0 - ci) for ci in c]
        fx = [f(s) for s in nodes]
        yp, yq = y ** oma, y ** tma
        total = 0.0
        for i in range(n):
            if nodes[i] >= y:
                break
            h = nodes[i + 1] - nodes[i]
            if h == 0.0:
                continue
            slope = (fx[i + 1] - fx[i]) / h
            a1 = (c[i] ** oma - c[i + 1] ** oma) / oma
            b1 = c[i] * a1 - (c[i] ** tma - c[i + 1] ** tma) / tma
            total += (fx[i] - fx[0]) * (yp * a1) + slope * (yq * b1)
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


def scalar_ml_float(alpha: float, z: float):
    """The float series at one real z as a scalar loop, or None unless it
    converged to a finite sum whose rounding error, bounded by
    4*k*eps*sum|t_k| over k terms, is within _FLOAT_REL_TOL of the sum: the
    reference that the array kernel `special_fn._ml_float` must reproduce
    bit for bit, in values and in the accept decision."""
    inv = _inv_gamma(alpha, special_fn._ML_TERMS)[0].tolist()
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


def _dd_mul(ah, al, bh, bl):
    def halves(x):
        c = _SPLIT * x
        return c - (c - x), x - (c - (c - x))

    (a1, a2), (b1, b2), p = halves(ah), halves(bh), ah * bh
    e = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2 + (ah * bl + al * bh)
    return p + e, e - ((p + e) - p)


def _dd_add(ah, al, bh, bl):
    s = ah + bh
    v = s - ah
    e = ((ah - (s - v)) + (bh - v)) + (al + bl)
    return s + e, e - ((s + e) - s)


def scalar_ml_dd(alpha: float, z):
    """The double-double series at one z on the real or imaginary axis as
    a scalar loop, or None unless it stopped at a term below _ML_TERM_TOL
    of the part it certifies and each part's rounding error, bounded by
    8*k*2^-104*sum|t_k|, is within 2^-53 of it: the reference that the
    array kernel `special_fn._ml_dd` must reproduce bit for bit, in values
    and in the accept decision."""
    hi, lo = _inv_gamma(alpha, special_fn._ML_TERMS).tolist()
    c = complex(z)
    imag = c.imag != 0
    t = c.imag if imag else c.real
    ph, pl = 1.0, 0.0
    parts = [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]     # even, odd: hi, lo, sum|t_k|
    for k in range(1, len(hi)):
        f = -t if imag and k % 2 == 0 else t        # i*i = -1 on even k
        ph, pl = _dd_mul(ph, pl, f, 0.0)
        th, tl = _dd_mul(ph, pl, hi[k], lo[k])
        acc = parts[k % 2]
        acc[:] = *_dd_add(acc[0], acc[1], th, tl), acc[2] + abs(th)
        (eh, _, _), (oh, _, _) = parts
        if abs(th) < _ML_TERM_TOL * (min(abs(eh), abs(oh)) if imag else abs(eh + oh)):
            break
    else:
        return None
    (eh, el, es), (oh, ol, os_) = parts
    whole = _dd_add(eh, el, oh, ol)[0]
    bound = 8 * k * 2.0 ** -51
    if not math.isfinite(es + os_):
        return None
    if imag:
        return complex(eh, oh) if bound * es <= abs(eh) and bound * os_ <= abs(oh) else None
    if bound * (es + os_) <= abs(whole):
        return complex(whole) if isinstance(z, complex) else whole
    return None


def operator_ml_fallback(alpha: float, z: complex) -> complex:
    """`special_fn._ml_fallback` at a z off both axes, written with mpmath's
    mpf/mpc operators: the reference that the raw libmp loop must
    reproduce bit for bit."""
    # cancellation for negative/complex z eats ~|z|^(1/alpha)*log10(e) digits;
    # widen the working precision accordingly (capped)
    extra = int(min(0.5 * abs(z) ** (1.0 / alpha), 200.0))
    with mpmath.workdps(_FALLBACK_DIGITS + extra):
        zz = mpmath.mpmathify(z)
        total = mpmath.mpf(1)
        power = mpmath.mpf(1)
        for k in range(1, special_fn._ML_TERMS + 1):
            power = power * zz
            term = power / _gamma_1p(alpha, k)
            total = total + term
            if abs(term) < _ML_TERM_TOL * max(abs(total), 1e-30):
                break
        else:
            raise NonConvergence(f"series did not converge in {special_fn._ML_TERMS} terms")
        return complex(total)


def scalar_mittag_leffler(alpha: float, z, guard: float = DEFAULT_GUARD):
    """`special_fn.mittag_leffler` at one z: the scalar float loop for real
    z, then the scalar double-double loop for z on an axis, then the
    fallback."""
    if abs(z) > guard:
        raise DomainGuardExceeded(f"|z| = {abs(z):g} exceeds guard {guard:g}")
    c = complex(z)
    fast = scalar_ml_float(alpha, c.real) if c.imag == 0 else None
    if fast is not None:
        return complex(fast) if isinstance(z, complex) else fast
    dd = scalar_ml_dd(alpha, z) if c.real == 0 or c.imag == 0 else None
    return _ml_fallback(alpha, z) if dd is None else dd


def scalar_generalized_fn(name: str, alpha: float, x: float) -> float:
    """`special_fn.generalized_fn` at one x as the scalar code it replaced,
    the trig parts taken with E_a(-i t) formed as the conjugate."""
    if name not in GENERALIZED_FN_NAMES:
        raise ValueError(f"unknown generalized function {name!r}")
    if x < 0:
        raise ValueError("generalized functions take x >= 0")
    try:
        xa = x ** alpha
    except OverflowError:
        xa = math.inf
    if name in ("sinh", "cosh", "tanh", "coth"):
        ep = scalar_mittag_leffler(alpha, xa)
        cosh_a = scalar_mittag_leffler(2 * alpha, xa * xa, guard=DEFAULT_GUARD ** 2)
        odd, even = ep - cosh_a, cosh_a
    else:
        ep = scalar_mittag_leffler(alpha, 1j * xa)
        em = ep.conjugate()
        odd, even = ((ep - em) / 2j).real, ((ep + em) / 2.0).real
    kind = GENERALIZED_FN_NAMES.index(name) % 4
    if kind < 2:
        return (odd, even)[kind]
    num, den = (odd, even) if kind == 2 else (even, odd)
    if abs(den) < _POLE_TOL:
        raise PoleAt(x)
    return num / den


def scalar_phi(s, xi: float) -> float:
    """`ClosedFormSolution.phi` at one xi as the scalar code it replaced,
    which raised at a pole."""
    xi = xi + s.xi_shift
    odd = xi < 0
    if odd:
        xi = -xi
    if s.variant == "classical" and s.family == "Tanh":
        v = math.tanh(xi)
    elif s.variant == "classical" and s.family == "Coth":
        v = 1.0 / math.tanh(xi)
    elif s.family in ("Tanh", "Coth"):
        r = math.sqrt(-float(s.sigma))
        name = "tanh" if s.family == "Tanh" else "coth"
        v = -r * scalar_generalized_fn(name, s.alpha, r * xi)
    elif s.family in ("Tan", "Cot"):
        r = math.sqrt(float(s.sigma))
        v = (r * scalar_generalized_fn("tan", s.alpha, r * xi) if s.family == "Tan"
             else -r * scalar_generalized_fn("cot", s.alpha, r * xi))
    else:
        den = xi ** s.alpha + s.omega
        if abs(den) < 1e-13:
            raise PoleAt(xi)
        v = -math.gamma(1.0 + s.alpha) / den
    return -v if odd else v


def scalar_pole_distance(s, xi: float) -> float:
    """`ClosedFormSolution.pole_distance` at one xi as the scalar code it
    replaced."""
    xi = xi + s.xi_shift
    if s.family == "Tanh":
        return math.inf
    if s.family == "Coth":
        return abs(xi)
    r = math.sqrt(abs(float(s.sigma))) if s.sigma else 0.0
    if s.family == "Tan":
        z = (r * xi - math.pi / 2) / math.pi
        return abs(z - round(z)) * math.pi / r
    if s.family == "Cot":
        z = r * xi / math.pi
        return abs(z - round(z)) * math.pi / r
    if s.omega == 0.0:
        return abs(xi)
    if s.omega < 0:
        return abs(abs(xi) - (-s.omega) ** (1.0 / s.alpha))
    return math.inf


def per_point_phi(s, xis) -> np.ndarray:
    """phi of a closed-form solution as a loop of `scalar_phi` over the
    points, NaN where it raised at a pole: the reference for
    `ClosedFormSolution.phi` on a tuple."""
    out = []
    for xi in xis:
        try:
            out.append(scalar_phi(s, xi))
        except ZeroDivisionError:
            out.append(math.nan)
    return np.array(out)


def per_point_u(s, xis) -> np.ndarray:
    """u = sum a_i phi^i as a loop over the points: the reference for
    `ClosedFormSolution.u_on`."""
    out = []
    for p in per_point_phi(s, xis).tolist():
        total = 0.0
        for a in reversed(s.coefficients):
            total = total * p + float(a)
        out.append(total)
    return np.array(out)


def all_node_levels(s, max_j, X):
    """The fractional residual's derivative levels with each one, the last
    too, taken at every inner dense node on the one mesh of those nodes:
    the reference that `_fractional_levels`, which takes the last level
    only at the nodes a grid reads, must match bit for bit wherever the
    grid reads it."""
    delta = X / 100.0
    nodes = np.linspace(delta, X, 97)
    levels = [_no_pole(nodes, s.u_on(nodes))]
    margin = 2.0 * (nodes[1] - nodes[0])
    inner = (nodes > margin) & (nodes < X - margin)
    mesh = jumarie_mesh(s.alpha, nodes[inner], X=float(X), n0=256) if max_j else None
    for _ in range(max_j):
        prev = levels[-1]
        cur = np.full_like(prev, np.nan)
        cur[inner] = jumarie_quadrature(lambda t: np.interp(t, nodes, prev),
                                        s.alpha, nodes[inner], X=float(X),
                                        max_refine=0, n0=256, mesh=mesh)
        good = ~np.isnan(cur)
        cur[~good] = np.interp(nodes[~good], nodes[good], cur[good])
        levels.append(cur)
    return nodes, levels


class FamilyMismatch(ValueError):
    pass


def riccati_probe(s: ClosedFormSolution, grid=FRACTIONAL_GRID) -> ResidualReport:
    """Measure D^alpha phi - (sigma + phi^2) on xi > 0 for the candidate phi:
    whether the generalized functions satisfy the fractional Riccati equation
    exactly is an open measurement, not an assumption.  The Jumarie
    derivative needs phi(0), so a family with its pole at xi = 0 (Coth, Cot,
    Rational with omega = 0) is refused."""
    if s.pole_distance(np.zeros(1))[0] == 0:
        raise FamilyMismatch(f"{s.family} family has a pole at xi = 0, where "
                             "the Jumarie derivative samples phi")
    X = 1.25 * grid[1]
    sig = float(s.sigma)

    def phi(t):         # over the samples in order, refusing a pole
        return _no_pole(t.ravel(), s.phi(tuple(t.ravel().tolist())))

    pts = _grid_points(grid)
    # single-shot product integration: phi ~ xi^alpha near 0, whose kink
    # keeps the adaptive refinement test from ever settling
    d = jumarie_quadrature(lambda t: phi(t).reshape(t.shape),
                           s.alpha, pts, X=X, max_refine=0, n0=512)
    res = [abs(dv - (sig + p * p)) for dv, p in zip(d.tolist(), phi(pts).tolist())]
    return _report(res, grid, (), "fractionalRiccati")
