"""Closed-form solution families from solved branches, grid evaluation, and
residual verification.

Integer-order residuals are computed through the exact phi-algebra: the
solution is a polynomial in phi, every xi-derivative is pushed through the
sub-equation by the chain rule, and the whole equation collapses to a single
polynomial R(phi) with exact rational coefficients.  When the branch
constraints hold, R is the zero polynomial and the residual is exactly zero.
Fractional residuals are a measurement: each order-(j*alpha) derivative is a
j-fold application of the Jumarie quadrature to the sampled solution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .pde_ast import PdeDefinition, jet_multi, jet_order, term_key
from .phi_calculus import PHI, SIGMA, SubEquationProfile
from .rational_poly import Poly
from .travelling_wave import ReducedOde, WaveFrame
from .special_fn import (
    MLSeriesSpec, PoleAt, generalized_fn, jumarie_mesh, jumarie_quadrature,
)

CONSTRAINT_TOL = 1e-12
POLE_EXCLUSION_RADIUS = 1e-2
DEFAULT_GRID = (-5.0, 5.0, 1001)

HYPERBOLIC_FAMILIES = ("Tanh", "Coth")
TRIG_FAMILIES = ("Tan", "Cot")


class DenominatorZero(ZeroDivisionError):
    pass


class PoleOnGrid(ValueError):
    pass


class FamilyMismatch(ValueError):
    pass


def _as_fraction(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class ClosedFormSolution:
    """u(xi) = sum a_i phi(xi)^i for one phi family admitted by sign(sigma)."""
    family: str                     # Tanh | Coth | Tan | Cot | Rational
    variant: str                    # classical | alphaGeneralized
    coefficients: tuple             # a_0..a_n as Fraction (exact where possible)
    frame: WaveFrame
    sigma: Fraction = Fraction(-1)
    omega: float = 0.0
    alpha: float = 1.0
    constraint_violated: bool = False
    constraint_values: tuple = ()
    xi_shift: float = 0.0
    params: tuple = ()              # bound (symbol, value) pairs, sorted

    def __post_init__(self):
        if self.family in HYPERBOLIC_FAMILIES and not (self.sigma < 0):
            raise ValueError(f"{self.family} family requires sigma < 0")
        if self.family in TRIG_FAMILIES and not (self.sigma > 0):
            raise ValueError(f"{self.family} family requires sigma > 0")
        if self.family == "Rational" and self.sigma != 0:
            raise ValueError("Rational family requires sigma = 0")

    def phi(self, xi: float) -> float:
        """phi(xi); odd extension for xi < 0 (every base function is odd)."""
        xi = xi + self.xi_shift
        if xi < 0:
            return -self.phi(-xi - self.xi_shift)
        if self.variant == "classical":
            if self.family == "Tanh":
                return math.tanh(xi)
            if self.family == "Coth":
                return 1.0 / math.tanh(xi)
        s = float(self.sigma)
        if self.family in HYPERBOLIC_FAMILIES:
            r = math.sqrt(-s)
            name = "tanh" if self.family == "Tanh" else "coth"
            return -r * self._gfn(name, r * xi)
        if self.family in TRIG_FAMILIES:
            r = math.sqrt(s)
            if self.family == "Tan":
                return r * self._gfn("tan", r * xi)
            return -r * self._gfn("cot", r * xi)
        den = xi ** self.alpha + self.omega
        if abs(den) < 1e-13:
            raise PoleAt(xi)
        return -math.gamma(1.0 + self.alpha) / den

    def _gfn(self, name: str, x: float) -> float:
        return generalized_fn(name, self.alpha, x, MLSeriesSpec(self.alpha))

    def u_of_xi(self, xi: float) -> float:
        p = self.phi(xi)
        total = 0.0
        for a in reversed(self.coefficients):
            total = total * p + float(a)
        return total

    def pole_distance(self, xi: float) -> float:
        """Distance in xi to the nearest real pole of phi (inf for Tanh)."""
        xi = xi + self.xi_shift
        if self.family == "Tanh":
            return math.inf
        if self.family == "Coth":
            return abs(xi)
        r = math.sqrt(abs(float(self.sigma))) if self.sigma else 0.0
        if self.family == "Tan":
            # poles of tan at r*xi = pi/2 + n*pi
            z = (r * xi - math.pi / 2) / math.pi
            return abs(z - round(z)) * math.pi / r
        if self.family == "Cot":
            z = r * xi / math.pi
            return abs(z - round(z)) * math.pi / r
        if self.omega == 0.0:
            return abs(xi)
        if self.omega < 0:
            return abs(abs(xi) - (-self.omega) ** (1.0 / self.alpha))
        return math.inf

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "variant": self.variant,
            "coefficients": [str(a) for a in self.coefficients],
            "frame": {k: _num_str(v) for k, v in sorted(self.frame.values.items())},
            "sigma": _num_str(self.sigma),
            "omega": _num_str(self.omega),
            "alpha": _num_str(self.alpha),
            "constraint_violated": self.constraint_violated,
            "constraint_values": [_num_str(v) for v in self.constraint_values],
        }


def _num_str(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return str(v.numerator)
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (int,)):
        return str(v)
    return "%.12e" % float(v)


@dataclass(frozen=True)
class ResidualReport:
    max_abs: float
    mean_abs: float
    grid: str
    excluded_points: tuple
    equation_form: str              # originalPde | reducedOde | fractionalRiccati

    def to_json(self) -> dict:
        return {
            "maxAbs": "%.12e" % self.max_abs,
            "meanAbs": "%.12e" % self.mean_abs,
            "grid": self.grid,
            "excludedPoints": ["%.12e" % p for p in self.excluded_points],
            "equationForm": self.equation_form,
        }


def _admitted_families(sigma) -> tuple:
    if sigma < 0:
        return HYPERBOLIC_FAMILIES
    if sigma > 0:
        return TRIG_FAMILIES
    return ("Rational",)


def construct_solutions(b, profile: SubEquationProfile, param_values: dict,
                        frame: WaveFrame, *, alpha: float = 1.0,
                        sigma=-1, omega: float = 0.0,
                        free_values: dict = None) -> list:
    """One ClosedFormSolution per family admitted by sign(sigma), with the
    branch assignments bound at param_values.  Under the Riccati profile
    `sigma` alone binds the symbol sigma; the classical profile fixes
    sigma = -1.  Unassigned unknowns (free coefficients, e.g. a0) default
    to 0 unless given in free_values."""
    vals = {k: _as_fraction(v) for k, v in param_values.items()}
    free = {k: _as_fraction(v) for k, v in (free_values or {}).items()}
    if profile.mode == "classicalTanh":
        sig = Fraction(-1)
        variant = "classical"
    else:
        sig = vals[SIGMA] = _as_fraction(sigma)
        if not isinstance(profile.r0, str) and profile.r0 != sig:
            raise ValueError(f"sigma = {sig} disagrees with the profile's r0 = {profile.r0}")
        variant = "alphaGeneralized"

    coeffs = {}
    for u, v in b.assignments.items():
        num = _as_fraction(v.num.eval(vals))
        den = _as_fraction(v.den.eval(vals))
        if den == 0:
            raise DenominatorZero(f"denominator of {u} vanishes at the given parameters")
        coeffs[u] = num / den
    cvals = []
    violated = False
    for c in b.constraints:
        cv = float(c.eval(vals))
        cvals.append(cv)
        if abs(cv) > CONSTRAINT_TOL:
            violated = True

    degree = max(int(u[1:]) for u in coeffs) if coeffs else 0
    for u in free:
        if u.startswith("a"):
            degree = max(degree, int(u[1:]))
    a = tuple(_as_fraction(coeffs.get(f"a{i}", free.get(f"a{i}", 0)))
              for i in range(degree + 1))

    out = []
    for fam in _admitted_families(sig):
        out.append(ClosedFormSolution(
            family=fam, variant=variant, coefficients=a, frame=frame,
            sigma=sig, omega=omega, alpha=alpha,
            constraint_violated=violated, constraint_values=tuple(cvals),
            params=tuple(sorted(vals.items()))))
    return out


# ---------------------------------------------------------------------------
# exact integer-order residuals

def _solution_phi_poly(s: ClosedFormSolution) -> Poly:
    p = Poly()
    for i, a in enumerate(s.coefficients):
        p = p + Poly.const(_as_fraction(a)) * Poly.var(PHI, i)
    return p


def _residual_profile(s: ClosedFormSolution) -> SubEquationProfile:
    if s.variant == "classical":
        return SubEquationProfile.classical_tanh()
    return SubEquationProfile.riccati(_as_fraction(s.sigma))


def _residual_poly(e: Poly, s: ClosedFormSolution, param_values: dict,
                   rate=lambda var: 1) -> Poly:
    """Collapse `e` to a single exact polynomial R(phi): each parameter takes
    its bound value and each jet u_J becomes D^|J| of the solution
    polynomial times rate(var)^order for every variable of J."""
    vals = {k: _as_fraction(v) for k, v in param_values.items()}
    syms = sorted(e.symbols())
    ds = _residual_profile(s).derivatives(
        _solution_phi_poly(s), max([0] + [jet_order(sym) or 0 for sym in syms]))
    sub = {}
    for sym in syms:
        multi = jet_multi(sym)
        if multi is None:
            if sym not in vals:
                raise KeyError(f"unbound parameter {sym!r}")
            sub[sym] = vals[sym]
        else:
            scale = Fraction(1)
            for var, o in multi:
                scale *= _as_fraction(rate(var)) ** o
            sub[sym] = ds[jet_order(sym)] * scale
    return e.substitute(sub)


def _grid_points(grid):
    lo, hi, n = grid
    return np.linspace(lo, hi, int(n))


def _report_from_R(R: Poly, s: ClosedFormSolution, grid, form: str) -> ResidualReport:
    pts = _grid_points(grid)
    uni = R.as_univariate(PHI)
    deg = max(uni) if uni else 0
    cs = [float(uni.get(d, Poly()).constant_value()) if d in uni else 0.0
          for d in range(deg + 1)]
    vals = []
    excluded = []
    for xi in pts:
        if s.pole_distance(xi) < POLE_EXCLUSION_RADIUS:
            excluded.append(xi)
            continue
        try:
            p = s.phi(xi)
        except PoleAt:
            excluded.append(xi)
            continue
        if not math.isfinite(p):
            excluded.append(xi)
            continue
        r = 0.0
        for c in reversed(cs):
            r = r * p + c
        vals.append(abs(r))
    if not vals:
        raise PoleOnGrid("every grid point fell inside a pole exclusion zone")
    return ResidualReport(max(vals), sum(vals) / len(vals),
                          f"xi in [{grid[0]:g}, {grid[1]:g}], {int(grid[2])} points",
                          tuple(excluded), form)


def residual_pde(s: ClosedFormSolution, p: PdeDefinition,
                 grid=DEFAULT_GRID) -> ResidualReport:
    """Pointwise |LHS - RHS| of the original PDE along xi, with derivatives
    taken exactly through the phi-algebra (each coordinate derivative brings
    one frame factor per order)."""
    fv = {k: _as_fraction(v) for k, v in s.frame.values.items()}
    fv.update(dict(s.params))
    R = _residual_poly(p.lhs_minus_rhs, s, fv, lambda var: fv[s.frame.symbol(var)])
    return _report_from_R(R, s, grid, "originalPde")


def residual_ode(s: ClosedFormSolution, o: ReducedOde, param_values: dict,
                 grid=DEFAULT_GRID) -> ResidualReport:
    """Residual of the reduced ODE (exact phi-algebra route)."""
    R = _residual_poly(o.expr, s, {**dict(s.params), **param_values})
    return _report_from_R(R, s, grid, "reducedOde")


# ---------------------------------------------------------------------------
# fractional residual measurement

FRACTIONAL_GRID = (0.5, 4.0, 15)


def _fractional_levels(s: ClosedFormSolution, max_j: int, X: float):
    """levels[j][i] ~ u^{(j*alpha)} at the dense nodes; each level is one
    array Jumarie quadrature, over every node more than two spacings from
    either end, of the interpolant of the previous level, and every level
    applies the one quadrature mesh built here.  The nodes within that
    margin take the level's linear extension."""
    delta = X / 100.0
    nodes = np.linspace(delta, X, 97)
    levels = [np.array([s.u_of_xi(x) for x in nodes])]
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


def residual_fractional(s: ClosedFormSolution, o: ReducedOde,
                        param_values: dict,
                        grid=FRACTIONAL_GRID) -> ResidualReport:
    """Measured residual of the fractional reduced ODE on xi > 0.  At
    alpha = 1 this degenerates to the exact classical route; for alpha < 1
    it is a report, not a pass/fail check."""
    if s.alpha == 1.0:
        return residual_ode(s, o, param_values, grid)
    lo, hi, n = grid
    if lo <= 0:
        raise ValueError("fractional grid must have xi > 0")
    X = 1.25 * hi
    vals = {k: float(v) for k, v in param_values.items()}
    # per term in print order: coefficient times parameters, then the
    # (derivative level, power) of each factor
    terms = []
    for m in sorted(o.expr.terms, key=term_key):
        _, factors, params = term_key(m)
        c = float(o.expr.terms[m])
        for sym, e in params:
            c *= vals[sym] ** e
        terms.append((c, [(sum(n for _, n in multi), e) for multi, e in factors]))
    nodes, levels = _fractional_levels(
        s, max([0] + [j for _, fs in terms for j, _ in fs]), X)
    res = []
    for xi in _grid_points(grid):
        at = [float(np.interp(xi, nodes, level)) for level in levels]
        total = 0.0
        for c, factors in terms:
            for j, e in factors:
                c *= at[j] ** e
            total += c
        res.append(abs(total))
    return ResidualReport(max(res), sum(res) / len(res),
                          f"xi in [{lo:g}, {hi:g}], {int(n)} points",
                          (), "reducedOde")


def riccati_probe(s: ClosedFormSolution, grid=FRACTIONAL_GRID) -> ResidualReport:
    """Measure D^alpha phi - (sigma + phi^2) on xi > 0 for the candidate phi:
    whether the generalized functions satisfy the fractional Riccati equation
    exactly is an open measurement, not an assumption.  The Jumarie
    derivative needs phi(0), so a family with its pole at xi = 0 (Coth, Cot,
    Rational with omega = 0) is refused."""
    if s.pole_distance(0.0) == 0:
        raise FamilyMismatch(f"{s.family} family has a pole at xi = 0, where "
                             "the Jumarie derivative samples phi")
    lo, hi, n = grid
    X = 1.25 * hi
    sig = float(s.sigma)

    def phi(t):
        return np.array([s.phi(v) for v in t.ravel().tolist()]).reshape(t.shape)

    pts = _grid_points(grid)
    # single-shot product integration: phi ~ xi^alpha near 0, whose kink
    # keeps the adaptive refinement test from ever settling
    d = jumarie_quadrature(phi, s.alpha, pts, X=X, max_refine=0, n0=512)
    res = [abs(dv - (sig + p * p))
           for dv, p in zip(d.tolist(), map(s.phi, pts.tolist()))]
    return ResidualReport(max(res), sum(res) / len(res),
                          f"xi in [{lo:g}, {hi:g}], {int(n)} points",
                          (), "fractionalRiccati")


def alpha_limit_check(sol_classical: ClosedFormSolution,
                      sol_fractional, alphas, grid=(0.1, 4.0, 41)) -> dict:
    """Max |u_alpha - u_1| per alpha over the xi-grid; sol_fractional is a
    factory alpha -> ClosedFormSolution (parameters re-powered per alpha)."""
    if sol_classical.family != "Tanh":
        raise FamilyMismatch("classical-limit check is defined for the Tanh family")
    pts = _grid_points(grid)
    base = [sol_classical.u_of_xi(x) for x in pts]
    out = {}
    for alpha in alphas:
        sa = sol_fractional(alpha)
        if sa.family != sol_classical.family or not (sa.sigma < 0):
            raise FamilyMismatch("fractional counterpart must be a Tanh family, sigma < 0")
        out[alpha] = max(abs(sa.u_of_xi(x) - b) for x, b in zip(pts, base))
    return out
