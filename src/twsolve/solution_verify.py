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
from .travelling_wave import (
    FRAME_SYMBOLS, FRAME_SYMBOLS_FRACTIONAL, ReducedOde, frame_symbol,
)
from .special_fn import (
    DomainGuardExceeded, PoleAt, generalized_fn, jumarie_mesh, jumarie_quadrature,
)

CONSTRAINT_TOL = 1e-12
POLE_EXCLUSION_RADIUS = 1e-2
DEFAULT_GRID = (-5.0, 5.0, 1001)

HYPERBOLIC_FAMILIES = ("Tanh", "Coth")
TRIG_FAMILIES = ("Tan", "Cot")
FRAME_ATOMS = {*FRAME_SYMBOLS.values(), *FRAME_SYMBOLS_FRACTIONAL.values()}


class DenominatorZero(ZeroDivisionError):
    pass


class PoleOnGrid(ValueError):
    pass


def _as_fraction(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class ClosedFormSolution:
    """u(xi) = sum a_i phi(xi)^i for one phi family admitted by sign(sigma)."""
    family: str                     # Tanh | Coth | Tan | Cot | Rational
    variant: str                    # classical | alphaGeneralized
    coefficients: tuple             # a_0..a_n, each a Fraction (a float a0 exactly)
    sigma: Fraction = Fraction(-1)
    omega: float = 0.0
    alpha: float = 1.0
    constraint_values: tuple = ()
    xi_shift: float = 0.0
    params: tuple = ()              # bound (symbol, value) pairs, sorted

    @property
    def constraint_violated(self) -> bool:
        return any(abs(v) > CONSTRAINT_TOL for v in self.constraint_values)

    def __post_init__(self):
        if self.family in HYPERBOLIC_FAMILIES and not (self.sigma < 0):
            raise ValueError(f"{self.family} family requires sigma < 0")
        if self.family in TRIG_FAMILIES and not (self.sigma > 0):
            raise ValueError(f"{self.family} family requires sigma > 0")
        if self.family == "Rational" and self.sigma != 0:
            raise ValueError("Rational family requires sigma = 0")

    def phi(self, xis: tuple) -> np.ndarray:
        """phi at each xi of a tuple (a tuple, so that a call's arguments
        stay hashable), as a 1-D array.  NaN at a pole; odd extension for
        xi < 0 (every base function is odd)."""
        xi = np.array(xis, dtype=float) + self.xi_shift
        odd = xi < 0
        xi = np.where(odd, -xi, xi)
        if self.variant == "classical" and self.family in HYPERBOLIC_FAMILIES:
            v = np.array([math.tanh(x) for x in xi.tolist()])
            if self.family == "Coth":
                v = 1.0 / np.where(v == 0, np.nan, v)
        elif self.family in HYPERBOLIC_FAMILIES:
            r = math.sqrt(-float(self.sigma))
            name = "tanh" if self.family == "Tanh" else "coth"
            v = -r * generalized_fn(name, self.alpha, r * xi)
        elif self.family in TRIG_FAMILIES:
            r = math.sqrt(float(self.sigma))
            v = (r * generalized_fn("tan", self.alpha, r * xi) if self.family == "Tan"
                 else -r * generalized_fn("cot", self.alpha, r * xi))
        else:
            den = np.array([x ** self.alpha for x in xi.tolist()]) + float(self.omega)
            v = -math.gamma(1.0 + self.alpha) / np.where(np.abs(den) < 1e-13, np.nan, den)
        return np.where(odd, -v, v)

    def u_on(self, xis) -> np.ndarray:
        """u at each xi of a 1-D sequence, NaN at a pole of phi."""
        p, total = self.phi(tuple(np.asarray(xis, dtype=float).tolist())), 0.0
        for a in reversed(self.coefficients):
            total = total * p + float(a)
        return total

    def pole_distance(self, xi: np.ndarray) -> np.ndarray:
        """Distance to the nearest real pole of phi, per xi (inf for Tanh)."""
        xi = xi + self.xi_shift
        if self.family == "Tanh":
            return np.full(xi.shape, math.inf)
        if self.family == "Coth":
            return np.abs(xi)
        r = math.sqrt(abs(float(self.sigma))) if self.sigma else 0.0
        if self.family == "Tan":
            # poles of tan at r*xi = pi/2 + n*pi
            z = (r * xi - math.pi / 2) / math.pi
            return np.abs(z - np.round(z)) * math.pi / r
        if self.family == "Cot":
            z = r * xi / math.pi
            return np.abs(z - np.round(z)) * math.pi / r
        if self.omega == 0.0:
            return np.abs(xi)
        if self.omega < 0:
            return np.abs(np.abs(xi) - (-self.omega) ** (1.0 / self.alpha))
        return np.full(xi.shape, math.inf)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "variant": self.variant,
            "coefficients": [str(a) for a in self.coefficients],
            "frame": {k: _num_str(v) for k, v in self.params if k in FRAME_ATOMS},
            "sigma": _num_str(self.sigma),
            "omega": _num_str(self.omega),
            "alpha": _num_str(self.alpha),
            "constraint_violated": self.constraint_violated,
            "constraint_values": [_num_str(v) for v in self.constraint_values],
        }


def _num_str(v):
    return str(v) if isinstance(v, (int, Fraction)) else "%.12e" % float(v)


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


def construct_solutions(b, profile: SubEquationProfile, param_values: dict, *,
                        alpha: float = 1.0, sigma=-1, omega: float = 0.0,
                        a0: float = 0.0) -> list:
    """One ClosedFormSolution per family admitted by sign(sigma), with the
    branch assignments bound at param_values.  Under the Riccati profile
    `sigma` alone binds the symbol sigma; the classical profile fixes
    sigma = -1.  An unassigned a0 takes the value `a0`; any other
    unassigned coefficient is 0.  Each solution keeps the values as given
    in `params`."""
    params = dict(param_values)
    if profile.mode == "classicalTanh":
        sig = Fraction(-1)
        variant = "classical"
    else:
        sig = params[SIGMA] = _as_fraction(sigma)
        if not isinstance(profile.r0, str) and profile.r0 != sig:
            raise ValueError(f"sigma = {sig} disagrees with the profile's r0 = {profile.r0}")
        variant = "alphaGeneralized"
    vals = {k: _as_fraction(v) for k, v in params.items()}

    coeffs = {}
    for u, v in b.assignments.items():
        num = _as_fraction(v.num.eval(vals))
        den = _as_fraction(v.den.eval(vals))
        if den == 0:
            raise DenominatorZero(f"denominator of {u} vanishes at the given parameters")
        coeffs[u] = num / den
    cvals = []
    for c in b.constraints:
        try:
            cvals.append(float(c.eval(vals)))
        except OverflowError:
            raise DomainGuardExceeded(f"constraint {c} overflows a float at "
                                      "the given parameters") from None

    degree = max(int(u[1:]) for u in coeffs) if coeffs else 0
    a = tuple(_as_fraction(coeffs.get(f"a{i}", a0 if i == 0 else 0))
              for i in range(degree + 1))

    out = []
    for fam in _admitted_families(sig):
        out.append(ClosedFormSolution(
            family=fam, variant=variant, coefficients=a, sigma=sig,
            omega=omega, alpha=alpha, constraint_values=tuple(cvals),
            params=tuple(sorted(params.items()))))
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


def _report(res, grid, excluded, form: str) -> ResidualReport:
    lo, hi, n = grid
    return ResidualReport(max(res), sum(res) / len(res),
                          f"xi in [{lo:g}, {hi:g}], {int(n)} points",
                          tuple(excluded), form)


def _report_from_R(R: Poly, s: ClosedFormSolution, grid, form: str) -> ResidualReport:
    pts = _grid_points(grid)
    uni = R.as_univariate(PHI)
    deg = max(uni) if uni else 0
    cs = [float(uni.get(d, Poly()).constant_value()) if d in uni else 0.0
          for d in range(deg + 1)]
    near = s.pole_distance(pts) < POLE_EXCLUSION_RADIUS
    p = np.full(len(pts), np.nan)
    p[~near] = s.phi(tuple(pts[~near].tolist()))
    ok, r = np.isfinite(p), 0.0
    for c in reversed(cs):
        r = r * p[ok] + c
    if not ok.any():
        raise PoleOnGrid("every grid point fell inside a pole exclusion zone")
    return _report(np.abs(r).tolist(), grid, pts[~ok].tolist(), form)


def residual_pde(s: ClosedFormSolution, p: PdeDefinition,
                 grid=DEFAULT_GRID) -> ResidualReport:
    """Pointwise |LHS - RHS| of the original PDE along xi, with derivatives
    taken exactly through the phi-algebra (each coordinate derivative brings
    one frame factor per order)."""
    vals = dict(s.params)
    R = _residual_poly(p.lhs_minus_rhs, s, vals,
                       lambda var: vals[frame_symbol(var, p.fractional)])
    return _report_from_R(R, s, grid, "originalPde")


def residual_ode(s: ClosedFormSolution, o: ReducedOde, *,
                 grid=DEFAULT_GRID) -> ResidualReport:
    """Residual of the reduced ODE at the parameters bound in `s` (exact
    phi-algebra route)."""
    R = _residual_poly(o.expr, s, dict(s.params))
    return _report_from_R(R, s, grid, "reducedOde")


# ---------------------------------------------------------------------------
# fractional residual measurement

FRACTIONAL_GRID = (0.5, 4.0, 15)


def _no_pole(xis, vals):
    """vals, unless one is NaN: a pole of phi, refused at its xi."""
    if np.isnan(vals).any():
        raise PoleAt(xis[np.isnan(vals).argmax()].item())
    return vals


def fractional_extent(grid) -> float:
    """X = 1.25*hi, the last dense node of the fractional residual on the
    grid (lo, hi, n), which must have 0 < lo <= hi and X finite."""
    lo, hi, _ = grid
    if lo <= 0:
        raise ValueError("the fractional residual grid must have lo > 0")
    if hi < lo:
        raise ValueError("the fractional residual grid must have lo <= hi")
    if not math.isfinite(1.25 * hi):
        raise ValueError("the fractional residual grid must have 1.25*hi finite")
    return 1.25 * hi


def _read_nodes(nodes, inner, pts):
    """The inner nodes whose levels np.interp(pts, nodes, level) reads:
    nodes[j-1] and nodes[j] for nodes[j-1] <= pt < nodes[j], the end node
    past either end, and for a margin node the first or last inner node,
    whose value the margin copies."""
    j = np.searchsorted(nodes, pts, side="right")
    read = np.zeros(len(nodes), bool)
    read[np.clip(np.concatenate((j - 1, j)), 0, len(nodes) - 1)] = True
    first, end = np.flatnonzero(inner)[[0, -1]]
    read[first] |= read[:first].any()
    read[end] |= read[end + 1:].any()
    return inner & read


def _fractional_levels(s: ClosedFormSolution, max_j: int, X: float, pts):
    """levels[j][i] ~ u^{(j*alpha)} at the dense nodes, to be read by
    np.interp at the points `pts`; each level is one array Jumarie
    quadrature, over every node more than two spacings from either end, of
    the interpolant of the previous level, and the levels before the last
    apply one quadrature mesh built here.  The nodes within that margin
    take the level at the nearest node outside it (np.interp clamps at the
    ends).  The last level is taken only at the inner nodes the reads of
    `pts` use (`_read_nodes`), on a mesh of its own unless those are all
    the inner nodes, and its other nodes are filled as the margin is:
    every value read is the one the whole level would give, since each
    node's quadrature does not depend on the others."""
    delta = X / 100.0
    nodes = np.linspace(delta, X, 97)
    levels = [_no_pole(nodes, s.u_on(nodes))]
    margin = 2.0 * (nodes[1] - nodes[0])
    inner = (nodes > margin) & (nodes < X - margin)
    X = float(X)
    ats = [inner] * max_j
    if max_j:
        ats[-1] = _read_nodes(nodes, inner, pts)
    for j, at in enumerate(ats):
        if not j or not np.array_equal(at, ats[j - 1]):
            mesh = jumarie_mesh(s.alpha, nodes[at], X=X, n0=256)
        prev = levels[-1]
        cur = np.full_like(prev, np.nan)
        cur[at] = jumarie_quadrature(lambda t: np.interp(t, nodes, prev),
                                     s.alpha, nodes[at], X=X,
                                     max_refine=0, n0=256, mesh=mesh)
        good = ~np.isnan(cur)
        cur[~good] = np.interp(nodes[~good], nodes[good], cur[good])
        levels.append(cur)
    return nodes, levels


def residual_fractional(s: ClosedFormSolution, o: ReducedOde, *,
                        grid=FRACTIONAL_GRID) -> ResidualReport:
    """Measured residual of the fractional reduced ODE on xi > 0, at the
    parameters bound in `s`.  At alpha = 1 this degenerates to the exact
    classical route; for alpha < 1 it is a report, not a pass/fail check."""
    if s.alpha == 1.0:
        return residual_ode(s, o, grid=grid)
    X = fractional_extent(grid)
    vals = {k: float(v) for k, v in s.params}
    # per term in print order: coefficient times parameters, then the
    # (derivative level, power) of each factor
    terms = []
    for m in sorted(o.expr.terms, key=term_key):
        _, factors, params = term_key(m)
        c = float(o.expr.terms[m])
        for sym, e in params:
            c *= vals[sym] ** e
        terms.append((c, [(sum(n for _, n in multi), e) for multi, e in factors]))
    pts = _grid_points(grid)
    nodes, levels = _fractional_levels(
        s, max([0] + [j for _, fs in terms for j, _ in fs]), X, pts)
    res = []
    at_levels = [np.interp(pts, nodes, level).tolist() for level in levels]
    for at in zip(*at_levels):
        total = 0.0
        for c, factors in terms:
            for j, e in factors:
                c *= at[j] ** e
            total += c
        res.append(abs(total))
    return _report(res, grid, (), "reducedOde")
