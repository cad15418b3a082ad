"""Phi-substitution machinery: derivative tables for the sub-equation
dphi/dxi = r0 + r2*phi^2, the homogeneous-balance degree, and substitution
of the polynomial ansatz u = sum a_i phi^i into a reduced ODE.

Each application of d/dxi (one alpha unit in the fractional pipeline, via
the chain-rule property of the modified Riemann-Liouville derivative) acts
on polynomials in phi as (r0 + r2*phi^2) * d/dphi, so tables are built by
exact operator composition.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pde_ast import jet_order, split_mono
from .rational_poly import Poly
from .travelling_wave import ReducedOde

PHI = "phi"
SIGMA = "sigma"


class NonIntegerBalance(ValueError):
    pass


@dataclass(frozen=True)
class SubEquationProfile:
    """dphi/dxi = r0 + r2*phi^2. classicalTanh fixes (1, -1) so phi = tanh;
    riccati keeps r0 = sigma symbolic (or numeric) with r2 = 1."""
    r0: object
    r2: object
    mode: str            # "classicalTanh" | "riccati"
    alpha: object = 1

    @classmethod
    def classical_tanh(cls) -> "SubEquationProfile":
        return cls(Fraction(1), Fraction(-1), "classicalTanh", 1)

    @classmethod
    def riccati(cls, sigma=SIGMA, alpha=1) -> "SubEquationProfile":
        if isinstance(sigma, str):
            return cls(sigma, Fraction(1), "riccati", alpha)
        return cls(Fraction(sigma), Fraction(1), "riccati", alpha)

    def rhs_poly(self) -> Poly:
        r0 = Poly.var(self.r0) if isinstance(self.r0, str) else Poly.const(self.r0)
        return r0 + Poly.const(self.r2) * Poly.var(PHI, 2)


@dataclass(frozen=True)
class PhiDiffTable:
    """rows[j] represents D^j_xi as sum_d rows[j][d](phi) * (d/dphi)^d."""
    profile: SubEquationProfile
    rows: tuple   # rows[j] for j = 1..maxOrder, each a dict d -> Poly

    def row(self, j: int) -> dict:
        return self.rows[j - 1]

    def apply(self, j: int, s: Poly) -> Poly:
        """Apply D^j_xi to a polynomial s(phi)."""
        if j == 0:
            return s
        out = Poly()
        derivs = {0: s}
        for d, coef in self.row(j).items():
            if d not in derivs:
                p = derivs[max(derivs)]
                for _ in range(max(derivs), d):
                    p = p.derivative(PHI)
                    derivs[len(derivs)] = p
            out = out + coef * derivs[d]
        return out


def apply_once(profile: SubEquationProfile, row: dict) -> dict:
    """One more D_xi by operator composition:
    D_xi [c(phi) (d/dphi)^d] = (r0+r2 phi^2) [c'(phi)(d/dphi)^d + c(phi)(d/dphi)^{d+1}]."""
    rhs = profile.rhs_poly()
    out = {}
    for d, coef in row.items():
        dc = rhs * coef.derivative(PHI)
        if not dc.is_zero:
            out[d] = out.get(d, Poly()) + dc
        out[d + 1] = out.get(d + 1, Poly()) + rhs * coef
    return {d: c for d, c in out.items() if not c.is_zero}


def derivative_table(profile: SubEquationProfile, max_order: int) -> PhiDiffTable:
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    rows = [{1: profile.rhs_poly()}]
    for _ in range(max_order - 1):
        rows.append(apply_once(profile, rows[-1]))
    return PhiDiffTable(profile, tuple(rows))


@dataclass(frozen=True)
class Ansatz:
    degree: int
    coeff_symbols: tuple = ()

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("ansatz degree must be >= 1")
        if not self.coeff_symbols:
            object.__setattr__(self, "coeff_symbols",
                               tuple(f"a{i}" for i in range(self.degree + 1)))

    def poly(self) -> Poly:
        s = Poly()
        for i, sym in enumerate(self.coeff_symbols):
            s = s + Poly.var(sym) * Poly.var(PHI, i) if i else s + Poly.var(sym)
        return s


def balance_degree(o: ReducedOde, profile: SubEquationProfile = None) -> int:
    """Homogeneous balance: under a degree-n ansatz each factor u^(j) has
    phi-degree n + j, so a term's degree is linear in n; n equates the two
    dominant term degrees."""
    jet_parts = (split_mono(m)[1] for m in o.expr.terms)
    lines = sorted({(sum(e for _, e in jets), sum(e * jet_order(s) for s, e in jets))
                    for jets in jet_parts})
    has_deriv = any(b > 0 for _, b in lines)
    has_nonlinear = any(a > 1 for a, _ in lines)
    if not (has_deriv and has_nonlinear):
        raise NonIntegerBalance("need at least one derivative term and one nonlinear term")
    candidates = set()
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a1, b1 = lines[i]
            a2, b2 = lines[j]
            if a1 == a2:
                continue
            n = Fraction(b1 - b2, a2 - a1)
            if n.denominator != 1 or n < 1:
                continue
            n = int(n)
            top = max(a * n + b for a, b in lines)
            if a1 * n + b1 == top:
                candidates.add(n)
    if not candidates:
        raise NonIntegerBalance("no positive integer degree balances the dominant terms")
    return max(candidates)


@dataclass(frozen=True)
class PhiPolynomial:
    """Coefficients of phi^0..phi^D; each coefficient is an exact-rational
    polynomial in the ansatz unknowns, the PDE/frame parameters and sigma."""
    coefficients: tuple    # tuple of Poly, index = phi power
    unknowns: tuple
    parameters: tuple

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coefficients)


def substitute_ansatz(o: ReducedOde, a: Ansatz, profile: SubEquationProfile) -> PhiPolynomial:
    """Replace every u^(j) via the derivative table applied to the ansatz
    polynomial and collect the result as a polynomial identity in phi.
    Common phi-factors are intentionally not divided out."""
    orders = {sym: j for sym in o.expr.symbols() if (j := jet_order(sym)) is not None}
    table = derivative_table(profile, max([1, *orders.values()]))
    s = a.poly()
    total = o.expr.substitute({sym: table.apply(j, s) for sym, j in orders.items()})
    uni = total.as_univariate(PHI)
    deg = max(uni) if uni else 0
    coefficients = tuple(uni.get(d, Poly()) for d in range(deg + 1))
    params = sorted((total.symbols() - {PHI}) - set(a.coeff_symbols))
    return PhiPolynomial(coefficients, a.coeff_symbols, tuple(params))
