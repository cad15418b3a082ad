"""Phi-substitution machinery: xi-derivatives through the sub-equation
dphi/dxi = r0 + r2*phi^2, the homogeneous-balance degree, and substitution
of the polynomial ansatz u = sum a_i phi^i into a reduced ODE.

Each application of d/dxi (one alpha unit in the fractional pipeline, via
the chain-rule property of the modified Riemann-Liouville derivative) acts
on polynomials in phi as (r0 + r2*phi^2) * d/dphi.
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

    @classmethod
    def classical_tanh(cls) -> "SubEquationProfile":
        return cls(Fraction(1), Fraction(-1), "classicalTanh")

    @classmethod
    def riccati(cls, sigma=SIGMA) -> "SubEquationProfile":
        return cls(sigma if isinstance(sigma, str) else Fraction(sigma),
                   Fraction(1), "riccati")

    def derivatives(self, s: Poly, n: int) -> list:
        """[s, D s, ..., D^n s] for a polynomial s(phi), where D = d/dxi acts
        by the chain rule D s = (r0 + r2*phi^2) * ds/dphi."""
        r0 = Poly.var(self.r0) if isinstance(self.r0, str) else Poly.const(self.r0)
        rhs = r0 + Poly.const(self.r2) * Poly.var(PHI, 2)
        out = [s]
        for _ in range(n):
            out.append(rhs * out[-1].derivative(PHI))
        return out


def balance_degree(o: ReducedOde) -> int:
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


def substitute_ansatz(o: ReducedOde, degree: int, profile: SubEquationProfile) -> PhiPolynomial:
    """Replace every u^(j) by D^j of the ansatz a0 + a1*phi + ... +
    a_degree*phi^degree and collect the result as a polynomial identity in
    phi.  Common phi-factors are intentionally not divided out."""
    if degree < 1:
        raise ValueError("ansatz degree must be >= 1")
    unknowns = tuple(f"a{i}" for i in range(degree + 1))
    ansatz = Poly.var(unknowns[0])
    for i, sym in enumerate(unknowns[1:], 1):
        ansatz = ansatz + Poly.var(sym) * Poly.var(PHI, i)
    orders = {sym: j for sym in o.expr.symbols() if (j := jet_order(sym)) is not None}
    ds = profile.derivatives(ansatz, max([0, *orders.values()]))
    total = o.expr.substitute({sym: ds[j] for sym, j in orders.items()})
    uni = total.as_univariate(PHI)
    deg = max(uni) if uni else 0
    coefficients = tuple(uni.get(d, Poly()) for d in range(deg + 1))
    params = sorted((total.symbols() - {PHI}) - set(unknowns))
    return PhiPolynomial(coefficients, unknowns, tuple(params))
