"""Travelling-wave reduction of a PDE to an ODE in xi, plus the
decay-at-infinity integration step.

The substitution xi = k*x + m*y + c*t maps each derivative
d^{j1}_x d^{j2}_y d^{j3}_t u to k^j1 m^j2 c^j3 u^(j1+j2+j3)(xi); in the
fractional pipeline the frame coefficients are the opaque alpha-power
atoms k_a, m_a, c_a and orders count alpha units.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .pde_ast import (
    PdeDefinition, differentiate, jet, jet_multi, jet_order, jet_variables,
    split_mono, term_key,
)
from .rational_poly import Poly, factor_str, mono_mul, mono_str

XI = "xi"

# frame symbol per PDE variable, classical and fractional
FRAME_SYMBOLS = {"x": "k", "y": "m", "t": "c"}
FRAME_SYMBOLS_FRACTIONAL = {"x": "k_a", "y": "m_a", "t": "c_a"}


class FrameError(ValueError):
    pass


class NotExactDerivative(ValueError):
    pass


@dataclass(frozen=True)
class WaveFrame:
    """Wave frame xi = k*x + m*y + c*t; values bind the coefficients
    numerically (required only when evaluating solutions)."""
    variables: tuple
    fractional: bool = False
    values: dict = field(default_factory=dict)

    def symbol(self, var: str) -> str:
        table = FRAME_SYMBOLS_FRACTIONAL if self.fractional else FRAME_SYMBOLS
        if var not in table:
            raise FrameError(f"no frame coefficient for variable {var!r}")
        return table[var]

    def symbols(self) -> tuple:
        return tuple(self.symbol(v) for v in self.variables)


@dataclass(frozen=True)
class ReducedOde:
    expr: Poly                    # over xi-jets and parameters
    frame: WaveFrame
    integration_count: int = 0
    cleared_factor: str = "1"     # overall monomial factor divided out


def _normalize_common(e: Poly):
    """Divide out the common rational and parameter-monomial factor and make
    the first term in print order positive.  Returns (poly, factor string)."""
    params = {s for s in e.symbols() if jet_multi(s) is None}
    e, (c, mono) = e.primitive(params, key=term_key)
    return e, factor_str(c, mono)


def reduce(p: PdeDefinition, f: WaveFrame) -> ReducedOde:
    """Reduce `p` to an ODE in xi under the frame `f`; the common monomial
    factor of the result is cleared and logged."""
    for v in jet_variables(p.lhs_minus_rhs):
        if v not in f.variables:
            raise FrameError(f"frame missing variable {v!r}")
    if f.fractional != p.fractional:
        raise FrameError("frame/PDE fractional mode mismatch")
    # u_{x:i,t:j} -> k^i c^j u_{xi:i+j}
    vals = {}
    for sym in p.lhs_minus_rhs.symbols():
        if jet_multi(sym):
            frame = [(f.symbol(v), o) for v, o in jet_multi(sym)]
            vals[sym] = Poly({tuple(sorted(frame + [(jet({XI: jet_order(sym)}), 1)])): 1})
    expr, factor = _normalize_common(p.lhs_minus_rhs.substitute(vals))
    return ReducedOde(expr, f, 0, factor)


def _antiderivative_candidates(jets) -> set:
    """Candidate jet monomials g with g' possibly proportional to a
    combination containing `jets`: one derivative unit lowered off one
    factor."""
    return {mono_mul(jets, ((s, -1), (jet({XI: jet_order(s) - 1}), 1)))
            for s, _ in jets if jet_order(s)}


def _integrate_once(e: Poly) -> Poly:
    """Antiderivative of `e` w.r.t. xi with zero integration constant.

    Writes e as a rational-linear combination of exact derivatives of
    monomials in u and its xi-derivatives; raises NotExactDerivative when
    some term cannot be matched.
    """
    # group terms by parameter monomial; each group must be matched separately
    groups = {}
    for m in sorted(e.terms, key=term_key):
        params, jets = split_mono(m)
        groups.setdefault(params, {})[jets] = e.terms[m]
    out = {}
    for params, target in groups.items():
        cands = sorted({g for jets in target for g in _antiderivative_candidates(jets)})
        # derivative of each candidate, as a dict monomial -> coeff
        derivs = [differentiate(Poly({g: 1}), XI).terms for g in cands]
        rows = sorted({r for d in derivs for r in d} | set(target))
        # exact Gaussian elimination on the (rows x candidates) system
        matrix = [[d.get(r, Fraction(0)) for d in derivs] + [target.get(r, Fraction(0))]
                  for r in rows]
        ncols = len(cands)
        piv_rows = []
        r = 0
        for col in range(ncols):
            piv = next((i for i in range(r, len(matrix)) if matrix[i][col] != 0), None)
            if piv is None:
                continue
            matrix[r], matrix[piv] = matrix[piv], matrix[r]
            pv = matrix[r][col]
            matrix[r] = [x / pv for x in matrix[r]]
            for i in range(len(matrix)):
                if i != r and matrix[i][col] != 0:
                    f = matrix[i][col]
                    matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
            piv_rows.append(col)
            r += 1
        for i in range(r, len(matrix)):
            if matrix[i][ncols] != 0:
                raise NotExactDerivative(
                    "terms with parameters %s are not an exact xi-derivative"
                    % (mono_str(params),))
        coeffs = [Fraction(0)] * ncols
        for i, col in enumerate(piv_rows):
            coeffs[col] = matrix[i][ncols]
        for g, c in zip(cands, coeffs):
            if c != 0:
                out[mono_mul(params, g)] = c
    return Poly(out)


def integrate_decay(o: ReducedOde, times: int) -> ReducedOde:
    """Integrate `times` times w.r.t. xi with all integration constants set to
    zero (solitary-wave decay at infinity); rational content is cleared after
    each step."""
    if times < 0:
        raise ValueError("times must be >= 0")
    if times == 0:
        return o
    e = o.expr
    for _ in range(times):
        e = _normalize_common(_integrate_once(e))[0]
    return ReducedOde(e, o.frame, o.integration_count + times, o.cleared_factor)
