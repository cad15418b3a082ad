"""Travelling-wave reduction of a PDE to an ODE in xi, plus the
decay-at-infinity integration step.

The substitution xi = k*x + m*y + c*t maps each derivative
d^{j1}_x d^{j2}_y d^{j3}_t u to k^j1 m^j2 c^j3 u^(j1+j2+j3)(xi); in the
fractional pipeline the frame coefficients are the opaque alpha-power
atoms k_a, m_a, c_a and orders count alpha units.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pde_ast import (
    PdeDefinition, differentiate, jet, jet_multi, jet_order, term_key,
)
from .rational_poly import Poly, factor_str, mono_mul

XI = "xi"

# frame symbol per PDE variable, classical and fractional
FRAME_SYMBOLS = {"x": "k", "y": "m", "t": "c"}
FRAME_SYMBOLS_FRACTIONAL = {"x": "k_a", "y": "m_a", "t": "c_a"}


class FrameError(ValueError):
    pass


class NotExactDerivative(ValueError):
    pass


def frame_symbol(var: str, fractional: bool) -> str:
    """The frame coefficient of `var`: k, m, c, or under the Jumarie
    derivative the alpha-power atoms k_a, m_a, c_a."""
    table = FRAME_SYMBOLS_FRACTIONAL if fractional else FRAME_SYMBOLS
    if var not in table:
        raise FrameError(f"no frame coefficient for variable {var!r}")
    return table[var]


@dataclass(frozen=True)
class ReducedOde:
    expr: Poly                    # over xi-jets and parameters
    integration_count: int = 0
    cleared_factor: str = "1"     # overall monomial factor divided out


def _normalize_common(e: Poly):
    """Divide out the common rational and parameter-monomial factor and make
    the first term in print order positive.  Returns (poly, factor string)."""
    params = {s for s in e.symbols() if jet_multi(s) is None}
    e, (c, mono) = e.primitive(params, key=term_key)
    return e, factor_str(c, mono)


def reduce(p: PdeDefinition) -> ReducedOde:
    """Reduce `p` to an ODE in xi under the frame of its variables; the
    common monomial factor of the result is cleared and logged."""
    # u_{x:i,t:j} -> k^i c^j u_{xi:i+j}
    vals = {}
    for sym in p.lhs_minus_rhs.symbols():
        if jet_multi(sym):
            frame = [(frame_symbol(v, p.fractional), o) for v, o in jet_multi(sym)]
            vals[sym] = Poly({tuple(sorted(frame + [(jet({XI: jet_order(sym)}), 1)])): 1})
    expr, factor = _normalize_common(p.lhs_minus_rhs.substitute(vals))
    return ReducedOde(expr, 0, factor)


def _integrate_once(e: Poly) -> Poly:
    """Antiderivative of `e` w.r.t. xi with zero integration constant, by
    peeling the top jet.  In an exact derivative F' the highest jet u_n
    occurs linearly, e = A*u_n + B with A = dF/du_{n-1}; so int A du_{n-1}
    joins the result, its xi-derivative leaves e, and the remainder has
    lower order.  Raises NotExactDerivative when u_n occurs nonlinearly or
    a term with no derivative is left over."""
    out = Poly()
    while not e.is_zero:
        n = max([0, *(jet_order(s) or 0 for s in e.symbols())])
        if n == 0:
            raise NotExactDerivative(
                f"not an exact xi-derivative: {e} is left over with no xi-derivative")
        top, below = jet({XI: n}), jet({XI: n - 1})
        if e.degree_in(top) > 1:
            raise NotExactDerivative(
                f"not an exact xi-derivative: the top jet {top} occurs nonlinearly")
        g = Poly({mono_mul(m, ((below, 1),)): Fraction(c, dict(m).get(below, 0) + 1)
                  for m, c in e.derivative(top).terms.items()})
        out = out + g
        e = e - differentiate(g, XI)
    return out


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
    return ReducedOde(e, o.integration_count + times, o.cleared_factor)
