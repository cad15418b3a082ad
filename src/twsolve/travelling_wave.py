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

from .pde_ast import Expr, PdeDefinition, Term, _merge_powers, differentiate
from .rational_poly import monomial_content, mono_str, rational_content

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
    expr: Expr                    # derivatives in xi only
    frame: WaveFrame
    integration_count: int = 0
    cleared_factor: str = "1"     # overall monomial factor divided out


def _normalize_common(e: Expr):
    """Divide out the common rational and parameter-monomial factor and make
    the canonically-leading term positive. Returns (expr, factor string)."""
    if e.is_zero:
        return e, "1"
    content = rational_content(t.coeff for t in e.terms)
    common = monomial_content(t.params for t in e.terms)
    # the sign rule follows the Expr term order, not the Poly one
    if e.terms[0].coeff < 0:
        content = -content
    neg = dict(common)
    terms = []
    for t in e.terms:
        params = tuple(sorted((s, e_ - neg.get(s, 0)) for s, e_ in t.params if e_ - neg.get(s, 0)))
        terms.append(Term(t.coeff / content, params, t.factors))
    factor = str(content) if content != 1 else ""
    if common:
        factor = (factor + "*" if factor else "") + mono_str(common)
    return Expr.from_terms(terms), factor or "1"


def reduce(p: PdeDefinition, f: WaveFrame) -> ReducedOde:
    """Reduce `p` to an ODE in xi under the frame `f`; the common monomial
    factor of the result is cleared and logged."""
    for v in p.lhs_minus_rhs.variables():
        if v not in f.variables:
            raise FrameError(f"frame missing variable {v!r}")
    if f.fractional != p.fractional:
        raise FrameError("frame/PDE fractional mode mismatch")
    terms = []
    for t in p.lhs_minus_rhs.terms:
        params = list(t.params)
        factors = []
        for multi, power in t.factors:
            total = 0
            for var, order in multi:
                params.append((f.symbol(var), order * power))
                total += order
            factors.append((((XI, total),) if total else (), power))
        terms.append(Term(t.coeff, _merge_powers(params), _merge_powers(factors)))
    expr, factor = _normalize_common(Expr.from_terms(terms))
    return ReducedOde(expr, f, 0, factor)


def _xi_derivative_of_monomial(factors: tuple) -> Expr:
    return differentiate(Expr((Term(Fraction(1), (), factors),)), XI)


def _antiderivative_candidates(factors: tuple):
    """Candidate monomials g (factor tuples) with g' possibly proportional to
    a combination containing this term: lower one derivative unit off one
    factor, either keeping or merging the result."""
    cands = set()
    for i, (multi, power) in enumerate(factors):
        order = multi[0][1] if multi else 0
        if order == 0:
            continue
        lowered = ((XI, order - 1),) if order > 1 else ()
        rest = factors[:i] + ((multi, power - 1),) + factors[i + 1:]
        cands.add(_merge_powers(rest + ((lowered, 1),)))
    return cands


def _integrate_once(e: Expr) -> Expr:
    """Antiderivative of `e` w.r.t. xi with zero integration constant.

    Writes e as a rational-linear combination of exact derivatives of
    monomials in u and its xi-derivatives; raises NotExactDerivative when
    some term cannot be matched.
    """
    # group terms by parameter monomial; each group must be matched separately
    groups = {}
    for t in e.terms:
        groups.setdefault(t.params, []).append(t)
    out = []
    for params, terms in groups.items():
        target = {t.factors: t.coeff for t in terms}
        cands = set()
        for t in terms:
            cands |= _antiderivative_candidates(t.factors)
        cands = sorted(cands)
        # derivative of each candidate, as a dict factors -> coeff
        derivs = []
        for g in cands:
            d = _xi_derivative_of_monomial(g)
            derivs.append({t.factors: t.coeff for t in d.terms})
        rows = sorted({f for d in derivs for f in d} | set(target))
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
                out.append(Term(c, params, g))
    return Expr.from_terms(out)


def integrate_decay(o: ReducedOde, times: int) -> ReducedOde:
    """Integrate `times` times w.r.t. xi with all integration constants set to
    zero (solitary-wave decay at infinity); rational content is cleared after
    each step."""
    if times < 0:
        raise ValueError("times must be >= 0")
    if times == 0:
        return o
    e = o.expr
    factor = o.cleared_factor
    for _ in range(times):
        e, f = _normalize_common(_integrate_once(e))
    return ReducedOde(e, o.frame, o.integration_count + times, factor)
