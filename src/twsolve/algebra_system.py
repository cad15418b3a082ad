"""Coefficient-matching systems: extraction from a phi-polynomial identity,
triangular branch enumeration over exact rationals, and a multistart
damped-Newton numeric fallback.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .phi_calculus import PhiPolynomial
from .rational_poly import Poly, RationalFn, factor_str

BRANCH_CAP = 64


class Stalled(RuntimeError):
    pass


class NoRootFound(RuntimeError):
    pass


class BranchExplosion(RuntimeError):
    pass


@dataclass(frozen=True)
class CoefficientSystem:
    equations: tuple        # tuple of (phi_power, Poly) sorted by power desc
    unknowns: tuple
    parameters: tuple
    cleared: tuple = ()     # per-equation cleared (phi_power, factor string)


@dataclass
class Branch:
    assignments: dict                # unknown -> RationalFn over parameters
    constraints: list                # list of Poly in parameters, normalized
    denominators: list               # list of Poly that must be nonzero
    provenance: list                 # list of (phi_power, description)

    def sort_key(self):
        return tuple(self.provenance)

    def to_json(self) -> dict:
        return {
            "assignments": {u: str(v) for u, v in sorted(self.assignments.items())},
            "constraints": [str(c) for c in self.constraints],
            "denominators": [str(d) for d in self.denominators],
            "provenance": [list(p) for p in self.provenance],
        }


def extract_system(pp: PhiPolynomial) -> CoefficientSystem:
    """One equation per phi-power with a nonzero coefficient; per-equation
    parameter-monomial and rational content is divided out and logged."""
    if pp.is_zero:
        raise ValueError("zero phi-polynomial has no coefficient system")
    params = set(pp.parameters)
    equations = []
    cleared = []
    for d in range(pp.degree, -1, -1):
        poly = pp.coefficients[d]
        if poly.is_zero:
            continue
        poly, (c, mono) = poly.primitive(params)
        equations.append((d, poly))
        cleared.append((d, factor_str(c, mono)))
    return CoefficientSystem(tuple(equations), pp.unknowns, pp.parameters, tuple(cleared))


def _subs_assignment(poly: Poly, unknown: str, value: RationalFn) -> Poly:
    """Substitute unknown = num/den into poly, clearing the denominator."""
    uni = poly.as_univariate(unknown)
    deg = max(uni)
    out = Poly()
    for d in range(deg + 1):
        if d in uni:
            out = out + uni[d] * value.num ** d * value.den ** (deg - d)
    return out


def _equation_steps(poly: Poly, unknowns):
    """Admissible factor steps for one equation.

    Returns a list of (kind, unknown, value-or-None): zero branches from the
    unknown-monomial content, plus a linear solve of the deflated polynomial
    in a single unknown whose leading coefficient is unknown-free.
    """
    present = [u for u in unknowns if poly.degree_in(u) > 0]
    if not present:
        return []
    steps = []
    content = dict(poly.monomial_content(set(unknowns)))
    deflated = poly
    for u in unknowns:
        if content.get(u, 0) > 0:
            steps.append(("zero", u, None))
    if content:
        deflated = poly.divide_monomial(tuple(sorted(content.items())))
    for u in unknowns:
        if deflated.degree_in(u) == 1:
            uni = deflated.as_univariate(u)
            lead = uni[1]
            if not (lead.symbols() & set(unknowns)):
                c0 = uni.get(0, Poly())
                steps.append(("solve", u, RationalFn(-c0, lead)))
                break
    return steps


def _solve_state(equations, unknowns, parameters, assignments, constraints,
                 denominators, provenance, results, prefer_first_only=True):
    """Depth-first branch enumeration. `equations` is a list of
    (phi_power, Poly) still containing unknowns."""
    if len(results) > BRANCH_CAP:
        raise BranchExplosion(f"more than {BRANCH_CAP} branches")
    # settle unknown-free equations
    pending = []
    for power, poly in equations:
        if not (poly.symbols() & set(unknowns)):
            if poly.is_zero:
                continue
            # parameters are generic (nonzero), so their monomial content
            # goes first: a nonzero constant or a bare parameter monomial
            # can never vanish, and the branch dies
            poly, _ = poly.primitive(parameters)
            if poly.is_constant:
                return
            constraints = constraints + [poly]
        else:
            pending.append((power, poly))
    if not pending:
        final = []
        for c in constraints:
            for d in denominators:
                dp, _ = d.primitive()
                while not dp.is_constant:
                    div = c.try_divide(dp)
                    if div is None:
                        break
                    c, _ = div.primitive(parameters)
            if c.is_constant:
                return  # c = 0 would force a nonzero denominator to vanish
            final.append(c)
        results.append(Branch(_resolve_assignments(assignments), _dedupe(final),
                              _dedupe(denominators), provenance))
        return
    stepped = False
    for power, poly in pending:
        steps = _equation_steps(poly, unknowns)
        if not steps:
            continue
        stepped = True
        for kind, u, value in steps:
            if kind == "zero":
                value = RationalFn.const(0)
                desc = f"{u}=0"
                new_denoms = denominators
            else:
                desc = f"{u}={value}"
                new_denoms = denominators + [value.den] if not value.den.is_constant \
                    else denominators
            new_eqs = []
            for pw, pl in pending:
                if (pw, pl) == (power, poly) and kind == "solve":
                    # the solved factor vanishes; the cleared unknown-monomial
                    # content of this equation contributes no new condition
                    continue
                new_eqs.append((pw, _subs_assignment(pl, u, value)))
            new_assign = dict(assignments)
            new_assign[u] = value
            _solve_state(new_eqs, unknowns, parameters, new_assign, constraints,
                         new_denoms, provenance + [(power, desc)], results,
                         prefer_first_only)
        if prefer_first_only:
            break
    if not stepped:
        if prefer_first_only:
            raise Stalled("no equation admits a factor step")
        return  # exhaustive mode: this ordering dead-ends, others may not


def _subs_rational(v: RationalFn, u: str, value: RationalFn) -> RationalFn:
    """v with u replaced by value; denominator powers rebalanced exactly."""
    dn = v.num.degree_in(u)
    dd = v.den.degree_in(u)
    num = _subs_assignment(v.num, u, value) * value.den ** dd
    den = _subs_assignment(v.den, u, value) * value.den ** dn
    return RationalFn(num, den)


def _resolve_assignments(assignments: dict) -> dict:
    """Back-substitute assignments into each other until each value is free
    of assigned unknowns."""
    out = dict(assignments)
    for _ in range(len(out)):
        changed = False
        for k, v in out.items():
            for u in list(v.symbols() & set(out)):
                if u != k:
                    v = _subs_rational(v, u, out[u])
                    changed = True
            out[k] = v
        if not changed:
            break
    return out


def _dedupe(constraints):
    seen = {}
    for c in constraints:
        if not c.is_zero:
            seen.setdefault(c.canonical_key(), c)
    return list(seen.values())


def _dedupe_branches(branches, unknowns):
    out = []
    for b in branches:
        dup = False
        for other in out:
            if set(b.assignments) == set(other.assignments) and \
               all(b.assignments[u] == other.assignments[u] for u in b.assignments) and \
               {c.canonical_key() for c in b.constraints} == \
               {c.canonical_key() for c in other.constraints}:
                dup = True
                break
        if not dup:
            out.append(b)
    return out


def _nontrivial(branch: Branch, unknowns) -> bool:
    """At least one ansatz coefficient a_i, i >= 1, not identically zero."""
    higher = [u for u in unknowns if u != "a0"]
    for u in higher:
        v = branch.assignments.get(u)
        if v is None or not v.is_zero:
            return True
    return False


def solve_triangular(s: CoefficientSystem, exhaustive: bool = False):
    """Branch enumeration: repeatedly factor an equation (highest phi-row
    first), branch on each admissible factor, substitute, and collect
    unknown-free residual equations as parameter constraints.

    With exhaustive=True every equation ordering is tried (the brute-force
    completeness oracle); the default follows the highest-row-first policy.
    """
    if not s.equations:
        raise ValueError("empty system")
    results = []
    _solve_state(list(s.equations), s.unknowns, s.parameters, {}, [], [], [],
                 results, prefer_first_only=not exhaustive)
    branches = [b for b in _dedupe_branches(results, s.unknowns)
                if _nontrivial(b, s.unknowns)]
    branches.sort(key=Branch.sort_key)
    return branches


# ---------------------------------------------------------------------------
# numeric fallback

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
