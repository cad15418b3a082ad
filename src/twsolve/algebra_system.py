"""Coefficient-matching systems: extraction from a phi-polynomial identity
and triangular branch enumeration over exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass

from .phi_calculus import PhiPolynomial
from .rational_poly import Poly, RationalFn, factor_str

BRANCH_CAP = 64


class Stalled(RuntimeError):
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


def _power_tables(value: RationalFn, deg: int):
    """[num^0..num^deg] and [den^0..den^deg] of value, each power the one
    before times the base; None in place of the den powers when den is 1."""
    def table(p):
        out = [Poly.const(1), p]
        while len(out) <= deg:
            out.append(out[-1] * p)
        return out
    return table(value.num), None if value.den.is_constant else table(value.den)


def _subs_assignment(poly: Poly, unknown: str, nums, dens) -> Poly:
    """Substitute unknown = num/den into poly, clearing the denominator;
    (nums, dens) are `_power_tables` of num/den to poly's degree or more."""
    uni = poly.as_univariate(unknown)
    deg = max(uni)
    out = {}
    for d in sorted(uni):
        term = uni[d] * nums[d] if d else uni[d]
        if dens is not None and d < deg:
            term = term * dens[deg - d]
        for m, c in term.terms.items():
            out[m] = out.get(m, 0) + c
    return Poly(out)


def _equation_steps(poly: Poly, unknowns):
    """Factor steps for one equation, as (unknown, value) pairs: u = 0 for
    each unknown in the unknown-monomial content, then a linear solve of the
    deflated polynomial in the first unknown that occurs linearly with an
    unknown-free leading coefficient.  Each step zeroes a factor of `poly`."""
    content = poly.monomial_content(set(unknowns))
    zeroed = {u for u, _ in content}
    steps = [(u, RationalFn.const(0)) for u in unknowns if u in zeroed]
    deflated = poly.divide_monomial(content)
    for u in unknowns:
        if deflated.degree_in(u) == 1:
            uni = deflated.as_univariate(u)
            if not (uni[1].symbols() & set(unknowns)):
                steps.append((u, RationalFn(-uni.get(0, Poly()), uni[1])))
                break
    return steps


def _solve_state(equations, unknowns, parameters, assignments, constraints,
                 denominators, provenance, results):
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
        results.append(Branch(assignments, _dedupe(final),
                              _dedupe(denominators), provenance))
        return
    # branch on the steps of the first row that has any (highest phi-row
    # first); each step zeroes a factor of that row, so the row drops out
    for power, poly in pending:
        steps = _equation_steps(poly, unknowns)
        if steps:
            break
    else:
        raise Stalled("no equation admits a factor step")
    # a step's value is free of the unknowns already assigned; the earlier
    # values that mention u take it in now, so every value stays resolved
    for u, value in steps:
        new_denoms = denominators if value.den.is_constant else denominators + [value.den]
        resolved = {k: _subs_rational(v, u, value) if u in v.symbols() else v
                    for k, v in assignments.items()}
        rest = [(pw, pl) for pw, pl in pending if pw != power]
        powers = _power_tables(value, max([pl.degree_in(u) for _, pl in rest], default=0))
        _solve_state([(pw, _subs_assignment(pl, u, *powers)) for pw, pl in rest],
                     unknowns, parameters, {**resolved, u: value}, constraints,
                     new_denoms, provenance + [(power, f"{u}={value}")], results)


def _subs_rational(v: RationalFn, u: str, value: RationalFn) -> RationalFn:
    """v with u replaced by value; denominator powers rebalanced exactly."""
    dn, dd = v.num.degree_in(u), v.den.degree_in(u)
    nums, dens = _power_tables(value, max(dn, dd))
    num, den = _subs_assignment(v.num, u, nums, dens), _subs_assignment(v.den, u, nums, dens)
    if dens is not None:
        num, den = num * dens[dd], den * dens[dn]
    return RationalFn(num, den)


def _dedupe(constraints):
    seen = {}
    for c in constraints:
        if not c.is_zero:
            seen.setdefault(c.canonical_key(), c)
    return list(seen.values())


def _dedupe_branches(branches):
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


def solve_triangular(s: CoefficientSystem):
    """Branch enumeration: repeatedly factor an equation (highest phi-row
    first), branch on each admissible factor, substitute, and collect
    unknown-free residual equations as parameter constraints."""
    if not s.equations:
        raise ValueError("empty system")
    results = []
    _solve_state(list(s.equations), s.unknowns, s.parameters, {}, [], [], [],
                 results)
    branches = [b for b in _dedupe_branches(results) if _nontrivial(b, s.unknowns)]
    branches.sort(key=Branch.sort_key)
    return branches
