"""Coefficient-system extraction and triangular branch enumeration, with a
numeric root finder and sympy's solver as independent oracles."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from twsolve import CoefficientSystem, extract_system, solve_triangular
from twsolve import algebra_system
from twsolve.algebra_system import _power_tables, _subs_assignment, _subs_rational
from twsolve.phi_calculus import PhiPolynomial
from twsolve.rational_poly import Poly, RationalFn

from oracles import NoRootFound, solve_numeric, subs_per_row, sympy_solutions, to_sympy
from conftest import (
    BSQ_DSL, BSQ_FRAC_DSL, KP_DSL, KP_FRAC_DSL, SWW_DSL, SWW_FRAC_DSL, TOY_DSL,
    run_pipeline,
)



# --- extraction -----------------------------------------------------------

def test_extract_clears_and_logs_content(toy):
    s = toy.system
    rows = dict((d, str(p)) for d, p in s.equations)
    assert rows[3] == "2*a1*k^2 + a1^2*c"
    assert rows[2] == "a0*a1"
    assert dict(s.cleared)[2] == "c"
    assert dict(s.cleared)[0] == "-1*c"


def test_extract_sww_rows(sww):
    rows = dict((d, str(p)) for d, p in sww.system.equations)
    assert rows[4] == "a1^2*c*p + a1^2*c*q - 12*a1*k*m"
    assert rows[2] == "a1^2*c*k*p + a1^2*c*k*q - 8*a1*k^2*m - a1*c - a1*k"
    assert rows[0] == "a1^2*c*k*p + a1^2*c*k*q - 4*a1*k^2*m - 2*a1*c - 2*a1*k"


def test_extract_rejects_zero():
    pp = PhiPolynomial((Poly(),), ("a0",), ())
    with pytest.raises(ValueError):
        extract_system(pp)


# --- triangular enumeration ----------------------------------------------

def test_toy_branch(toy):
    (b,) = toy.branches
    assert str(b.assignments["a0"]) == "0"
    assert str(b.assignments["a1"]) == "-2*k^2 / c"
    assert b.constraints == []
    assert [str(d) for d in b.denominators] == ["c"]


def test_sww_branch(sww):
    (b,) = sww.branches
    assert str(b.assignments["a1"]) == "12*k*m / (c*p + c*q)"
    assert [str(c) for c in b.constraints] == ["4*k^2*m - c - k"]


def test_kp_branch(kp):
    (b,) = kp.branches
    assert str(b.assignments["a2"]) == "-2*k^2"
    assert str(b.assignments["a1"]) == "0"
    assert str(b.assignments["a0"]) == "(4/3*k^4 - 1/6*c*k + 1/6*m^2) / k^2"
    assert [str(c) for c in b.constraints] == \
        ["16*k^8 + 2*c*k*m^2 - c^2*k^2 - m^4"]


def test_kp_constraint_equivalent_to_quadratic_in_a0(kp):
    """The emitted parameter constraint equals -(12 k^4) * q(a0(k, m, c))
    where q(a0) = 3*a0^2 - 8*k^2*a0 + 4*k^4."""
    (b,) = kp.branches
    a0 = b.assignments["a0"]            # num / (k^2 * 6) form
    k2 = Poly.var("k", 2)
    # q cleared by den^2: 3*num^2 - 8*k^2*num*den + 4*k^4*den^2
    num, den = a0.num, a0.den
    q = Poly.const(3) * num ** 2 - Poly.const(8) * k2 * num * den \
        + Poly.const(4) * k2 ** 2 * den ** 2
    c = b.constraints[0]
    assert q == Poly.const(Fraction(-1, 12)) * c


def test_bsq_branch(bsq):
    (b,) = bsq.branches
    assert str(b.assignments["a2"]) == "-2*k^2"
    assert str(b.assignments["a0"]) == "(4/3*k^4 + 1/6*c^2 - 1/6*k^2) / k^2"
    assert [str(c) for c in b.constraints] == \
        ["16*k^8 + 2*c^2*k^2 - c^4 - k^4"]


def test_fractional_branches(sww_frac, kp_frac, bsq_frac):
    (b,) = sww_frac.branches
    assert str(b.assignments["a1"]) == "-12*k_a*m_a / (c_a*p + c_a*q)"
    assert [str(c) for c in b.constraints] == \
        ["4*k_a^2*m_a*sigma + c_a + k_a"]
    (b,) = kp_frac.branches
    assert str(b.assignments["a2"]) == "-2*k_a^2"
    (b,) = bsq_frac.branches
    assert str(b.assignments["a2"]) == "-2*k_a^2"


def test_soundness_on_constraint_variety(sww):
    """Exact soundness oracle: bind random rational (k, m), set c on the
    constraint variety, substitute the solved a1 — every system row must
    vanish identically."""
    rng = random.Random(1)
    (b,) = sww.branches
    for _ in range(5):
        k = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        m = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        p_, q_ = Fraction(rng.randint(1, 4)), Fraction(rng.randint(1, 4))
        c = 4 * k ** 2 * m - k                 # constraint 4k^2m - c - k = 0
        if c == 0:
            continue
        vals = {"k": k, "m": m, "c": c, "p": p_, "q": q_}
        a1 = Fraction(b.assignments["a1"].num.eval(vals)) / \
            Fraction(b.assignments["a1"].den.eval(vals))
        for _, row in sww.system.equations:
            assert row.eval({**vals, "a0": Fraction(7), "a1": a1}) == 0


# --- substitution of a solved value -----------------------------------------

def _polys_over(syms, max_exp):
    monos = st.dictionaries(st.sampled_from(syms), st.integers(1, max_exp)) \
        .map(lambda d: tuple(sorted(d.items())))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    return st.dictionaries(monos, coeffs, min_size=1, max_size=4).map(Poly)


_rows = _polys_over(("a0", "a1", "k"), 3)
_values = st.one_of(
    st.just(RationalFn.const(0)),
    _polys_over(("a0", "k"), 2).map(RationalFn),
    st.tuples(_polys_over(("a0", "k"), 2),
              _polys_over(("c", "k"), 2).filter(lambda d: d.symbols()))
    .map(lambda nd: RationalFn(*nd)))
_A1, _K = Poly.var("a1"), Poly.var("k")
_PAIR = [_A1 ** 3 * _K - 2 * _A1 + 1, _A1 ** 2 - _K]


def _subs_rational_per_row(v, u, value):
    """The old `_subs_rational`: per-row substitution, then the den powers
    that rebalance num and den formed afresh."""
    dn, dd = v.num.degree_in(u), v.den.degree_in(u)
    return RationalFn(subs_per_row(v.num, u, value) * value.den ** dd,
                      subs_per_row(v.den, u, value) * value.den ** dn)


@settings(deadline=None)
@example(_PAIR, RationalFn.const(0))
@example(_PAIR, RationalFn(_K - 3))
@example(_PAIR, RationalFn(_K, _K + Poly.var("c")))
@given(st.lists(_rows, min_size=1, max_size=4), _values)
def test_power_tables_substitute_as_the_per_row_formula(rows, value):
    """One pair of power tables, formed to the highest degree of a1 among a
    branch step's rows, gives every row exactly the per-row
    sum_d uni[d] * num^d * den^(deg - d); the den table is left out when den
    is 1.  `_subs_rational` on the same tables matches its per-row form."""
    nums, dens = _power_tables(value, max(r.degree_in("a1") for r in rows))
    assert (dens is None) == value.den.is_constant
    for row in rows:
        assert _subs_assignment(row, "a1", nums, dens).terms == \
            subs_per_row(row, "a1", value).terms
    v = RationalFn(rows[0], rows[-1])
    if "a1" in v.symbols():
        try:
            want = _subs_rational_per_row(v, "a1", value)
        except ZeroDivisionError:       # the value zeroes v's denominator
            with pytest.raises(ZeroDivisionError):
                _subs_rational(v, "a1", value)
            return
        got = _subs_rational(v, "a1", value)
        assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)


def test_constraint_that_is_a_denominator_power_kills_branch():
    """a1 = 1/(p+q) turns the row (p+q)^2*a1 into the constraint (p+q)^2;
    with p + q a nonzero denominator it can never vanish."""
    a1, s = Poly.var("a1"), Poly.var("p") + Poly.var("q")
    system = CoefficientSystem(((1, s * a1 - 1), (0, s * s * a1)),
                               ("a0", "a1"), ("p", "q"))
    assert solve_triangular(system) == []


def test_a_later_step_resolves_an_earlier_value():
    """The phi^1 row solves a0 = -a1*c/k while a1 is still unknown; the
    phi^0 row's a1 = c^2/k then goes into that earlier value, so no
    reported value mentions an unknown and every row back-substitutes
    to 0."""
    a0, a1, c, k = (Poly.var(s) for s in ("a0", "a1", "c", "k"))
    system = CoefficientSystem(((1, a0 * k + a1 * c), (0, a1 * k - c ** 2)),
                               ("a0", "a1"), ("c", "k"))
    (b,) = solve_triangular(system)
    assert b.provenance == [(1, "a0=-a1*c / k"), (0, "a1=c^2 / k")]
    assert {u: str(v) for u, v in b.assignments.items()} == \
        {"a0": "-c^3 / k^2", "a1": "c^2 / k"}
    assert [str(d) for d in b.denominators] == ["k"]
    assert not any(v.symbols() & {"a0", "a1"} for v in b.assignments.values())
    for _, row in system.equations:
        for u, value in sorted(b.assignments.items()):
            row = _subs_assignment(row, u, *_power_tables(value, row.degree_in(u)))
        assert row.is_zero



def test_one_branch_reached_by_two_step_orders_is_reported_once(monkeypatch):
    """The phi^1 row a0*(a1 - k) branches on a0 = 0 and on a1 = k; each
    then leaves the phi^0 row solving the other unknown, so both orders
    reach {a0: 0, a1: k} and the duplicate is dropped."""
    a0, a1, k = (Poly.var(s) for s in ("a0", "a1", "k"))
    system = CoefficientSystem(((1, a0 * a1 - k * a0), (0, a0 + a1 - k)),
                               ("a0", "a1"), ("k",))
    (b,) = solve_triangular(system)
    assert b.to_json() == {"assignments": {"a0": "0", "a1": "k"},
                           "constraints": [], "denominators": [],
                           "provenance": [[1, "a0=0"], [0, "a1=k"]]}
    monkeypatch.setattr(algebra_system, "_dedupe_branches", list)
    assert [x.to_json()["assignments"] for x in solve_triangular(system)] == \
        [{"a0": "0", "a1": "k"}] * 2

def _holds(branch, solution, symbols):
    """The branch's assignments equal the solution's values and its
    constraints vanish there."""
    import sympy

    def zero(expr):
        return sympy.simplify(expr.subs(solution)) == 0
    return all(zero(to_sympy(v, symbols) - symbols[u])
               for u, v in branch.assignments.items()) and \
        all(zero(to_sympy(c, symbols)) for c in branch.constraints)


@pytest.mark.parametrize("fixture", ["toy", "sww", "kp", "bsq",
                                     "sww_frac", "kp_frac", "bsq_frac"])
def test_branches_match_sympy_solutions(fixture, request):
    """Algebraic oracle, both ways: every branch holds at some nontrivial
    solution that sympy finds for the unknowns and the wave speed together,
    and every such solution satisfies some branch (kp and bsq have 2 and 4
    solutions, each on their one branch)."""
    import sympy
    d = request.getfixturevalue(fixture)
    symbols, solutions = sympy_solutions(
        d.system, "c_a" if d.definition.fractional else "c")
    higher = [symbols[u] for u in d.system.unknowns if u != "a0"]
    nontrivial = [sol for sol in solutions
                  if any(sympy.simplify(a.subs(sol)) != 0 for a in higher)]
    assert d.branches and nontrivial
    for b in d.branches:
        assert any(_holds(b, sol, symbols) for sol in nontrivial), b.to_json()
    for sol in nontrivial:
        assert any(_holds(b, sol, symbols) for b in d.branches), sol


@pytest.mark.parametrize("fixture", ["kp", "bsq"])
def test_numeric_roots_all_explained_by_symbolic_branch(fixture, request):
    """Completeness oracle: every root the multistart Newton solver finds
    must lie on the symbolic branch (constraint satisfied, coefficients
    matching the branch formulas)."""
    d = request.getfixturevalue(fixture)
    (b,) = d.branches
    params = {"k": 1, "m": 1} if fixture == "kp" else {"k": 1}
    roots = solve_numeric(d.system, params)
    assert roots
    for r in roots:
        vals = {**{k: float(v) for k, v in params.items()},
                **{k: v for k, v in r.items()}}
        for c in b.constraints:
            assert abs(float(c.eval(vals))) < 1e-6
        for u, f in b.assignments.items():
            expect = float(f.num.eval(vals)) / float(f.den.eval(vals))
            assert r[u] == pytest.approx(expect, abs=1e-7)


def test_scaling_invariance(sww):
    """Multiplying every row by a nonzero rational changes nothing."""
    pp = sww.phi_poly
    scaled = PhiPolynomial(
        tuple(c * Poly.const(Fraction(-7, 3)) for c in pp.coefficients),
        pp.unknowns, pp.parameters)
    a = solve_triangular(extract_system(pp))
    b = solve_triangular(extract_system(scaled))
    assert [x.to_json()["assignments"] for x in a] == \
        [x.to_json()["assignments"] for x in b]
    assert [[str(c) for c in x.constraints] for x in a] == \
        [[str(c) for c in x.constraints] for x in b]


def test_branches_are_deterministic(kp):
    a = solve_triangular(kp.system)
    b = solve_triangular(kp.system)
    assert [x.to_json() for x in a] == [x.to_json() for x in b]


# --- numeric oracle -------------------------------------------------------

def test_numeric_kp_roots(kp):
    roots = solve_numeric(kp.system, {"k": 1, "m": 1})
    found = sorted((round(r["a0"], 8), round(r["c"], 8)) for r in roots)
    assert found == [(round(2 / 3, 8), 5.0), (2.0, -3.0)]
    for r in roots:
        assert r["a2"] == pytest.approx(-2.0, abs=1e-8)
        assert r["a1"] == pytest.approx(0.0, abs=1e-8)


def test_numeric_bsq_roots(bsq):
    roots = solve_numeric(bsq.system, {"k": 1})
    cs = sorted(round(r["c"], 8) for r in roots)
    assert cs == [round(-5 ** 0.5, 8), round(5 ** 0.5, 8)]
    for r in roots:
        assert r["a0"] == pytest.approx(2.0, abs=1e-8)


def test_numeric_matches_symbolic_branch(toy):
    roots = solve_numeric(toy.system, {"k": 2, "c": 4})
    assert any(r["a1"] == pytest.approx(-2.0, abs=1e-8) and
               abs(r["a0"]) < 1e-8 for r in roots)


def test_numeric_deterministic(bsq):
    a = solve_numeric(bsq.system, {"k": 1})
    b = solve_numeric(bsq.system, {"k": 1})
    assert a == b


def test_numeric_no_root():
    # a1^2 + 1 = 0 has no real root with a1 nontrivial
    eqs = ((0, Poly.var("a1", 2) + Poly.const(1)),)
    s = CoefficientSystem(eqs, ("a0", "a1"), ())
    with pytest.raises(NoRootFound):
        solve_numeric(s, {})


# --- exact back-substitution oracle ----------------------------------------

CORPUS = {
    "kdv": "pde kdv vars(x,t) params() : u_t + u*u_x + u_xxx = 0",
    "burgers": "pde burgers vars(x,t) params() : u_t + u*u_x = u_xx",
    "bbm": "pde bbm vars(x,t) params() : u_t + u_x + u*u_x - u_xxt = 0",
    "zk": "pde zk vars(x,y,t) params() : u_t + u*u_x + u_xxx + u_xyy = 0",
    "kawahara": "pde kawahara vars(x,t) params() : "
                "u_t + u*u_x + u_xxx - u_xxxxx = 0",
    "kdv5": "pde kdv5 vars(x,t) params() : u_t + u*u_x + u_xxxxx = 0",
}


def _oracle_cases():
    yield "toy", TOY_DSL, 0
    for name, dsl, frac in (("sww", SWW_DSL, SWW_FRAC_DSL),
                            ("kp", KP_DSL, KP_FRAC_DSL),
                            ("boussinesq4", BSQ_DSL, BSQ_FRAC_DSL)):
        times = 1 if name == "sww" else 2
        yield name, dsl, times
        yield name + "_frac", frac, times
    for name, dsl in CORPUS.items():
        yield name, dsl, 0


def test_every_branch_back_substitutes_to_zero_modulo_its_constraints():
    """Each system row with a branch's assignments substituted (denominators
    cleared) is zero or an exact multiple of one of the branch's
    constraints."""
    checked = 0
    for name, dsl, times in _oracle_cases():
        r = run_pipeline(dsl, integrate=times)
        for b in r.branches:
            for power, row in r.system.equations:
                for u, value in sorted(b.assignments.items()):
                    if not row.is_zero:
                        row = _subs_assignment(
                            row, u, *_power_tables(value, row.degree_in(u)))
                assert row.is_zero or any(row.try_divide(c) is not None
                                          for c in b.constraints), \
                    (name, power, str(row), [str(c) for c in b.constraints])
            checked += 1
    assert checked == 12
