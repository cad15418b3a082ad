"""Coefficient-system extraction, triangular branch enumeration, and the
numeric fallback solver."""
import random
from fractions import Fraction

import pytest

from twsolve import (
    CoefficientSystem, NoRootFound, extract_system, solve_numeric,
    solve_triangular,
)
from twsolve.algebra_system import _subs_assignment
from twsolve.phi_calculus import PhiPolynomial
from twsolve.rational_poly import Poly

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


def test_constraint_that_is_a_denominator_power_kills_branch():
    """a1 = 1/(p+q) turns the row (p+q)^2*a1 into the constraint (p+q)^2;
    with p + q a nonzero denominator it can never vanish."""
    a1, s = Poly.var("a1"), Poly.var("p") + Poly.var("q")
    system = CoefficientSystem(((1, s * a1 - 1), (0, s * s * a1)),
                               ("a0", "a1"), ("p", "q"))
    assert solve_triangular(system) == []


@pytest.mark.parametrize("fixture", ["toy", "sww", "kp", "bsq"])
def test_exhaustive_oracle_contains_default(fixture, request):
    """Brute-force oracle: exploring every admissible factoring order must
    rediscover every branch of the highest-row-first policy (other orderings
    may phrase the same solution set with composite constraints)."""
    d = request.getfixturevalue(fixture)
    default = solve_triangular(d.system)
    exhaustive = solve_triangular(d.system, exhaustive=True)

    def key(b):
        return (tuple(sorted((u, str(v)) for u, v in b.assignments.items())),
                tuple(sorted(str(c) for c in b.constraints)))

    assert {key(b) for b in default} <= {key(b) for b in exhaustive}


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


# --- numeric fallback -----------------------------------------------------

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
                        row = _subs_assignment(row, u, value)
                assert row.is_zero or any(row.try_divide(c) is not None
                                          for c in b.constraints), \
                    (name, power, str(row), [str(c) for c in b.constraints])
            checked += 1
    assert checked == 12
