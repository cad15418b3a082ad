"""Chain-rule xi-derivatives, homogeneous balance, and ansatz substitution."""
import math

import pytest

from twsolve import (
    NonIntegerBalance, SubEquationProfile, balance_degree, parse_pde, reduce,
    substitute_ansatz,
)
from twsolve.phi_calculus import PHI
from twsolve.rational_poly import Poly

from conftest import run_pipeline, TOY_DSL, SWW_DSL, KP_DSL, BSQ_DSL


PHI_VAR = Poly.var(PHI)


def test_classical_table_first_rows_on_phi():
    d0, d1, d2, d3 = SubEquationProfile.classical_tanh().derivatives(PHI_VAR, 3)
    one = Poly.const(1)
    assert d0 == PHI_VAR
    assert d1 == one - PHI_VAR ** 2
    assert d2 == Poly.const(-2) * PHI_VAR * (one - PHI_VAR ** 2)
    assert d3 == Poly.const(-2) * (one - PHI_VAR ** 2) * \
        (one - Poly.const(3) * PHI_VAR ** 2)


def test_riccati_table_first_row():
    _, d1 = SubEquationProfile.riccati().derivatives(PHI_VAR, 1)
    assert d1 == Poly.var("sigma") + PHI_VAR ** 2


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_table_matches_numeric_derivatives(order):
    """Numeric oracle: D^j applied to s(phi) = 2 + 3*phi - phi^2 must match
    high-precision numerical differentiation of s(tanh(xi)) to 1e-7."""
    import mpmath
    s = Poly.const(2) + Poly.const(3) * PHI_VAR - PHI_VAR ** 2
    applied = SubEquationProfile.classical_tanh().derivatives(s, order)[order]

    def f(xi):
        p = mpmath.tanh(xi)
        return 2 + 3 * p - p * p

    with mpmath.workdps(30):
        for xi in (-1.0, -0.3, 0.5, 1.2):
            fd = float(mpmath.diff(f, xi, order))
            exact = float(applied.eval({PHI: math.tanh(xi)}))
            assert abs(fd - exact) < 1e-7 * max(1.0, abs(exact))


def test_riccati_table_matches_derivative_of_tanh_family():
    """phi = -sqrt(-sigma) tanh(sqrt(-sigma) xi) satisfies phi' = sigma+phi^2;
    higher derivatives verified numerically against that phi at sigma = -2."""
    sigma = -2.0
    r = math.sqrt(-sigma)
    ds = SubEquationProfile.riccati().derivatives(PHI_VAR, 3)

    def phi(xi):
        return -r * math.tanh(r * xi)

    h = 1e-3
    for xi in (-0.8, 0.4, 1.1):
        d2_num = (phi(xi + h) - 2 * phi(xi) + phi(xi - h)) / h ** 2
        d2 = ds[2].eval({PHI: phi(xi), "sigma": sigma})
        assert abs(d2_num - float(d2)) < 1e-5


@pytest.mark.parametrize("dsl,times,expected", [
    (TOY_DSL, 0, 1), (SWW_DSL, 1, 1), (KP_DSL, 2, 2), (BSQ_DSL, 2, 2),
])
def test_balance_degrees(dsl, times, expected):
    assert run_pipeline(dsl, times).degree == expected


def test_balance_non_integer_rejected():
    p = parse_pde("pde nb vars(x) params() : u_xxx = u^3")
    o = reduce(p)
    with pytest.raises(NonIntegerBalance):
        balance_degree(o)


def test_balance_needs_nonlinear_term():
    p = parse_pde("pde lin vars(x,t) params() : u_t = u_xx")
    o = reduce(p)
    with pytest.raises(NonIntegerBalance):
        balance_degree(o)


def test_substitute_ansatz_unknowns(toy):
    tanh = SubEquationProfile.classical_tanh()
    pp = substitute_ansatz(toy.ode, 2, tanh)
    assert pp.unknowns == ("a0", "a1", "a2")
    # u_xx = u*u_t: the product term has phi-degree 2 + 2 + 1
    assert pp.degree == 5
    with pytest.raises(ValueError, match="ansatz degree must be >= 1"):
        substitute_ansatz(toy.ode, 0, tanh)


def test_substitute_ansatz_boussinesq_top_row(bsq):
    pp = bsq.phi_poly
    assert pp.degree == 4
    # 3*a2*k^2*(a2 + 2*k^2)
    assert str(pp.coefficients[4]) == "6*a2*k^4 + 3*a2^2*k^2"


def test_substitute_ansatz_unintegrated_boussinesq_phi6_row():
    d = run_pipeline(BSQ_DSL, integrate=0)
    pp = d.phi_poly
    assert pp.degree == 6
    assert str(pp.coefficients[6]) == "120*a2*k^4 + 60*a2^2*k^2"


def test_substitute_ansatz_records_unknowns_and_parameters(sww):
    pp = sww.phi_poly
    assert pp.unknowns == ("a0", "a1")
    assert set(pp.parameters) == {"k", "m", "c", "p", "q"}


def test_fractional_top_row_factorization(bsq_frac):
    """Leading row of the fractional quartic system is proportional to
    a2*(a2 + 2*k_a^2)."""
    pp = bsq_frac.phi_poly
    top = pp.coefficients[pp.degree]
    prod = Poly.const(3) * Poly.var("k_a", 2) * Poly.var("a2") * \
        (Poly.var("a2") + Poly.const(2) * Poly.var("k_a", 2))
    assert top == prod
