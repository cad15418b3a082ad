"""Travelling-wave reduction and decay-at-infinity integration."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twsolve import (
    FrameError, NotExactDerivative, PdeDefinition, frame_symbol,
    integrate_decay, parse_pde, reduce,
)
from twsolve.pde_ast import differentiate, expr_to_str, jet, jet_order, split_mono
from twsolve.rational_poly import Poly
from twsolve.travelling_wave import XI, _integrate_once

from conftest import run_pipeline, TOY_DSL, SWW_DSL, KP_DSL, BSQ_DSL


def ode_str(o):
    return expr_to_str(o.expr, ("xi",))


def expr_as_xi_poly(e, u_coeffs, nsyms=6):
    """Oracle: substitute u(xi) = sum c_i xi^i (exact) into a polynomial over
    xi-jets and return the resulting exact polynomial in xi and the
    parameters."""
    base = Poly()
    for i, c in enumerate(u_coeffs):
        base = base + Poly.const(Fraction(c)) * Poly.var("xi", i) if i \
            else base + Poly.const(Fraction(c))
    derivs = [base]
    for _ in range(nsyms):
        derivs.append(derivs[-1].derivative("xi"))
    total = Poly()
    for m, c in e.terms.items():
        term = Poly.const(c)
        for sym, ex in m:
            order = jet_order(sym)
            term = term * (Poly.var(sym, ex) if order is None else derivs[order] ** ex)
        total = total + term
    return total


# --- reduction ------------------------------------------------------------

def test_reduce_toy():
    o = run_pipeline(TOY_DSL).reduced
    assert ode_str(o) == "k^2*u_{xi:2} - c*u*u_{xi:1}"


def test_reduce_sww_clears_common_factor():
    o = run_pipeline(SWW_DSL).reduced
    assert ode_str(o) == ("k^2*m*u_{xi:4} + c*k*p*u_{xi:1}*u_{xi:2} "
                          "+ c*k*q*u_{xi:1}*u_{xi:2} - c*u_{xi:2} - k*u_{xi:2}")
    assert o.cleared_factor == "-1*k"


def test_reduce_kp():
    o = run_pipeline(KP_DSL).reduced
    assert ode_str(o) == ("k^4*u_{xi:4} + 6*k^2*u*u_{xi:2} + 6*k^2*u_{xi:1}^2 "
                          "+ c*k*u_{xi:2} - m^2*u_{xi:2}")


def test_reduce_boussinesq():
    o = run_pipeline(BSQ_DSL).reduced
    assert ode_str(o) == ("k^4*u_{xi:4} + 6*k^2*u*u_{xi:2} + 6*k^2*u_{xi:1}^2 "
                          "- c^2*u_{xi:2} + k^2*u_{xi:2}")


def test_reduce_fractional_uses_alpha_atoms():
    p = parse_pde("pde f vars(x,t) params() frac(alpha) : u_{t:2} = u_{x:4}")
    o = reduce(p)
    syms = {s for m in o.expr.terms for s, _ in split_mono(m)[0]}
    assert syms == {"k_a", "c_a"}


def test_frame_symbol_errors():
    assert frame_symbol("y", False) == "m"
    assert frame_symbol("y", True) == "m_a"
    with pytest.raises(FrameError, match="'z'"):
        frame_symbol("z", False)
    # the DSL admits only x, y and t; a definition built by hand reaches
    # reduce with a variable that has no frame coefficient
    u_x, u_z = Poly.var(jet({"x": 1})), Poly.var(jet({"z": 1}))
    p = PdeDefinition("f", ("x", "z"), (), u_z - u_x)
    with pytest.raises(FrameError, match="'z'"):
        reduce(p)


# --- integration ----------------------------------------------------------

def test_integrate_sww_once():
    d = run_pipeline(SWW_DSL, integrate=1)
    assert ode_str(d.ode) == ("2*k^2*m*u_{xi:3} + c*k*p*u_{xi:1}^2 "
                                 "+ c*k*q*u_{xi:1}^2 - 2*c*u_{xi:1} "
                                 "- 2*k*u_{xi:1}")


def test_integrate_kp_twice():
    d = run_pipeline(KP_DSL, integrate=2)
    assert ode_str(d.ode) == "k^4*u_{xi:2} + c*k*u - m^2*u + 3*k^2*u^2"


def test_integrate_boussinesq_twice():
    d = run_pipeline(BSQ_DSL, integrate=2)
    assert ode_str(d.ode) == "k^4*u_{xi:2} - c^2*u + k^2*u + 3*k^2*u^2"


@pytest.mark.parametrize("dsl,times", [(SWW_DSL, 1), (KP_DSL, 2), (BSQ_DSL, 2)])
def test_integration_oracle_derivative_recovers_original(dsl, times):
    """d/dxi of the integrated expression must equal the pre-integration
    expression up to an overall rational factor: checked exactly by
    substituting a random exact polynomial u(xi)."""
    rng = random.Random(0)
    p = parse_pde(dsl)
    o = reduce(p)
    before = o.expr
    after = integrate_decay(o, 1).expr
    u = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
    lhs = expr_as_xi_poly(after, u).derivative("xi")
    rhs = expr_as_xi_poly(before, u)
    # proportionality: cross-multiply by rational contents
    cl, cr = lhs.rational_content(), rhs.rational_content()
    assert lhs.divide_const(cl * lhs.leading_sign()) == \
        rhs.divide_const(cr * rhs.leading_sign())


def test_integrate_rejects_non_exact():
    p = parse_pde("pde ne vars(x,t) params() : u_xx = u*u_t")
    o = reduce(p)
    # u*u' integrates, but u''... the full expression k^2 u'' - c u u' is
    # exact; build one that is not: u * u''
    q = parse_pde("pde ne2 vars(x,t) params() : u*u_xx = u_t")
    o2 = reduce(q)
    with pytest.raises(NotExactDerivative):
        integrate_decay(o2, 1)


def test_integrate_zero_times_is_identity():
    p = parse_pde(TOY_DSL)
    o = reduce(p)
    assert integrate_decay(o, 0).expr == o.expr


def test_integrate_top_jet_times_lower_jet():
    # c*u_1 + k^3*u*u_3 is the xi-derivative of c*u + k^3*(u*u_2 - u_1^2/2),
    # though no antiderivative term is one derivative below a term of it
    u, u1, u2, u3 = (Poly.var(jet({XI: n})) for n in range(4))
    c, k3 = Poly.var("c"), Poly.var("k", 3)
    half = Poly.const(Fraction(1, 2))
    assert _integrate_once(c * u1 + k3 * u * u3) == c * u + k3 * (u * u2 - half * u1 ** 2)
    p = parse_pde("pde a vars(x,t) params() : u_t + u*u_xxx = 0")
    o = integrate_decay(reduce(p), 1)
    assert ode_str(o) == "2*k^3*u*u_{xi:2} - k^3*u_{xi:1}^2 + 2*c*u"


@pytest.mark.parametrize("c", [1, 10 ** 400], ids=["1", "1e400"])
def test_integrate_divides_integer_coefficients_exactly(c):
    """c*u^2*u_1 integrates to c*u^3/3 as a rational, not through a float
    (which is inexact, and overflows for a coefficient past 1e308)."""
    u, u1 = Poly.var(jet({XI: 0})), Poly.var(jet({XI: 1}))
    g = _integrate_once(Poly.const(c) * u ** 2 * u1)
    assert g.terms == {((jet({XI: 0}), 3),): Fraction(c, 3)}
    assert all(type(v) is Fraction for v in g.terms.values())


def test_integrate_rejects_nonlinear_top_jet_and_leftover():
    u1, u2 = Poly.var(jet({XI: 1})), Poly.var(jet({XI: 2}))
    with pytest.raises(NotExactDerivative, match="occurs nonlinearly"):
        _integrate_once(u2 ** 2)
    with pytest.raises(NotExactDerivative, match="left over"):
        _integrate_once(u1 + Poly.var("k"))


JET_POWERS = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 2)),
                      min_size=1, max_size=3)
PARAM_POWERS = st.lists(st.tuples(st.sampled_from(("c", "k", "p")),
                                  st.integers(1, 2)), max_size=2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.fractions(-5, 5, max_denominator=4).filter(bool),
                          JET_POWERS, PARAM_POWERS), min_size=1, max_size=4))
def test_integrate_round_trip(terms):
    """Integrating the xi-derivative of a jet polynomial with no jet-free
    term gives the polynomial back exactly."""
    F = Poly()
    for coeff, jets, params in terms:
        t = Poly.const(coeff)
        for n, e in jets:
            t = t * Poly.var(jet({XI: n}), e)
        for sym, e in params:
            t = t * Poly.var(sym, e)
        F = F + t
    assert _integrate_once(differentiate(F, XI)) == F
