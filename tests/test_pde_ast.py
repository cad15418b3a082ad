"""DSL parser, jet-symbol polynomials, and symbolic differentiation."""
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from twsolve import (
    MixedOrderError, PdeSyntaxError, UndeclaredSymbolError, parse_pde,
    print_pde,
)
from twsolve.pde_ast import (
    differentiate, expand_derivatives, expr_to_str, jet, jet_multi, split_mono,
)
from twsolve.rational_poly import Poly


def test_parse_basic():
    p = parse_pde("pde toy vars(x,t) params() : u_xx = u*u_t")
    assert p.name == "toy"
    assert p.variables == ("x", "t")
    assert p.parameters == ()
    assert not p.fractional
    # lhs - rhs has two terms
    assert len(p.lhs_minus_rhs.terms) == 2


def test_parse_braced_and_suffix_equivalent():
    a = parse_pde("pde a vars(x,y) params() : u_xxy = 0")
    b = parse_pde("pde b vars(x,y) params() : u_{x:2,y:1} = 0")
    assert a.lhs_minus_rhs == b.lhs_minus_rhs


def test_parse_parenthesized_derivative():
    p = parse_pde("pde b vars(x,t) params() : u_tt = 3*(u^2)_xx")
    # (u^2)_xx expands to 6*u_x^2 + 6*u*u_xx
    sigs = {split_mono(m)[1]: c for m, c in p.lhs_minus_rhs.terms.items()}
    assert any(c == -6 for c in sigs.values())


def test_parse_rational_coefficient():
    p = parse_pde("pde r vars(x) params() : 3/2*u_x = 0")
    ((m, c),) = p.lhs_minus_rhs.terms.items()
    assert m == ((jet({"x": 1}), 1),)
    assert c == Fraction(3, 2)


def test_parse_params_attached():
    p = parse_pde("pde s vars(x,t) params(p,q) : p*u_x + q*u_t = 0")
    syms = {s for m in p.lhs_minus_rhs.terms for s, _ in split_mono(m)[0]}
    assert syms == {"p", "q"}


def test_fractional_marker():
    p = parse_pde("pde f vars(x,t) params() frac(alpha) : u_{t:1} = u_{x:2}")
    assert p.fractional
    assert p.alpha_symbol == "alpha"


def test_error_undeclared_variable():
    with pytest.raises(UndeclaredSymbolError):
        parse_pde("pde e vars(x) params() : u_y = 0")


def test_error_undeclared_parameter():
    with pytest.raises(UndeclaredSymbolError):
        parse_pde("pde e vars(x) params() : r*u_x = 0")


def test_error_syntax_reports_position():
    with pytest.raises(PdeSyntaxError) as ei:
        parse_pde("pde e vars(x) params() : u_x + = 0")
    assert ei.value.pos > 0
    assert "column" in str(ei.value)


def test_error_mixed_orders():
    # alpha-order markers are rejected outside a frac definition
    with pytest.raises(MixedOrderError):
        parse_pde("pde e vars(x,t) params() : u_x^a2 = u_t")


def test_normalization_merges_and_drops():
    p = parse_pde("pde n vars(x) params() : u_x + u_x = 2*u_x")
    assert p.lhs_minus_rhs.is_zero


def test_normalization_deterministic_order():
    a = parse_pde("pde n vars(x,t) params() : u_x + u_t + u*u_x = 0")
    b = parse_pde("pde n vars(x,t) params() : u*u_x + u_t + u_x = 0")
    assert a.lhs_minus_rhs == b.lhs_minus_rhs


def test_differentiate_product_rule():
    p = parse_pde("pde d vars(x,t) params() : u*u_x = 0")
    d = differentiate(p.lhs_minus_rhs, "x")
    # d/dx (u u_x) = u_x^2 + u u_xx
    assert len(d.terms) == 2
    orders = sorted(sum(o for _, o in jet_multi(sym)) * pw
                    for m in d.terms for sym, pw in split_mono(m)[1])
    assert orders == [1, 1] or len(d.terms) == 2


def test_differentiate_power_rule():
    e = parse_pde("pde d vars(x) params() : u^3 = 0").lhs_minus_rhs
    d = differentiate(e, "x")
    ((m, c),) = d.terms.items()
    assert c == 3                 # d/dx u^3 = 3 u^2 u_x
    powers = sorted(pw for _, pw in split_mono(m)[1])
    assert powers == [1, 2]


def test_expand_derivatives_matches_repeated_single():
    p = parse_pde("pde d vars(x,y) params() : u*u_x = 0")
    e = p.lhs_minus_rhs
    repeated = differentiate(differentiate(differentiate(e, "x"), "x"), "y")
    assert expand_derivatives(e, {"x": 2, "y": 1}) == repeated


def test_print_round_trip():
    for dsl in [
        "pde toy vars(x,t) params() : u_xx = u*u_t",
        "pde sww vars(x,y,t) params(p,q) : "
        "u_xt + u_xx = u_xxxy + p*u_x*u_xt + q*u_t*u_xx",
        "pde f vars(x,t) params() frac(alpha) : u_{t:2} = u_{x:4}",
    ]:
        p = parse_pde(dsl)
        assert parse_pde(print_pde(p)).lhs_minus_rhs == p.lhs_minus_rhs


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5).filter(bool),
                          st.integers(1, 3), st.integers(1, 2)),
                min_size=1, max_size=4))
def test_expr_arithmetic_normal_form(terms):
    """Sum of randomly built terms re-normalizes identically regardless of
    construction order."""
    built = [Poly({((jet({"x": o}), pw),): c}) for c, o, pw in terms]
    a = sum(built, Poly())
    b = sum(reversed(built), Poly())
    assert a == b
    assert expr_to_str(a, ("x",)) == expr_to_str(b, ("x",))


def test_jet_symbols_round_trip():
    assert jet({}) == "u"
    assert jet({"x": 2, "t": 1, "y": 0}) == "u_{t:1,x:2}"
    for multi in ({}, {"x": 1}, {"t": 2, "x": 3, "y": 1}, {"xi": 12}):
        assert dict(jet_multi(jet(multi))) == multi
    # parameters and frame atoms are not jets
    for sym in ("p", "k", "k_a", "sigma", "a0", "phi"):
        assert jet_multi(sym) is None


def test_parse_builds_jet_polynomial():
    p = parse_pde("pde s vars(x,t) params(p) : u_xt = p*u*u_{x:2}")
    assert p.lhs_minus_rhs == (Poly.var(jet({"x": 1, "t": 1}))
                               - Poly.var("p") * Poly.var("u")
                               * Poly.var(jet({"x": 2})))


def test_print_order_highest_derivative_first():
    p = parse_pde("pde o vars(x,t) params(p) : u + p*u_t = u*u_x + u_xx")
    assert print_pde(p) == ("pde o vars(x,t) params(p) : -u_xx - u*u_x "
                            "+ p*u_t + u = 0")


def test_error_zero_power_reports_position():
    with pytest.raises(PdeSyntaxError) as ei:
        parse_pde("pde toy vars(x,t) params() : u_xx = u^0*u_t")
    assert "at least 1" in str(ei.value)
    assert ei.value.pos == 38
    assert "column 39" in str(ei.value)
