"""The exact layer's normal form: `Poly.as_univariate` and the num/den form
`RationalFn` keeps, on random polynomials."""
from functools import reduce
from math import gcd

from hypothesis import given, settings, strategies as st

from twsolve.rational_poly import Poly, RationalFn, _mono_sort_key, monomial_content

SYMBOLS = ("a", "b", "k")
monos = st.dictionaries(st.sampled_from(SYMBOLS), st.integers(1, 3)) \
    .map(lambda d: tuple(sorted(d.items())))
coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)
polys = st.dictionaries(monos, coeffs, max_size=4).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


@settings(deadline=None)
@given(polys, st.sampled_from(SYMBOLS))
def test_as_univariate_reassembles_without_zero_coefficients(p, sym):
    uni = p.as_univariate(sym)
    assert not any(c.is_zero or sym in c.symbols() for c in uni.values())
    assert sum((c * Poly.var(sym, d) for d, c in uni.items()), Poly()) == p


@settings(deadline=None)
@given(polys, nonzero_polys)
def test_rational_fn_normal_form(n, d):
    """den has coprime integer coefficients and a positive leading one,
    num and den share no monomial, and the quotient is still n/d."""
    r = RationalFn(n, d)
    den = list(r.den.terms.values())
    assert all(c.denominator == 1 for c in den)
    assert reduce(gcd, (c.numerator for c in den)) == 1
    assert r.den.terms[min(r.den.terms, key=_mono_sort_key)] > 0
    assert monomial_content((r.num.monomial_content(),
                             r.den.monomial_content())) == ()
    assert r.num * d == n * r.den


@settings(deadline=None)
@given(polys, nonzero_polys, monos, coeffs)
def test_rational_fn_cancels_a_common_monomial(n, d, m, c):
    q = Poly({m: c})
    r, rq = RationalFn(n, d), RationalFn(n * q, d * q)
    assert rq == r
    assert (rq.num.terms, rq.den.terms) == (r.num.terms, r.den.terms)
