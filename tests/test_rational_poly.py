"""The exact layer's normal form: `Poly.as_univariate`, the num/den form
`RationalFn` keeps, and the int-or-Fraction coefficients every `Poly`
stores, on random polynomials and on the pipeline's own traffic."""
import dataclasses
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from twsolve import cli, pipeline
from twsolve.rational_poly import Poly, RationalFn, _mono_sort_key, monomial_content

from conftest import load_perfbench

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


def stored_coefficients_are_exact(p):
    """Every stored coefficient is an int, or a Fraction that is not one."""
    return all(type(c) is int or type(c) is Fraction and c.denominator != 1
               for c in p.terms.values())


# non-integers only; one_of(coeffs, ratios) gives polynomials that hold ints
# and Fractions side by side
ratios = st.fractions(min_value=-6, max_value=6, max_denominator=6) \
    .filter(lambda c: c.denominator != 1)
mixed_polys = st.dictionaries(monos, st.one_of(coeffs, ratios), min_size=1,
                              max_size=4).map(Poly)


@settings(deadline=None)
@example(Poly({(("a", 1),): 1, (): Fraction(1, 3)}), Poly({(("a", 1),): 3}))
@given(mixed_polys, mixed_polys.filter(lambda p: not p.is_zero))
def test_try_divide_recovers_a_factor_exactly(p, q):
    """(p*q)/q is p exactly: every coefficient quotient stays rational."""
    assert (p * q).try_divide(q) == p


@settings(deadline=None)
@given(mixed_polys, mixed_polys.filter(lambda p: not p.is_zero),
       st.sampled_from(SYMBOLS), st.one_of(coeffs, ratios))
def test_arithmetic_stores_int_or_nonintegral_fraction(p, q, sym, c):
    results = [p + q, p - q, p * q, -p, p ** 2, p.derivative(sym),
               p.divide_const(c), (p * q).try_divide(q), p.substitute({sym: c}),
               p.primitive()[0], *p.as_univariate(sym).values()]
    assert all(map(stored_coefficients_are_exact, results))


@pytest.mark.parametrize("n", range(10))
def test_power_makes_the_binary_count_of_products(n, monkeypatch):
    """p**n is the n-fold product and takes floor(log2 n) + popcount(n) - 1
    products, none for n = 0: no square of the base past its last bit and
    no product with the constant 1."""
    p = Poly({(("a", 1),): 2, (("b", 1),): Fraction(1, 3), (): -1})
    want = reduce(Poly.__mul__, [p] * n, Poly.const(1))
    calls, mul = [], Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert (p ** n).terms == want.terms
    assert len(calls) == (n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0)


def test_divide_const_by_one_is_the_poly_itself():
    p = Poly({(("a", 1),): 2, (): Fraction(1, 3)})
    assert p.divide_const(1) is p and p.divide_const(Fraction(3, 3)) is p
    assert p.divide_const(-1) == -p and p.divide_const(2).terms == \
        {(("a", 1),): 1, (): Fraction(1, 6)}


def test_inexact_coefficient_is_refused():
    for bad in (0.5, 1.0, complex(1), "1/2"):
        with pytest.raises(TypeError, match="inexact coefficient"):
            Poly({(("a", 1),): bad})
        with pytest.raises(TypeError, match="inexact coefficient"):
            Poly.const(bad)
    assert Poly().constant_value() == 0
    assert type(Poly().constant_value()) is int
    assert type(Poly.const(Fraction(4, 2)).constant_value()) is int


def _polys_in(obj):
    """Every Poly reachable from a pipeline result: dataclass fields,
    containers, and the num and den of each RationalFn."""
    if isinstance(obj, Poly):
        yield obj
    elif isinstance(obj, RationalFn):
        yield obj.num
        yield obj.den
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _polys_in(getattr(obj, f.name))
    elif isinstance(obj, dict):
        yield from _polys_in(list(obj.values()))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _polys_in(item)


def test_pipeline_traffic_keeps_the_coefficient_normal_form(capsys, monkeypatch):
    """On the registry keys (tanh and subeq) and one round of the benchmark's
    symbolic corpus, every Poly of every stage, branch and constraint keeps
    int-or-nonintegral-Fraction coefficients."""
    workloads = load_perfbench("workloads", monkeypatch)
    results = []

    def recording_run(*args):
        results.append(pipeline.run(*args))
        return results[-1]

    monkeypatch.setattr(cli, "run", recording_run)
    round_ = next(workloads.rounds("symbolic", 901))
    argvs = [op.argv for op in round_] + [
        ("solve", key, "--method", "subeq", "--sigma", "-1")
        for key in workloads.FRACTIONAL_KEYS]
    for argv in argvs:
        assert cli.main(list(argv)) == 0, argv
    capsys.readouterr()
    assert len(results) == len(argvs)
    branches = [b for r in results for b in r.branches]
    assert branches and any(b.constraints for b in branches)
    for r in results:
        polys = list(_polys_in(r))
        assert len(polys) > len(r.system.equations)
        assert all(map(stored_coefficients_are_exact, polys)), r.definition.name
