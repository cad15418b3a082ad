"""Mittag-Leffler function, generalized hyperbolic/trig functions, and the
modified Riemann-Liouville derivative kernels."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twsolve import (
    DomainGuardExceeded, GammaPole, MLSeriesSpec, NonConvergence, PoleAt,
    PowerLawTerm, generalized_fn, jumarie_mesh, jumarie_power_rule,
    jumarie_quadrature, mittag_leffler,
)
from twsolve.special_fn import _ml_float

from oracles import operator_mittag_leffler, scalar_quadrature

REF_DIGITS = 40


def ml_ref(alpha, z):
    """E_alpha(z) by the series at REF_DIGITS digits, widened by the digits
    that cancellation at negative or imaginary z costs."""
    with mpmath.workdps(REF_DIGITS + int(abs(z) ** (1.0 / alpha)) + 10):
        z, a = mpmath.mpmathify(z), mpmath.mpf(alpha)
        eps = mpmath.mpf(10) ** -(REF_DIGITS + 5)
        total = power = mpmath.mpf(1)
        k = 0
        while True:
            k += 1
            power *= z
            term = power / mpmath.gamma(1 + k * a)
            total += term
            if abs(term) < eps * max(abs(total), 1) and k > abs(z) ** (1 / alpha):
                return total


def generalized_ref(alpha, x, trig=False):
    """Every generalized function of one family at x, from the reference
    series at E_alpha(+/- x^alpha), imaginary for the trig family."""
    with mpmath.workdps(REF_DIGITS):
        xa = mpmath.mpf(x) ** mpmath.mpf(alpha)
    unit = 1j if trig else 1
    ep, em = ml_ref(alpha, unit * xa), ml_ref(alpha, -unit * xa)
    with mpmath.workdps(REF_DIGITS):
        odd, even = mpmath.re((ep - em) / (2 * unit)), mpmath.re((ep + em) / 2)
        names = ("sin", "cos", "tan", "cot") if trig else ("sinh", "cosh", "tanh", "coth")
        return dict(zip(names, (odd, even, odd / even, even / odd)))


def rel_err(got, want):
    return abs(got - complex(want)) / abs(complex(want))


# --- Mittag-Leffler -------------------------------------------------------

def test_ml_alpha1_is_exp():
    spec = MLSeriesSpec(1.0)
    assert mittag_leffler(spec, 1.0) == pytest.approx(math.e, abs=1e-14)
    for i in range(101):
        x = -5.0 + 10.0 * i / 100
        assert abs(mittag_leffler(spec, x) - math.exp(x)) < 1e-12


def test_ml_alpha2_is_cosh():
    spec = MLSeriesSpec(2.0)
    assert mittag_leffler(spec, 1.0) == pytest.approx(math.cosh(1.0), abs=1e-14)
    for i in range(31):
        x = 3.0 * i / 30
        assert abs(mittag_leffler(spec, x * x) - math.cosh(x)) < 1e-12


def test_ml_at_zero():
    assert mittag_leffler(MLSeriesSpec(0.5), 0.0) == 1.0


def test_ml_domain_guard():
    with pytest.raises(DomainGuardExceeded):
        mittag_leffler(MLSeriesSpec(0.5), 51.0)


def test_ml_spec_validation():
    with pytest.raises(ValueError):
        MLSeriesSpec(0.0)
    with pytest.raises(ValueError):
        MLSeriesSpec(0.5, truncation=0)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([0.25, 0.5, 0.75, 1.0]),
       st.floats(min_value=-10.0, max_value=10.0))
def test_ml_truncation_stability(alpha, z):
    """Doubling the term cap changes nothing once the tail test passes; when
    the cap is genuinely too small (small alpha, large |z|) both calls must
    report NonConvergence rather than return a bad value."""
    try:
        a = mittag_leffler(MLSeriesSpec(alpha, truncation=400), z)
    except NonConvergence:
        with pytest.raises(NonConvergence):
            mittag_leffler(MLSeriesSpec(alpha, truncation=400), z)
        return
    b = mittag_leffler(MLSeriesSpec(alpha, truncation=800), z)
    assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


@pytest.mark.parametrize("z", [-6.0, -8.0, -10.0])
def test_ml_negative_real_axis(z):
    """At large negative z the series cancels to ~|z|^(1/alpha) lost digits;
    1 + k*alpha must be formed at the working precision, not in float
    (E_0.6(-10) = 0.0466, E_0.6(-8) = +0.0586)."""
    assert rel_err(mittag_leffler(MLSeriesSpec(0.6), z), ml_ref(0.6, z)) <= 1e-13


@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
def test_ml_accuracy_contract(alpha):
    """E_alpha within 1e-13 relative error on z in [-10, 10] and [-5i, 5i].
    E_0.5 at z <= -8 needs more than the default 400 terms (about 620 at
    -10): there the default spec raises NonConvergence, and a doubled cap
    meets the same bound."""
    spec = MLSeriesSpec(alpha)
    zs = [-10.0 + 0.5 * i for i in range(41)] + [0.5j * i for i in range(-10, 11)]
    for z in zs:
        try:
            got = mittag_leffler(spec, z)
        except NonConvergence:
            assert alpha == 0.5 and z.real <= -8, z
            got = mittag_leffler(MLSeriesSpec(alpha, truncation=800), z)
        assert rel_err(got, ml_ref(alpha, z)) <= 1e-13, z


# arguments of the trig family (imaginary), the negative real axis and
# the complex plane, each of which the float series leaves to the fallback
FALLBACK_ZS = ([1j * t for t in (1.5, 2.5, 4.0, 5.0, 6.5)] + [-3j]
               + [-1.5, -3, -4.5, -6.5]
               + [complex(-2.0, 1.0), complex(1.5, 3.0), complex(-4.0, -2.5)])


@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.7, 0.8, 0.9])
def test_ml_fallback_is_the_operator_loop(alpha):
    """The fallback on raw libmp parts returns what the same series on
    mpf/mpc objects returns, bit for bit and of the same type."""
    spec = MLSeriesSpec(alpha)
    for z in FALLBACK_ZS:
        assert _ml_float(spec, z) is None, z
        got, want = mittag_leffler(spec, z), operator_mittag_leffler(spec, z)
        assert type(got) is type(want), z
        assert got == want, z


def test_ml_fallback_keeps_its_term_cap():
    with pytest.raises(NonConvergence):
        mittag_leffler(MLSeriesSpec(0.5), -10.0)
    with pytest.raises(NonConvergence):
        operator_mittag_leffler(MLSeriesSpec(0.5), -10.0)


def test_ml_float_path_serves_hyperbolic_arguments():
    """E_alpha(x^alpha) and E_2alpha(x^2alpha), which the hyperbolic family
    sums at the figure alphas and x <= 10.5, need no fallback."""
    for alpha in (0.7, 0.8, 0.9, 1.0):
        for x in (0.0, 0.1, 1.0, 10.5):
            xa = x ** alpha
            assert _ml_float(MLSeriesSpec(alpha), xa) is not None, (alpha, x)
            assert _ml_float(MLSeriesSpec(2 * alpha), xa * xa) is not None, (alpha, x)


# --- generalized functions ------------------------------------------------

@pytest.mark.parametrize("alpha", [0.3, 0.45, 0.6, 0.75, 0.9, 1.0])
def test_generalized_hyperbolic_accuracy_contract(alpha):
    """tanh/coth/sinh/cosh within 1e-13 relative error on x in [0.05, 10.5]."""
    for x in [0.05, 0.25, 0.5] + [0.5 * i for i in range(2, 22)]:
        for name, want in generalized_ref(alpha, x).items():
            assert rel_err(generalized_fn(name, alpha, x), want) <= 1e-13, (name, x)


def test_generalized_small_x_absolute_error():
    """tanh and sinh near x = 0 within 1e-15 absolute error."""
    for alpha in (0.3, 0.5, 0.8, 1.0):
        for x in (1e-8, 1e-5, 1e-3, 2.5e-3, 5e-3):
            ref = generalized_ref(alpha, x)
            for name in ("tanh", "sinh"):
                assert abs(generalized_fn(name, alpha, x) - ref[name]) <= 1e-15, \
                    (name, alpha, x)


def test_generalized_trig_fallback_matches_reference():
    """tan_0.6(5) sums E_0.6(+/- 2.63i) with cancellation, so the mpmath
    series serves it."""
    assert _ml_float(MLSeriesSpec(0.6), 1j * 5.0 ** 0.6) is None
    want = generalized_ref(0.6, 5.0, trig=True)["tan"]
    assert rel_err(generalized_fn("tan", 0.6, 5.0), want) <= 1e-13


@pytest.mark.parametrize("alpha", [0.6, 0.7, 0.8, 0.9])
def test_generalized_trig_equals_two_series_formula(alpha):
    """The trig family takes E_a(-i t) as the conjugate of E_a(i t).  Its
    values equal the formula with both series summed, bit for bit, on the
    float path and on the mpmath fallback."""
    spec = MLSeriesSpec(alpha)
    fallbacks = 0
    for i in range(151):
        x = i / 25
        xa = x ** alpha
        ep = mittag_leffler(spec, 1j * xa)
        em = mittag_leffler(spec, -1j * xa)
        fallbacks += _ml_float(spec, 1j * xa) is None
        sin_a = ((ep - em) / 2j).real
        cos_a = ((ep + em) / 2.0).real
        want = {"sin": sin_a, "cos": cos_a}
        if abs(cos_a) >= 1e-13:
            want["tan"] = sin_a / cos_a
        if abs(sin_a) >= 1e-13:
            want["cot"] = cos_a / sin_a
        name = ("sin", "cos", "tan", "cot")[i % 4]
        if name in want:
            assert generalized_fn(name, alpha, x).hex() == want[name].hex(), (name, x)
    assert 0 < fallbacks < 151


def test_generalized_alpha1_reductions():
    for x in (0.5, 1.0, 2.0):
        assert abs(generalized_fn("tanh", 1.0, x) - math.tanh(x)) < 1e-12
        assert abs(generalized_fn("tan", 1.0, x) - math.tan(x)) < 1e-12
    assert generalized_fn("sin", 1.0, 1.0) == pytest.approx(
        0.8414709848078965, abs=1e-12)


def test_generalized_at_zero():
    for alpha in (0.5, 0.8, 1.0):
        assert generalized_fn("sinh", alpha, 0.0) == pytest.approx(0.0, abs=1e-14)
        assert generalized_fn("cosh", alpha, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_generalized_hyperbolic_identity():
    """cosh_a^2 - sinh_a^2 = E_a(x^a) * E_a(-x^a) -- not the classical 1."""
    for alpha in (0.4, 0.7, 0.95):
        spec = MLSeriesSpec(alpha)
        for x in (0.3, 1.0, 2.5):
            c = generalized_fn("cosh", alpha, x)
            s = generalized_fn("sinh", alpha, x)
            prod = mittag_leffler(spec, x ** alpha) * \
                mittag_leffler(spec, -(x ** alpha))
            assert abs(c * c - s * s - prod) < 1e-10


def test_generalized_pole():
    with pytest.raises(PoleAt):
        generalized_fn("coth", 1.0, 0.0)


def test_generalized_rejects_negative_x():
    with pytest.raises(ValueError):
        generalized_fn("tanh", 0.5, -1.0)


def test_generalized_unknown_name():
    with pytest.raises(ValueError):
        generalized_fn("sech", 1.0, 1.0)


# --- power rule -----------------------------------------------------------

def test_power_rule_classical():
    assert jumarie_power_rule(1.0, PowerLawTerm(2.0), 3.0) == pytest.approx(6.0)


def test_power_rule_half():
    assert jumarie_power_rule(0.5, PowerLawTerm(1.0), 1.0) == pytest.approx(
        1.1283791670955126, abs=1e-14)
    assert jumarie_power_rule(0.5, PowerLawTerm(0.5), 1.0) == pytest.approx(
        0.8862269254527580, abs=1e-14)


def test_power_rule_gamma_pole():
    with pytest.raises(GammaPole):
        jumarie_power_rule(2.0, PowerLawTerm(1.0), 1.0)


def test_power_law_term_validation():
    with pytest.raises(ValueError):
        PowerLawTerm(0.0)


# --- quadrature -----------------------------------------------------------

def test_quadrature_constant_is_zero():
    assert jumarie_quadrature(lambda s: 3.7, 0.5, 1.0) == pytest.approx(
        0.0, abs=1e-12)


def test_quadrature_linear():
    v = jumarie_quadrature(lambda s: s, 0.5, 1.0)
    assert v == pytest.approx(1.1283791671, abs=1e-6)


def test_quadrature_square():
    v = jumarie_quadrature(lambda s: s * s, 0.5, 1.0)
    assert v == pytest.approx(1.5045055561, abs=1e-6)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_quadrature_agrees_with_power_rule(alpha, gamma, x):
    want = jumarie_power_rule(alpha, PowerLawTerm(gamma), x)
    got = jumarie_quadrature(lambda s: s ** gamma, alpha, x)
    assert abs(got - want) < 1e-6 * max(1.0, abs(want))


def test_quadrature_linearity():
    alpha, x = 0.6, 1.2
    f = lambda s: s ** 1.5
    g = lambda s: s * s
    a = jumarie_quadrature(f, alpha, x)
    b = jumarie_quadrature(g, alpha, x)
    c = jumarie_quadrature(lambda s: 2 * f(s) - 3 * g(s), alpha, x)
    assert c == pytest.approx(2 * a - 3 * b, abs=1e-8)


# integrands whose array and scalar evaluations round alike: numpy's `**`
# is not libm's pow, so powers are kept out
XP = np.linspace(0.0, 5.0, 41)
FP = np.cos(XP) + XP * XP
INTEGRANDS = {
    "interp": lambda s: np.interp(s, XP, FP),
    "cubic": lambda s: 1.0 + s * (0.5 - s * (0.25 + 0.125 * s)),
}


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_quadrature_single_shot_is_the_scalar_loop(alpha, name):
    f = INTEGRANDS[name]
    for x in (0.2, 1.0, 2.2, 3.7):
        want = scalar_quadrature(f, alpha, x, 5.0, max_refine=0, n0=256)
        assert jumarie_quadrature(f, alpha, x, X=5.0, max_refine=0,
                                  n0=256) == want, x


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@pytest.mark.parametrize("n0", [256, 512])
def test_quadrature_array_is_the_scalar_loop(alpha, name, n0):
    """An array x gets, point by point, the single-shot scalar estimate,
    from one sample of f on every point's mesh."""
    f = INTEGRANDS[name]
    calls = []

    def counted(s):
        calls.append(s.shape)
        return f(s)

    # 37 points: more than one block of kernel rows, and a partial last one
    xs = np.linspace(0.1, 4.9, 37)
    got = jumarie_quadrature(counted, alpha, xs, X=5.0, max_refine=0, n0=n0)
    assert calls == [(4 * len(xs), n0 + 1)]
    assert got.shape == xs.shape
    for x, g in zip(xs, got):
        assert g == scalar_quadrature(f, alpha, float(x), 5.0,
                                      max_refine=0, n0=n0), x


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_quadrature_mesh_serves_every_integrand(alpha):
    """One mesh applied to two integrands gives, bit for bit, what two
    calls that weigh their own mesh give."""
    xs = np.linspace(0.1, 4.9, 37)
    mesh = jumarie_mesh(alpha, xs, X=5.0, n0=256)
    for name, f in sorted(INTEGRANDS.items()):
        got = jumarie_quadrature(f, alpha, xs, X=5.0, max_refine=0, n0=256,
                                 mesh=mesh)
        want = jumarie_quadrature(f, alpha, xs, X=5.0, max_refine=0, n0=256)
        assert got.tobytes() == want.tobytes(), name


def test_quadrature_rejects_a_mesh_of_other_points():
    f = INTEGRANDS["cubic"]
    xs = np.linspace(0.5, 4.5, 9)
    mesh = jumarie_mesh(0.6, xs, X=5.0, n0=64)
    for alpha, x, X, n0 in ((0.7, xs, 5.0, 64), (0.6, xs[1:], 5.0, 64),
                            (0.6, xs + 0.01, 5.0, 64), (0.6, xs, 6.0, 64),
                            (0.6, xs, 5.0, 128)):
        with pytest.raises(ValueError, match="mesh was built"):
            jumarie_quadrature(f, alpha, x, X=X, max_refine=0, n0=n0, mesh=mesh)
    with pytest.raises(ValueError, match="single-shot"):
        jumarie_quadrature(f, 0.6, 1.0, X=5.0, n0=64,
                           mesh=jumarie_mesh(0.6, 1.0, X=5.0, n0=64))


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_quadrature_adaptive_is_the_scalar_loop(alpha):
    f = INTEGRANDS["cubic"]
    for x in (0.5, 1.0, 2.0):
        assert jumarie_quadrature(f, alpha, x) == scalar_quadrature(
            f, alpha, x, 2.0 * x), x


def test_quadrature_validation():
    with pytest.raises(ValueError):
        jumarie_quadrature(lambda s: s, 1.0, 1.0)
    with pytest.raises(ValueError):
        jumarie_quadrature(lambda s: s, 0.5, 3.0, X=2.0)
    with pytest.raises(ValueError, match="single-shot"):
        jumarie_quadrature(lambda s: s, 0.5, np.array([1.0, 2.0]), X=5.0)
    with pytest.raises(ValueError, match="1-D"):
        jumarie_quadrature(lambda s: s, 0.5, np.ones((2, 2)), X=5.0,
                           max_refine=0)
    for xs in ([0.0, 1.0], [1.0, 5.0], [-1.0, 2.0], [1.0, 6.0]):
        with pytest.raises(ValueError, match=r"\(0, X\)"):
            jumarie_quadrature(lambda s: s, 0.5, np.array(xs), X=5.0,
                               max_refine=0)
