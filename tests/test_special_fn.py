"""Mittag-Leffler function, generalized hyperbolic/trig functions, and the
modified Riemann-Liouville derivative kernels."""
import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twsolve import (
    DomainGuardExceeded, GammaPole, NonConvergence, PoleAt, generalized_fn,
    jumarie_mesh, jumarie_power_rule, jumarie_quadrature, mittag_leffler,
)
from twsolve import special_fn
from twsolve.special_fn import _ml_dd, _ml_float

from oracles import (
    operator_ml_fallback, scalar_generalized_fn, scalar_mittag_leffler,
    scalar_ml_float, scalar_quadrature,
)

REF_DIGITS = 40


@functools.lru_cache(maxsize=None)
def ref_gamma(alpha, k, dps):
    with mpmath.workdps(dps):
        return mpmath.gamma(1 + k * mpmath.mpf(alpha))


def ml_ref(alpha, z, digits=REF_DIGITS):
    """E_alpha(z) by the series at `digits` digits, widened by at least the
    digits that cancellation at negative or imaginary z costs (in steps of
    ten, so that the Gamma values serve many z)."""
    dps = digits + 10 * math.ceil(abs(z) ** (1.0 / alpha) / 10) + 10
    with mpmath.workdps(dps):
        z = mpmath.mpmathify(z)
        eps = mpmath.mpf(10) ** -(digits + 5)
        total = power = mpmath.mpf(1)
        k = 0
        while True:
            k += 1
            power *= z
            term = power / ref_gamma(alpha, k, dps)
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
    assert mittag_leffler(1.0, (1.0,))[0] == pytest.approx(math.e, abs=1e-14)
    xs = [-5.0 + 10.0 * i / 100 for i in range(101)]
    for x, v in zip(xs, mittag_leffler(1.0, tuple(xs)).tolist()):
        assert abs(v - math.exp(x)) < 1e-12


def test_ml_alpha2_is_cosh():
    assert mittag_leffler(2.0, (1.0,))[0] == pytest.approx(math.cosh(1.0), abs=1e-14)
    xs = [3.0 * i / 30 for i in range(31)]
    for x, v in zip(xs, mittag_leffler(2.0, tuple(x * x for x in xs)).tolist()):
        assert abs(v - math.cosh(x)) < 1e-12


def test_ml_at_zero():
    assert mittag_leffler(0.5, (0.0,))[0] == 1.0


def test_ml_domain_guard():
    with pytest.raises(DomainGuardExceeded, match="exceeds guard 50"):
        mittag_leffler(0.5, (51.0,))
    assert mittag_leffler(1.0, (51.0,), guard=2500.0)[0] == pytest.approx(
        math.exp(51.0), rel=1e-13)


@pytest.mark.parametrize("name, alpha", [
    ("tan", 1e308), ("cosh", 2000.0), ("sin", 2000.0), ("cosh", 300.0)])
def test_generalized_fn_overflowing_power_exceeds_the_guard(name, alpha):
    # 2^alpha overflows a float at 2000, and stays finite but past the
    # guard at 300: both are the same refusal
    with pytest.raises(DomainGuardExceeded):
        generalized_fn(name, alpha, np.array([2.0]))


def test_ml_alpha_validation():
    # alpha is checked before x^alpha is formed: 0.0 ** -1 would divide
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError, match="alpha must be positive"):
            mittag_leffler(alpha, (1.0,))
        with pytest.raises(ValueError, match="alpha must be positive"):
            generalized_fn("tanh", alpha, np.array([0.0]))


@pytest.mark.parametrize("z", [1.0, [1.0, 2.0], np.array([1.0]), ((1.0,),)])
def test_ml_takes_only_a_tuple(z):
    with pytest.raises(ValueError, match="tuple of numbers"):
        mittag_leffler(0.5, z)


@pytest.mark.parametrize("x", [1.0, np.ones((2, 2))])
def test_generalized_fn_takes_only_a_1d_array(x):
    with pytest.raises(ValueError, match="1-D"):
        generalized_fn("tanh", 0.5, x)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([0.25, 0.5, 0.75, 1.0]),
       st.floats(min_value=-10.0, max_value=10.0))
def test_ml_truncation_stability(alpha, z):
    """Doubling the term cap changes nothing once the tail test passes; when
    the cap is genuinely too small (small alpha, large |z|) both calls must
    report NonConvergence rather than return a bad value."""
    try:
        a = mittag_leffler(alpha, (z,))[0]
    except NonConvergence:
        with pytest.raises(NonConvergence):
            mittag_leffler(alpha, (z,))
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special_fn, "_ML_TERMS", 800)
        b = mittag_leffler(alpha, (z,))[0]
    assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


@pytest.mark.parametrize("z", [-6.0, -8.0, -10.0])
def test_ml_negative_real_axis(z):
    """At large negative z the series cancels to ~|z|^(1/alpha) lost digits;
    1 + k*alpha must be formed at the working precision, not in float
    (E_0.6(-10) = 0.0466, E_0.6(-8) = +0.0586)."""
    assert rel_err(mittag_leffler(0.6, (z,))[0], ml_ref(0.6, z)) <= 1e-13


# the real and imaginary arguments past the float series: the trig
# family's i*x^alpha at the nodes of the fractional residual (X = 5) and
# further out, and the negative reals in [-7, 0)
IMAG_ZS = [1j * t for t in (1.5, 2.5, 4.0, 5.0, 6.5)] + [-3j]
NEGATIVE_ZS = [-1.5, -3.0, -4.5, -6.5] + [-7.0 + 7.0 * k / 50 for k in range(50)]
DENSE_NODES = np.linspace(0.05, 5.0, 97)


@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
def test_ml_accuracy_contract(alpha, monkeypatch):
    """Real E_alpha within 1e-13 relative error (the float series'
    acceptance bound) on z in [-10, 10] and the negative sweep.  On the
    imaginary axis, Re E and Im E each within 1e-15 of its own size against
    a 60-digit sum, however far the part is below |E|: on [-5i, 5i], the
    wider points and i*x^alpha at the 97 dense nodes.  E_0.5 at z <= -8
    needs more than the default 400 terms (about 620 at -10): there the
    default cap raises NonConvergence, and a doubled cap meets the same
    bound."""
    for z in [-10.0 + 0.5 * i for i in range(41)] + NEGATIVE_ZS:
        try:
            got = mittag_leffler(alpha, (z,))[0]
        except NonConvergence:
            assert alpha == 0.5 and z <= -8, z
            with monkeypatch.context() as mp:
                mp.setattr(special_fn, "_ML_TERMS", 800)
                got = mittag_leffler(alpha, (z,))[0]
        assert rel_err(got, ml_ref(alpha, z)) <= 1e-13, z
    dense = [1j * float(x) ** alpha for x in DENSE_NODES]
    for z in [0.5j * i for i in range(-10, 11)] + IMAG_ZS + dense:
        got, want = mittag_leffler(alpha, (z,))[0], complex(ml_ref(alpha, z, 60))
        for part, ref in ((got.real, want.real), (got.imag, want.imag)):
            assert abs(part - ref) <= 1e-15 * abs(ref), z


@pytest.mark.parametrize("x", [10.0, 20.0, 25.0, 30.0, 40.0])
def test_generalized_cos_keeps_relative_accuracy_far_below_sin(x):
    """cos_0.5(x) = Re E_0.5(i*sqrt(x)) = Re(exp(z^2)*erfc(-z)) = exp(-x),
    from 4.5e-5 at x = 10 to 4.2e-18 at x = 40, while |E| stays near
    1/sqrt(pi*x): within 1e-15 of mpmath's closed form at the same float
    z.  A stopping test and digit margin measured against |E| miss it by up
    to 0.75."""
    got = generalized_fn("cos", 0.5, np.array([x]))[0]
    with mpmath.workdps(60):
        z = mpmath.mpc(0, x ** 0.5)
        want = mpmath.re(mpmath.exp(z * z) * mpmath.erfc(-z))
    assert abs(got - want) <= 1e-15 * abs(want)


# complex arguments off both axes, which only the fallback sums
FALLBACK_ZS = ([complex(-2.0, 1.0), complex(1.5, 3.0), complex(-4.0, -2.5)]
               + [complex(re, im) for re, im in
                  zip(*np.random.default_rng(0).uniform((-5, -4), (3, 4), (50, 2)).T)])


@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.7, 0.8, 0.9])
def test_ml_fallback_is_the_operator_loop(alpha):
    """Off both axes z goes straight to the fallback, whose loop on raw
    libmp parts returns what the same series on mpf/mpc objects returns,
    bit for bit."""
    for z in FALLBACK_ZS:
        got, want = mittag_leffler(alpha, (z,))[0].item(), operator_ml_fallback(alpha, z)
        assert type(got) is type(want), z
        assert got == want, z


def test_ml_fallback_keeps_its_term_cap():
    with pytest.raises(NonConvergence):
        mittag_leffler(0.5, (-10.0,))
    with pytest.raises(NonConvergence):
        operator_ml_fallback(0.5, -10.0)


def test_ml_element_is_its_one_element_call():
    """An element's bits do not depend on the rest of its grid: each
    element of an imaginary and of a negative-real grid is what a
    one-element call gives.  At alpha = 0.5 the double-double series
    certifies some elements of each grid and leaves the others to the
    fallback."""
    for grid in (tuple((1j * np.linspace(0.0, 6.5, 53)).tolist()),
                 tuple(np.linspace(-7.5, 0.0, 31).tolist())):
        alone = [mittag_leffler(0.5, (z,)) for z in grid]
        assert mittag_leffler(0.5, grid).tobytes() == np.concatenate(alone).tobytes()
        assert 0 < _ml_dd(0.5, np.array(grid))[1].sum() < len(grid)


def test_ml_float_path_serves_hyperbolic_arguments():
    """E_alpha(x^alpha) and E_2alpha(x^2alpha), which the hyperbolic family
    sums at the figure alphas and x <= 10.5, need no fallback."""
    for alpha in (0.7, 0.8, 0.9, 1.0):
        for x in (0.0, 0.1, 1.0, 10.5):
            xa = x ** alpha
            assert scalar_ml_float(alpha, xa) is not None, (alpha, x)
            assert scalar_ml_float(2 * alpha, xa * xa) is not None, (alpha, x)


def kernel_zs(seed):
    """Real, purely imaginary and general complex arguments, each mixing
    elements that the first tier accepts with ones it leaves to the later
    tiers, and signed zeros, a tiny value and the guard's edge."""
    rng = np.random.default_rng(seed)
    real = np.concatenate(([0.0, -0.0, 1e-300, 50.0, -50.0, 2500.0],
                           rng.uniform(-12.0, 12.0, 120)))
    imag = 1j * np.concatenate(([0.0, 50.0, -3.0], rng.uniform(0.0, 12.0, 120)))
    general = rng.uniform(-8.0, 8.0, 120) + 1j * rng.uniform(-8.0, 8.0, 120)
    return real, imag, general


@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.4, 2.0])
def test_ml_float_kernel_is_the_scalar_loop(alpha):
    """The array kernel takes each element's accept decision as the scalar
    float loop does and, where it accepts, returns the loop's sum bit for
    bit."""
    zs = kernel_zs(round(alpha * 10))[0]
    sums, accepted = _ml_float(alpha, zs)
    want = [scalar_ml_float(alpha, z) for z in zs.tolist()]
    assert accepted.tolist() == [w is not None for w in want]
    assert 0 < accepted.sum() < len(zs)
    assert sums[accepted].tobytes() == np.array(
        [w for w in want if w is not None]).tobytes()
    sums, accepted = _ml_float(alpha, np.array([]))
    assert len(sums) == len(accepted) == 0


def scalar_ml_grid(alpha, zs):
    """mittag_leffler over a grid as the scalar loop: the first error in
    input order raised."""
    return np.array([scalar_mittag_leffler(alpha, z) for z in zs])


def test_ml_grid_is_the_scalar_loop():
    """A tuple z gives the scalar loop's values bit for bit, or raises the
    type and message of the loop's first error.  The kernel's real,
    imaginary and complex mixes hold accepted and fallback elements, z at
    the guard's edge and beyond it (2500), and z whose fallback does not
    converge (50 at small alpha)."""
    raised = set()
    for alpha in (0.5, 0.8, 1.4):
        for zs in kernel_zs(round(alpha * 10)):
            zs = zs[:40].tolist()
            for grid in (zs, [z for z in zs if abs(z) <= 12]):
                got = grid_outcome(mittag_leffler, alpha, tuple(grid))
                want = grid_outcome(scalar_ml_grid, alpha, grid)
                if isinstance(want, tuple):
                    assert got == want
                    raised.add(want[0])
                else:
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert raised == {DomainGuardExceeded, NonConvergence}


def grid_outcome(f, *args):
    """f(*args) as its value, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as e:      # noqa: BLE001 - the outcome is compared
        return type(e), str(e)


def scalar_grid(name, alpha, xs):
    """generalized_fn over a grid as the scalar loop: NaN at a pole, and
    the first error in input order raised."""
    out = []
    for x in xs:
        try:
            out.append(scalar_generalized_fn(name, alpha, x))
        except PoleAt:
            out.append(math.nan)
    return np.array(out)


@pytest.mark.parametrize("name, alpha, xs", [
    ("tanh", 0.8, [0.0, 0.5, 3.0, 10.5]),
    ("coth", 0.7, [0.0, 2.0, 1e5, 4.0]),              # pole, then the guard
    ("cosh", 2.0, [1.0, 2.0 ** 1000, 7.5]),          # x^alpha overflows
    ("tan", 0.6, [0.0, 1.0, 5.0, 9.0]),               # fallbacks mixed in
    ("cot", 0.9, [0.0, 1.0, 2.0]),                    # pole at 0
    ("tan", 0.5, [1.0, 1600.0, 1e6]),                 # NonConvergence first
    ("tanh", 0.5, [1.0, 2000.0, 1e6]),                # both series fail at 2000
    ("sin", 0.5, [1.0, 1e6, 1600.0]),                 # the guard first
    ("cos", 0.6, [2.0, 0.0]),
])
def test_generalized_fn_grid_is_the_scalar_loop(name, alpha, xs):
    """An array x gives what the scalar loop gives, bit for bit, with NaN
    where the scalar code raises PoleAt; a grid whose first failing element
    raises DomainGuardExceeded or NonConvergence raises that error."""
    got = grid_outcome(generalized_fn, name, alpha, np.array(xs))
    want = grid_outcome(scalar_grid, name, alpha, xs)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.tobytes() == want.tobytes()


# --- generalized functions ------------------------------------------------

@pytest.mark.parametrize("alpha", [0.3, 0.45, 0.6, 0.75, 0.9, 1.0])
def test_generalized_hyperbolic_accuracy_contract(alpha):
    """tanh/coth/sinh/cosh within 1e-13 relative error on x in [0.05, 10.5]."""
    xs = [0.05, 0.25, 0.5] + [0.5 * i for i in range(2, 22)]
    refs = [generalized_ref(alpha, x) for x in xs]
    for name in refs[0]:
        got = generalized_fn(name, alpha, np.array(xs)).tolist()
        for x, v, ref in zip(xs, got, refs):
            assert rel_err(v, ref[name]) <= 1e-13, (name, x)


def test_generalized_small_x_absolute_error():
    """tanh and sinh near x = 0 within 1e-15 absolute error."""
    xs = (1e-8, 1e-5, 1e-3, 2.5e-3, 5e-3)
    for alpha in (0.3, 0.5, 0.8, 1.0):
        refs = [generalized_ref(alpha, x) for x in xs]
        for name in ("tanh", "sinh"):
            got = generalized_fn(name, alpha, np.array(xs)).tolist()
            for x, v, ref in zip(xs, got, refs):
                assert abs(v - ref[name]) <= 1e-15, (name, alpha, x)


def test_generalized_trig_fallback_matches_reference():
    """tan_0.6(5) sums E_0.6(+/- 2.63i) with more cancellation than the
    float series certifies; the double-double series serves it."""
    assert scalar_ml_float(0.6, 1j * 5.0 ** 0.6) is None
    assert _ml_dd(0.6, np.array([1j * 5.0 ** 0.6]))[1].all()
    want = generalized_ref(0.6, 5.0, trig=True)["tan"]
    assert rel_err(generalized_fn("tan", 0.6, np.array([5.0]))[0], want) <= 1e-13


@pytest.mark.parametrize("alpha", [0.6, 0.7, 0.8, 0.9])
def test_generalized_trig_equals_two_series_formula(alpha):
    """The trig family takes sin_a and cos_a as the parts of E_a(i t).
    Its values equal the formula with both series summed, bit for bit, on
    the double-double path, which serves every x here."""
    zs = 1j * (np.arange(151) / 25) ** alpha
    assert _ml_dd(alpha, zs)[1].all()
    for i in range(151):
        x = i / 25
        xa = x ** alpha
        ep, em = mittag_leffler(alpha, (1j * xa, -1j * xa)).tolist()
        sin_a = ((ep - em) / 2j).real
        cos_a = ((ep + em) / 2.0).real
        want = {"sin": sin_a, "cos": cos_a}
        if abs(cos_a) >= 1e-13:
            want["tan"] = sin_a / cos_a
        if abs(sin_a) >= 1e-13:
            want["cot"] = cos_a / sin_a
        name = ("sin", "cos", "tan", "cot")[i % 4]
        if name in want:
            got = generalized_fn(name, alpha, np.array([x]))[0].item()
            assert got.hex() == want[name].hex(), (name, x)


def test_generalized_alpha1_reductions():
    xs = (0.5, 1.0, 2.0)
    tanh, tan = (generalized_fn(name, 1.0, np.array(xs)).tolist() for name in ("tanh", "tan"))
    for x, th, t in zip(xs, tanh, tan):
        assert abs(th - math.tanh(x)) < 1e-12
        assert abs(t - math.tan(x)) < 1e-12
    assert generalized_fn("sin", 1.0, np.array([1.0]))[0] == pytest.approx(
        0.8414709848078965, abs=1e-12)


def test_generalized_at_zero():
    zero = np.array([0.0])
    for alpha in (0.5, 0.8, 1.0):
        assert generalized_fn("sinh", alpha, zero)[0] == pytest.approx(0.0, abs=1e-14)
        assert generalized_fn("cosh", alpha, zero)[0] == pytest.approx(1.0, abs=1e-14)
        # the zeros keep the sign that the two-series formula gives them
        for name in ("sin", "cos", "tan", "sinh", "tanh"):
            assert generalized_fn(name, alpha, zero)[0].item().hex() == \
                scalar_generalized_fn(name, alpha, 0.0).hex() == \
                (1.0 if name in ("cos", "cosh") else 0.0).hex(), name


def test_generalized_hyperbolic_identity():
    """cosh_a^2 - sinh_a^2 = E_a(x^a) * E_a(-x^a) -- not the classical 1."""
    xs = (0.3, 1.0, 2.5)
    for alpha in (0.4, 0.7, 0.95):
        c = generalized_fn("cosh", alpha, np.array(xs))
        s = generalized_fn("sinh", alpha, np.array(xs))
        prod = mittag_leffler(alpha, tuple(x ** alpha for x in xs)) * \
            mittag_leffler(alpha, tuple(-(x ** alpha) for x in xs))
        assert np.all(np.abs(c * c - s * s - prod) < 1e-10)


def test_generalized_pole():
    # a pole is NaN; the points around it keep their values
    v = generalized_fn("coth", 1.0, np.array([1.0, 0.0, 2.0]))
    assert np.isnan(v[1]) and np.isfinite(v[[0, 2]]).all()


def test_generalized_rejects_negative_x():
    with pytest.raises(ValueError):
        generalized_fn("tanh", 0.5, np.array([-1.0]))


def test_generalized_unknown_name():
    with pytest.raises(ValueError):
        generalized_fn("sech", 1.0, np.array([1.0]))


# --- power rule -----------------------------------------------------------

def test_power_rule_classical():
    assert jumarie_power_rule(1.0, 2.0, 3.0) == pytest.approx(6.0)


def test_power_rule_half():
    assert jumarie_power_rule(0.5, 1.0, 1.0) == pytest.approx(
        1.1283791670955126, abs=1e-14)
    assert jumarie_power_rule(0.5, 0.5, 1.0) == pytest.approx(
        0.8862269254527580, abs=1e-14)


def test_power_rule_gamma_pole():
    with pytest.raises(GammaPole):
        jumarie_power_rule(2.0, 1.0, 1.0)


def test_power_rule_exponent_validation():
    with pytest.raises(ValueError, match="exponent"):
        jumarie_power_rule(0.5, 0.0, 1.0)


# --- quadrature -----------------------------------------------------------

ONE = np.array([1.0])


def test_quadrature_constant_is_zero():
    assert jumarie_quadrature(lambda s: 3.7, 0.5, ONE)[0] == pytest.approx(
        0.0, abs=1e-12)


def test_quadrature_linear():
    v = jumarie_quadrature(lambda s: s, 0.5, ONE)[0]
    assert v == pytest.approx(1.1283791671, abs=1e-6)


def test_quadrature_square():
    v = jumarie_quadrature(lambda s: s * s, 0.5, ONE)[0]
    assert v == pytest.approx(1.5045055561, abs=1e-6)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_quadrature_agrees_with_power_rule(alpha, gamma, x):
    want = jumarie_power_rule(alpha, gamma, x)
    got = jumarie_quadrature(lambda s: s ** gamma, alpha, np.array([x]))[0]
    assert abs(got - want) < 1e-6 * max(1.0, abs(want))


@pytest.mark.parametrize("alpha,gamma,x", [(0.6, 0.35, 1.0), (0.9, 0.15, 1.0),
                                            (0.9, 0.35, 0.3)])
def test_quadrature_converges_on_the_finest_levels(alpha, gamma, x):
    """These refinements stop at n = 16384 or 32768, where a grading capped
    only at g = 4 put the last nodes on y and the refinement never agreed."""
    want = jumarie_power_rule(alpha, gamma, x)
    got = jumarie_quadrature(lambda s: s ** gamma, alpha, np.array([x]))[0]
    assert abs(got - want) < 1e-6 * max(1.0, abs(want))


def single_shot_error(alpha, gamma, xs, X, n0):
    """Worst error of the single-shot quadrature of s^gamma at the points
    xs against the power rule, relative to max(1, |want|)."""
    want = np.array([jumarie_power_rule(alpha, gamma, x) for x in xs])
    got = jumarie_quadrature(lambda s: s ** gamma, alpha, xs, X=X,
                             max_refine=0, n0=n0)
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("n0, bound", [(256, 2.2e-4), (512, 7.9e-5)])
def test_quadrature_single_shot_accuracy_on_criterion_6(n0, bound):
    """The single-shot mode (max_refine=0) on release criterion 6's cases,
    each x with X = 2x."""
    assert max(single_shot_error(alpha, gamma, np.array([x]), 2.0 * x, n0)
               for alpha in (0.25, 0.5, 0.75) for gamma in (0.5, 1.0, 2.0)
               for x in (0.5, 1.0, 2.0)) <= bound


def test_quadrature_single_shot_accuracy_on_the_residual_geometry():
    """The single-shot mode at the fractional residual's n0 = 256, on 24
    points in [0.2, 4.8] with X = 5."""
    xs = np.linspace(0.2, 4.8, 24)
    assert max(single_shot_error(alpha, gamma, xs, 5.0, 256)
               for alpha in (0.6, 0.7, 0.8, 0.9)
               for gamma in (0.5, 1.0, 2.0)) <= 1.9e-4


def test_quadrature_linearity():
    alpha, x = 0.6, np.array([1.2])
    f = lambda s: s ** 1.5
    g = lambda s: s * s
    a = jumarie_quadrature(f, alpha, x)
    b = jumarie_quadrature(g, alpha, x)
    c = jumarie_quadrature(lambda s: 2 * f(s) - 3 * g(s), alpha, x)
    assert c[0] == pytest.approx(2 * a[0] - 3 * b[0], abs=1e-8)


# The array quadrature sums one unit row of sample weights pairwise where
# the scalar loop adds cell by cell, so the two agree to rounding, which the
# difference quotient magnifies by 1/h.  An estimate that stopped at another
# refinement would be off by about 1e-6.
SCALAR_TOL = 1e-10


def near_scalar(got, want):
    return abs(got - want) <= SCALAR_TOL * max(1.0, abs(want))


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
        assert near_scalar(jumarie_quadrature(f, alpha, np.array([x]), X=5.0,
                                              max_refine=0, n0=256)[0], want), x


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@pytest.mark.parametrize("n0", [256, 512])
def test_quadrature_array_is_the_scalar_loop(alpha, name, n0):
    """An array x gets, point by point, the single-shot scalar estimate to
    within SCALAR_TOL, from one sample of f on every point's mesh."""
    f = INTEGRANDS[name]
    calls = []

    def counted(s):
        calls.append(s.shape)
        return f(s)

    xs = np.linspace(0.1, 4.9, 37)
    got = jumarie_quadrature(counted, alpha, xs, X=5.0, max_refine=0, n0=n0)
    assert calls == [(4 * len(xs), n0 + 1)]
    assert got.shape == xs.shape
    for x, g in zip(xs, got):
        assert near_scalar(g, scalar_quadrature(f, alpha, float(x), 5.0,
                                                max_refine=0, n0=n0)), x


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_quadrature_mesh_serves_every_integrand(alpha):
    """One mesh applied to two integrands gives, bit for bit, what two
    calls that weigh their own mesh give; in an adaptive call it serves
    the first estimate."""
    xs = np.linspace(0.1, 4.9, 37)
    mesh = jumarie_mesh(alpha, xs, X=5.0, n0=256)
    for name, f in sorted(INTEGRANDS.items()):
        got = jumarie_quadrature(f, alpha, xs, X=5.0, max_refine=0, n0=256,
                                 mesh=mesh)
        want = jumarie_quadrature(f, alpha, xs, X=5.0, max_refine=0, n0=256)
        assert got.tobytes() == want.tobytes(), name
    f = INTEGRANDS["cubic"]
    got = jumarie_quadrature(f, alpha, xs, X=5.0, n0=256, mesh=mesh)
    assert got.tobytes() == jumarie_quadrature(f, alpha, xs, X=5.0, n0=256).tobytes()


def test_only_a_given_mesh_keeps_its_unit_row():
    """The unit row of a `jumarie_mesh` is cached and shared, read-only, by
    the next mesh of that alpha and n0; an adaptive call's rows, nine sizes
    that the next call would not find again, stay out of that cache."""
    special_fn._mesh_row.cache_clear()
    jumarie_quadrature(INTEGRANDS["cubic"], 0.7, np.array([1.0, 2.0]), X=5.0)
    assert special_fn._mesh_row.cache_info().currsize == 0
    a = jumarie_mesh(0.7, np.array([1.0]), X=5.0, n0=256)
    b = jumarie_mesh(0.7, np.array([2.0, 3.0]), X=5.0, n0=256)
    assert a.w is b.w and not a.w.flags.writeable
    assert special_fn._mesh_row.cache_info().currsize == 1


@pytest.mark.parametrize("alpha", [0.3, 0.9])
def test_quadrature_leaves_the_arrays_an_integrand_keeps(alpha):
    """The samples become the cells in place only when the integrand keeps
    no reference to them: an integrand that keeps its arrays finds them
    unchanged, and its result, single shot or adaptive, is bit for bit
    that of one returning fresh arrays.  A constant returned as a scalar or
    as a read-only broadcast still has the derivative 0."""
    xs = np.linspace(0.1, 4.9, 37)
    fresh = INTEGRANDS["cubic"]
    kept = []

    def keeping(s):
        kept.append((fresh(s), fresh(s)))
        return kept[-1][0]

    for max_refine in (0, 9):
        got = jumarie_quadrature(keeping, alpha, xs, X=5.0, max_refine=max_refine)
        want = jumarie_quadrature(fresh, alpha, xs, X=5.0, max_refine=max_refine)
        assert got.tobytes() == want.tobytes()
    assert len(kept) > 2
    assert all(a.tobytes() == b.tobytes() for a, b in kept)
    for const in (lambda s: 2.0, lambda s: np.broadcast_to(2.0, s.shape)):
        assert (jumarie_quadrature(const, alpha, xs, X=5.0, max_refine=0) == 0.0).all()


@pytest.mark.skipif(special_fn._OWNED_REFS == 0,
                    reason="no reference count to trust on this interpreter: every "
                           "estimate copies its samples")
def test_an_estimate_holds_one_sample_array():
    """The integrand's fresh samples are the estimate's cells: at its peak
    a single-shot estimate on a given mesh holds 1.5 times the nodes'
    bytes at most (about 1.1, against 2.1 for a copy of the samples)."""
    nodes = np.linspace(0.05, 5.0, 97)
    prev = np.cos(nodes)
    xs = nodes[2:94]
    mesh = jumarie_mesh(0.7, xs, X=5.0, n0=256)

    def estimate():
        return jumarie_quadrature(lambda t: np.interp(t, nodes, prev), 0.7, xs,
                                  X=5.0, max_refine=0, n0=256, mesh=mesh)

    estimate()
    tracemalloc.start()
    try:
        estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * mesh.s.nbytes


@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.9])
def test_mesh_weights_match_exact_cell_integrals(alpha):
    """Each row's scale is y^(1-alpha), and the unit row's sample weights
    are w_i = A_i + B_(i-1)/d_(i-1) - B_i/d_i, where A_i and B_i are int
    (1-u)^(-alpha) du and int (1-u)^(-alpha) (u-a) du over the exact
    graded unit cell [a, b] = [1-c_i, 1-c_(i+1)], c_i = ((n-i)/n)^g, and
    d_i = b - a, here at 40 digits, for the rows of points near y = 0.13,
    1.7 and 4.6."""
    mesh = jumarie_mesh(alpha, np.array([0.13, 1.7, 4.6]), X=5.0, n0=256)
    n, g = mesh.n, min(2.0 / (1.0 - alpha), 4.0)     # 52/log2(256) > 4
    assert mesh.live.all()
    with mpmath.workdps(REF_DIGITS):
        oma, tma = 1 - mpmath.mpf(alpha), 2 - mpmath.mpf(alpha)
        c = [(mpmath.mpf(n - i) / n) ** g for i in range(n + 1)]
        A = [(c[i] ** oma - c[i + 1] ** oma) / oma for i in range(n)]
        r = [(c[i] * A[i] - (c[i] ** tma - c[i + 1] ** tma) / tma) / (c[i] - c[i + 1])
             for i in range(n)]
        want = [a - ri for a, ri in zip(A, r)] + [0]
        for i in range(n):
            want[i + 1] += r[i]
        err_scale = max(abs(v / mpmath.mpf(y) ** oma - 1)
                        for v, y in zip(mesh.scale.tolist(), mesh.s[:, -1].tolist()))
        err_w = max(abs(v / ref - 1) for v, ref in zip(mesh.w.tolist(), want))
    assert err_scale <= 1e-13
    assert err_w <= 2e-11


@pytest.mark.parametrize("alpha", [0.5, 0.9])
@pytest.mark.parametrize("n0", [16384, 32768])
def test_fine_mesh_rows_keep_the_whole_kernel(alpha, n0):
    """At the finest levels of the default refinement, where ((n-i)/n)^4
    would put the last nodes on y, every cell stays live and each row's
    weights sum to int_0^y (y-s)^(-alpha) ds = y^(1-alpha)/(1-alpha)."""
    mesh = jumarie_mesh(alpha, np.array([0.13, 1.7, 4.6]), X=5.0, n0=n0)
    assert mesh.live.all()
    y = mesh.s[:, -1]
    np.testing.assert_allclose(mesh.scale * mesh.w.sum(), y ** (1 - alpha) / (1 - alpha),
                               rtol=1e-13, atol=0)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.5, 8.0),
       st.lists(st.floats(1e-3, 1 - 1e-3), min_size=1, max_size=40),
       st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=12))
def test_quadrature_of_a_piecewise_linear_integrand_is_the_scalar_loop(
        alpha, X, shares, values):
    """On random points in (0, X) and a random piecewise-linear integrand,
    the single-shot quadrature is the scalar loop to within SCALAR_TOL; at
    every n of the residual and of the finest refinements each cell of the
    unit row is live and each row's weights hold the whole kernel."""
    knots = np.linspace(0.0, X, len(values))

    def f(s):
        return np.interp(s, knots, values)

    xs = X * np.array(shares)
    got = jumarie_quadrature(f, alpha, xs, X=X, max_refine=0)
    for x, g in zip(xs.tolist(), got.tolist()):
        assert near_scalar(g, scalar_quadrature(f, alpha, x, X, max_refine=0)), x
    for n in (64, 256, 2 ** 14, 2 ** 15):
        mesh = jumarie_mesh(alpha, xs[:1], X=X, n0=n)
        assert mesh.live.all()
        y = mesh.s[:, -1]
        np.testing.assert_allclose(mesh.scale * mesh.w.sum(),
                                   y ** (1 - alpha) / (1 - alpha), rtol=1e-13, atol=0)


def test_quadrature_rejects_a_mesh_of_other_points():
    f = INTEGRANDS["cubic"]
    xs = np.linspace(0.5, 4.5, 9)
    mesh = jumarie_mesh(0.6, xs, X=5.0, n0=64)
    for alpha, x, X, n0 in ((0.7, xs, 5.0, 64), (0.6, xs[1:], 5.0, 64),
                            (0.6, xs + 0.01, 5.0, 64), (0.6, xs, 6.0, 64),
                            (0.6, xs, 5.0, 128)):
        with pytest.raises(ValueError, match="mesh was built"):
            jumarie_quadrature(f, alpha, x, X=X, max_refine=0, n0=n0, mesh=mesh)


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_quadrature_adaptive_is_the_scalar_loop(alpha):
    f = INTEGRANDS["cubic"]
    for x in (0.5, 1.0, 2.0):
        assert near_scalar(jumarie_quadrature(f, alpha, np.array([x]))[0],
                           scalar_quadrature(f, alpha, x, 2.0 * x)), x


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9])
def test_quadrature_adaptive_array_is_the_scalar_loop(alpha):
    """Each point of one adaptive call gets, to within SCALAR_TOL, the
    estimate the scalar refinement loop stops at on that point alone;
    points that converge early drop out of the later estimates."""
    f = INTEGRANDS["cubic"]
    live = []

    def counted(s):
        live.append(len(s) // 4)
        return f(s)

    xs = np.array([0.05, 0.3, 1.0, 2.5, 4.0, 4.9])
    got = jumarie_quadrature(counted, alpha, xs, X=5.0)
    assert live[0] == len(xs) and len(set(live)) > 2
    for x, g in zip(xs.tolist(), got.tolist()):
        assert near_scalar(g, scalar_quadrature(f, alpha, x, 5.0)), x


def test_quadrature_validation():
    with pytest.raises(ValueError):
        jumarie_quadrature(lambda s: s, 1.0, ONE)
    with pytest.raises(ValueError):
        jumarie_quadrature(lambda s: s, 0.5, np.array([3.0]), X=2.0)
    for x in (1.0, np.ones((2, 2))):
        with pytest.raises(ValueError, match="1-D"):
            jumarie_quadrature(lambda s: s, 0.5, x, X=5.0)
    for xs in ([0.0, 1.0], [1.0, 5.0], [-1.0, 2.0], [1.0, 6.0]):
        with pytest.raises(ValueError, match=r"\(0, X\)"):
            jumarie_quadrature(lambda s: s, 0.5, np.array(xs), X=5.0,
                               max_refine=0)
