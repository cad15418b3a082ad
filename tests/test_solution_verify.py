"""Closed-form solution construction and residual verification."""
import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from twsolve import (
    ClosedFormSolution, DenominatorZero, FamilyMismatch, MLSeriesSpec,
    SubEquationProfile, WaveFrame, alpha_limit_check, construct_solutions,
    mittag_leffler, residual_fractional, residual_ode, residual_pde,
    riccati_probe,
)
from twsolve.solution_verify import _fractional_levels

from oracles import scalar_quadrature
from conftest import run_pipeline, BSQ_DSL, BSQ_FRAC_DSL

CLASSICAL = SubEquationProfile.classical_tanh()
BSQ_C = 5 ** 0.5        # dispersion relation c^2 = k^2 + 4 k^4 at k = 1


def tanh_solution(d, params, **kw):
    sols = d.solutions(d.branches[0], params, **kw)
    return next(s for s in sols if s.family == "Tanh"), sols


# --- construction ---------------------------------------------------------

def test_construct_families_by_sigma_sign(toy):
    frame = WaveFrame(("x", "t"), False, {"k": 1, "c": 2})
    _, sols = tanh_solution(toy, {"k": 1, "c": 2})
    assert [s.family for s in sols] == ["Tanh", "Coth"]
    riccati = SubEquationProfile.riccati()
    pos = construct_solutions(toy.branches[0], riccati,
                              {"k": 1, "c": 2}, frame, sigma=2)
    assert [s.family for s in pos] == ["Tan", "Cot"]
    zero = construct_solutions(toy.branches[0], riccati,
                               {"k": 1, "c": 2}, frame, sigma=0)
    assert [s.family for s in zero] == ["Rational"]


def test_construct_takes_sigma_from_its_argument_only(toy):
    frame = WaveFrame(("x", "t"), False, {"k": 1, "c": 2})
    with pytest.raises(ValueError, match="disagrees"):
        construct_solutions(toy.branches[0], SubEquationProfile.riccati(2),
                            {"k": 1, "c": 2}, frame)
    sols = construct_solutions(toy.branches[0], SubEquationProfile.riccati(),
                               {"k": 1, "c": 2, "sigma": 2}, frame, sigma=-1)
    assert [(s.family, dict(s.params)["sigma"]) for s in sols] == \
        [("Tanh", -1), ("Coth", -1)]


def test_construct_binds_exact_coefficients(toy):
    s, _ = tanh_solution(toy, {"k": 1, "c": 2})
    assert s.coefficients == (Fraction(0), Fraction(-1))


def test_construct_flags_violated_constraint(bsq):
    s, _ = tanh_solution(bsq, {"k": 1, "c": 1})
    assert s.constraint_violated
    assert s.coefficients[0] == Fraction(4, 3)


def test_construct_denominator_zero(toy):
    frame = WaveFrame(("x", "t"), False, {"k": 1, "c": 0})
    with pytest.raises(DenominatorZero):
        construct_solutions(toy.branches[0], CLASSICAL,
                            {"k": 1, "c": 0}, frame)


def test_free_a0_default_and_override(sww):
    s, _ = tanh_solution(sww, {"k": 1, "m": 1, "c": 3, "p": 1, "q": 1})
    assert s.coefficients[0] == 0
    s2, _ = tanh_solution(sww, {"k": 1, "m": 1, "c": 3, "p": 1, "q": 1},
                          a0=Fraction(5))
    assert s2.coefficients[0] == 5


def test_rational_family_shape():
    frame = WaveFrame(("x", "t"), False, {"k": 1, "c": 2})
    s = ClosedFormSolution("Rational", "alphaGeneralized",
                           (Fraction(0), Fraction(1)), frame,
                           sigma=Fraction(0), omega=0.0, alpha=1.0)
    # phi = -Gamma(2)/xi = -1/xi at alpha = 1, omega = 0
    assert s.phi(2.0) == pytest.approx(-0.5)


def test_alpha1_generalized_matches_classical_pointwise(bsq):
    params = {"k_a": 1.0, "c_a": BSQ_C}
    frac = run_pipeline(BSQ_FRAC_DSL, integrate=2)
    sa, _ = tanh_solution(frac, params, alpha=1.0, sigma=-1)
    sc, _ = tanh_solution(bsq, {"k": 1, "c": BSQ_C})
    for xi in (-2.0, -0.5, 0.0, 1.0, 3.0):
        assert sa.u_of_xi(xi) == pytest.approx(sc.u_of_xi(xi), abs=1e-10)


# --- integer-order residuals ---------------------------------------------

def test_toy_residual_exact(toy):
    s, _ = tanh_solution(toy, {"k": 1, "c": 2})
    rep = residual_pde(s, toy.definition)
    assert rep.max_abs < 1e-10
    assert rep.equation_form == "originalPde"


def test_sww_figure1_residual(sww):
    s, _ = tanh_solution(sww, {"k": 1, "m": 1, "c": 3, "p": 1, "q": 1})
    assert not s.constraint_violated
    rep = residual_pde(s, sww.definition)
    assert rep.max_abs < 1e-9


def test_kp_branch_residuals(kp):
    # both numeric branches at k = m = 1: (a0, c) in {(2/3, 5), (2, -3)}
    for c in (5, -3):
        s, _ = tanh_solution(kp, {"k": 1, "m": 1, "c": c})
        assert not s.constraint_violated
        rep = residual_pde(s, kp.definition)
        assert rep.max_abs < 1e-9


def test_bsq_physical_branch_residual(bsq):
    s, _ = tanh_solution(bsq, {"k": 1, "c": BSQ_C})
    assert not s.constraint_violated
    rep = residual_pde(s, bsq.definition)
    assert rep.max_abs < 1e-10
    # sech^2 soliton: u = a0 - 2 tanh^2 = (a0 - 2) + 2 sech^2
    assert float(s.coefficients[0]) == pytest.approx(2.0, abs=1e-12)


def test_bsq_negative_test_constant_residual(bsq):
    """Figure-5 parameters violate the dispersion relation: the residual of
    the twice-integrated ODE is the nonzero constant left in the phi^0 row."""
    s, _ = tanh_solution(bsq, {"k": 1, "c": 1})
    rep = residual_ode(s, bsq.ode, {"k": 1, "c": 1})
    assert rep.max_abs >= 0.1
    assert rep.max_abs == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert rep.min_equals_max if hasattr(rep, "min_equals_max") else True
    assert rep.mean_abs == pytest.approx(rep.max_abs, abs=1e-12)


def test_violated_constraint_residual_exceeds_threshold(sww):
    # c = 4 breaks 4k^2m - c - k = 0
    s, _ = tanh_solution(sww, {"k": 1, "m": 1, "c": 4, "p": 1, "q": 1})
    assert s.constraint_violated
    rep = residual_pde(s, sww.definition)
    assert rep.max_abs > 1e-3


def test_translation_invariance(toy):
    s, _ = tanh_solution(toy, {"k": 1, "c": 2})
    shifted = replace(s, xi_shift=1.7)
    a = residual_pde(s, toy.definition)
    b = residual_pde(shifted, toy.definition)
    assert abs(a.max_abs - b.max_abs) < 1e-12


def test_coth_pole_exclusion(toy):
    _, sols = tanh_solution(toy, {"k": 1, "c": 2})
    coth = next(s for s in sols if s.family == "Coth")
    rep = residual_pde(coth, toy.definition)
    assert rep.excluded_points          # xi = 0 neighborhood removed
    assert all(abs(p) < 1e-2 for p in rep.excluded_points)
    assert math.isfinite(rep.max_abs)


def test_report_serializes(toy):
    s, _ = tanh_solution(toy, {"k": 1, "c": 2})
    j = residual_pde(s, toy.definition).to_json()
    assert set(j) == {"maxAbs", "meanAbs", "grid", "excludedPoints",
                      "equationForm"}


# --- fractional measurements ---------------------------------------------

def test_fractional_residual_alpha1_matches_classical(bsq):
    frac = run_pipeline(BSQ_FRAC_DSL, integrate=2)
    params = {"k_a": 1.0, "c_a": BSQ_C}
    s, _ = tanh_solution(frac, params, alpha=1.0, sigma=-1)
    rep = residual_fractional(s, frac.ode, params)
    assert rep.max_abs < 1e-8


@pytest.mark.parametrize("alpha", [0.5, 0.8])
def test_fractional_residual_is_finite_measurement(alpha):
    frac = run_pipeline(BSQ_FRAC_DSL, integrate=2)
    params = {"k_a": 1.0, "c_a": BSQ_C ** alpha}
    s, _ = tanh_solution(frac, params, alpha=alpha, sigma=-1)
    rep = residual_fractional(s, frac.ode, params)
    assert math.isfinite(rep.max_abs)
    assert rep.equation_form == "reducedOde"


@pytest.mark.parametrize("alpha, bounds", [
    (0.5, (8.9e-2, 7.9e-2, 3.1e-1)),
    (0.7, (3.8e-2, 2.3e-2, 2.7e-1)),
    (0.9, (8.1e-3, 6.8e-3, 1.2e-1)),
])
def test_fractional_levels_accuracy_on_jumarie_fixed_point(alpha, bounds):
    """u = E_alpha(xi^alpha) solves D^alpha u = u, so every derivative level
    should reproduce u.  The bounds state the operator's present maximum
    relative error over xi in (0.5, 4) with X = 5, for levels 1, 2, 3."""
    spec = MLSeriesSpec(alpha)
    s = SimpleNamespace(alpha=alpha,
                        u_of_xi=lambda xi: mittag_leffler(spec, float(xi) ** alpha))
    nodes, levels = _fractional_levels(s, 3, 5.0)
    inside = (nodes > 0.5) & (nodes < 4.0)
    u = np.array([s.u_of_xi(xi) for xi in nodes[inside]])
    for level, bound in zip(levels[1:], bounds):
        assert np.max(np.abs(level[inside] - u) / u) <= bound


def per_node_levels(s, max_j, X):
    """_fractional_levels as a loop of scalar single-shot quadratures, one
    per node, each a scalar loop over cells: the reference that the array
    quadrature must reproduce bit for bit."""
    nodes = np.linspace(X / 100.0, X, 97)
    levels = [np.array([s.u_of_xi(x) for x in nodes])]
    margin = 2.0 * (nodes[1] - nodes[0])
    for _ in range(max_j):
        prev = levels[-1]
        cur = np.empty_like(prev)
        for i, x in enumerate(nodes):
            if x <= margin or x >= X - margin:
                cur[i] = np.nan
                continue
            cur[i] = scalar_quadrature(lambda t: np.interp(t, nodes, prev),
                                       s.alpha, float(x), float(X),
                                       max_refine=0, n0=256)
        good = ~np.isnan(cur)
        cur[~good] = np.interp(nodes[~good], nodes[good], cur[good])
        levels.append(cur)
    return nodes, levels


def generalized(family, sigma, alpha):
    frame = WaveFrame(("x", "t"), False, {"k": 1, "c": 1})
    return ClosedFormSolution(family, "alphaGeneralized",
                              (Fraction(1, 2), Fraction(1), Fraction(-2)),
                              frame, sigma=Fraction(sigma), alpha=alpha)


@pytest.mark.parametrize("family, sigma", [("Tanh", -1), ("Tan", 1)])
@pytest.mark.parametrize("alpha", [0.6, 0.9])
def test_fractional_levels_are_the_per_node_loop(family, sigma, alpha):
    s = generalized(family, sigma, alpha)
    nodes, levels = _fractional_levels(s, 3, 5.0)
    want_nodes, want = per_node_levels(s, 3, 5.0)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert len(levels) == len(want) == 4
    for level, ref in zip(levels, want):
        assert level.tobytes() == ref.tobytes()


def test_fractional_levels_weigh_one_mesh(monkeypatch):
    """Every derivative level applies the one mesh that _fractional_levels
    builds (test_fractional_levels_are_the_per_node_loop pins the bytes)."""
    from twsolve import special_fn
    build = special_fn._build_mesh
    built = []

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(special_fn, "_build_mesh", counted)
    _, levels = _fractional_levels(generalized("Tan", 1, 0.6), 3, 5.0)
    assert len(levels) == 4
    assert len(built) == 1


@pytest.mark.parametrize("family, sigma, omega", [
    ("Tanh", -1, 0.0), ("Tan", 1, 0.0), ("Rational", 0, 0.5)])
def test_riccati_probe_is_the_per_point_loop(family, sigma, omega):
    frame = WaveFrame(("x", "t"), False, {"k": 1, "c": 1})
    s = ClosedFormSolution(family, "alphaGeneralized",
                           (Fraction(0), Fraction(1)), frame,
                           sigma=Fraction(sigma), omega=omega, alpha=0.7)

    grid = (0.3, 1.2, 7)
    res = [abs(scalar_quadrature(s.phi, s.alpha, float(xi), 1.5,
                                 max_refine=0, n0=512)
               - (float(s.sigma) + s.phi(float(xi)) ** 2))
           for xi in np.linspace(*grid)]
    rep = riccati_probe(s, grid=grid)
    assert rep.max_abs == max(res)
    assert rep.mean_abs == sum(res) / len(res)


@pytest.mark.parametrize("family, sigma", [("Coth", -1), ("Cot", 1), ("Rational", 0)])
def test_riccati_probe_refuses_a_pole_at_zero(family, sigma, monkeypatch):
    from twsolve import solution_verify

    def never(*args, **kwargs):
        raise AssertionError("evaluated before refusing")

    monkeypatch.setattr(solution_verify, "jumarie_quadrature", never)
    monkeypatch.setattr(ClosedFormSolution, "phi", never)
    frame = WaveFrame(("x", "t"), False, {"k": 1, "c": 1})
    s = ClosedFormSolution(family, "alphaGeneralized",
                           (Fraction(0), Fraction(1)), frame,
                           sigma=Fraction(sigma), alpha=0.5)
    with pytest.raises(FamilyMismatch, match=family):
        riccati_probe(s)


def test_riccati_probe_reports():
    frame = WaveFrame(("x", "t"), False, {"k": 1, "c": 1})
    s = ClosedFormSolution("Tanh", "alphaGeneralized",
                           (Fraction(0), Fraction(1)), frame,
                           sigma=Fraction(-1), alpha=0.5)
    rep = riccati_probe(s, grid=(0.5, 3.0, 5))
    assert rep.equation_form == "fractionalRiccati"
    assert math.isfinite(rep.max_abs)


def _bsq_pair():
    classical = run_pipeline(BSQ_DSL, integrate=2)
    frac = run_pipeline(BSQ_FRAC_DSL, integrate=2)
    sc, _ = tanh_solution(classical, {"k": 1, "c": BSQ_C})

    def factory(alpha):
        pv = {"k_a": 1.0, "c_a": BSQ_C ** alpha}
        s, _ = tanh_solution(frac, pv, alpha=alpha, sigma=-1)
        return s

    return sc, factory


def test_alpha_limit_strictly_decreasing():
    sc, factory = _bsq_pair()
    dev = alpha_limit_check(sc, factory, [0.9, 0.99, 0.999, 1.0])
    assert dev[0.9] > dev[0.99] > dev[0.999] > dev[1.0]
    assert dev[1.0] < 1e-10


def test_alpha_limit_family_mismatch():
    sc, factory = _bsq_pair()
    coth = replace(sc, family="Coth")
    with pytest.raises(FamilyMismatch):
        alpha_limit_check(coth, factory, [0.9])
