"""Closed-form solution construction and residual verification."""
import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twsolve import (
    ClosedFormSolution, DenominatorZero, PoleAt, SubEquationProfile,
    construct_solutions, mittag_leffler, residual_fractional, residual_ode,
    residual_pde,
)
from twsolve import solution_verify
from twsolve.solution_verify import FRACTIONAL_GRID, _fractional_levels, _grid_points

import oracles
from oracles import (
    FamilyMismatch, per_point_phi, per_point_u, riccati_probe, scalar_phi,
    scalar_quadrature,
)
from conftest import run_pipeline, BSQ_DSL, BSQ_FRAC_DSL, KP_FRAC_DSL

CLASSICAL = SubEquationProfile.classical_tanh()
BSQ_C = 5 ** 0.5        # dispersion relation c^2 = k^2 + 4 k^4 at k = 1


def tanh_solution(d, params, **kw):
    sols = d.solutions(d.branches[0], params, **kw)
    return next(s for s in sols if s.family == "Tanh"), sols


# --- construction ---------------------------------------------------------

def test_construct_families_by_sigma_sign(toy):
    _, sols = tanh_solution(toy, {"k": 1, "c": 2})
    assert [s.family for s in sols] == ["Tanh", "Coth"]
    riccati = SubEquationProfile.riccati()
    pos = construct_solutions(toy.branches[0], riccati,
                              {"k": 1, "c": 2}, sigma=2)
    assert [s.family for s in pos] == ["Tan", "Cot"]
    zero = construct_solutions(toy.branches[0], riccati,
                               {"k": 1, "c": 2}, sigma=0)
    assert [s.family for s in zero] == ["Rational"]


def test_construct_takes_sigma_from_its_argument_only(toy):
    with pytest.raises(ValueError, match="disagrees"):
        construct_solutions(toy.branches[0], SubEquationProfile.riccati(2),
                            {"k": 1, "c": 2})
    sols = construct_solutions(toy.branches[0], SubEquationProfile.riccati(),
                               {"k": 1, "c": 2, "sigma": 2}, sigma=-1)
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
    with pytest.raises(DenominatorZero):
        construct_solutions(toy.branches[0], CLASSICAL,
                            {"k": 1, "c": 0})


def test_free_a0_default_and_override(sww):
    s, _ = tanh_solution(sww, {"k": 1, "m": 1, "c": 3, "p": 1, "q": 1})
    assert s.coefficients[0] == 0
    s2, _ = tanh_solution(sww, {"k": 1, "m": 1, "c": 3, "p": 1, "q": 1},
                          a0=Fraction(5))
    assert s2.coefficients[0] == 5


def test_rational_family_shape():
    s = ClosedFormSolution("Rational", "alphaGeneralized",
                           (Fraction(0), Fraction(1)),
                           sigma=Fraction(0), omega=0.0, alpha=1.0)
    # phi = -Gamma(2)/xi = -1/xi at alpha = 1, omega = 0
    assert s.phi((2.0,))[0] == pytest.approx(-0.5)


def test_alpha1_generalized_matches_classical_pointwise(bsq):
    params = {"k_a": 1.0, "c_a": BSQ_C}
    frac = run_pipeline(BSQ_FRAC_DSL, integrate=2)
    sa, _ = tanh_solution(frac, params, alpha=1.0, sigma=-1)
    sc, _ = tanh_solution(bsq, {"k": 1, "c": BSQ_C})
    xis = [-2.0, -0.5, 0.0, 1.0, 3.0]
    assert sa.u_on(xis) == pytest.approx(sc.u_on(xis), abs=1e-10)


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
    rep = residual_ode(s, bsq.ode)
    assert rep.max_abs >= 0.1
    with pytest.raises(TypeError):      # the parameters come from s alone
        residual_ode(s, bsq.ode, {"k": 1, "c": 1})
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
    rep = residual_fractional(s, frac.ode)
    assert rep.max_abs < 1e-8


@pytest.mark.parametrize("alpha", [0.5, 0.8])
def test_fractional_residual_is_finite_measurement(alpha):
    frac = run_pipeline(BSQ_FRAC_DSL, integrate=2)
    params = {"k_a": 1.0, "c_a": BSQ_C ** alpha}
    s, _ = tanh_solution(frac, params, alpha=alpha, sigma=-1)
    rep = residual_fractional(s, frac.ode)
    assert math.isfinite(rep.max_abs)
    assert rep.equation_form == "reducedOde"


def test_fractional_residual_refuses_a_grid_it_cannot_measure():
    """np.interp would clamp a reversed grid's points to the dense nodes'
    end, and a hi whose 1.25*hi overflows leaves no dense nodes; lo = hi is
    one point."""
    frac = run_pipeline(BSQ_FRAC_DSL, integrate=2)
    s, _ = tanh_solution(frac, {"k_a": 1.0, "c_a": BSQ_C ** 0.8}, alpha=0.8, sigma=-1)
    for grid in ((0.0, 1.0, 3), (4.0, 0.5, 5), (0.5, 1.7e308, 3)):
        with pytest.raises(ValueError, match="fractional residual grid"):
            residual_fractional(s, frac.ode, grid=grid)
    assert math.isfinite(residual_fractional(s, frac.ode, grid=(2.0, 2.0, 1)).max_abs)


def every_node(X):
    """The dense nodes of a fractional residual of extent X: read there, the
    last level too is taken at every inner node."""
    return np.linspace(X / 100.0, X, 97)


@pytest.mark.parametrize("alpha, bounds", [
    (0.5, (8.9e-2, 7.9e-2, 3.1e-1)),
    (0.7, (3.8e-2, 2.3e-2, 2.7e-1)),
    (0.9, (8.1e-3, 6.8e-3, 1.2e-1)),
])
def test_fractional_levels_accuracy_on_jumarie_fixed_point(alpha, bounds):
    """u = E_alpha(xi^alpha) solves D^alpha u = u, so every derivative level
    should reproduce u.  The bounds state the operator's present maximum
    relative error over xi in (0.5, 4) with X = 5, for levels 1, 2, 3."""
    def u_on(xis):
        return mittag_leffler(alpha, tuple(float(xi) ** alpha for xi in xis))

    s = SimpleNamespace(alpha=alpha, u_on=u_on)
    nodes, levels = _fractional_levels(s, 3, 5.0, every_node(5.0))
    inside = (nodes > 0.5) & (nodes < 4.0)
    u = s.u_on(nodes[inside])
    for level, bound in zip(levels[1:], bounds):
        assert np.max(np.abs(level[inside] - u) / u) <= bound
        # np.interp clamps: the margin nodes copy the nearest inner node
        assert (level[:2] == level[2]).all() and (level[94:] == level[93]).all()


def same_bits(a, b):
    """Equal arrays bit for bit, where a NaN (a pole) matches any NaN."""
    nan = np.isnan(a)
    return (nan == np.isnan(b)).all() and a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.parametrize("family, variant, sigma, omega, alpha", [
    ("Tanh", "alphaGeneralized", -1, 0.0, 0.7),
    ("Coth", "alphaGeneralized", Fraction(-1, 2), 0.0, 0.6),
    ("Tan", "alphaGeneralized", 1, 0.0, 0.6),
    ("Cot", "alphaGeneralized", 2, 0.0, 0.9),
    ("Rational", "alphaGeneralized", 0, 0.5, 0.8),
    ("Rational", "alphaGeneralized", 0, -1.0, 0.8),      # poles at xi = +/-1
    ("Tanh", "classical", -1, 0.0, 1.0),
    ("Coth", "classical", -1, 0.0, 1.0),
])
@pytest.mark.parametrize("xi_shift", [0.0, 0.375])
def test_phi_grid_is_the_per_point_loop(family, variant, sigma, omega, alpha, xi_shift):
    """phi of a tuple and u_on give what the scalar per-point code gave, bit
    for bit, with NaN where it raised at a pole; the grid holds xi < 0 and a
    pole (Coth, Cot and Rational at xi + xi_shift = 0 or 1)."""
    s = ClosedFormSolution(family, variant, (Fraction(1, 2), Fraction(1), Fraction(-2)),
                           sigma=Fraction(sigma), omega=omega, alpha=alpha,
                           xi_shift=xi_shift)
    xis = np.concatenate((np.linspace(-6.0, 6.0, 49), [-xi_shift, 1.0 - xi_shift]))
    phi, u = s.phi(tuple(xis.tolist())), s.u_on(xis)
    assert same_bits(phi, per_point_phi(s, xis.tolist()))
    assert same_bits(u, per_point_u(s, xis.tolist()))
    assert np.isnan(phi).any() == (family in ("Coth", "Cot") or omega < 0)
    assert same_bits(np.array([s.phi((xi,))[0] for xi in xis[::7]]), phi[::7])
    assert same_bits(np.array([s.u_on([xi])[0] for xi in xis[::7]]), u[::7])


@pytest.mark.parametrize("family, sigma, omega", [
    ("Tanh", -1, 0.0), ("Coth", -1, 0.0), ("Tan", 1, 0.0), ("Tan", 4, 0.0),
    ("Cot", 1, 0.0), ("Cot", 4, 0.0), ("Rational", 0, -1.0),
    ("Rational", 0, 0.0), ("Rational", 0, 0.5),
])
@pytest.mark.parametrize("xi_shift", [0.0, 0.375])
def test_pole_distance_on_a_grid_is_the_per_point_formula(family, sigma, omega, xi_shift):
    """pole_distance of an array gives what the scalar formula gave at each
    xi, bit for bit.  The grid holds the multiples of pi/(2r), where the
    Tan and Cot phase z = (r*xi - pi/2)/pi or r*xi/pi lands exactly on a
    half-integer, a tie of the rounding; there the distance is the half
    period pi/(2r)."""
    s = ClosedFormSolution(family, "alphaGeneralized", (Fraction(0), Fraction(1)),
                           sigma=Fraction(sigma), omega=omega, alpha=0.8,
                           xi_shift=xi_shift)
    r = math.sqrt(abs(sigma)) or 1.0
    xis = np.concatenate((np.arange(-12, 13) * (math.pi / 2) / r,
                          np.linspace(-6.0, 6.0, 49), [1.0 - xi_shift]))
    got = s.pole_distance(xis)
    assert same_bits(got, np.array([oracles.scalar_pole_distance(s, xi)
                                    for xi in xis.tolist()]))
    if family in ("Tan", "Cot") and not xi_shift:
        assert (got == math.pi / (2 * r)).sum() >= 10


def test_a_pole_on_a_fractional_grid_is_refused_at_its_xi():
    """The Rational family at omega = -1 has its pole at xi = 1: a dense node
    there (the first one of X = 100) or a probe point there raises PoleAt
    naming it, as the scalar code did, instead of carrying NaN into the
    quadrature."""
    s = ClosedFormSolution("Rational", "alphaGeneralized", (Fraction(0), Fraction(1)),
                           sigma=Fraction(0), omega=-1.0, alpha=0.8)
    with pytest.raises(PoleAt, match=r"^pole at x = 1\.0$"):
        _fractional_levels(s, 1, 100.0, every_node(100.0))
    with pytest.raises(PoleAt, match=r"^pole at x = 1\.0$"):
        riccati_probe(s, grid=(0.5, 1.5, 3))


def per_node_levels(s, max_j, X):
    """_fractional_levels as a loop of scalar single-shot quadratures, one
    per node, each a scalar loop over cells: the reference that the array
    quadrature must reproduce to within 1e-11 of each level's largest
    value."""
    nodes = np.linspace(X / 100.0, X, 97)
    levels = [per_point_u(s, nodes)]
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
    return ClosedFormSolution(family, "alphaGeneralized",
                              (Fraction(1, 2), Fraction(1), Fraction(-2)),
                              sigma=Fraction(sigma), alpha=alpha)


@pytest.mark.parametrize("family, sigma", [("Tanh", -1), ("Tan", 1)])
@pytest.mark.parametrize("alpha", [0.6, 0.9])
def test_fractional_levels_are_the_per_node_loop(family, sigma, alpha):
    s = generalized(family, sigma, alpha)
    nodes, levels = _fractional_levels(s, 3, 5.0, every_node(5.0))
    want_nodes, want = per_node_levels(s, 3, 5.0)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert len(levels) == len(want) == 4
    for level, ref in zip(levels, want):
        assert np.max(np.abs(level - ref)) <= 1e-11 * np.max(np.abs(ref))


def count_meshes(monkeypatch):
    """The list that every later _build_mesh call appends its arguments to."""
    from twsolve import special_fn
    build = special_fn._build_mesh
    built = []

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(special_fn, "_build_mesh", counted)
    return built


def test_fractional_levels_weigh_one_mesh(monkeypatch):
    """Read at every dense node, each derivative level is taken at all the
    inner nodes and applies the one mesh that _fractional_levels builds
    (test_fractional_levels_are_the_per_node_loop pins the values); a
    residual's grid reads fewer nodes, and gives the last level a mesh of
    its own."""
    built = count_meshes(monkeypatch)
    _, levels = _fractional_levels(generalized("Tan", 1, 0.6), 3, 5.0,
                                   every_node(5.0))
    assert len(levels) == 4
    assert len(built) == 1


BURGERS_FRAC_DSL = ("pde burgers vars(x,t) params() frac(alpha) : "
                    "u_{t:1} + u*u_{x:1} = u_{x:2}")


@pytest.mark.parametrize("dsl, integrate, levels, meshes", [
    (KP_FRAC_DSL, 2, 2, 2), (BURGERS_FRAC_DSL, 1, 1, 1)])
def test_a_residual_builds_one_mesh_per_node_set(monkeypatch, dsl, integrate,
                                                 levels, meshes):
    """On the default grid a residual weighs one mesh of all the inner
    nodes for the levels before the last, and one of the nodes the grid
    reads for the last (30 of the 92): kp's two levels take two meshes,
    and the one level of fractional Burgers takes one, of those 30 nodes."""
    frac = run_pipeline(dsl, integrate=integrate)
    s, _ = tanh_solution(frac, {"k_a": 1.0, "c_a": 0.5, "m_a": 1.0},
                         alpha=0.8, sigma=-1)
    taken = []
    monkeypatch.setattr(solution_verify, "_fractional_levels",
                        lambda *args: taken.append(args[1]) or _fractional_levels(*args))
    built = count_meshes(monkeypatch)
    residual_fractional(s, frac.ode)
    assert taken == [levels]
    assert len(built) == meshes
    assert [len(args[1]) for args in built] == [92] * (meshes - 1) + [30]


def sww_solution(sww_frac, family, sigma, alpha):
    sols = sww_frac.solutions(sww_frac.branches[0],
                              {"k_a": 1.0, "m_a": 1.0, "c_a": 3.0 ** alpha, "p": 1.0, "q": 1.0},
                              alpha=alpha, sigma=sigma)
    return next(s for s in sols if s.family == family)


@st.composite
def reads(draw):
    """A (lo, hi, n) grid that the residual accepts, whose lo is a dense
    node of X = 1.25*hi half the time, and up to three more points in
    [0, 1.2 X], margins and ends included, some of them dense nodes."""
    hi, n = draw(st.floats(0.01, 6.0)), draw(st.integers(1, 40))
    nodes = np.linspace(1.25 * hi / 100.0, 1.25 * hi, 97).tolist()
    lo = draw(st.sampled_from(nodes[:77])                       # nodes[76] < hi
              | st.floats(1e-3, 1.0).map(hi.__mul__))
    extra = st.sampled_from(nodes) | st.floats(0.0, 1.5 * hi)
    return (lo, hi, n), draw(st.lists(extra, max_size=3))


NODES_5 = every_node(5.0).tolist()    # the dense nodes of hi = 4


@pytest.mark.parametrize("family, sigma", [("Tanh", -1), ("Tan", 1)])
@pytest.mark.parametrize("alpha", [0.6, 0.9])
@settings(max_examples=12, deadline=None)
@example(case=(FRACTIONAL_GRID, []))
@example(case=((0.001, 4.0, 15), []))
@example(case=((4.0, 4.0, 3), []))
@example(case=((1.0, 1.0, 1), []))
@example(case=((0.0625, 5.0, 17), []))                  # lo on the first dense node
@example(case=((NODES_5[1], 4.0, 15), [NODES_5[2], NODES_5[93], NODES_5[94]]))
@example(case=((NODES_5[40], 4.0, 9), [0.0, 4.95, 5.0, 6.0]))
@given(case=reads())
def test_the_last_level_where_the_grid_reads_it_is_the_all_node_loop(
        sww_frac, family, sigma, alpha, case):
    """The residual takes its last level only at the inner nodes its grid's
    points read, yet reports what the all-node loop does, bit for bit, and
    so do the levels at any other read points (`extra`)."""
    grid, extra = case
    s = sww_solution(sww_frac, family, sigma, alpha)

    def all_nodes(s, max_j, X, pts):
        return oracles.all_node_levels(s, max_j, X)

    got = residual_fractional(s, sww_frac.ode, grid=grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solution_verify, "_fractional_levels", all_nodes)
        want = residual_fractional(s, sww_frac.ode, grid=grid)
    assert got == want
    assert np.array([got.max_abs, got.mean_abs]).tobytes() == \
        np.array([want.max_abs, want.mean_abs]).tobytes()
    X = 1.25 * grid[1]
    pts = np.concatenate((_grid_points(grid), extra))
    nodes, levels = _fractional_levels(s, 3, X, pts)
    _, ref = oracles.all_node_levels(s, 3, X)
    for level, want_level in zip(levels, ref):
        assert np.interp(pts, nodes, level).tobytes() == \
            np.interp(pts, nodes, want_level).tobytes()


@pytest.mark.parametrize("family, sigma, omega", [
    ("Tanh", -1, 0.0), ("Tan", 1, 0.0), ("Rational", 0, 0.5)])
def test_riccati_probe_is_the_per_point_loop(family, sigma, omega):
    s = ClosedFormSolution(family, "alphaGeneralized",
                           (Fraction(0), Fraction(1)),
                           sigma=Fraction(sigma), omega=omega, alpha=0.7)

    def phi(xi):
        return scalar_phi(s, xi)

    grid = (0.3, 1.2, 7)
    res = [abs(scalar_quadrature(phi, s.alpha, float(xi), 1.5,
                                 max_refine=0, n0=512)
               - (float(s.sigma) + phi(float(xi)) ** 2))
           for xi in np.linspace(*grid)]
    rep = riccati_probe(s, grid=grid)
    assert math.isclose(rep.max_abs, max(res), rel_tol=1e-12)
    assert math.isclose(rep.mean_abs, sum(res) / len(res), rel_tol=1e-12)


@pytest.mark.parametrize("family, sigma", [("Coth", -1), ("Cot", 1), ("Rational", 0)])
def test_riccati_probe_refuses_a_pole_at_zero(family, sigma, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("evaluated before refusing")

    monkeypatch.setattr(oracles, "jumarie_quadrature", never)
    monkeypatch.setattr(ClosedFormSolution, "phi", never)
    s = ClosedFormSolution(family, "alphaGeneralized",
                           (Fraction(0), Fraction(1)),
                           sigma=Fraction(sigma), alpha=0.5)
    with pytest.raises(FamilyMismatch, match=family):
        riccati_probe(s)


def test_riccati_probe_reports():
    s = ClosedFormSolution("Tanh", "alphaGeneralized",
                           (Fraction(0), Fraction(1)),
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
    """max |u_alpha - u_1| over xi in [0.1, 4] shrinks as alpha -> 1."""
    sc, factory = _bsq_pair()
    xis = np.linspace(0.1, 4.0, 41)
    dev = {alpha: max(np.abs(factory(alpha).u_on(xis) - sc.u_on(xis)).tolist())
           for alpha in (0.9, 0.99, 0.999, 1.0)}
    assert dev[0.9] > dev[0.99] > dev[0.999] > dev[1.0]
    assert dev[1.0] < 1e-10
