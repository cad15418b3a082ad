"""End-to-end CLI behavior: solve, verify, figure, tabulate, determinism."""
import ast
import json
import math

import pytest

from twsolve import cli, parse_pde
from twsolve.cli import main
from twsolve.pipeline import run

from conftest import BSQ_FRAC_DSL, KP_FRAC_DSL, PERFBENCH, SWW_FRAC_DSL, load_perfbench

TOY = "pde toy vars(x,t) params() : u_xx = u*u_t"
TOY_FRAC = "pde toy vars(x,t) params() frac(alpha) : u_{x:2} = u*u_{t:1}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_sww(capsys):
    code, out = run_cli(capsys, "solve", "sww", "--method", "tanh")
    assert code == 0
    log = json.loads(out)
    (b,) = log["stages"]["branches"]
    assert b["assignments"]["a1"] == "12*k*m / (c*p + c*q)"
    assert b["constraints"] == ["4*k^2*m - c - k"]
    assert log["stages"]["balance"]["degree"] == 1
    # figure-default parameters satisfy the constraint; residual vanishes
    (rep,) = log["stages"]["residuals"]
    assert float(rep["maxAbs"]) < 1e-9


def test_solve_boussinesq_branches(capsys):
    code, out = run_cli(capsys, "solve", "boussinesq4", "--method", "tanh")
    assert code == 0
    log = json.loads(out)
    (b,) = log["stages"]["branches"]
    assert b["assignments"]["a2"] == "-2*k^2"
    assert any("6*k^2" in w for w in log["warnings"])


def test_solve_kp_flags_printed_relation(capsys):
    code, out = run_cli(capsys, "solve", "kp", "--method", "tanh")
    log = json.loads(out)
    assert any("9*a0^2" in w for w in log["warnings"])


def test_solve_kp_subeq(capsys):
    code, out = run_cli(capsys, "solve", "kp", "--method", "subeq",
                        "--alpha", "0.8", "--sigma", "-1",
                        "--params", "k=1,m=1,c=5")
    assert code == 0
    log = json.loads(out)
    (b,) = log["stages"]["branches"]
    assert b["assignments"]["a2"] == "-2*k_a^2"
    assert any("6*k^(2*alpha)" in w for w in log["warnings"])


def test_solve_inline_dsl(capsys):
    code, out = run_cli(capsys, "solve",
                        "pde toy vars(x,t) params() : u_xx = u*u_t")
    assert code == 0
    log = json.loads(out)
    (b,) = log["stages"]["branches"]
    assert b["assignments"]["a1"] == "-2*k^2 / c"


def test_solve_unknown_key_errors(capsys):
    code, out = run_cli(capsys, "solve", "nosuchpde")
    assert code == 1
    err = json.loads(out)
    assert "message" in err and err["error"]


def test_verify_pass_and_fail(capsys):
    code, out = run_cli(capsys, "verify", "sww")
    assert code == 0
    assert json.loads(out)["pass"] is True
    code, out = run_cli(capsys, "verify", "boussinesq4",
                        "--params", "k=1,c=1", "--form", "reducedOde")
    assert code == 1
    rep = json.loads(out)
    assert rep["constraintViolated"] is True
    assert float(rep["maxAbs"]) >= 0.1


def test_solve_prunes_parameter_monomial_constraint(capsys):
    # the only candidate branch needs k^4 = 0, but k is a nonzero denominator
    code, out = run_cli(capsys, "solve",
                        "pde a vars(x,t) params() : u_t + u*u_x + u_xxxxx = 0")
    assert code == 0
    assert json.loads(out)["stages"]["branches"] == []


def test_verify_fractional_fails_on_violated_constraint(capsys):
    code, out = run_cli(capsys, "verify", "sww", "--method", "subeq",
                        "--alpha", "0.5", "--sigma", "1")
    rep = json.loads(out)
    assert rep["constraintViolated"] is True
    assert rep["pass"] is False
    assert code == 1


def test_fractional_verify_samples_each_integrand_once(capsys, monkeypatch):
    """Each derivative level is one array quadrature, over all the inner
    nodes or, for the last level, over the inner nodes that the grid's
    points read, and it samples its integrand once, on the meshes of every
    node and difference offset together: kp has two levels."""
    from twsolve import solution_verify
    quadrature = solution_verify.jumarie_quadrature
    calls = {"quadrature": 0, "integrand": 0}

    def counted_quadrature(f, *args, **kwargs):
        calls["quadrature"] += 1

        def counted(t):
            calls["integrand"] += 1
            return f(t)
        return quadrature(counted, *args, **kwargs)

    monkeypatch.setattr(solution_verify, "jumarie_quadrature", counted_quadrature)
    code, out = run_cli(capsys, "verify", "kp", "--method", "subeq",
                        "--alpha", "0.8", "--sigma=-1")
    assert json.loads(out)["equationForm"] == "reducedOde"
    assert calls == {"quadrature": 2, "integrand": 2}


TRACED_COMMANDS = (
    *((command, key, "--method", "subeq", "--alpha", "0.6", "--sigma", sigma)
      for command in ("verify", "solve") for key in ("kp", "sww")
      for sigma in ("-1", "1")),
    *(("figure", n, "--alphas", "0.7", "--xgrid=-1:1:5", "--tgrid", "0:0.1:2",
       "--out", "fig.csv") for n in ("2", "4", "6")),
    ("solve", "pde kdv vars(x,t) params() : u_t + u*u_x + u_xxx = 0",
     "--params", "k=1/2,c=-3/4"),
    ("tabulate", "tan", "--alpha", "0.6"),
    ("tabulate", "cot", "--alpha", "0.9", "--grid", "0:1:3"),
)


def test_fractional_commands_run_under_the_benchmark_tracer(capsys, tmp_path,
                                                            monkeypatch):
    """The benchmark's traced run wraps mittag_leffler (hashing its alpha and
    z), ClosedFormSolution.phi (hashing xi) and jumarie_quadrature (wrapping
    its first positional argument); every call of the fractional, figure,
    symbolic and tabulate commands must pass through those wrappers
    unharmed, with output bytes equal to an untraced run."""
    tracing = load_perfbench("tracing", monkeypatch)
    monkeypatch.chdir(tmp_path)

    def run_all():
        outs = []
        for argv in TRACED_COMMANDS:
            _, out = run_cli(capsys, *argv)
            assert not out.startswith('{"error"'), (argv, out)
            csv = tmp_path / "fig_alpha0.7.csv"
            outs.append((out, csv.read_bytes() if argv[0] == "figure" else None))
            csv.unlink(missing_ok=True)
        return outs

    untraced = run_all()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_all()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert not +tracer.errors
    quadratures = tracer.calls["special_fn.jumarie_quadrature"]
    assert quadratures > 0
    assert tracer.integrand_calls == quadratures


@pytest.mark.parametrize("argv", [
    ("figure", "2", "--alphas", "0.7", "--xgrid=-1:1:5", "--tgrid", "0:0.1:2"),
    ("verify", "kp", "--method", "subeq", "--alpha", "0.6", "--sigma", "1"),
])
def test_a_grid_is_one_traced_call_of_each_layer(capsys, monkeypatch, argv):
    """The figure sheet's distinct xi, or the fractional residual's dense
    nodes, are one call of ClosedFormSolution.phi and of generalized_fn,
    and one mittag_leffler call per series (two for the Tanh family, one
    for Tan): the layers the benchmark's traced runs require are reached,
    with arguments its tracer can hash."""
    tracer = load_perfbench("tracing", monkeypatch).Tracer()
    tracer.install()
    try:
        _, out = run_cli(capsys, *argv)
    finally:
        tracer.uninstall()
    assert not out.startswith('{"error"'), out
    calls = {name: tracer.calls[f"{mod}.{name}"] for mod, name in (
        ("solution_verify", "ClosedFormSolution.phi"), ("special_fn", "generalized_fn"),
        ("special_fn", "mittag_leffler"))}
    series = 2 if argv[0] == "figure" else 1
    assert calls == {"ClosedFormSolution.phi": 1, "generalized_fn": 1,
                     "mittag_leffler": series}
    assert not +tracer.errors


def required_nonzero():
    """REQUIRED_NONZERO of perfbench/worker.py, read from its source: the
    worker imports the benchmark's other scripts by their bare names."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["REQUIRED_NONZERO"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/worker.py assigns no REQUIRED_NONZERO")


@pytest.mark.parametrize("workload", sorted(required_nonzero()))
def test_a_workload_reaches_every_layer_its_traced_run_requires(
        capsys, tmp_path, monkeypatch, workload):
    """A traced benchmark run is not correct when a layer that
    REQUIRED_NONZERO names for its workload has no calls.  The first twelve
    ops of the workload's first round (a whole symbolic or figure round),
    run under the benchmark's tracer, reach every one of those layers, so
    a change that bypasses one fails here and not only in the benchmark."""
    workloads = load_perfbench("workloads", monkeypatch)
    tracer = load_perfbench("tracing", monkeypatch).Tracer()
    ops = next(workloads.rounds(workload, 901, str(tmp_path)))[:12]
    tracer.install()
    try:
        for op in ops:
            cli.main(list(op.argv))         # through the module, as the worker calls it
            out = capsys.readouterr().out
            assert not out.startswith('{"error"'), (op.argv, out)
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    assert [name for name in required_nonzero()[workload] if not layers[name][0]] == []


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_tan_family_traffic_needs_no_fallback(capsys, monkeypatch, command):
    """The Tan family's E_alpha(i*xi^alpha) on every sigma = 1 command of
    the benchmark's fractional workload is served by the float and
    double-double series: the mpmath fallback is never called."""
    from twsolve import special_fn

    def never(alpha, z):
        raise AssertionError(f"fallback at alpha = {alpha}, z = {z}")

    monkeypatch.setattr(special_fn, "_ml_fallback", never)
    for key in ("sww", "kp", "boussinesq4"):
        for alpha in ("0.6", "0.7", "0.8", "0.9"):
            _, out = run_cli(capsys, command, key, "--method", "subeq",
                             "--alpha", alpha, "--sigma", "1")
            assert '"error"' not in out, (key, alpha, out)


def test_verify_refuses_a_pole_on_the_dense_nodes(capsys):
    """--grid 0.5:80:3 puts the first dense node of the fractional residual
    at xi = 1.0 (X = 100), the pole of the Rational family at omega = -1."""
    code, out = run_cli(capsys, "verify", "kp", "--method", "subeq", "--sigma", "0",
                        "--omega=-1", "--alpha", "0.8", "--grid", "0.5:80:3")
    assert code == 1
    assert json.loads(out) == {"error": "PoleAt", "message": "pole at x = 1.0"}


@pytest.mark.parametrize("argv", [
    ("solve", "sww", "--degree", "0"),
    ("verify", "sww", "--degree", "-1"),
    ("solve", "sww", "--params", "k=inf"),
    ("verify", "sww", "--params", "c=1e400"),
    ("verify", "sww", "--method", "subeq", "--alpha", "1.5", "--sigma=-1"),
    ("solve", "sww", "--method", "subeq", "--alpha", "0"),
    ("figure", "2", "--sigma=1"),
    ("figure", "1", "--sigma", "0"),
    ("figure", "2", "--alphas", "1.5"),
    ("figure", "4", "--alphas", "0.8,0"),
    ("figure", "1", "--xgrid", "0:inf:2"),
    ("verify", TOY_FRAC, "--params", "k=1,c=2"),
    ("verify", TOY, "--method", "subeq", "--params", "k=1,c=2"),
    ("verify", TOY, "--method", "subeq", "--sigma", "1", "--alpha", "0.6",
     "--params", "k=1,c=2"),
    ("verify", TOY, "--params", "k=1"),
    ("solve", TOY, "--params", "k=1,c=2,kk=5"),
    ("solve", "sww", "--grid", "a:b:3"),
    ("verify", "sww", "--grid", "0:1:0"),
    ("verify", "sww", "--grid", "0:1:2.5"),
    ("figure", "1", "--xgrid", "0:1:0"),
    ("figure", "1", "--params", "kk=5"),
    ("solve", "sww", "--sigma", "1"),
    ("verify", "sww", "--sigma=-1"),
    ("solve", "sww", "--alpha", "0.5"),
    ("solve", "sww", "--method", "subeq", "--alpha", "0.8", "--sigma=-1",
     "--params", "sigma=2"),
    ("solve", "sww", "--omega", "2"),
    ("solve", "sww", "--method", "subeq", "--sigma=-1", "--omega", "2"),
    ("verify", "sww", "--method", "subeq", "--alpha", "0.8", "--sigma=-1",
     "--grid=-1:1:3"),
    ("verify", "sww", "--method", "subeq", "--alpha", "0.8", "--sigma=-1",
     "--form", "originalPde"),
    ("figure", "2", "--alphas", "abc"),
    ("figure", "1", "--alphas", "0.5"),
    ("tabulate", "ml", "--alpha", "0"),
    ("tabulate", "tan", "--alpha", "-1"),
    ("tabulate", "ml", "--alpha", "nan"),
    ("solve", "sww", "--method", "subeq", "--sigma", "nan", "--params", "k=1"),
    ("solve", "sww", "--a0", "nan"),
    ("verify", "sww", "--method", "subeq", "--sigma", "0", "--omega", "nan",
     "--alpha", "0.8"),
    ("figure", "2", "--sigma=-inf"),
    ("figure", "1", "--a0", "inf"),
    ("tabulate", "tan", "--alpha", "0.7", "--grid=-1:1:3"),
    ("figure", "1", "--sigma=-2", "--xgrid", "0:1:3", "--tgrid", "0:0:1"),
    ("figure", "5", "--sigma=-1"),
    ("solve", "pde b vars(x,t) params() : u_t + u*u_x = u_xx", "--integrate", "-1"),
    ("solve", "sww", "--integrate", "3"),
    ("verify", "kp", "--integrate", "2"),
    ("solve", "sww", "--params", "k=1/0"),
], ids=lambda argv: " ".join(argv))
def test_bad_input_rejected_before_any_stage(capsys, monkeypatch, argv):
    def no_stage(*args, **kwargs):
        raise AssertionError("a pipeline stage ran on bad input")
    for stage in ("run", "generalized_fn", "mittag_leffler"):
        monkeypatch.setattr(cli, stage, no_stage)
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"] == "CliError"


@pytest.mark.parametrize("argv", [
    ("verify", "sww", "--method", "subeq", "--sigma", "1e308", "--alpha", "0.8"),
    ("figure", "2", "--sigma=-1e308"),
], ids=lambda argv: " ".join(argv))
def test_huge_sigma_overflow_names_the_constraint(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {
        "error": "DomainGuardExceeded",
        "message": "constraint 4*k_a^2*m_a*sigma + c_a + k_a overflows a "
                   "float at the given parameters"}


@pytest.mark.parametrize("key,frac_dsl", [
    ("sww", SWW_FRAC_DSL), ("kp", KP_FRAC_DSL), ("boussinesq4", BSQ_FRAC_DSL),
])
def test_registry_subeq_reads_its_one_dsl_in_alpha_units(key, frac_dsl):
    # the integer DSL read in alpha-units is the hand-written fractional one
    _, definition = cli._load_definition(key, "subeq")
    assert definition == parse_pde(frac_dsl)
    assert not cli._load_definition(key, "tanh")[1].fractional


def test_figure_runs_the_pipeline_once_for_all_alphas(capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)
    monkeypatch.setattr(cli, "run", counted)
    code, out = run_cli(capsys, "figure", "2", "--alphas", "0.7,0.8,0.9,1.0",
                        "--xgrid=0:1:2", "--tgrid=0:0:1")
    assert code == 0
    assert len(calls) == 1
    assert out.count("x,t,alpha,u") == 4


def test_figure1_values(capsys):
    code, out = run_cli(capsys, "figure", "1", "--xgrid=0:5:2", "--tgrid=0:1:2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,t,u"
    row = dict(zip(("x", "t", "u"), map(float, lines[1].split(","))))
    assert row["u"] == pytest.approx(0.0, abs=1e-12)          # u(0, 0) = 0
    row = dict(zip(("x", "t", "u"), map(float, lines[2].split(","))))
    assert row["u"] == pytest.approx(2 * math.tanh(5), abs=1e-12)


def test_figure5_values(capsys):
    code, out = run_cli(capsys, "figure", "5", "--xgrid=0:1:2", "--tgrid=0:0:1")
    lines = out.strip().split("\n")[1:]
    u0 = float(lines[0].split(",")[2])
    u1 = float(lines[1].split(",")[2])
    assert u0 == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert u1 == pytest.approx(4.0 / 3.0 - 2 * math.tanh(1.0) ** 2, abs=1e-12)


def test_figure2_alpha1_matches_figure1(capsys):
    _, out1 = run_cli(capsys, "figure", "1", "--xgrid=-2:2:5", "--tgrid=0:1:2")
    _, out2 = run_cli(capsys, "figure", "2", "--xgrid=-2:2:5", "--tgrid=0:1:2",
                      "--alphas", "1.0")
    u1 = [float(l.split(",")[-1]) for l in out1.strip().split("\n")[1:]]
    u2 = [float(l.split(",")[-1]) for l in out2.strip().split("\n")[1:] if l]
    assert len(u1) == len(u2)
    for a, b in zip(u1, u2):
        assert abs(a - b) < 1e-10


def test_figure_fractional_files(capsys, tmp_path):
    out = tmp_path / "fig6.csv"
    code, _ = run_cli(capsys, "figure", "6", "--xgrid=0:1:2", "--tgrid=0:1:2",
                      "--alphas", "0.8,1.0", "--out", str(out))
    assert code == 0
    for alpha in ("0.8", "1"):
        p = tmp_path / f"fig6_alpha{alpha}.csv"
        assert p.exists()
        header = p.read_text().splitlines()[0]
        assert header == "x,t,alpha,u"


def test_tabulate_ml(capsys):
    code, out = run_cli(capsys, "tabulate", "ml", "--alpha", "1.0",
                        "--grid", "0:1:3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,value"
    assert float(lines[-1].split(",")[1]) == pytest.approx(math.e, abs=1e-12)


@pytest.mark.parametrize("first, first_code, then", [
    (("solve", "sww", "--method", "nope"), "SystemExit 2", ("solve", "sww")),
    (("verify", "sww", "--params", "k=1,m=1,c=3,p=1,q=1", "--form", "reducedOde"), 0,
     ("verify", "sww", "--params", "k=1,m=1,c=3,p=1,q=1")),
    (("figure", "2", "--alphas", "0.8", "--xgrid=-1:1:3", "--tgrid=0:1:2",
      "--sigma", "-2"), 0,
     ("figure", "2", "--alphas", "0.8", "--xgrid=-1:1:3", "--tgrid=0:1:2")),
])
def test_reused_parser_leaks_no_state(capsys, first, first_code, then):
    """`main` builds its parser once per process; a call after an argparse
    rejection or after another call's options prints the bytes of a call
    on a fresh parser."""
    cli.build_parser.cache_clear()
    fresh = run_cli(capsys, *then)
    try:
        code, _ = run_cli(capsys, *first)
    except SystemExit as e:
        code = f"SystemExit {e.code}"
    assert code == first_code
    assert run_cli(capsys, *then) == fresh
    assert fresh[0] == 0 and cli.build_parser.cache_info().misses == 1


def test_determinism_byte_identical(capsys):
    _, a = run_cli(capsys, "solve", "boussinesq4")
    _, b = run_cli(capsys, "solve", "boussinesq4")
    assert a == b
    _, fa = run_cli(capsys, "figure", "3", "--xgrid=-2:2:9", "--tgrid=0:2:3")
    _, fb = run_cli(capsys, "figure", "3", "--xgrid=-2:2:9", "--tgrid=0:2:3")
    assert fa == fb
