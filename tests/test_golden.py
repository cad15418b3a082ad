"""Golden CLI outputs: each case's exit code, stdout and written files must
match, byte for byte, the record stored in tests/golden/<case>.txt.

Regenerate named cases (every case when none is named) with

    PYTHONPATH=src python tests/test_golden.py [CASE ...]
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from twsolve.cli import main

GOLDEN = Path(__file__).parent / "golden"

TOY = "pde toy vars(x,t) params() : u_xx = u*u_t"
TOY_FRAC = "pde toy vars(x,t) params() frac(alpha) : u_{x:2} = u*u_{t:1}"
KDV = "pde kdv vars(x,t) params() : u_t + 6*u*u_x + u_xxx = 0"
BURGERS = "pde burgers vars(x,t) params() : u_t + u*u_x = u_xx"
KDV5 = "pde a vars(x,t) params() : u_t + u*u_x + u_xxxxx = 0"
FRAC = ("--grid", "0.5:2:4")            # small fractional residual grid
SMALL = ("--xgrid=-2:2:5", "--tgrid=0:1:2")

CASES = {
    "solve_sww": ["solve", "sww"],
    "solve_kp": ["solve", "kp"],
    "solve_boussinesq4": ["solve", "boussinesq4"],
    "solve_sww_subeq_neg": ["solve", "sww", "--method", "subeq", "--alpha", "0.8",
                            "--sigma=-1", *FRAC],
    "solve_sww_subeq_pos": ["solve", "sww", "--method", "subeq", "--alpha", "0.8",
                            "--sigma", "1"],
    "solve_kp_subeq_neg": ["solve", "kp", "--method", "subeq", "--alpha", "0.7",
                           "--sigma=-1", *FRAC],
    "solve_kp_subeq_pos": ["solve", "kp", "--method", "subeq", "--alpha", "0.7",
                           "--sigma", "1"],
    "solve_boussinesq4_subeq_neg": ["solve", "boussinesq4", "--method", "subeq",
                                    "--alpha", "0.9", "--sigma=-1", *FRAC],
    "solve_boussinesq4_subeq_pos": ["solve", "boussinesq4", "--method", "subeq",
                                    "--alpha", "0.9", "--sigma", "1"],
    "solve_sww_subeq_symbolic": ["solve", "sww", "--method", "subeq",
                                 "--params", "k=1", "--alpha", "1.0"],
    "solve_toy": ["solve", TOY],
    "solve_kdv": ["solve", KDV, "--integrate", "1", "--params", "k=1,c=-4"],
    "solve_burgers": ["solve", BURGERS, "--integrate", "1", "--params", "k=1,c=2"],
    "solve_kdv5": ["solve", KDV5],
    "solve_toy_degree2": ["solve", TOY, "--degree", "2"],
    "solve_kp_a0": ["solve", "kp", "--a0", "0.5", "--params", "c=5"],
    "solve_sww_grid": ["solve", "sww", "--grid=-1:1:5"],
    "verify_sww": ["verify", "sww"],
    "verify_kp": ["verify", "kp", "--params", "c=5", "--a0", "0.25"],
    "verify_boussinesq4": ["verify", "boussinesq4"],
    "verify_boussinesq4_reduced": ["verify", "boussinesq4", "--form", "reducedOde"],
    "verify_sww_branch0": ["verify", "sww", "--branch", "0"],
    "verify_sww_subeq_neg": ["verify", "sww", "--method", "subeq", "--alpha", "0.8",
                             "--sigma=-1", *FRAC],
    "verify_sww_subeq_pos": ["verify", "sww", "--method", "subeq", "--alpha", "0.5",
                             "--sigma", "1", *FRAC],
    "verify_sww_subeq_holds": ["verify", "sww", "--method", "subeq", "--alpha", "0.5",
                               "--sigma=-1", "--params", "c=9", *FRAC],
    "verify_kp_subeq_neg": ["verify", "kp", "--method", "subeq", "--alpha", "0.7",
                            "--sigma=-1", *FRAC],
    "verify_kp_subeq_pos": ["verify", "kp", "--method", "subeq", "--alpha", "0.7",
                            "--sigma", "1", *FRAC],
    "verify_boussinesq4_subeq_neg": ["verify", "boussinesq4", "--method", "subeq",
                                     "--alpha", "0.9", "--sigma=-1", *FRAC],
    "verify_boussinesq4_subeq_pos": ["verify", "boussinesq4", "--method", "subeq",
                                     "--alpha", "0.9", "--sigma", "1", *FRAC],
    "verify_sww_subeq_alpha06": ["verify", "sww", "--method", "subeq",
                                 "--alpha", "0.6", "--sigma=-1"],
    "verify_boussinesq4_subeq_tan": ["verify", "boussinesq4", "--method", "subeq",
                                     "--alpha", "0.9", "--sigma", "1"],
    "verify_toy": ["verify", TOY, "--params", "k=1,c=2"],
    "verify_kdv": ["verify", KDV, "--integrate", "1", "--params", "k=1,c=-4"],
    "figure_1": ["figure", "1", *SMALL],
    "figure_2": ["figure", "2", *SMALL, "--alphas", "0.8,1.0"],
    "figure_3": ["figure", "3", *SMALL],
    "figure_4": ["figure", "4", *SMALL, "--alphas", "0.7"],
    "figure_5": ["figure", "5", *SMALL, "--a0", "0.5"],
    "figure_6": ["figure", "6", *SMALL, "--alphas", "0.9"],
    "figure_6_out": ["figure", "6", "--xgrid=0:1:2", "--tgrid=0:1:2",
                     "--alphas", "0.8,1.0", "--out", "fig6.csv"],
    "figure_1_out": ["figure", "1", "--xgrid=0:1:3", "--tgrid=0:0:1",
                     "--out", "fig1.csv"],
    "figure_2_exact_zero": ["figure", "2", "--xgrid=-8.1:-8.1:1",
                            "--tgrid=2.7:2.7:1", "--alphas", "0.7"],
    "tabulate_ml": ["tabulate", "ml", "--alpha", "0.5", "--grid=-3:3:7"],
    "tabulate_tanh": ["tabulate", "tanh", "--alpha", "0.8", "--grid", "0:2:5"],
    "tabulate_cot": ["tabulate", "cot", "--alpha", "0.9", "--grid", "0:1:3"],
    # these three take the extended-precision Mittag-Leffler fallback
    "tabulate_ml_fallback": ["tabulate", "ml", "--alpha", "0.6", "--grid=-7.5:-1.5:5"],
    "tabulate_cos_fallback": ["tabulate", "cos", "--alpha", "0.6", "--grid", "0:5:11"],
    "verify_kp_subeq_tan_dense": ["verify", "kp", "--method", "subeq", "--alpha", "0.6",
                                  "--sigma", "1"],
    "error_unknown_key": ["solve", "nosuchpde"],
    "error_bad_params": ["solve", "sww", "--params", "k"],
    "error_bad_number": ["solve", "sww", "--params", "k=one"],
    "error_bad_grid": ["solve", "sww", "--grid", "0:1"],
    "error_figure_number": ["figure", "7"],
    "error_branch": ["verify", "sww", "--branch", "3"],
    "error_verify_no_params": ["verify", TOY],
    "error_subeq_integer": ["solve", TOY, "--method", "subeq"],
    "error_alpha_integer": ["verify", TOY, "--method", "subeq", "--sigma", "1",
                            "--alpha", "0.6", "--params", "k=1,c=2"],
    "error_verify_tanh_fractional": ["verify", TOY_FRAC, "--params", "k=1,c=2"],
    "error_syntax": ["solve", "pde bad vars(x,t) params() : u_x = = u"],
    "error_degree_zero": ["solve", TOY, "--degree", "0"],
    "error_params_inf": ["solve", "sww", "--params", "k=inf"],
    "error_alpha_high": ["verify", "sww", "--method", "subeq", "--alpha", "1.5",
                         "--sigma=-1", *FRAC],
    "error_alpha_zero": ["solve", "sww", "--method", "subeq", "--alpha", "0"],
    "error_tabulate_alpha": ["tabulate", "ml", "--alpha", "0"],
    "error_tabulate_alpha_overflow": ["tabulate", "tan", "--alpha", "1e308",
                                      "--grid", "0:2:3"],
    "error_tabulate_negative_x": ["tabulate", "tan", "--alpha", "0.7", "--grid=-1:1:3"],
    "error_figure_sigma": ["figure", "2", "--sigma=1", *SMALL, "--alphas", "0.8"],
    "error_figure_alphas": ["figure", "4", *SMALL, "--alphas", "0.8,0"],
    "error_zero_power": ["solve", "pde toy vars(x,t) params() : u_xx = u^0*u_t"],
    "error_params_unbound": ["verify", TOY, "--params", "k=1"],
    "error_params_unknown": ["verify", TOY, "--params", "k=1,c=2,kk=5"],
    "error_reserved_param": ["solve", "pde s vars(x,t) params(k) : "
                             "u_t + k*u*u_x + u_xxx = 0", "--integrate", "1"],
    "error_grid_text": ["solve", "sww", "--grid", "a:b:3"],
    "error_figure_params_unknown": ["figure", "1", "--params", "kk=5"],
    "error_tanh_sigma": ["solve", "sww", "--sigma", "1"],
    "error_params_sigma": ["solve", "sww", "--method", "subeq", "--alpha", "0.8",
                           "--sigma=-1", "--params", "sigma=2"],
    "error_fractional_grid": ["verify", "sww", "--method", "subeq", "--alpha",
                              "0.8", "--sigma=-1", "--grid=-1:1:3"],
    "error_fractional_grid_reversed": ["verify", "kp", "--method", "subeq", "--alpha",
                                       "0.8", "--sigma=-1", "--grid", "4:0.5:5"],
    "error_fractional_grid_overflow": ["verify", "kp", "--method", "subeq", "--alpha",
                                       "0.8", "--sigma=-1", "--grid=0.5:1.7e308:3"],
    "error_sigma_overflow": ["solve", "sww", "--method", "subeq", "--sigma=-1e308"],
}


def run_case(argv, workdir: Path) -> str:
    """Run one CLI case in `workdir`; the record is the exit code, stdout,
    then every file the command wrote, in name order."""
    cwd = os.getcwd()
    out = io.StringIO()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    record = f"exit {code}\n--- stdout\n{out.getvalue()}"
    for path in sorted(workdir.iterdir()):
        record += f"--- file {path.name}\n{path.read_text()}"
    return record


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    want = (GOLDEN / f"{case}.txt").read_text()
    assert run_case(CASES[case], tmp_path) == want


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    for case in sys.argv[1:] or sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            record = run_case(CASES[case], Path(d))
        (GOLDEN / f"{case}.txt").write_text(record)
        print(case, record.splitlines()[0])
