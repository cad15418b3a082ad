"""Shared pipeline helpers for the test suite."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from twsolve import parse_pde, pipeline

TOY_DSL = "pde toy vars(x,t) params() : u_xx = u*u_t"
SWW_DSL = ("pde sww vars(x,y,t) params(p,q) : "
           "u_xt + u_xx = u_xxxy + p*u_x*u_xt + q*u_t*u_xx")
KP_DSL = "pde kp vars(x,y,t) params() : (u_t + 6*u*u_x + u_xxx)_x = u_yy"
BSQ_DSL = "pde boussinesq4 vars(x,t) params() : u_tt = u_xx + 3*(u^2)_xx + u_xxxx"
SWW_FRAC_DSL = ("pde sww vars(x,y,t) params(p,q) frac(alpha) : "
                "u_{x:1,t:1} + u_{x:2} = u_{x:3,y:1} "
                "+ p*u_{x:1}*u_{x:1,t:1} + q*u_{t:1}*u_{x:2}")
KP_FRAC_DSL = ("pde kp vars(x,y,t) params() frac(alpha) : "
               "(u_{t:1} + 6*u*u_{x:1} + u_{x:3})_{x:1} = u_{y:2}")
BSQ_FRAC_DSL = ("pde boussinesq4 vars(x,t) params() frac(alpha) : "
                "u_{t:2} = u_{x:2} + 3*(u^2)_{x:2} + u_{x:4}")

INTEGRATE_TIMES = {"toy": 0, "sww": 1, "kp": 2, "boussinesq4": 2}

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load_perfbench(name: str, monkeypatch):
    """perfbench/<name>.py as a module (perfbench is a directory of scripts,
    not a package), in sys.modules for the test's duration so that its
    dataclasses resolve."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def run_pipeline(dsl: str, integrate: int = 0, profile=None):
    """Every stage of the pipeline on one DSL string."""
    return pipeline.run(parse_pde(dsl), profile, integrate)


@pytest.fixture(scope="session")
def toy():
    return run_pipeline(TOY_DSL)


@pytest.fixture(scope="session")
def sww():
    return run_pipeline(SWW_DSL, integrate=1)


@pytest.fixture(scope="session")
def kp():
    return run_pipeline(KP_DSL, integrate=2)


@pytest.fixture(scope="session")
def bsq():
    return run_pipeline(BSQ_DSL, integrate=2)


@pytest.fixture(scope="session")
def sww_frac():
    return run_pipeline(SWW_FRAC_DSL, integrate=1)


@pytest.fixture(scope="session")
def kp_frac():
    return run_pipeline(KP_FRAC_DSL, integrate=2)


@pytest.fixture(scope="session")
def bsq_frac():
    return run_pipeline(BSQ_FRAC_DSL, integrate=2)
