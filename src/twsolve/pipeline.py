"""The solve chain as one call: reduce a PDE to its travelling-wave ODE,
integrate it under decay, balance, substitute the phi-ansatz, and extract and
solve the coefficient system.  `Result.solutions` binds a solved branch to
numeric parameters and builds its closed-form families.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra_system import CoefficientSystem, extract_system, solve_triangular
from .pde_ast import PdeDefinition
from .phi_calculus import (
    Ansatz, PhiPolynomial, SubEquationProfile, balance_degree, substitute_ansatz,
)
from .solution_verify import construct_solutions
from .travelling_wave import (
    FRAME_SYMBOLS, FRAME_SYMBOLS_FRACTIONAL, ReducedOde, WaveFrame,
    integrate_decay, reduce,
)

# base frame coefficient -> its alpha-power atom (k -> k_a, ...)
POWERED = {FRAME_SYMBOLS[v]: s for v, s in FRAME_SYMBOLS_FRACTIONAL.items()}


@dataclass(frozen=True)
class Result:
    definition: PdeDefinition
    profile: SubEquationProfile
    reduced: ReducedOde
    ode: ReducedOde                 # `reduced` after the decay integrations
    degree: int
    phi_poly: PhiPolynomial
    system: CoefficientSystem
    branches: list

    def solutions(self, branch, params: dict, *, alpha: float = 1.0,
                  sigma=None, omega: float = 0.0, a0: float = 0.0) -> list:
        """Closed-form families of `branch` with `params` bound.  For a
        fractional definition the base values k, m, c are raised to alpha
        and bound to the frame atoms k_a, m_a, c_a."""
        fractional = self.definition.fractional
        if fractional:
            params = {**{POWERED[k]: float(v) ** alpha for k, v in params.items()
                         if k in POWERED},
                      **{k: v for k, v in params.items() if k not in POWERED}}
        symbols = FRAME_SYMBOLS_FRACTIONAL if fractional else FRAME_SYMBOLS
        frame = WaveFrame(self.definition.variables, fractional,
                          {s: params[s] for s in symbols.values() if s in params})
        return construct_solutions(branch, self.profile, params, frame,
                                   alpha=alpha, sigma=sigma, omega=omega,
                                   free_values={"a0": a0})


def run(definition: PdeDefinition, profile: SubEquationProfile = None,
        integrate: int = 0, degree: int = None) -> Result:
    """Run every symbolic stage on `definition`.  The profile defaults to the
    symbolic-sigma Riccati equation for a fractional definition and to the
    classical tanh equation otherwise; `degree` overrides the balance."""
    if profile is None:
        profile = (SubEquationProfile.riccati() if definition.fractional
                   else SubEquationProfile.classical_tanh())
    reduced = reduce(definition, WaveFrame(definition.variables,
                                           definition.fractional, {}))
    ode = integrate_decay(reduced, integrate) if integrate else reduced
    if degree is None:
        degree = balance_degree(ode, profile)
    phi_poly = substitute_ansatz(ode, Ansatz(degree), profile)
    system = extract_system(phi_poly)
    return Result(definition, profile, reduced, ode, degree, phi_poly, system,
                  solve_triangular(system))
