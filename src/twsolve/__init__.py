"""twsolve: mechanized tanh-method and fractional sub-equation method for
polynomial nonlinear PDEs.

Pipeline: parse a PDE from the small DSL, reduce it to a travelling-wave ODE,
substitute the power-of-phi ansatz through the sub-equation chain rule,
solve the coefficient-matching system by exact triangular branch enumeration,
materialize the closed-form solution families, and verify them by residual.
"""
from .pde_ast import (
    PdeDefinition, PdeSyntaxError, UndeclaredSymbolError, parse_pde, print_pde,
)
from .travelling_wave import (
    FrameError, NotExactDerivative, ReducedOde, frame_symbol, integrate_decay,
    reduce,
)
from .phi_calculus import (
    NonIntegerBalance, PhiPolynomial, SubEquationProfile,
    balance_degree, substitute_ansatz,
)
from .algebra_system import (
    Branch, BranchExplosion, CoefficientSystem, Stalled, extract_system,
    solve_triangular,
)
from .special_fn import (
    DomainGuardExceeded, EndpointTooClose, GammaPole,
    NonConvergence, PoleAt, generalized_fn, jumarie_mesh,
    jumarie_power_rule, jumarie_quadrature, mittag_leffler,
)
from .solution_verify import (
    ClosedFormSolution, DenominatorZero, PoleOnGrid, ResidualReport,
    construct_solutions, residual_fractional, residual_ode, residual_pde,
)

__version__ = "1.0.0"
