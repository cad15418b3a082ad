"""Command-line entry point: built-in PDE registry, input validation, JSON
logs of `pipeline.run` for solve/verify, figure-data emission, and
special-function tabulation.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .pde_ast import expr_to_str, jet_multi, jet_variables, parse_pde, print_pde
from .phi_calculus import SubEquationProfile
from .pipeline import run
from .solution_verify import (
    DEFAULT_GRID, FRACTIONAL_GRID, fractional_extent, residual_fractional, residual_ode,
    residual_pde,
)
from .special_fn import GENERALIZED_FN_NAMES, generalized_fn, mittag_leffler
from .travelling_wave import FRAME_SYMBOLS, XI

FMT = "%.12e"


@dataclass(frozen=True)
class RegistryEntry:
    dsl: str                        # read in alpha-units under --method subeq
    integrate_times: int            # decay integrations before balancing
    figure_defaults: dict           # named parameter set from the figure caption
    warnings: tuple = ()
    fractional_warnings: tuple = ()     # replace `warnings` for --method subeq


KP_FIGURE_WARNING = (
    "figure parameters c = 3.68, k = m = 1 satisfy neither derived branch "
    "(a0, c) in {(2, -3), (2/3, 5)}; emitted verbatim with constraint status "
    "flagged")
BOUSSINESQ_WARNINGS = (
    "a0 is normalized with denominator 6*k^2; the source derivation prints "
    "6*k^4",
    "figure parameters c = k = 1 violate the derived dispersion relation "
    "c^2 = k^2 + 4*k^4; the residual is a nonzero constant",
)

REGISTRY = {
    "sww": RegistryEntry(
        dsl=("pde sww vars(x,y,t) params(p,q) : "
             "u_xt + u_xx = u_xxxy + p*u_x*u_xt + q*u_t*u_xx"),
        integrate_times=1,
        figure_defaults={"k": 1, "m": 1, "c": 3, "p": 1, "q": 1},
    ),
    "kp": RegistryEntry(
        dsl="pde kp vars(x,y,t) params() : (u_t + 6*u*u_x + u_xxx)_x = u_yy",
        integrate_times=2,
        figure_defaults={"k": 1, "m": 1, "c": 3.68},
        warnings=(
            "derived constraint is 3*a0^2 - 8*k^2*a0 + 4*k^4 = 0; the printed "
            "relation 9*a0^2 = 8*k^2 + 2*k^4 in the source derivation is not "
            "reproduced",
            KP_FIGURE_WARNING,
        ),
        fractional_warnings=(
            "a0 is normalized with denominator 6*k^(2*alpha); the source "
            "derivation prints 6*k^2",
            KP_FIGURE_WARNING,
        ),
    ),
    "boussinesq4": RegistryEntry(
        dsl="pde boussinesq4 vars(x,t) params() : u_tt = u_xx + 3*(u^2)_xx + u_xxxx",
        integrate_times=2,
        figure_defaults={"k": 1, "c": 1},
        warnings=BOUSSINESQ_WARNINGS,
        fractional_warnings=BOUSSINESQ_WARNINGS,
    ),
}

FRACTIONAL_WARNING = (
    "fractional residuals are measurements, not pass/fail checks: exactness "
    "of the alpha-generalized families under the modified Riemann-Liouville "
    "derivative is an open question"
)

FIGURES = {
    1: ("sww", "tanh"), 2: ("sww", "subeq"),
    3: ("kp", "tanh"), 4: ("kp", "subeq"),
    5: ("boussinesq4", "tanh"), 6: ("boussinesq4", "subeq"),
}
FIGURE_ALPHAS = (0.7, 0.8, 0.9, 1.0)


class CliError(ValueError):
    pass


def _parse_params(text, defaults=None):
    out = dict(defaults or {})
    if not text:
        return out
    for part in text.split(","):
        if "=" not in part:
            raise CliError(f"bad --params entry {part!r}, expected name=value")
        k, v = part.split("=", 1)
        out[k.strip()] = _parse_number(v.strip())
    return out


def _parse_number(v):
    try:
        if "/" in v:
            return Fraction(v)
        f = float(v)
        return Fraction(v) if f == int(f) or "." not in v and "e" not in v.lower() \
            else f
    except (ValueError, OverflowError, ZeroDivisionError) as e:
        raise CliError(f"bad numeric value {v!r}") from e


def _parse_grid(text, default):
    if not text:
        return default
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError("--grid expects lo:hi:n")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise CliError(f"--grid expects numbers lo:hi:n, got {text!r}") from e
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError(f"grid bounds must be finite, got {text!r}")
    if n < 1:
        raise CliError(f"grid needs at least one point, got {text!r}")
    return (lo, hi, n)


def _axis(grid):
    lo, hi, n = grid
    return [lo + (hi - lo) * i / max(n - 1, 1) for i in range(n)]


def _exact_axis(text, grid):
    """Exact (start, step) of a lo:hi:n grid, read from its text."""
    lo, hi = map(Fraction, text.split(":")[:2] if text else grid[:2])
    return lo, (hi - lo) / max(grid[2] - 1, 1)


def _check_finite(args, *flags):
    for flag in flags:
        v = getattr(args, flag)
        if v is not None and not math.isfinite(v):
            raise CliError(f"--{flag} must be finite, got {v:g}")


def _check_flags(args):
    """Reject solve/verify flag values that no stage can use."""
    _check_finite(args, "sigma", "omega", "a0")
    if not 0 < args.alpha <= 1:
        raise CliError(f"--alpha must lie in (0, 1], got {args.alpha:g}")
    if args.method == "tanh" and (args.alpha != 1 or args.sigma is not None):
        raise CliError("--alpha and --sigma apply to --method subeq")
    if args.omega != 0 and not (args.method == "subeq" and args.sigma == 0):
        raise CliError("--omega applies to --method subeq --sigma 0, the only "
                       "family that reads it")
    if args.degree is not None and args.degree < 1:
        raise CliError(f"--degree must be at least 1, got {args.degree}")
    if args.integrate < 0:
        raise CliError(f"--integrate must be at least 0, got {args.integrate}")
    if args.integrate and args.pde in REGISTRY:
        raise CliError("--integrate applies to DSL input; registry keys use "
                       "their built-in count")
    _parse_grid(args.grid, None)        # its default depends on the definition


def _check_method(args, method, definition):
    """Reject a method, or a residual grid, that the definition's order
    cannot use."""
    if method == "subeq" and not definition.fractional and args.sigma is None:
        raise CliError("method subeq requires a fractional definition or --sigma")
    if method == "tanh" and definition.fractional:
        raise CliError("method tanh applies to integer-order definitions")
    if getattr(args, "form", None) == "originalPde" and definition.fractional:
        raise CliError("--form originalPde applies to integer-order "
                       "definitions; a fractional residual is measured on "
                       "the reduced ODE")
    if "alpha" in args and args.alpha < 1 and not definition.fractional:
        raise CliError("--alpha below 1 needs a fractional definition; an "
                       "integer-order one reads only alpha = 1")
    # figure has no residual grid; below alpha = 1 the fractional residual
    # is measured on xi > 0, on dense nodes up to 1.25*hi
    if "grid" in args and definition.fractional and args.alpha < 1:
        try:
            fractional_extent(_parse_grid(args.grid, FRACTIONAL_GRID))
        except ValueError as e:
            raise CliError(f"{e}, got {args.grid!r}") from None


def _check_params(params, definition):
    """Reject --params names that no stage reads and symbols that the
    solutions need but that stay unbound.  sigma is not a parameter: it
    comes from --sigma alone."""
    e = definition.lhs_minus_rhs
    frame = {FRAME_SYMBOLS[v] for v in definition.variables}
    allowed = set(definition.parameters) | frame
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise CliError(f"unknown --params name(s) {', '.join(unknown)}; "
                       f"expected among {', '.join(sorted(allowed))}")
    required = {FRAME_SYMBOLS[v] for v in jet_variables(e)} | \
        {s for s in e.symbols() if jet_multi(s) is None}
    missing = sorted(required - set(params))
    if missing:
        raise CliError(f"--params must bind {', '.join(missing)}")


def _load_definition(target: str, method: str):
    if target in REGISTRY:     # one DSL, read in alpha-units under subeq
        entry = REGISTRY[target]
        return entry, replace(parse_pde(entry.dsl), fractional=method == "subeq")
    try:
        with open(target) as fh:
            text = fh.read()
    except OSError:
        if target.strip().startswith("pde "):
            text = target
        else:
            raise CliError(f"unknown PDE key or unreadable file: {target!r}")
    return None, parse_pde(text)


def _solve(args, target, method, *, degree=None, need_params=False):
    """Load `target`, check `args` against it, then run every stage once.
    Returns (registry entry or None, bound params, pipeline result)."""
    entry, definition = _load_definition(target, method)
    _check_method(args, method, definition)
    params = _parse_params(args.params, entry and entry.figure_defaults)
    if need_params and not params:
        raise CliError("--params required for verification")
    if params:
        _check_params(params, definition)
    profile = (SubEquationProfile.riccati() if method == "subeq"
               else SubEquationProfile.classical_tanh())
    integrate = entry.integrate_times if entry else args.integrate
    return entry, params, run(definition, profile, integrate, degree)


def _sigma(args):
    """The --sigma value, -1 when it is not given."""
    return -1 if args.sigma is None else args.sigma


def _residual(r, s, grid_text, form=None):
    """Residual of solution `s`: a measurement on the reduced ODE for a
    fractional definition, otherwise exact on `form`, by default the
    original PDE."""
    if r.definition.fractional:
        return residual_fractional(s, r.ode,
                                   grid=_parse_grid(grid_text, FRACTIONAL_GRID))
    grid = _parse_grid(grid_text, DEFAULT_GRID)
    if form == "reducedOde":
        return residual_ode(s, r.ode, grid=grid)
    return residual_pde(s, r.definition, grid)


def _ode_str(o):
    return expr_to_str(o.expr, (XI,))


def cmd_solve(args) -> int:
    _check_flags(args)
    entry, params, r = _solve(args, args.pde, args.method, degree=args.degree)

    warnings = []
    if entry:
        warnings = list(entry.fractional_warnings if args.method == "subeq"
                        else entry.warnings)
    if args.method == "subeq":
        warnings.append(FRACTIONAL_WARNING)

    solutions, reports = [], []
    if params:
        for b in r.branches:
            for s in r.solutions(b, params, alpha=args.alpha, sigma=_sigma(args),
                                 omega=args.omega, a0=args.a0):
                solutions.append(s.to_json())
                if s.family == "Tanh":
                    reports.append(_residual(r, s, args.grid).to_json())
        if any(s["constraint_violated"] for s in solutions):
            warnings.append("constraint violated at the given parameters; "
                            "residuals will not vanish")

    log = {
        "pde": print_pde(r.definition),
        "method": args.method,
        "alpha": FMT % args.alpha,
        "sigma": FMT % args.sigma if args.sigma is not None else None,
        "stages": {
            "reduction": {"ode": _ode_str(r.reduced),
                          "clearedFactor": r.reduced.cleared_factor},
            "integration": {"times": r.ode.integration_count,
                            "ode": _ode_str(r.ode)},
            "balance": {"degree": r.degree},
            "system": {
                "rows": [{"phiPower": d, "poly": str(p)}
                         for d, p in r.system.equations],
                "cleared": [{"phiPower": d, "factor": f}
                            for d, f in r.system.cleared],
            },
            "branches": [b.to_json() for b in r.branches],
            "solutions": solutions,
            "residuals": reports,
        },
        "warnings": warnings,
    }
    _emit(json.dumps(log, indent=2), args.out)
    return 0


def cmd_verify(args) -> int:
    _check_flags(args)
    _, params, r = _solve(args, args.pde, args.method, degree=args.degree,
                          need_params=True)
    if not 0 <= args.branch < len(r.branches):
        raise CliError(f"branch {args.branch} not found "
                       f"({len(r.branches)} available)")
    # the first family is Tanh for sigma < 0, Tan for sigma > 0
    s = r.solutions(r.branches[args.branch], params, alpha=args.alpha,
                    sigma=_sigma(args), omega=args.omega, a0=args.a0)[0]
    report = _residual(r, s, args.grid, args.form)
    # the fractional residual is a measurement, never part of the verdict
    passed = not s.constraint_violated and (r.definition.fractional
                                            or report.max_abs < 1e-8)
    payload = report.to_json()
    payload["constraintViolated"] = s.constraint_violated
    payload["pass"] = passed
    _emit(json.dumps(payload, indent=2), args.out)
    return 0 if passed else 1


def cmd_figure(args) -> int:
    if args.n not in FIGURES:
        raise CliError("figure number must be 1..6")
    _check_finite(args, "sigma", "a0")
    if not _sigma(args) < 0:
        raise CliError("--sigma must be negative: the figures plot the Tanh "
                       "family")
    key, method = FIGURES[args.n]
    xg = _parse_grid(args.xgrid, (-10.0, 10.0, 201))
    tg = _parse_grid(args.tgrid, (0.0, 5.0, 51))
    if method == "subeq":
        try:
            alphas = [float(a) for a in (args.alphas.split(",") if args.alphas
                                         else FIGURE_ALPHAS)]
        except ValueError as e:
            raise CliError(f"--alphas expects numbers, got {args.alphas!r}") from e
        if not all(0 < a <= 1 for a in alphas):
            raise CliError("--alphas must lie in (0, 1]")
    elif args.alphas or args.sigma is not None:
        raise CliError("--alphas and --sigma apply to the fractional figures "
                       "2, 4 and 6")
    _, params, r = _solve(args, key, method)
    # xi = k*x + c*t (fixed y = 0) exactly, from the grid text: the row
    # (i, j) has xi = (a + j*b + i*d) / den with integer numerators
    (x0, dx), (t0, dt) = _exact_axis(args.xgrid, xg), _exact_axis(args.tgrid, tg)
    k, c = Fraction(params["k"]), Fraction(params["c"])
    steps = (k * x0 + c * t0, k * dx, c * dt)
    den = math.lcm(*(q.denominator for q in steps))
    a, b, d = (q.numerator * (den // q.denominator) for q in steps)

    def rows_for(alpha):
        # sigma < 0, so the first family is Tanh
        s = r.solutions(r.branches[0], params, alpha=alpha, sigma=_sigma(args),
                        a0=args.a0)[0]
        xis = [[(a + j * b + i * d) / den for j in range(xg[2])] for i in range(tg[2])]
        u_at = dict.fromkeys(xi for row in xis for xi in row)   # each distinct xi once
        u_at.update(zip(u_at, s.u_on(list(u_at)).tolist()))
        xs, alpha_col = _axis(xg), (() if alpha is None else (alpha,))
        return [",".join(FMT % v for v in (x, t, *alpha_col, u_at[xi]))
                for t, row in zip(_axis(tg), xis) for x, xi in zip(xs, row)]

    if method == "subeq":
        sheets = [(alpha, "x,t,alpha,u\n" + "\n".join(rows_for(alpha)) + "\n")
                  for alpha in alphas]
        if args.out:
            stem, dot, ext = args.out.rpartition(".")
            if not dot:
                stem, ext = args.out, "csv"
            for alpha, sheet in sheets:
                with open(f"{stem}_alpha{alpha:g}.{ext}", "w") as fh:
                    fh.write(sheet)
        else:
            for _, sheet in sheets:
                sys.stdout.write(sheet + "\n")
    else:
        _emit("\n".join(["x,t,u"] + rows_for(None)), args.out)
    return 0


def cmd_tabulate(args) -> int:
    if not 0 < args.alpha < math.inf:
        raise CliError(f"--alpha must be finite and positive, got {args.alpha:g}")
    xs = _axis(_parse_grid(args.grid, (0.0, 5.0, 51)))
    if args.fn == "ml":
        vs = mittag_leffler(args.alpha, tuple(xs)).tolist()
    elif min(xs) < 0:
        raise CliError(f"{args.fn} takes x >= 0 (x^alpha), got --grid {args.grid!r}")
    else:
        vs = generalized_fn(args.fn, args.alpha, xs).tolist()
    # NaN marks a pole of a generalized function; the point is left out
    lines = ["x,value"] + [f"{FMT % x},{FMT % v}" for x, v in zip(xs, vs) if not math.isnan(v)]
    _emit("\n".join(lines), args.out)
    return 0


def _emit(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _add_common(sp):
    sp.add_argument("--method", choices=("tanh", "subeq"), default="tanh")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--sigma", type=float, default=None)
    sp.add_argument("--omega", type=float, default=0.0)
    sp.add_argument("--degree", type=int, default=None,
                    help="override the balanced ansatz degree (diagnostic)")
    sp.add_argument("--a0", type=float, default=0.0,
                    help="value for the free constant coefficient")
    sp.add_argument("--params", default="",
                    help="comma-separated name=value parameter bindings")
    sp.add_argument("--grid", default="", help="lo:hi:n xi-grid for residuals")
    sp.add_argument("--integrate", type=int, default=0,
                    help="decay integrations for DSL input (refused on "
                         "registry keys, which use their built-in count)")
    sp.add_argument("--out", default=None)


@functools.cache  # one per process: a parser is configuration; parse_args keeps no state
def build_parser():
    ap = argparse.ArgumentParser(
        prog="twsolve",
        description="tanh-method / fractional sub-equation solver for "
                    "polynomial nonlinear PDEs")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run the full pipeline on a PDE")
    sp.add_argument("pde", help="registry key (sww|kp|boussinesq4), DSL file, "
                               "or inline DSL")
    _add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify", help="residual-verify one solved branch")
    sp.add_argument("pde")
    sp.add_argument("--branch", type=int, default=0)
    sp.add_argument("--form", choices=("originalPde", "reducedOde"),
                    help="equation the residual is measured against "
                         "(default originalPde; a fractional definition "
                         "is measured on its reduced ODE)")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("figure", help="emit figure data as CSV")
    sp.add_argument("n", type=int)
    sp.add_argument("--params", default="")
    sp.add_argument("--sigma", type=float, help="sigma of figures 2, 4 and 6 (default -1)")
    sp.add_argument("--a0", type=float, default=0.0)
    sp.add_argument("--alphas", default="",
                    help="comma-separated alpha list for fractional figures")
    sp.add_argument("--xgrid", default="", help="lo:hi:n for x")
    sp.add_argument("--tgrid", default="", help="lo:hi:n for t")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_figure)

    sp = sub.add_parser("tabulate", help="tabulate a special function to CSV")
    sp.add_argument("fn", choices=("ml", *GENERALIZED_FN_NAMES))
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--grid", default="", help="lo:hi:n for x")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_tabulate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:
        payload = {"error": type(e).__name__, "message": str(e)}
        sys.stdout.write(json.dumps(payload) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
