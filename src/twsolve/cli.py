"""Command-line entry point: built-in PDE registry, input validation, JSON
logs of `pipeline.run` for solve/verify, figure-data emission, and
special-function tabulation.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .pde_ast import expr_to_str, parse_pde, print_pde
from .phi_calculus import SubEquationProfile
from .pipeline import run
from .solution_verify import (
    DEFAULT_GRID, FRACTIONAL_GRID, residual_fractional, residual_ode, residual_pde,
)
from .special_fn import MLSeriesSpec, generalized_fn, mittag_leffler
from .travelling_wave import XI

FMT = "%.12e"


@dataclass(frozen=True)
class RegistryEntry:
    integer_dsl: str
    fractional_dsl: str
    integrate_times: int            # decay integrations before balancing
    figure_defaults: dict           # named parameter set from the figure caption
    caption: str
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
        integer_dsl=("pde sww vars(x,y,t) params(p,q) : "
                     "u_xt + u_xx = u_xxxy + p*u_x*u_xt + q*u_t*u_xx"),
        fractional_dsl=("pde sww vars(x,y,t) params(p,q) frac(alpha) : "
                        "u_{x:1,t:1} + u_{x:2} = u_{x:3,y:1} "
                        "+ p*u_{x:1}*u_{x:1,t:1} + q*u_{t:1}*u_{x:2}"),
        integrate_times=1,
        figure_defaults={"k": 1, "m": 1, "c": 3, "p": 1, "q": 1},
        caption="p = q = m = k = 1, c = 3",
    ),
    "kp": RegistryEntry(
        integer_dsl="pde kp vars(x,y,t) params() : (u_t + 6*u*u_x + u_xxx)_x = u_yy",
        fractional_dsl=("pde kp vars(x,y,t) params() frac(alpha) : "
                        "(u_{t:1} + 6*u*u_{x:1} + u_{x:3})_{x:1} = u_{y:2}"),
        integrate_times=2,
        figure_defaults={"k": 1, "m": 1, "c": 3.68},
        caption="m = k = 1, c = 3.68",
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
        integer_dsl="pde boussinesq4 vars(x,t) params() : u_tt = u_xx + 3*(u^2)_xx + u_xxxx",
        fractional_dsl=("pde boussinesq4 vars(x,t) params() frac(alpha) : "
                        "u_{t:2} = u_{x:2} + 3*(u^2)_{x:2} + u_{x:4}"),
        integrate_times=2,
        figure_defaults={"k": 1, "c": 1},
        caption="c = k = 1",
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
    except (ValueError, OverflowError) as e:
        raise CliError(f"bad numeric value {v!r}") from e


def _parse_grid(text, default):
    if not text:
        return default
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError("--grid expects lo:hi:n")
    return (float(parts[0]), float(parts[1]), int(parts[2]))


def _check_flags(args):
    """Reject solve/verify flag values that no stage can use."""
    if not 0 < args.alpha <= 1:
        raise CliError(f"--alpha must lie in (0, 1], got {args.alpha:g}")
    if args.degree is not None and args.degree < 1:
        raise CliError(f"--degree must be at least 1, got {args.degree}")


def _check_method(args, definition):
    """Reject a method that the definition's order cannot use."""
    if args.method == "subeq" and not definition.fractional and args.sigma is None:
        raise CliError("method subeq requires a fractional definition or --sigma")
    if args.method == "tanh" and definition.fractional:
        raise CliError("method tanh applies to integer-order definitions")


def _load_definition(target: str, method: str):
    if target in REGISTRY:
        entry = REGISTRY[target]
        dsl = entry.fractional_dsl if method == "subeq" else entry.integer_dsl
        return entry, parse_pde(dsl)
    try:
        with open(target) as fh:
            text = fh.read()
    except OSError:
        if target.strip().startswith("pde "):
            text = target
        else:
            raise CliError(f"unknown PDE key or unreadable file: {target!r}")
    return None, parse_pde(text)


def _run(definition, method, alpha, integrate, degree=None):
    profile = (SubEquationProfile.riccati(alpha=alpha) if method == "subeq"
               else SubEquationProfile.classical_tanh())
    return run(definition, profile, integrate, degree)


def _ode_str(o):
    return expr_to_str(o.expr, (XI,), o.frame.fractional)


def cmd_solve(args) -> int:
    _check_flags(args)
    entry, definition = _load_definition(args.pde, args.method)
    _check_method(args, definition)
    params = _parse_params(args.params, entry and entry.figure_defaults)
    r = _run(definition, args.method, args.alpha,
             entry.integrate_times if entry else args.integrate, args.degree)

    warnings = []
    if entry:
        warnings = list(entry.fractional_warnings if args.method == "subeq"
                        else entry.warnings)
    if args.method == "subeq":
        warnings.append(FRACTIONAL_WARNING)

    solutions = []
    reports = []
    if params:
        grid = _parse_grid(args.grid, FRACTIONAL_GRID if definition.fractional
                           else DEFAULT_GRID)
        for b in r.branches:
            for s in r.solutions(b, params, alpha=args.alpha, sigma=args.sigma,
                                 omega=args.omega, a0=args.a0):
                solutions.append(s.to_json())
                if s.family != "Tanh":
                    continue
                if definition.fractional:
                    reports.append(residual_fractional(s, r.ode, dict(s.params),
                                                       grid).to_json())
                else:
                    reports.append(residual_pde(s, definition, grid).to_json())
        if any(s["constraint_violated"] for s in solutions):
            warnings.append("constraint violated at the given parameters; "
                            "residuals will not vanish")

    log = {
        "pde": print_pde(definition),
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
    entry, definition = _load_definition(args.pde, args.method)
    _check_method(args, definition)
    params = _parse_params(args.params, entry and entry.figure_defaults)
    if not params:
        raise CliError("--params required for verification")
    r = _run(definition, args.method, args.alpha,
             entry.integrate_times if entry else args.integrate, args.degree)
    if not 0 <= args.branch < len(r.branches):
        raise CliError(f"branch {args.branch} not found "
                       f"({len(r.branches)} available)")
    # the first family is Tanh for sigma < 0, Tan for sigma > 0
    s = r.solutions(r.branches[args.branch], params, alpha=args.alpha,
                    sigma=args.sigma, omega=args.omega, a0=args.a0)[0]
    if definition.fractional:
        # the fractional residual is a measurement, never part of the verdict
        report = residual_fractional(s, r.ode, dict(s.params),
                                     _parse_grid(args.grid, FRACTIONAL_GRID))
        passed = not s.constraint_violated
    else:
        grid = _parse_grid(args.grid, DEFAULT_GRID)
        if args.form == "reducedOde":
            report = residual_ode(s, r.ode, dict(s.params), grid)
        else:
            report = residual_pde(s, definition, grid)
        passed = (not s.constraint_violated) and report.max_abs < 1e-8
    payload = report.to_json()
    payload["constraintViolated"] = s.constraint_violated
    payload["pass"] = passed
    _emit(json.dumps(payload, indent=2), args.out)
    return 0 if passed else 1


def _figure_solution(n: int, params: dict, alpha: float, sigma, omega, a0):
    key, method = FIGURES[n]
    entry, definition = _load_definition(key, method)
    r = _run(definition, method, alpha, entry.integrate_times)
    # sigma < 0, so the first family is Tanh
    return r.solutions(r.branches[0], params, alpha=alpha, sigma=sigma,
                       omega=omega, a0=a0)[0]


def cmd_figure(args) -> int:
    n = args.n
    if n not in FIGURES:
        raise CliError("figure number must be 1..6")
    if not args.sigma < 0:
        raise CliError("--sigma must be negative: the figures plot the Tanh "
                       "family")
    key, method = FIGURES[n]
    entry = REGISTRY[key]
    params = _parse_params(args.params, entry.figure_defaults)
    xg = _parse_grid(args.xgrid, (-10.0, 10.0, 201))
    tg = _parse_grid(args.tgrid, (0.0, 5.0, 51))
    kv, cv = float(params["k"]), float(params["c"])

    def rows_for(alpha):
        s = _figure_solution(n, params, alpha, args.sigma, args.omega, args.a0)
        u_at = {}       # xi repeats across (x, t); one sheet, one solution
        lines = []
        for i in range(int(tg[2])):
            t = tg[0] + (tg[1] - tg[0]) * i / max(int(tg[2]) - 1, 1)
            for j in range(int(xg[2])):
                x = xg[0] + (xg[1] - xg[0]) * j / max(int(xg[2]) - 1, 1)
                xi = kv * x + cv * t        # fixed y = 0
                u = u_at.get(xi)
                if u is None:
                    u = u_at[xi] = s.u_of_xi(xi)
                cols = (x, t, u) if alpha is None else (x, t, alpha, u)
                lines.append(",".join(FMT % v for v in cols))
        return lines

    if method == "subeq":
        alphas = [float(a) for a in (args.alphas.split(",") if args.alphas
                                     else FIGURE_ALPHAS)]
        if not all(0 < a <= 1 for a in alphas):
            raise CliError("--alphas must lie in (0, 1]")
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
    grid = _parse_grid(args.grid, (0.0, 5.0, 51))
    spec = MLSeriesSpec(args.alpha)
    lines = ["x,value"]
    for i in range(int(grid[2])):
        x = grid[0] + (grid[1] - grid[0]) * i / max(int(grid[2]) - 1, 1)
        if args.fn == "ml":
            v = mittag_leffler(spec, x)
        else:
            try:
                v = generalized_fn(args.fn, args.alpha, x, spec)
            except ZeroDivisionError:
                continue
        lines.append(f"{FMT % x},{FMT % v}")
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
                    help="decay integrations for DSL input (registry keys "
                         "use their built-in count)")
    sp.add_argument("--out", default=None)


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
                    default="originalPde",
                    help="equation the residual is measured against")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("figure", help="emit figure data as CSV")
    sp.add_argument("n", type=int)
    sp.add_argument("--params", default="")
    sp.add_argument("--sigma", type=float, default=-1.0)
    sp.add_argument("--omega", type=float, default=0.0)
    sp.add_argument("--a0", type=float, default=0.0)
    sp.add_argument("--alphas", default="",
                    help="comma-separated alpha list for fractional figures")
    sp.add_argument("--xgrid", default="", help="lo:hi:n for x")
    sp.add_argument("--tgrid", default="", help="lo:hi:n for t")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_figure)

    sp = sub.add_parser("tabulate", help="tabulate a special function to CSV")
    sp.add_argument("fn", choices=("ml", "sinh", "cosh", "tanh", "coth",
                                   "sin", "cos", "tan", "cot"))
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
