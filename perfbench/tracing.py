"""Per-layer tracing from outside the program.

The tracer replaces each traced function by a wrapper that records a span
(id, parent id, name, start, end) and counts calls, errors and distinct
arguments.  Modules import these functions by name (``cli`` imports
``parse_pde``; ``solution_verify`` imports ``generalized_fn``), so every
binding of the original object in every loaded ``twsolve`` module is
rebound, not just the defining one.

Self time (a span's duration minus the time its child spans cover) is
summed as spans close, so it covers every span.  Spans themselves stay in
memory until the run ends, up to MAX_SPANS: the symbolic workload opens
over a million ``phi`` spans in a run.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (metric prefix, module, attribute path) of every layer with a span.
LAYERS = (
    ("pde_ast.parse_pde", "twsolve.pde_ast", "parse_pde"),
    ("travelling_wave.reduce", "twsolve.travelling_wave", "reduce"),
    ("travelling_wave.integrate_decay", "twsolve.travelling_wave", "integrate_decay"),
    ("phi_calculus.balance_degree", "twsolve.phi_calculus", "balance_degree"),
    ("phi_calculus.substitute_ansatz", "twsolve.phi_calculus", "substitute_ansatz"),
    ("algebra_system.extract_system", "twsolve.algebra_system", "extract_system"),
    ("algebra_system.solve_triangular", "twsolve.algebra_system", "solve_triangular"),
    ("solution_verify.construct_solutions", "twsolve.solution_verify", "construct_solutions"),
    ("solution_verify.residual_pde", "twsolve.solution_verify", "residual_pde"),
    ("solution_verify.residual_ode", "twsolve.solution_verify", "residual_ode"),
    ("solution_verify.residual_fractional", "twsolve.solution_verify", "residual_fractional"),
    ("solution_verify.ClosedFormSolution.phi", "twsolve.solution_verify", "ClosedFormSolution.phi"),
    ("special_fn.generalized_fn", "twsolve.special_fn", "generalized_fn"),
    ("special_fn.mittag_leffler", "twsolve.special_fn", "mittag_leffler"),
    ("special_fn.jumarie_quadrature", "twsolve.special_fn", "jumarie_quadrature"),
    ("cli.main", "twsolve.cli", "main"),
)

POLY_MUL = "rational_poly.Poly.mul"
BRANCHES = "algebra_system.solve_triangular.branches"
ML_ERRORS = "special_fn.mittag_leffler.errors"
ML_DISTINCT = "special_fn.mittag_leffler.distinct_share"
PHI_DISTINCT = "solution_verify.ClosedFormSolution.phi.distinct_share"
INTEGRAND_CALLS = "special_fn.jumarie_quadrature.integrand_calls"

MAX_SPANS = 100_000


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.spans_dropped = 0
        self.calls = Counter()
        self.errors = Counter()
        self.self_s = Counter()
        self.branches = 0
        self.integrand_calls = 0
        self.ml_args = set()
        self.phi_args = set()
        self._stack = []            # [span id, child time] of each open span
        self._next_id = 0
        self._restore = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so that each call is a span named `name`."""
        stack, calls, errors, self_s = self._stack, self.calls, self.errors, self.self_s
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            calls[name] += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                self_s[name] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, parent, name, t0, t1))
                else:
                    self.spans_dropped += 1
            if after is not None:
                after(result)
            return result
        return wrapper

    def _ml_before(self, args, kwargs):
        spec, z = args[0], args[1]
        self.ml_args.add((spec, z))
        return args, kwargs

    def _phi_before(self, args, kwargs):
        s, xi = args[0], args[1]
        self.phi_args.add((s.family, s.variant, s.sigma, s.alpha, s.omega,
                           s.xi_shift, xi))
        return args, kwargs

    def _quad_before(self, args, kwargs):
        f = args[0]

        def counted(s):
            self.integrand_calls += 1
            return f(s)
        return (counted,) + tuple(args[1:]), kwargs

    def _branches_after(self, result):
        self.branches += len(result)

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every module-level name bound to `original` at `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "twsolve" or mod_name.startswith("twsolve.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self):
        hooks = {
            "special_fn.mittag_leffler": (self._ml_before, None),
            "solution_verify.ClosedFormSolution.phi": (self._phi_before, None),
            "special_fn.jumarie_quadrature": (self._quad_before, None),
            "algebra_system.solve_triangular": (None, self._branches_after),
        }
        for name, mod_name, path in LAYERS:
            mod = sys.modules[mod_name]
            before, after = hooks.get(name, (None, None))
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                setattr(cls, meth, self.span(name, original, before, after))
                self._restore.append((cls, meth, original))
            else:
                original = getattr(mod, path)
                self._rebind(original, self.span(name, original, before, after))
        poly = sys.modules["twsolve.rational_poly"].Poly
        original = vars(poly)["__mul__"]
        calls = self.calls

        @functools.wraps(original)
        def mul(a, b):
            calls[POLY_MUL] += 1
            return original(a, b)
        for meth in ("__mul__", "__rmul__"):
            self._restore.append((poly, meth, vars(poly)[meth]))
            setattr(poly, meth, mul)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self):
        out = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        out[BRANCHES] = (self.branches, "count")
        out[POLY_MUL + ".calls"] = (self.calls[POLY_MUL], "count")
        out[ML_ERRORS] = (self.errors["special_fn.mittag_leffler"], "count")
        ml_calls = self.calls["special_fn.mittag_leffler"]
        phi_calls = self.calls["solution_verify.ClosedFormSolution.phi"]
        out[ML_DISTINCT] = (len(self.ml_args) / ml_calls if ml_calls else 0.0, "fraction")
        out[PHI_DISTINCT] = (len(self.phi_args) / phi_calls if phi_calls else 0.0, "fraction")
        out[INTEGRAND_CALLS] = (self.integrand_calls, "count")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{name},{t0:.9f},{t1:.9f}\n")
