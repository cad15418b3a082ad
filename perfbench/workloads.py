"""Seeded op generation for the three benchmark workloads.

An op is one argv list for ``twsolve.cli.main`` plus what its output check
needs.  Ops come in rounds.  A run stops only at a round boundary, so every
run of a workload has the same op mix, and the seed only chooses the order,
the symbolic parameters and the figure rows that are checked.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("symbolic", "figure", "fractional")

# Inline fractional DSLs of the three registry equations (as in the
# registry), passed without --params so only the symbolic stages run.
SWW_FRAC = ("pde sww vars(x,y,t) params(p,q) frac(alpha) : "
            "u_{x:1,t:1} + u_{x:2} = u_{x:3,y:1} "
            "+ p*u_{x:1}*u_{x:1,t:1} + q*u_{t:1}*u_{x:2}")
KP_FRAC = ("pde kp vars(x,y,t) params() frac(alpha) : "
           "(u_{t:1} + 6*u*u_{x:1} + u_{x:3})_{x:1} = u_{y:2}")
BSQ_FRAC = ("pde boussinesq4 vars(x,t) params() frac(alpha) : "
            "u_{t:2} = u_{x:2} + 3*(u^2)_{x:2} + u_{x:4}")

KDV = "pde kdv vars(x,t) params() : u_t + u*u_x + u_xxx = 0"
BURGERS = "pde burgers vars(x,t) params() : u_t + u*u_x = u_xx"
BBM = "pde bbm vars(x,t) params() : u_t + u_x + u*u_x - u_xxt = 0"
ZK = "pde zk vars(x,y,t) params() : u_t + u*u_x + u_xxx + u_xyy = 0"
KAWAHARA = "pde kawahara vars(x,t) params() : u_t + u*u_x + u_xxx - u_xxxxx = 0"
KDV5 = "pde kdv5 vars(x,t) params() : u_t + u*u_x + u_xxxxx = 0"

# Kawahara's tanh-method branch exists only at k^2 = 1/52.
KAWAHARA_K = (1 / 52) ** 0.5

FIGURE_ALPHAS = (0.7, 0.8, 0.9, 1.0)
# Default x-grid and t-spacing (0.1) of `twsolve figure`; only the t-range
# is shortened, from [0, 5] to [0, 0.1].
FIGURE_XGRID = (-10.0, 10.0, 201)
FIGURE_TGRID = "0:0.1:2"
FIGURE_TVALUES = (0.0, 0.1)
# Figure-caption parameters (the CLI registry defaults) and method family.
FIGURE_PARAMS = {
    2: {"k": 1.0, "m": 1.0, "c": 3.0, "p": 1.0, "q": 1.0},
    4: {"k": 1.0, "m": 1.0, "c": 3.68},
    6: {"k": 1.0, "c": 1.0},
}

FRACTIONAL_KEYS = ("sww", "kp", "boussinesq4")
FRACTIONAL_ALPHAS = (0.6, 0.7, 0.8, 0.9)
FRACTIONAL_KINDS = (("verify", -1), ("verify", 1), ("solve", -1), ("solve", 1))

ROWS_CHECKED_PER_FIGURE = 4


@dataclass(frozen=True)
class Op:
    workload: str
    kind: str                       # corpus entry, figure n or command name
    argv: tuple
    info: dict = field(default_factory=dict, compare=False, hash=False)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _rand_q(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    """A nonzero rational in [lo, hi] with denominator dividing den."""
    while True:
        q = Fraction(rng.randint(lo * den, hi * den), den)
        if q != 0:
            return q


def _symbolic_entry(name: str, rng: random.Random) -> Op:
    params = {}
    if name in ("sww", "kp", "boussinesq4"):
        argv = ("solve", name)
    elif name.endswith("_frac"):
        dsl, times = {"sww_frac": (SWW_FRAC, 1), "kp_frac": (KP_FRAC, 2),
                      "boussinesq4_frac": (BSQ_FRAC, 2)}[name]
        argv = ("solve", dsl, "--method", "subeq", "--integrate", str(times))
    else:
        dsl = {"kdv": KDV, "burgers": BURGERS, "bbm": BBM, "zk": ZK,
               "kawahara": KAWAHARA, "kdv5": KDV5}[name]
        params["k"] = KAWAHARA_K if name == "kawahara" else _rand_q(rng, 1, 2, 4)
        if name == "zk":
            params["m"] = _rand_q(rng, 1, 2, 4)
        params["c"] = _rand_q(rng, -3, 3, 4)
        text = ",".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={_frac_str(v)}"
                        for k, v in params.items())
        argv = ("solve", dsl, "--params", text)
    return Op("symbolic", name, argv, {"params": params})


SYMBOLIC_CORPUS = ("sww", "kp", "boussinesq4",
                   "sww_frac", "kp_frac", "boussinesq4_frac",
                   "kdv", "burgers", "bbm", "zk", "kawahara", "kdv5")


def rounds(workload: str, seed: int, out_dir: str = "."):
    """Endless generator of rounds (lists of Op) for one workload.  A round
    holds every combination of the workload's op kinds and draws once
    (symbolic: the 12 corpus entries; figure: 3 figures x 4 alphas;
    fractional: 2 commands x 2 sigmas x 3 equations x 4 alphas), in a
    fresh seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "symbolic":
            ops = [_symbolic_entry(name, rng) for name in SYMBOLIC_CORPUS]
        elif workload == "figure":
            ops = []
            for n in FIGURE_PARAMS:
                for alpha in FIGURE_ALPHAS:
                    argv = ("figure", str(n), "--alphas", f"{alpha:g}",
                            "--tgrid", FIGURE_TGRID, "--out", f"{out_dir}/fig{n}.csv")
                    rows = rng.sample(range(FIGURE_XGRID[2] * len(FIGURE_TVALUES)),
                                      ROWS_CHECKED_PER_FIGURE)
                    ops.append(Op("figure", f"figure{n}", argv,
                                  {"n": n, "alpha": alpha,
                                   "csv": f"{out_dir}/fig{n}_alpha{alpha:g}.csv",
                                   "rows": tuple(sorted(rows))}))
        else:
            ops = [Op("fractional", command,
                      (command, key, "--method", "subeq", "--alpha", f"{alpha:g}",
                       "--sigma", str(sigma)),
                      {"key": key, "alpha": alpha, "sigma": sigma})
                   for command, sigma in FRACTIONAL_KINDS
                   for key in FRACTIONAL_KEYS for alpha in FRACTIONAL_ALPHAS]
        rng.shuffle(ops)
        yield ops


def warmup_op(workload: str, out_dir: str = ".") -> Op:
    """A fixed op of the workload's own kind, run once before timing."""
    if workload == "symbolic":
        return Op("symbolic", "sww", ("solve", "sww"), {"params": {}})
    if workload == "figure":
        return Op("figure", "figure2",
                  ("figure", "2", "--alphas", "0.8", "--tgrid", FIGURE_TGRID,
                   "--out", f"{out_dir}/warm.csv"),
                  {"n": 2, "alpha": 0.8, "csv": f"{out_dir}/warm_alpha0.8.csv",
                   "rows": (0, 200, 201, 401)})
    return Op("fractional", "verify",
              ("verify", "kp", "--method", "subeq", "--alpha", "0.8", "--sigma", "-1"),
              {"key": "kp", "alpha": 0.8, "sigma": -1})


def xi_values(op: Op):
    """The xi values an op's generated inputs ask the program to evaluate the
    solution at: the figure (x, t) grid, or the default residual grid."""
    if op.workload == "figure":
        p = FIGURE_PARAMS[op.info["n"]]
        lo, hi, nx = FIGURE_XGRID
        xs = [lo + (hi - lo) * j / (nx - 1) for j in range(nx)]
        return [p["k"] * x + p["c"] * t for t in FIGURE_TVALUES for x in xs]
    if op.workload == "fractional":
        lo, hi, n = 0.5, 4.0, 15
    elif op.info["params"] or op.kind in ("sww", "kp", "boussinesq4"):
        lo, hi, n = -5.0, 5.0, 1001
    else:
        return []
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def xi_distinct_share(ops, key=None) -> float:
    """Distinct xi per op divided by xi evaluated per op, pooled over ops.
    With key=abs, xi and -xi count as one (phi is evaluated as an odd
    extension)."""
    total = distinct = 0
    for op in ops:
        xs = xi_values(op)
        total += len(xs)
        distinct += len(set(map(key, xs) if key else xs))
    return distinct / total if total else 1.0
