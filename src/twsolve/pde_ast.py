"""Jet-symbol polynomials and the text front-end for PDE definitions.

A PDE is a `Poly` with exact rational coefficients over parameter symbols
and jet symbols.  A jet symbol names u itself (`u`) or one derivative of it
(`u_{t:1,x:2}`, variables sorted); DSL parameters have no underscore, so
the two never collide.  Derivatives of products and powers are pushed onto
the jets by the product rule, so a definition never holds an unexpanded
derivative operator.  In fractional mode derivative orders count integer
multiples of the single order symbol alpha.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .rational_poly import Poly, mono_str

# ---------------------------------------------------------------------------
# errors

class PdeSyntaxError(ValueError):
    def __init__(self, message: str, pos: int = -1, text: str = ""):
        self.pos = pos
        if pos >= 0 and text:
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class UndeclaredSymbolError(PdeSyntaxError):
    pass


class MixedOrderError(PdeSyntaxError):
    pass


# ---------------------------------------------------------------------------
# jet symbols

def jet(multi: dict) -> str:
    """Jet symbol of the derivative multi-index `multi` (variable -> order)."""
    pairs = sorted((v, o) for v, o in multi.items() if o)
    return "u_{%s}" % ",".join(f"{v}:{o}" for v, o in pairs) if pairs else "u"


@lru_cache(maxsize=4096)
def jet_multi(sym: str):
    """Sorted (variable, order) pairs of a jet symbol; None for a parameter."""
    if sym == "u":
        return ()
    if not sym.startswith("u_{"):
        return None
    return tuple((v, int(o)) for v, o in (p.split(":") for p in sym[3:-1].split(",")))


def jet_order(sym: str):
    """Total derivative order of a jet symbol; None for a parameter."""
    multi = jet_multi(sym)
    return None if multi is None else sum(o for _, o in multi)


def split_mono(m) -> tuple:
    """(parameter part, jet part) of a monomial, each a monomial."""
    return (tuple(p for p in m if jet_multi(p[0]) is None),
            tuple(p for p in m if jet_multi(p[0]) is not None))


@lru_cache(maxsize=4096)
def term_key(m) -> tuple:
    """Print order of a monomial: highest total derivative order first, then
    by its sorted (derivative multi-index, power) factors, then by its
    parameters.  Returns (-order, factors, parameters)."""
    params, jets = split_mono(m)
    factors = tuple(sorted((jet_multi(s), e) for s, e in jets))
    return (-sum(e * jet_order(s) for s, e in jets), factors, params)


def jet_variables(e: Poly) -> set:
    """Variables that some jet of `e` is differentiated by."""
    return {v for s in e.symbols() for v, _ in jet_multi(s) or ()}


def differentiate(e: Poly, var: str) -> Poly:
    """Total derivative by one unit of `var` (one alpha unit in fractional
    mode): the sum over jets J of dP/dJ * u_{J+var}."""
    out = Poly()
    for sym in sorted(e.symbols()):
        multi = jet_multi(sym)
        if multi is not None:
            bumped = dict(multi)
            bumped[var] = bumped.get(var, 0) + 1
            out = out + e.derivative(sym) * Poly.var(jet(bumped))
    return out


def expand_derivatives(e: Poly, multi: dict = None) -> Poly:
    """Apply the derivative multi-index `multi` to `e`, expanding products."""
    for var in sorted(multi or {}):
        for _ in range(multi[var]):
            e = differentiate(e, var)
    return e


# ---------------------------------------------------------------------------
# PDE definition

@dataclass(frozen=True)
class PdeDefinition:
    name: str
    variables: tuple
    parameters: tuple
    lhs_minus_rhs: Poly
    fractional: bool = False
    alpha_symbol: str = "alpha"

    def __post_init__(self):
        for v in jet_variables(self.lhs_minus_rhs):
            if v not in self.variables:
                raise UndeclaredSymbolError(f"undeclared variable {v!r}")


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9]*)
  | (?P<deriv>_(?:[a-z]+|\{[a-z0-9:,\s]+\}))
  | (?P<op>[()*+^/=:,-])
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise PdeSyntaxError(f"unexpected character {text[pos]!r}", pos, text)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = ()
        self.parameters = ()
        self.fractional = False

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise PdeSyntaxError(f"expected {value!r}, found {val!r}", pos, self.text)
        return val

    def error(self, msg, cls=PdeSyntaxError):
        raise cls(msg, self.peek()[2], self.text)

    # -- header ------------------------------------------------------------
    def parse_definition(self) -> PdeDefinition:
        self.expect("pde")
        kind, name, pos = self.next()
        if kind != "name":
            raise PdeSyntaxError("expected a pde name", pos, self.text)
        self.expect("vars")
        self.variables = tuple(self._name_list())
        for v in self.variables:
            if v not in ("x", "y", "t"):
                self.error(f"variables must be among x, y, t; got {v!r}")
        self.expect("params")
        self.parameters = tuple(self._name_list())
        if self.peek()[1] == "frac":
            self.next()
            self.expect("(")
            self.expect("alpha")
            self.expect(")")
            self.fractional = True
        self.expect(":")
        lhs = self.parse_expr()
        self.expect("=")
        rhs = self.parse_expr()
        if self.peek()[0] != "eof":
            self.error(f"trailing input {self.peek()[1]!r}")
        return PdeDefinition(name, self.variables, self.parameters,
                             lhs - rhs, self.fractional)

    def _name_list(self):
        self.expect("(")
        names = []
        if self.peek()[1] != ")":
            while True:
                kind, val, pos = self.next()
                if kind != "name":
                    raise PdeSyntaxError("expected a symbol name", pos, self.text)
                names.append(val)
                if self.peek()[1] == ",":
                    self.next()
                else:
                    break
        self.expect(")")
        return names

    # -- expressions -------------------------------------------------------
    def parse_expr(self) -> Poly:
        sign = 1
        if self.peek()[1] == "-":
            self.next()
            sign = -1
        e = self.parse_term() * sign
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            t = self.parse_term()
            e = e + (t if op == "+" else -t)
        return e

    def parse_term(self) -> Poly:
        e = self.parse_factor()
        while self.peek()[1] == "*":
            self.next()
            e = e * self.parse_factor()
        return e

    def parse_factor(self) -> Poly:
        e = self.parse_primary()
        if self.peek()[1] == "^":
            save = self.i
            self.next()
            kind, val, pos = self.next()
            if kind == "int":
                if int(val) < 1:
                    raise PdeSyntaxError("exponent must be at least 1", pos, self.text)
                e = e ** int(val)
            else:
                self.i = save
        return e

    def _parse_deriv_suffix(self, payload: str, pos: int) -> dict:
        body = payload[1:]
        if body.startswith("{"):
            multi = {}
            for entry in body[1:-1].split(","):
                entry = entry.strip()
                if not entry:
                    continue
                if ":" not in entry:
                    raise PdeSyntaxError(f"bad derivative entry {entry!r}", pos, self.text)
                var, order = entry.split(":")
                multi[var.strip()] = multi.get(var.strip(), 0) + int(order)
        else:
            multi = {}
            for ch in body:
                multi[ch] = multi.get(ch, 0) + 1
        for v in multi:
            if v not in self.variables:
                raise UndeclaredSymbolError(f"undeclared variable {v!r}", pos, self.text)
        # optional ^a<n> fractional-order multiplier
        if self.peek()[1] == "^" and self.tokens[self.i + 1][0] == "name":
            nxt = self.tokens[self.i + 1][1]
            m = re.fullmatch(r"a(\d+)", nxt)
            if m:
                if not self.fractional:
                    raise MixedOrderError(
                        "fractional order marker in a non-fractional pde", pos, self.text)
                self.next()
                self.next()
                n = int(m.group(1))
                multi = {v: o * n for v, o in multi.items()}
        return multi

    def parse_primary(self) -> Poly:
        kind, val, pos = self.next()
        if kind == "int":
            num = int(val)
            if self.peek()[1] == "/" :
                self.next()
                dkind, dval, dpos = self.next()
                if dkind != "int":
                    raise PdeSyntaxError("expected integer denominator", dpos, self.text)
                return Poly.const(Fraction(num, int(dval)))
            return Poly.const(num)
        if val == "(":
            e = self.parse_expr()
            self.expect(")")
            if self.peek()[0] == "deriv":
                dkind, dval, dpos = self.next()
                multi = self._parse_deriv_suffix(dval, dpos)
                e = expand_derivatives(e, multi)
            return e
        if kind == "name":
            if val == "u":
                multi = {}
                if self.peek()[0] == "deriv":
                    dkind, dval, dpos = self.next()
                    multi = self._parse_deriv_suffix(dval, dpos)
                return Poly.var(jet(multi))
            if val in self.parameters:
                return Poly.var(val)
            raise UndeclaredSymbolError(f"undeclared parameter {val!r}", pos, self.text)
        raise PdeSyntaxError(f"unexpected token {val!r}", pos, self.text)


def parse_pde(text: str) -> PdeDefinition:
    return _Parser(text).parse_definition()


# ---------------------------------------------------------------------------
# printer

def _factor_str(multi, power, variables, fractional) -> str:
    def var_key(pair):
        return variables.index(pair[0]) if pair[0] in variables else len(variables)

    if not multi:
        body = "u"
    elif fractional or any(len(v) > 1 for v, _ in multi):
        inner = ",".join(f"{v}:{o}" for v, o in sorted(multi, key=var_key))
        body = "u_{%s}" % inner
    else:
        letters = "".join(v * o for v, o in sorted(multi, key=var_key))
        body = f"u_{letters}"
    if power > 1:
        body += f"^{power}"
    return body


def expr_to_str(e: Poly, variables, fractional=False) -> str:
    if e.is_zero:
        return "0"
    chunks = []
    for m in sorted(e.terms, key=term_key):
        _, factors, params = term_key(m)
        c = e.terms[m]
        parts = [str(abs(c))] if abs(c) != 1 or not m else []
        if params:
            parts.append(mono_str(params))
        for multi, power in factors:
            parts.append(_factor_str(multi, power, variables, fractional))
        chunks.append(("- " if c < 0 else "+ ") + "*".join(parts))
    s = " ".join(chunks)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def print_pde(p: PdeDefinition) -> str:
    head = f"pde {p.name} vars({','.join(p.variables)}) params({','.join(p.parameters)})"
    if p.fractional:
        head += " frac(alpha)"
    return f"{head} : {expr_to_str(p.lhs_minus_rhs, p.variables, p.fractional)} = 0"
