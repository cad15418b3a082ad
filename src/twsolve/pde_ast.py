"""Expression representation and text front-end for PDE definitions.

An Expr is a normalized sum of terms; each term is an exact rational
coefficient times a monomial in parameter symbols and derivative-of-u
factors. Derivatives of products/powers are pushed onto atomic u-factors
by the product rule, so a normalized Expr never contains an unexpanded
derivative operator. In fractional mode derivative orders count integer
multiples of the single order symbol alpha.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

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
# terms and expressions

# A derivative factor is (multi, power): multi is a sorted tuple of
# (variable, order) pairs with order > 0; the empty tuple is u itself.
# Params is a sorted tuple of (symbol, exponent) pairs.

@dataclass(frozen=True)
class Term:
    coeff: Fraction
    params: tuple
    factors: tuple

    def signature(self):
        return (self.params, self.factors)

    def total_deriv_order(self) -> int:
        return sum(p * sum(o for _, o in multi) for multi, p in self.factors)


def _merge_powers(pairs):
    acc = {}
    for key, e in pairs:
        acc[key] = acc.get(key, 0) + e
    return tuple(sorted((k, e) for k, e in acc.items() if e != 0))


def _term_sort_key(t: Term):
    return (-t.total_deriv_order(), t.factors, t.params)


@dataclass(frozen=True)
class Expr:
    terms: tuple = ()

    @classmethod
    def from_terms(cls, terms) -> "Expr":
        acc = {}
        for t in terms:
            sig = t.signature()
            acc[sig] = acc.get(sig, Fraction(0)) + t.coeff
        out = [Term(c, p, f) for (p, f), c in acc.items() if c != 0]
        out.sort(key=_term_sort_key)
        return cls(tuple(out))

    @classmethod
    def number(cls, c) -> "Expr":
        c = Fraction(c)
        if c == 0:
            return cls()
        return cls((Term(c, (), ()),))

    @classmethod
    def param(cls, sym: str) -> "Expr":
        return cls((Term(Fraction(1), ((sym, 1),), ()),))

    @classmethod
    def u_deriv(cls, multi: dict) -> "Expr":
        m = tuple(sorted((v, o) for v, o in multi.items() if o))
        return cls((Term(Fraction(1), (), ((m, 1),)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Expr") -> "Expr":
        return Expr.from_terms(self.terms + other.terms)

    def __neg__(self) -> "Expr":
        return Expr(tuple(Term(-t.coeff, t.params, t.factors) for t in self.terms))

    def __sub__(self, other: "Expr") -> "Expr":
        return self + (-other)

    def __mul__(self, other: "Expr") -> "Expr":
        out = []
        for t1 in self.terms:
            for t2 in other.terms:
                out.append(Term(
                    t1.coeff * t2.coeff,
                    _merge_powers(t1.params + t2.params),
                    _merge_powers(t1.factors + t2.factors),
                ))
        return Expr.from_terms(out)

    def __pow__(self, n: int) -> "Expr":
        if n < 1:
            raise ValueError("powers must be >= 1")
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def scale(self, c) -> "Expr":
        c = Fraction(c)
        if c == 0:
            return Expr()
        return Expr(tuple(Term(t.coeff * c, t.params, t.factors) for t in self.terms))

    def variables(self) -> set:
        return {v for t in self.terms for multi, _ in t.factors for v, _ in multi}


def differentiate(e: Expr, var: str) -> Expr:
    """One derivative unit with respect to `var` (one alpha unit in
    fractional mode), pushed onto atomic u-factors by the product rule."""
    out = []
    for t in e.terms:
        for i, (multi, power) in enumerate(t.factors):
            bumped = _merge_powers(multi + ((var, 1),))
            rest = t.factors[:i] + t.factors[i + 1:]
            new_factors = _merge_powers(rest + ((multi, power - 1), (bumped, 1)))
            out.append(Term(t.coeff * power, t.params, new_factors))
    return Expr.from_terms(out)


def expand_derivatives(e: Expr, multi: dict = None) -> Expr:
    """Apply the derivative multi-index `multi` to `e`, expanding products.

    Normalized Exprs carry derivatives only on atomic u-factors, so with no
    multi-index this is the identity (normalization is idempotent).
    """
    if not multi:
        return Expr.from_terms(e.terms)
    for var in sorted(multi):
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
    lhs_minus_rhs: Expr
    fractional: bool = False
    alpha_symbol: str = "alpha"

    def __post_init__(self):
        declared = set(self.variables)
        for v in self.lhs_minus_rhs.variables():
            if v not in declared:
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
    def parse_expr(self) -> Expr:
        sign = 1
        if self.peek()[1] == "-":
            self.next()
            sign = -1
        e = self.parse_term().scale(sign)
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            t = self.parse_term()
            e = e + (t if op == "+" else -t)
        return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while self.peek()[1] == "*":
            self.next()
            e = e * self.parse_factor()
        return e

    def parse_factor(self) -> Expr:
        e = self.parse_primary()
        if self.peek()[1] == "^":
            save = self.i
            self.next()
            kind, val, pos = self.next()
            if kind == "int":
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

    def parse_primary(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "int":
            num = int(val)
            if self.peek()[1] == "/" :
                self.next()
                dkind, dval, dpos = self.next()
                if dkind != "int":
                    raise PdeSyntaxError("expected integer denominator", dpos, self.text)
                return Expr.number(Fraction(num, int(dval)))
            return Expr.number(num)
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
                return Expr.u_deriv(multi)
            if val in self.parameters:
                return Expr.param(val)
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


def expr_to_str(e: Expr, variables, fractional=False) -> str:
    if e.is_zero:
        return "0"
    chunks = []
    for t in e.terms:
        parts = []
        c = abs(t.coeff)
        if c != 1 or (not t.params and not t.factors):
            parts.append(str(c))
        for sym, exp in t.params:
            parts.append(sym if exp == 1 else f"{sym}^{exp}")
        for multi, power in t.factors:
            parts.append(_factor_str(multi, power, variables, fractional))
        chunks.append(("- " if t.coeff < 0 else "+ ") + "*".join(parts))
    s = " ".join(chunks)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def print_pde(p: PdeDefinition) -> str:
    head = f"pde {p.name} vars({','.join(p.variables)}) params({','.join(p.parameters)})"
    if p.fractional:
        head += " frac(alpha)"
    return f"{head} : {expr_to_str(p.lhs_minus_rhs, p.variables, p.fractional)} = 0"
