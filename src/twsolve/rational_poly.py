"""Exact-rational multivariate polynomials and light rational functions.

Monomials are sorted tuples of (symbol, exponent) pairs; coefficients are
Fractions throughout so coefficient matching stays exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

Mono = tuple  # tuple of (symbol, exponent) pairs, sorted by symbol, exponents > 0

ONE_MONO: Mono = ()


def mono_mul(a: Mono, b: Mono) -> Mono:
    merged = dict(a)
    for sym, e in b:
        merged[sym] = merged.get(sym, 0) + e
    return tuple(sorted((s, e) for s, e in merged.items() if e != 0))


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_str(m: Mono) -> str:
    if not m:
        return "1"
    return "*".join(sym if e == 1 else f"{sym}^{e}" for sym, e in m)


def _mono_sort_key(m: Mono):
    return (-mono_degree(m), m)


def factor_str(c: Fraction, m: Mono) -> str:
    """The cleared factor c*m as logged; "1" when there is none."""
    return "*".join(([str(c)] if c != 1 else []) + ([mono_str(m)] if m else [])) or "1"


def rational_content(coeffs) -> Fraction:
    """Positive rational c such that every coeff/c is an integer and their
    gcd is 1; 1 when there are no coefficients."""
    num_gcd, den_lcm = 0, 1
    for c in coeffs:
        num_gcd = gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    return Fraction(num_gcd, den_lcm) if num_gcd else Fraction(1)


def monomial_content(monos, syms=None) -> Mono:
    """GCD monomial of `monos`, optionally restricted to `syms`."""
    common = None
    for m in monos:
        d = {s: e for s, e in m if syms is None or s in syms}
        common = d if common is None else \
            {s: min(e, d[s]) for s, e in common.items() if s in d}
        if not common:
            return ONE_MONO
    return tuple(sorted((common or {}).items()))


class Poly:
    """Multivariate polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self.terms[m] = c

    @classmethod
    def const(cls, c) -> "Poly":
        return cls({ONE_MONO: Fraction(c)})

    @classmethod
    def var(cls, sym: str, exp: int = 1) -> "Poly":
        if exp == 0:
            return cls.const(1)
        return cls({((sym, exp),): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and ONE_MONO in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms[ONE_MONO]

    def symbols(self) -> set:
        syms = set()
        for m in self.terms:
            for sym, _ in m:
                syms.add(sym)
        return syms

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            other = _coerce(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.canonical_key())

    def canonical_key(self):
        return tuple(sorted(self.terms.items()))

    def degree_in(self, sym: str) -> int:
        deg = 0
        for m in self.terms:
            for s, e in m:
                if s == sym:
                    deg = max(deg, e)
        return deg

    def as_univariate(self, sym: str) -> dict:
        """View as a polynomial in `sym`: map degree -> Poly in the other symbols."""
        out = {}
        for m, c in self.terms.items():
            d = 0
            rest = []
            for s, e in m:
                if s == sym:
                    d = e
                else:
                    rest.append((s, e))
            p = out.setdefault(d, Poly())
            rest_m = tuple(rest)
            p.terms[rest_m] = p.terms.get(rest_m, Fraction(0)) + c
        return {d: Poly(p.terms) for d, p in out.items() if not p.is_zero}

    def derivative(self, sym: str) -> "Poly":
        out = {}
        for m, c in self.terms.items():
            for i, (s, e) in enumerate(m):
                if s == sym:
                    rest = m[:i] + ((s, e - 1),) + m[i + 1:]
                    rest = tuple(p for p in rest if p[1] != 0)
                    out[rest] = out.get(rest, Fraction(0)) + c * e
        return Poly(out)

    def rational_content(self) -> Fraction:
        return rational_content(self.terms.values())

    def monomial_content(self, syms=None) -> Mono:
        return monomial_content(self.terms, syms)

    def divide_monomial(self, m: Mono) -> "Poly":
        out = {}
        div = dict(m)
        for mono, c in self.terms.items():
            red = dict(mono)
            for s, e in div.items():
                if red.get(s, 0) < e:
                    raise ValueError(f"monomial {mono_str(m)} does not divide")
                red[s] -= e
            out[tuple(sorted((s, e) for s, e in red.items() if e))] = c
        return Poly(out)

    def divide_const(self, c) -> "Poly":
        c = Fraction(c)
        return Poly({m: cc / c for m, cc in self.terms.items()})

    def leading_sign(self, key=_mono_sort_key) -> int:
        """Sign of the coefficient of the first monomial in `key` order."""
        if self.is_zero:
            return 0
        m = min(self.terms, key=key)
        return 1 if self.terms[m] > 0 else -1

    def primitive(self, syms=None, key=_mono_sort_key):
        """Return (normalized poly, cleared factor (coeff, mono)).

        Divides out rational content and the monomial content (in `syms`
        only, when given) and flips the sign so the coefficient of the first
        monomial in `key` order is positive.
        """
        if self.is_zero:
            return self, (Fraction(1), ONE_MONO)
        mono = self.monomial_content(syms)
        p = self.divide_monomial(mono)
        c = p.rational_content() * p.leading_sign(key)
        return p.divide_const(c), (c, mono)

    def try_divide(self, d: "Poly"):
        """Exact polynomial division: returns self/d if d divides exactly,
        else None."""
        if d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return Poly()
        p = Poly(dict(self.terms))
        lead_d = min(d.terms, key=_mono_sort_key)
        cd = d.terms[lead_d]
        dd = dict(lead_d)
        q = {}
        while not p.is_zero:
            lead_p = min(p.terms, key=_mono_sort_key)
            mp = dict(lead_p)
            if any(mp.get(s, 0) < e for s, e in dd.items()):
                return None
            qm = tuple(sorted((s, e - dd.get(s, 0)) for s, e in mp.items()
                              if e - dd.get(s, 0)))
            qc = p.terms[lead_p] / cd
            q[qm] = q.get(qm, Fraction(0)) + qc
            p = p - Poly({qm: qc}) * d
        return Poly(q)

    def substitute(self, vals: dict) -> "Poly":
        """Substitute exact rational values (or Polys) for some symbols;
        each power of a substituted symbol is formed once."""
        powers = {}
        out = {}
        for m, c in self.terms.items():
            term = Poly({tuple(p for p in m if p[0] not in vals): c})
            for p in m:
                if p[0] in vals:
                    if p not in powers:
                        v = vals[p[0]]
                        powers[p] = v ** p[1] if isinstance(v, Poly) else Fraction(v) ** p[1]
                    term = term * powers[p]
            for k, v in term.terms.items():
                out[k] = out.get(k, 0) + v
        return Poly(out)

    def eval(self, vals: dict):
        """Fully numeric evaluation; every symbol must be bound."""
        total = 0
        for m, c in self.terms.items():
            v = c
            for s, e in m:
                v = v * vals[s] ** e
            total = total + v
        return total

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_mono_sort_key):
            c = self.terms[m]
            body = mono_str(m)
            if not m:
                frag = str(abs(c))
            elif abs(c) == 1:
                frag = body
            else:
                frag = f"{abs(c)}*{body}"
            parts.append(("- " if c < 0 else "+ ") + frag)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def __repr__(self) -> str:
        return f"Poly({self})"


def _coerce(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {type(x)} to Poly")


class RationalFn:
    """Quotient of two Polys. Kept lightly normalized; equality is by
    cross-multiplication so canonical form is not required."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if den is None:
            den = Poly.const(1)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num, self.den = Poly(), Poly.const(1)
            return
        # cancel common monomial and rational content
        common = monomial_content((num.monomial_content(), den.monomial_content()))
        if common:
            num = num.divide_monomial(common)
            den = den.divide_monomial(common)
        c = den.rational_content() * den.leading_sign()
        num = num.divide_const(c)
        den = den.divide_const(c)
        # full cancellation when denominator is a constant times a monomial
        if len(den.terms) == 1:
            (m, c), = den.terms.items()
            try:
                num = num.divide_monomial(m).divide_const(c)
                den = Poly.const(1)
            except ValueError:
                pass
        self.num, self.den = num, den

    @classmethod
    def const(cls, c) -> "RationalFn":
        return cls(Poly.const(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFn.const(other)
        if isinstance(other, Poly):
            other = RationalFn(other)
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num.canonical_key(), self.den.canonical_key()))

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __mul__(self, other) -> "RationalFn":
        if isinstance(other, (int, Fraction, Poly)):
            other = RationalFn(_coerce(other))
        return RationalFn(self.num * other.num, self.den * other.den)

    def symbols(self) -> set:
        return self.num.symbols() | self.den.symbols()

    def substitute(self, vals: dict) -> "RationalFn":
        return RationalFn(self.num.substitute(vals), self.den.substitute(vals))

    def eval(self, vals: dict):
        return self.num.eval(vals) / self.den.eval(vals)

    def __str__(self) -> str:
        if self.den.is_constant and self.den.constant_value() == 1:
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if len(self.num.terms) > 1:
            num = f"({num})"
        if len(self.den.terms) > 1:
            den = f"({den})"
        return f"{num} / {den}"

    def __repr__(self) -> str:
        return f"RationalFn({self})"
