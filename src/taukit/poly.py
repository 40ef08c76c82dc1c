"""Exact truncated graded polynomial ring over the rationals.

Two variable families are supported, printed ``t1, t2, ...`` and
``b1, b2, ...``, with weighted degree wdeg(t_k) = wdeg(b_k) = k.  A
GradedPoly stores only monomials of total weighted degree <= cap, so the
arithmetic happens in the quotient of the full polynomial ring by the
ideal of terms above the cap.  Coefficients are exact rationals
throughout; nothing in this module rounds.

Optionally a polynomial carries per-family caps as well.  Monomials whose
t-weight (or b-weight) exceeds the family cap are likewise discarded; the
surviving monomials again form a quotient ring, which keeps box-truncated
computations exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _iproduct
from math import comb
from typing import Iterable, NamedTuple

Scalar = Fraction

FAMILY_T = "t"
FAMILY_B = "b"
FAMILIES = (FAMILY_T, FAMILY_B)


class Var(NamedTuple):
    """A single time variable; the weighted degree equals ``index``."""

    family: str
    index: int


def tvar(k: int) -> Var:
    if k < 1:
        raise ValueError("variable index must be >= 1")
    return Var(FAMILY_T, k)


def bvar(k: int) -> Var:
    if k < 1:
        raise ValueError("variable index must be >= 1")
    return Var(FAMILY_B, k)


# A monomial is a sorted tuple of (Var, exponent) pairs with exponent >= 1.
Monomial = tuple

ONE_MONO: Monomial = ()


def mono(pairs: Iterable[tuple[Var, int]]) -> Monomial:
    """Canonical monomial from (variable, exponent) pairs."""
    acc: dict[Var, int] = {}
    for v, e in pairs:
        if e < 0:
            raise ValueError("negative exponent")
        if e:
            acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for v, e in m2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


_DEGREES: dict[Monomial, tuple[int, int, int]] = {}


def _degrees(m: Monomial) -> tuple[int, int, int]:
    """(total, t-weight, b-weight) of a monomial, memoized."""
    got = _DEGREES.get(m)
    if got is None:
        t = sum(v.index * e for v, e in m if v.family == FAMILY_T)
        b = sum(v.index * e for v, e in m if v.family == FAMILY_B)
        got = (t + b, t, b)
        _DEGREES[m] = got
    return got


def mono_wdeg(m: Monomial) -> int:
    return _degrees(m)[0]


def mono_famdeg(m: Monomial, family: str) -> int:
    return _degrees(m)[1] if family == FAMILY_T else _degrees(m)[2]


def format_monomial(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        name = f"{v.family}{v.index}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _min_cap(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class GradedPoly:
    """Immutable truncated polynomial; do not mutate ``terms`` after creation."""

    __slots__ = ("cap", "fam_caps", "terms")

    def __init__(self, cap, terms=None, fam_caps=(None, None)):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.cap = cap
        self.fam_caps = fam_caps
        tcap, bcap = fam_caps
        kept: dict[Monomial, Fraction] = {}
        for m, c in (terms or {}).items():
            if not c:
                continue
            w, t, b = _degrees(m)
            if w > cap:
                continue
            if tcap is not None and t > tcap:
                continue
            if bcap is not None and b > bcap:
                continue
            kept[m] = Fraction(c)
        self.terms = kept

    @classmethod
    def _raw(cls, cap, terms, fam_caps):
        """Internal: wrap an already-truncated, zero-free terms dict."""
        self = object.__new__(cls)
        self.cap = cap
        self.fam_caps = fam_caps
        self.terms = terms
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(cap: int, fam_caps=(None, None)) -> "GradedPoly":
        return GradedPoly(cap, {}, fam_caps)

    @staticmethod
    def constant(value, cap: int, fam_caps=(None, None)) -> "GradedPoly":
        return GradedPoly(cap, {ONE_MONO: Fraction(value)}, fam_caps)

    @staticmethod
    def variable(v: Var, cap: int, fam_caps=(None, None)) -> "GradedPoly":
        return GradedPoly(cap, {mono([(v, 1)]): Fraction(1)}, fam_caps)

    # -- ring structure ----------------------------------------------------

    def _join_caps(self, other: "GradedPoly") -> tuple[int, tuple]:
        cap = min(self.cap, other.cap)
        fc = (
            _min_cap(self.fam_caps[0], other.fam_caps[0]),
            _min_cap(self.fam_caps[1], other.fam_caps[1]),
        )
        return cap, fc

    def __add__(self, other):
        if not isinstance(other, GradedPoly):
            other = GradedPoly.constant(other, self.cap, self.fam_caps)
        cap, fc = self._join_caps(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        if (cap, fc) == (self.cap, self.fam_caps) == (other.cap, other.fam_caps):
            return GradedPoly._raw(cap, {m: c for m, c in acc.items() if c}, fc)
        return GradedPoly(cap, acc, fc)

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly(self.cap, {m: -c for m, c in self.terms.items()}, self.fam_caps)

    def __sub__(self, other):
        if not isinstance(other, GradedPoly):
            other = GradedPoly.constant(other, self.cap, self.fam_caps)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "GradedPoly":
        value = Fraction(value)
        return GradedPoly(self.cap, {m: c * value for m, c in self.terms.items()}, self.fam_caps)

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            return self.scale(other)
        cap, fc = self._join_caps(other)
        tcap, bcap = fc
        acc: dict[Monomial, Fraction] = {}
        # degrees add under multiplication, so filtering needs no product degrees
        a, b = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        bitems = [(m, *_degrees(m), c) for m, c in b.items()]
        for m1, c1 in a.items():
            w1, t1, b1 = _degrees(m1)
            for m2, w2, t2, b2, c2 in bitems:
                if w1 + w2 > cap:
                    continue
                if tcap is not None and t1 + t2 > tcap:
                    continue
                if bcap is not None and b1 + b2 > bcap:
                    continue
                m = mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return GradedPoly._raw(cap, {m: c for m, c in acc.items() if c}, fc)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, GradedPoly):
            return self.terms == other.terms
        if not self.terms:
            return Fraction(other) == 0
        return self.terms == {ONE_MONO: Fraction(other)}

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "<GradedPoly 0>"
        body = " + ".join(
            f"{c}*{format_monomial(m)}" for m, c in sorted(self.terms.items(), key=lambda kv: (mono_wdeg(kv[0]), kv[0]))
        )
        return f"<GradedPoly {body}>"

    # -- queries -----------------------------------------------------------

    def coeff(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get(ONE_MONO, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def retruncate(self, cap: int, fam_caps=None) -> "GradedPoly":
        return GradedPoly(min(cap, self.cap), self.terms, fam_caps or self.fam_caps)


def lift(p, cap: int, fam_caps=(None, None)) -> GradedPoly:
    """A GradedPoly or a scalar as a GradedPoly under the given caps."""
    if isinstance(p, GradedPoly):
        return GradedPoly(cap, p.terms, fam_caps)
    return GradedPoly.constant(p, cap, fam_caps)


def weighted_sum(pieces, cap: int, fam_caps=(None, None)) -> GradedPoly:
    """sum of c * p over the (scalar c, GradedPoly p) pairs, under the given caps."""
    acc: dict[Monomial, Fraction] = {}
    for c, p in pieces:
        for m, coef in p.terms.items():
            acc[m] = acc.get(m, 0) + c * coef
    return GradedPoly(cap, acc, fam_caps)


# -- spec operations --------------------------------------------------------


def arith(p: GradedPoly, q: GradedPoly, kind: str, cap: int) -> GradedPoly:
    """Exact add/sub/mul; the result cap is min(cap, p.cap, q.cap)."""
    if kind == "add":
        r = p + q
    elif kind == "sub":
        r = p - q
    elif kind == "mul":
        r = p * q
    else:
        raise ValueError(f"unknown arithmetic kind {kind!r}")
    return r.retruncate(cap)


def derivative(p: GradedPoly, v: Var) -> GradedPoly:
    """Formal partial derivative; the validity caps drop by wdeg(v)."""
    acc: dict[Monomial, Fraction] = {}
    for m, c in p.terms.items():
        d = dict(m)
        e = d.get(v)
        if not e:
            continue
        if e == 1:
            del d[v]
        else:
            d[v] = e - 1
        acc[tuple(sorted(d.items()))] = c * e
    cap = max(p.cap - v.index, 0)
    tcap, bcap = p.fam_caps
    if v.family == FAMILY_T and tcap is not None:
        tcap = max(tcap - v.index, 0)
    if v.family == FAMILY_B and bcap is not None:
        bcap = max(bcap - v.index, 0)
    return GradedPoly(cap, acc, (tcap, bcap))


def _nilpotent_series(p: GradedPoly, coeffs: list[Fraction]) -> GradedPoly:
    """sum coeffs[k] * p**k for a p with zero constant term (finite sum)."""
    out = GradedPoly.constant(coeffs[0], p.cap, p.fam_caps)
    power = GradedPoly.constant(1, p.cap, p.fam_caps)
    for k in range(1, len(coeffs)):
        power = power * p
        if power.is_zero():
            break
        if coeffs[k]:
            out = out + power.scale(coeffs[k])
    return out


def exp_series(p: GradedPoly) -> GradedPoly:
    """Truncated exp; requires constant term 0."""
    if p.constant_term() != 0:
        raise ValueError("exp requires zero constant term")
    coeffs = [Fraction(1)]
    for k in range(1, p.cap + 1):
        coeffs.append(coeffs[-1] / k)
    return _nilpotent_series(p, coeffs)


def log_series(p: GradedPoly) -> GradedPoly:
    """Truncated log; requires constant term 1."""
    if p.constant_term() != 1:
        raise ValueError("log requires constant term 1")
    x = p - 1
    coeffs = [Fraction(0)]
    for k in range(1, p.cap + 1):
        coeffs.append(Fraction((-1) ** (k + 1), k))
    return _nilpotent_series(x, coeffs)


def exp_log(p: GradedPoly, direction: str) -> GradedPoly:
    if direction == "exp":
        return exp_series(p)
    if direction == "log":
        return log_series(p)
    raise ValueError(f"unknown direction {direction!r}")


def inverse(p: GradedPoly) -> GradedPoly:
    """Multiplicative inverse; requires a nonzero constant term."""
    c = p.constant_term()
    if c == 0:
        raise ValueError("inverse requires nonzero constant term")
    x = p.scale(Fraction(1) / c) - 1
    coeffs = [Fraction((-1) ** k) for k in range(p.cap + 1)]
    return _nilpotent_series(x, coeffs).scale(Fraction(1) / c)


def hirota_D(f: GradedPoly, g: GradedPoly, alpha: Iterable[tuple[Var, int]]) -> GradedPoly:
    """Hirota derivative D^alpha f.g = [d_y^alpha f(x+y) g(x-y)] at y=0.

    Expanded by the Leibniz rule:
    D^a f.g = sum_{b<=a} (-1)^{|a-b|} C(a,b) (d^b f)(d^{a-b} g).
    """
    pairs = [(v, e) for v, e in alpha if e]
    if not pairs:
        return f * g
    vars_, exps = zip(*pairs)
    total = None
    for beta in _iproduct(*[range(e + 1) for e in exps]):
        df, dg = f, g
        for v, b, e in zip(vars_, beta, exps):
            for _ in range(b):
                df = derivative(df, v)
            for _ in range(e - b):
                dg = derivative(dg, v)
        sign = (-1) ** (sum(exps) - sum(beta))
        weight = 1
        for b, e in zip(beta, exps):
            weight *= comb(e, b)
        term = (df * dg).scale(sign * weight)
        total = term if total is None else total + term
    return total


def coeff(p: GradedPoly, m: Monomial) -> Fraction:
    """Exact coefficient of a monomial; 0 if absent."""
    return p.coeff(m)


# -- exact scalar helpers -----------------------------------------------------


def _int_nth_root(n: int, k: int) -> int | None:
    """Exact k-th root of a non-negative integer, or None if not a power."""
    if n < 0:
        return None
    if n in (0, 1) or k == 1:
        return n
    lo, hi = 0, 1 << (n.bit_length() // k + 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


def rational_nth_root(x: Fraction, k: int) -> Fraction | None:
    """Exact positive k-th root of a rational, or None if irrational."""
    x = Fraction(x)
    if x < 0:
        return None
    num = _int_nth_root(x.numerator, k)
    den = _int_nth_root(x.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def rational_pow(base: Fraction, exponent: Fraction) -> Fraction:
    """Exact base**exponent; raises if the value is not rational.

    Fractional exponents are only admitted when the base has an exact
    rational root of the corresponding order, e.g. (1/4)**(1/2) = 1/2.
    """
    base = Fraction(base)
    exponent = Fraction(exponent)
    if exponent.denominator == 1:
        return base ** int(exponent)
    if base == 0:
        if exponent > 0:
            return Fraction(0)
        raise ZeroDivisionError("0 to a negative power")
    root = rational_nth_root(base, exponent.denominator)
    if root is None:
        raise ValueError(
            f"{base}**{exponent} is not rational; pick a base admitting an exact "
            f"{exponent.denominator}-th root"
        )
    return root ** int(exponent.numerator)


def is_integral(x: Fraction) -> bool:
    return Fraction(x).denominator == 1


# -- rational parsing / formatting ------------------------------------------


def parse_rational(text: str | int) -> Fraction:
    """Parse a ``p/q`` or integer string, or an int, into an exact rational; floats are not exact."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r} (give an integer or a 'p/q' string)")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))
