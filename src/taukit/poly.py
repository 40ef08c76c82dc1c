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

The caps are the window a product is formed in; nothing outside it is
formed.  ``p * q`` keeps the tighter caps, and ``derivative`` lowers them by
the weight of its variable, where an arbitrary truncated polynomial stays
exact.  A caller that knows another window (a tau truncated at grade d
misses only monomials whose two weights both exceed d) passes it to
``mul_in`` or ``lift``.

A polynomial is stored in one packed form: every monomial is one int, the
exponent of t_k in 8-bit slot 2k - 2 and that of b_k in slot 2k - 1, so
multiplying monomials adds ints (no exponent exceeds the cap, and caps
above 255 are refused, so no carry occurs); the coefficients are integer
numerators over one denominator, reduced so that equal polynomials pack
equally; the terms sit in buckets keyed by (t-weight, b-weight).  A
product visits only the bucket pairs that fit the caps.  Sums,
derivatives, windows, comparisons and the constant term read the packed
form; ``terms``, the {Monomial: Fraction} dict, is a view that a computed
polynomial decodes on its first read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, product as _iproduct
from math import comb, factorial, gcd, lcm, prod
from numbers import Rational
from typing import Iterable, NamedTuple

FAMILY_T = "t"
FAMILY_B = "b"


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


def mono_weights(m: Monomial) -> tuple[int, int]:
    """(t-weight, b-weight) of a monomial."""
    t = b = 0
    for v, e in m:
        if v.family == FAMILY_T:
            t += v.index * e
        else:
            b += v.index * e
    return t, b


def format_monomial(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        name = f"{v.family}{v.index}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _min_cap(a: int | None, b: int | None) -> int | None:
    """The tighter of two caps; None is no cap."""
    return b if a is None else a if b is None else min(a, b)


def _fits(cap: int, fam_caps):
    """Test of a (t-weight, b-weight) bucket against a window; None is no family cap."""
    tcap, bcap = (cap if c is None else c for c in fam_caps)
    return lambda tb: tb[0] <= tcap and tb[1] <= bcap and tb[0] + tb[1] <= cap


# -- packed monomials ---------------------------------------------------------------

_WIDTH = 8  # bits per exponent slot
_MAX_CAP = (1 << _WIDTH) - 1  # the largest cap: no exponent exceeds the cap, so none overflows its slot
_T_SLOTS = sum(_MAX_CAP << 2 * _WIDTH * i for i in range(_MAX_CAP))  # the t-slots of every index a cap allows


def _shift(v: Var) -> int:
    """Bit offset of the slot of v: t_k in slot 2k - 2, b_k in slot 2k - 1."""
    return (2 * v.index - 1 - (v.family == FAMILY_T)) * _WIDTH


def _key(m: Monomial) -> int:
    """The packed int of a monomial."""
    return sum(e << _shift(v) for v, e in m)


@lru_cache(maxsize=1 << 12)
def _family_pairs(part: int, family: str) -> tuple:
    """The (Var, exponent) pairs of one family, its exponents held in the t-slots of ``part``."""
    pairs, index = [], 1
    while part:
        if e := part & _MAX_CAP:
            pairs.append((Var(family, index), e))
        part >>= 2 * _WIDTH
        index += 1
    return tuple(pairs)


def _unpack(k: int) -> Monomial:
    """The Monomial of a packed int, b-pairs before t-pairs as ``mono`` sorts them; cached per family part."""
    return _family_pairs(k >> _WIDTH & _T_SLOTS, FAMILY_B) + _family_pairs(k & _T_SLOTS, FAMILY_T)


class GradedPoly:
    """Immutable truncated polynomial, held packed; ``terms`` is a decoded view, do not mutate it."""

    __slots__ = ("cap", "fam_caps", "_packed", "_terms")

    def __init__(self, cap, terms=None, fam_caps=(None, None)):
        fits = _fits(cap, fam_caps)
        terms = {m: Fraction(c) for m, c in (terms or {}).items() if c and fits(mono_weights(m))}
        den = lcm(*(c.denominator for c in terms.values()))
        sums: dict = {}
        for m, c in terms.items():
            sums.setdefault(mono_weights(m), {})[_key(m)] = c.numerator * (den // c.denominator)
        self._store(cap, fam_caps, den, sums)
        self._terms = terms

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

    # -- packed form ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """{Monomial: Fraction}, decoded from the packed form on first read."""
        if self._terms is None:
            den, buckets = self._packed
            self._terms = {_unpack(k): Fraction(n, den) for bucket in buckets.values() for k, n in bucket.items()}
        return self._terms

    def _store(self, cap, fam_caps, den, sums):
        """Keep bucketed {packed monomial: numerator over den} sums, reduced; the sum dicts may be kept.

        Every polynomial passes here, so the cap is checked here: an exponent up to the cap must fit its slot.
        """
        if not 0 <= cap <= _MAX_CAP:
            raise ValueError(f"cap must be between 0 and {_MAX_CAP} (an exponent slot holds {_WIDTH} bits), got {cap}")
        common = gcd(den, *chain.from_iterable(map(dict.values, sums.values())))
        buckets = {}
        while sums:
            tb, acc = sums.popitem()
            if common != 1 or 0 in acc.values():
                acc = {k: n // common for k, n in acc.items() if n}
            if acc:
                buckets[tb] = acc
        self.cap, self.fam_caps, self._packed, self._terms = cap, fam_caps, (den // common, buckets), None

    @classmethod
    def _from_sums(cls, cap, fam_caps, den, sums) -> "GradedPoly":
        """A polynomial from bucketed sums, as ``_store`` keeps them."""
        out = object.__new__(cls)
        out._store(cap, fam_caps, den, sums)
        return out

    # -- ring structure ----------------------------------------------------

    def _join_caps(self, other: "GradedPoly") -> tuple[int, tuple]:
        return min(self.cap, other.cap), tuple(map(_min_cap, self.fam_caps, other.fam_caps))

    def __add__(self, other):
        if not isinstance(other, GradedPoly):
            other = GradedPoly.constant(other, self.cap, self.fam_caps)
        return weighted_sum(((1, self), (1, other)), *self._join_caps(other))

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, GradedPoly):
            other = GradedPoly.constant(other, self.cap, self.fam_caps)
        return weighted_sum(((1, self), (-1, other)), *self._join_caps(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "GradedPoly":
        return weighted_sum(((value, self),), self.cap, self.fam_caps)

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            return self.scale(other)
        cap, fc = self._join_caps(other)
        fits = _fits(cap, fc)
        den_a, left = self._packed
        den_b, right = other._packed
        sums: dict = {}
        for (t1, b1), bucket1 in left.items():
            for (t2, b2), bucket2 in right.items():
                tb = (t1 + t2, b1 + b2)
                if not fits(tb):
                    continue
                acc = sums.setdefault(tb, {})
                get = acc.get
                for k1, n1 in bucket1.items():
                    for k2, n2 in bucket2.items():
                        k = k1 + k2
                        acc[k] = get(k, 0) + n1 * n2
        return GradedPoly._from_sums(cap, fc, den_a * den_b, sums)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Rational):
            other = GradedPoly.constant(other, self.cap)
        elif not isinstance(other, GradedPoly):
            return NotImplemented
        return self._packed == other._packed

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "<GradedPoly 0>"
        order = sorted(self.terms.items(), key=lambda kv: (sum(mono_weights(kv[0])), kv[0]))
        body = " + ".join(f"{c}*{format_monomial(m)}" for m, c in order)
        return f"<GradedPoly {body}>"

    # -- queries -----------------------------------------------------------

    def coeff(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def constant_term(self) -> Fraction:
        den, buckets = self._packed
        return Fraction(buckets.get((0, 0), {}).get(0, 0), den)

    def is_zero(self) -> bool:
        return not self._packed[1]


def lift(p, cap: int, fam_caps=(None, None)) -> GradedPoly:
    """A GradedPoly or a scalar as a GradedPoly in the window (cap, fam_caps).

    Terms of p outside the window are dropped.  The window may also be
    larger than the caps of p: the caller then states that p is exact there.
    """
    if not isinstance(p, GradedPoly):
        return GradedPoly.constant(p, cap, fam_caps)
    den, buckets = p._packed
    fits = _fits(cap, fam_caps)
    return GradedPoly._from_sums(cap, fam_caps, den, {tb: b for tb, b in buckets.items() if fits(tb)})


def mul_in(p: GradedPoly, q: GradedPoly, cap: int, fam_caps) -> GradedPoly:
    """p * q formed in the window (cap, fam_caps) alone, whatever the caps of p and q.

    The window is the caller's statement of where the product is exact.
    """
    return lift(p, cap, fam_caps) * lift(q, cap, fam_caps)


def weighted_sum(pieces, cap: int, fam_caps=(None, None)) -> GradedPoly:
    """sum of c * p over the (scalar c, GradedPoly p) pairs, in the window (cap, fam_caps).

    Summed in integers over one common denominator, one division per term.
    """
    pieces = [(Fraction(c), p) for c, p in pieces if c]
    fits = _fits(cap, fam_caps)
    packed = [(c, *p._packed) for c, p in pieces]
    den = lcm(*(c.denominator * d for c, d, _ in packed))
    sums: dict = {}
    for c, d, buckets in packed:
        factor = c.numerator * (den // (c.denominator * d))
        for tb, bucket in buckets.items():
            if fits(tb):
                acc = sums.setdefault(tb, {})
                get = acc.get
                for k, n in bucket.items():
                    acc[k] = get(k, 0) + factor * n
    return GradedPoly._from_sums(cap, tuple(fam_caps), den, sums)


def first_difference(p: GradedPoly, q: GradedPoly, t_max: int, b_max: int):
    """(monomial, p coefficient, q coefficient) first by (total weight, monomial) among those that
    differ with t-weight <= t_max and b-weight <= b_max, or None; only those are decoded."""
    (den_p, left), (den_q, right) = p._packed, q._packed
    diffs = []
    for tb in left.keys() | right.keys():
        if tb[0] <= t_max and tb[1] <= b_max:
            a, b = left.get(tb, {}), right.get(tb, {})
            pairs = ((k, a.get(k, 0), b.get(k, 0)) for k in a.keys() | b.keys())
            diffs += [(sum(tb), k, x, y) for k, x, y in pairs if x * den_q != y * den_p]
    first = min(diffs, key=lambda diff: (diff[0], _unpack(diff[1])), default=None)
    return first and (_unpack(first[1]), Fraction(first[2], den_p), Fraction(first[3], den_q))


# -- spec operations --------------------------------------------------------


def derivative(p: GradedPoly, v: Var) -> GradedPoly:
    """Formal partial derivative; the caps drop by wdeg(v), where an arbitrary p stays exact."""
    den, buckets = p._packed
    shift = _shift(v)
    drop = (v.index, 0) if v.family == FAMILY_T else (0, v.index)
    sums = {}
    for (t, b), bucket in buckets.items():
        acc = {k - (1 << shift): n * e for k, n in bucket.items() if (e := k >> shift & _MAX_CAP)}
        if acc:
            sums[t - drop[0], b - drop[1]] = acc
    fam_caps = tuple(c if c is None else max(c - w, 0) for c, w in zip(p.fam_caps, drop))
    return GradedPoly._from_sums(max(p.cap - v.index, 0), fam_caps, den, sums)


def _nilpotent_series(p: GradedPoly, coeffs: list[Fraction]) -> GradedPoly:
    """sum coeffs[k] * p**k for a p with zero constant term (finite sum)."""
    powers = [GradedPoly.constant(1, p.cap, p.fam_caps), p]
    while len(powers) < len(coeffs) and not powers[-1].is_zero():
        powers.append(powers[-1] * p)
    return weighted_sum(zip(coeffs, powers), p.cap, p.fam_caps)


def exp_series(p: GradedPoly) -> GradedPoly:
    """Truncated exp; requires constant term 0."""
    if p.constant_term() != 0:
        raise ValueError("exp requires zero constant term")
    return _nilpotent_series(p, [Fraction(1, factorial(k)) for k in range(p.cap + 1)])


def log_series(p: GradedPoly) -> GradedPoly:
    """Truncated log; requires constant term 1."""
    if p.constant_term() != 1:
        raise ValueError("log requires constant term 1")
    return _nilpotent_series(p - 1, [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, p.cap + 1)])


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
    D^a f.g = sum_{b<=a} (-1)^{|a-b|} C(a,b) (d^b f)(d^{a-b} g),
    each partial d^b taken once, from a partial one order lower.  When g is f,
    the b and a - b terms are one product, formed once with (1 + (-1)^{|a|}) times b's weight.
    """
    pairs = [(v, e) for v, e in alpha if e]
    if not pairs:
        return f * g
    vars_, exps = zip(*pairs)
    box = list(_iproduct(*[range(e + 1) for e in exps]))

    def partials(p):
        # lexicographic order: each partial is taken from one already in the table
        table = {}
        for beta in box:
            i = next((i for i, b in enumerate(beta) if b), None)
            table[beta] = p if i is None else derivative(table[beta[:i] + (beta[i] - 1,) + beta[i + 1 :]], vars_[i])
        return table

    of_f = partials(f)
    of_g = of_f if g is f else partials(g)
    pieces, caps = [], []
    for beta in box:
        rest = tuple(e - b for b, e in zip(beta, exps))
        caps.append(of_f[beta]._join_caps(of_g[rest]))
        weight = (-1) ** sum(rest) * prod(comb(e, b) for b, e in zip(beta, exps))
        if g is f and rest != beta:
            weight *= (rest > beta) * (1 + (-1) ** sum(exps))
        if weight:
            pieces.append((weight, of_f[beta] * of_g[rest]))
    fam_caps = tuple(reduce(_min_cap, fc) for fc in zip(*(c for _, c in caps)))
    return weighted_sum(pieces, min(c for c, _ in caps), fam_caps)


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
