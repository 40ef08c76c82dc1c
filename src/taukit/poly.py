"""Exact truncated graded polynomial ring over the rationals.

Two variable families are supported, printed ``t1, t2, ...`` and
``b1, b2, ...``, with weighted degree wdeg(t_k) = wdeg(b_k) = k.  A
GradedPoly stores only the monomials in its window, the box t-weight <=
t_max, b-weight <= b_max, so the arithmetic happens in the quotient of the
full polynomial ring by the ideal of terms outside the box.  Coefficients
are exact rationals throughout; nothing in this module rounds.

The box is the window a product is formed in; nothing outside it is
formed.  ``p * q`` keeps the componentwise smaller bounds, and
``derivative`` lowers its own family's bound by the weight of its
variable, where an arbitrary truncated polynomial stays exact.  A caller
that knows another window (a tau truncated at grade d misses only
monomials whose two weights both exceed d) passes it as the box of
``weighted_sum``: ``weighted_sum(((1, p),), t_max, b_max)`` is p re-boxed.

Every sum and product is one call of the kernel ``weighted_sum``, which
forms its pieces (c, p) and (c, p, q) straight into one set of integer sums;
exp, log and inverse are total-weight recurrences, one call per layer.

A polynomial is stored in one packed form: every monomial is one int, the
exponent of t_k in 8-bit slot 2k - 2 and that of b_k in slot 2k - 1, so
multiplying monomials adds ints (no exponent exceeds its family's
bound, and bounds above 255 are refused, so no carry occurs); the
coefficients are integer numerators over one denominator, reduced so that
equal polynomials pack equally; the terms sit in buckets keyed by
(t-weight, b-weight).  A product visits only the bucket pairs that fit the
box.  Sums, derivatives, windows, comparisons and the constant term read
the packed form; ``terms``, the {Monomial: Fraction} dict, is a view that a computed
polynomial decodes on its first read.  ``Value`` is the base of every module's value classes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product as _iproduct
from math import comb, gcd, lcm, prod
from numbers import Rational
from typing import Iterable, NamedTuple

FAMILY_T = "t"
FAMILY_B = "b"


class Value:
    """Base of taukit's value classes: equality, hash and repr read the class's ``_fields``, and each attribute is
    set once, in ``__init__``.  Attributes outside ``_fields`` (a memo) take no part in equality, hash or repr."""

    _fields: tuple = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name, value):
        # hasattr, not self.__dict__: reading __dict__ turns the instance's inline attribute values into a dict,
        # and every later attribute read of the instance is then slower
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")
        object.__setattr__(self, name, value)


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


def _fits(t_max: int, b_max: int):
    """Test of a (t-weight, b-weight) bucket against the box (t_max, b_max)."""
    return lambda tb: tb[0] <= t_max and tb[1] <= b_max


# -- packed monomials ---------------------------------------------------------------

_WIDTH = 8  # bits per exponent slot
_MAX_BOUND = (1 << _WIDTH) - 1  # the largest bound: no exponent exceeds its bound, so none overflows its slot
_T_SLOTS = sum(_MAX_BOUND << 2 * _WIDTH * i for i in range(_MAX_BOUND))  # the t-slots of every index a bound allows


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
        if e := part & _MAX_BOUND:
            pairs.append((Var(family, index), e))
        part >>= 2 * _WIDTH
        index += 1
    return tuple(pairs)


def _unpack(k: int) -> Monomial:
    """The Monomial of a packed int, b-pairs before t-pairs as ``mono`` sorts them; cached per family part."""
    return _family_pairs(k >> _WIDTH & _T_SLOTS, FAMILY_B) + _family_pairs(k & _T_SLOTS, FAMILY_T)


class GradedPoly:
    """Immutable truncated polynomial, held packed; ``terms`` is a decoded view, do not mutate it."""

    __slots__ = ("t_max", "b_max", "_packed", "_terms")

    def __init__(self, t_max, b_max, terms=None):
        fits = _fits(t_max, b_max)
        terms = {m: Fraction(c) for m, c in (terms or {}).items() if c and fits(mono_weights(m))}
        den = lcm(*(c.denominator for c in terms.values()))
        sums: dict = {}
        for m, c in terms.items():
            sums.setdefault(mono_weights(m), {})[_key(m)] = c.numerator * (den // c.denominator)
        self._store(t_max, b_max, den, sums)
        self._terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(t_max: int, b_max: int) -> "GradedPoly":
        return GradedPoly(t_max, b_max)

    @staticmethod
    def constant(value, t_max: int, b_max: int) -> "GradedPoly":
        return GradedPoly(t_max, b_max, {ONE_MONO: Fraction(value)})

    @staticmethod
    def variable(v: Var, t_max: int, b_max: int) -> "GradedPoly":
        return GradedPoly(t_max, b_max, {mono([(v, 1)]): Fraction(1)})

    # -- packed form ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """{Monomial: Fraction}, decoded from the packed form on first read."""
        if self._terms is None:
            den, buckets = self._packed
            self._terms = {_unpack(k): Fraction(n, den) for bucket in buckets.values() for k, n in bucket.items()}
        return self._terms

    def _store(self, t_max, b_max, den, sums):
        """Keep bucketed {packed monomial: numerator over den} sums, reduced; the sum dicts may be kept.

        Every polynomial passes here, so the bounds are checked here: an exponent up to 255 fits its slot.
        """
        if not (0 <= t_max <= _MAX_BOUND and 0 <= b_max <= _MAX_BOUND):
            raise ValueError(f"the box {t_max, b_max} must lie in 0..{_MAX_BOUND} (a slot holds {_WIDTH} bits)")
        common = gcd(den, *chain.from_iterable(map(dict.values, sums.values())))
        buckets = {}
        while sums:
            tb, acc = sums.popitem()
            if common != 1 or 0 in acc.values():
                acc = {k: n // common for k, n in acc.items() if n}
            if acc:
                buckets[tb] = acc
        self.t_max, self.b_max, self._packed, self._terms = t_max, b_max, (den // common, buckets), None

    @classmethod
    def _from_sums(cls, t_max, b_max, den, sums) -> "GradedPoly":
        """A polynomial from bucketed sums, as ``_store`` keeps them."""
        out = object.__new__(cls)
        out._store(t_max, b_max, den, sums)
        return out

    # -- ring structure ----------------------------------------------------

    def _meet(self, other: "GradedPoly") -> tuple[int, int]:
        """The meet of two boxes."""
        return min(self.t_max, other.t_max), min(self.b_max, other.b_max)

    def __add__(self, other):
        if not isinstance(other, GradedPoly):
            other = GradedPoly.constant(other, self.t_max, self.b_max)
        return weighted_sum(((1, self), (1, other)), *self._meet(other))

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, GradedPoly):
            other = GradedPoly.constant(other, self.t_max, self.b_max)
        return weighted_sum(((1, self), (-1, other)), *self._meet(other))

    def scale(self, value) -> "GradedPoly":
        return weighted_sum(((Fraction(value), self),), self.t_max, self.b_max)

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            return self.scale(other)
        return weighted_sum(((1, self, other),), *self._meet(other))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Rational):
            other = GradedPoly.constant(other, self.t_max, self.b_max)
        elif not isinstance(other, GradedPoly):
            return NotImplemented
        return self._packed == other._packed

    def __hash__(self):
        # a constant, 0 included, equals its Fraction and so hashes as it
        return hash(self.constant_term() if self._packed[1].keys() <= {(0, 0)} else frozenset(self.terms.items()))

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


_UNIT = (1, {(0, 0): {0: 1}})  # the packed constant 1: the second factor of a piece (c, p)


def weighted_sum(pieces, t_max: int, b_max: int) -> GradedPoly:
    """sum of c * p and c * p * q over the pieces (c, p) and (c, p, q), c an int or Fraction, in the box (t_max, b_max).

    The one accumulate kernel: each product is formed straight into integer sums, bucketed by
    (t-weight, b-weight), over one common denominator, visiting only the bucket pairs that fit
    the box, and the sum is reduced once.  The box may be narrower or wider than the pieces'
    boxes: the caller states that the sum is exact there.
    """
    packed = []
    for c, p, *q in pieces:
        (den_p, left), (den_q, right) = p._packed, q[0]._packed if q else _UNIT
        if c and left and right:
            packed.append((c.numerator, c.denominator * den_p * den_q, left, right))
    den = lcm(*(d for _, d, _, _ in packed))
    sums: dict = {}
    for c, d, left, right in packed:
        factor = c * (den // d)
        for (t1, b1), bucket1 in left.items():
            for (t2, b2), bucket2 in right.items():
                tb = (t1 + t2, b1 + b2)
                if tb[0] > t_max or tb[1] > b_max:
                    continue
                acc = sums.setdefault(tb, {})
                get = acc.get
                # the smaller bucket outside: the same pairs in fewer loops
                outer, inner = (bucket1, bucket2) if len(bucket1) <= len(bucket2) else (bucket2, bucket1)
                for k1, n1 in outer.items():
                    n1 *= factor
                    for k2, n2 in inner.items():
                        k = k1 + k2
                        acc[k] = get(k, 0) + n1 * n2
    return GradedPoly._from_sums(t_max, b_max, den, sums)


def first_difference(p: GradedPoly, q: GradedPoly, t_max: int, b_max: int):
    """(monomial, p coefficient, q coefficient) first by (total weight, monomial) among those that
    differ with t-weight <= t_max and b-weight <= b_max, or None; only those are decoded."""
    (den_p, left), (den_q, right) = p._packed, q._packed
    diffs = []
    for tb in filter(_fits(t_max, b_max), left.keys() | right.keys()):
        a, b = left.get(tb, {}), right.get(tb, {})
        pairs = ((k, a.get(k, 0), b.get(k, 0)) for k in a.keys() | b.keys())
        diffs += [(sum(tb), k, x, y) for k, x, y in pairs if x * den_q != y * den_p]
    first = min(diffs, key=lambda diff: (diff[0], _unpack(diff[1])), default=None)
    return first and (_unpack(first[1]), Fraction(first[2], den_p), Fraction(first[3], den_q))


# -- spec operations --------------------------------------------------------


def derivative(p: GradedPoly, v: Var) -> GradedPoly:
    """Formal partial derivative; the bound of v's family drops by wdeg(v), where an arbitrary p stays exact."""
    den, buckets = p._packed
    shift = _shift(v)
    drop = (v.index, 0) if v.family == FAMILY_T else (0, v.index)
    sums = {}
    for (t, b), bucket in buckets.items():
        acc = {k - (1 << shift): n * e for k, n in bucket.items() if (e := k >> shift & _MAX_BOUND)}
        if acc:
            sums[t - drop[0], b - drop[1]] = acc
    return GradedPoly._from_sums(max(p.t_max - drop[0], 0), max(p.b_max - drop[1], 0), den, sums)


def _by_weight(p: GradedPoly, x0, layer) -> GradedPoly:
    """x_0 + x_1 + ... in the box of p, x_w its total-weight-w layer, one kernel call per layer.

    ``layer(w, ps, xs)`` gives the pieces of x_w from the layers ps of p and the layers xs = x_0..x_{w-1}
    found so far.  Each series below is its Euler-operator recurrence: E, which multiplies a monomial by
    its total weight, is a derivation that keeps the box, so E x = x E p holds in the truncated ring.
    """
    den, buckets = p._packed
    split = [{} for _ in range(p.t_max + p.b_max + 1)]
    for tb, bucket in buckets.items():
        split[sum(tb)][tb] = bucket
    ps = [GradedPoly._from_sums(p.t_max, p.b_max, den, sums) for sums in split]
    xs = [GradedPoly.constant(x0, p.t_max, p.b_max)]
    for w in range(1, len(ps)):
        xs.append(weighted_sum(layer(w, ps, xs), p.t_max, p.b_max))
    return weighted_sum(((1, x) for x in xs), p.t_max, p.b_max)


def exp_series(p: GradedPoly) -> GradedPoly:
    """Truncated exp; requires constant term 0.  x = exp(p): x_w = sum_k (k/w) p_k x_{w-k}."""
    if p.constant_term() != 0:
        raise ValueError("exp requires zero constant term")
    return _by_weight(p, 1, lambda w, ps, xs: ((Fraction(k, w), ps[k], xs[w - k]) for k in range(1, w + 1)))


def log_series(p: GradedPoly) -> GradedPoly:
    """Truncated log; requires constant term 1.  g = log(p): g_w = p_w - sum_{k<w} (k/w) g_k p_{w-k}."""
    if p.constant_term() != 1:
        raise ValueError("log requires constant term 1")
    return _by_weight(p, 0, lambda w, ps, gs: [(1, ps[w])] + [(Fraction(-k, w), gs[k], ps[w - k]) for k in range(1, w)])


def inverse(p: GradedPoly) -> GradedPoly:
    """Multiplicative inverse; requires a nonzero constant term c.  x = 1/p: x_w = -(1/c) sum_k p_k x_{w-k}."""
    c = p.constant_term()
    if c == 0:
        raise ValueError("inverse requires nonzero constant term")
    return _by_weight(p, 1 / c, lambda w, ps, xs: ((-1 / c, ps[k], xs[w - k]) for k in range(1, w + 1)))


def hirota_D(f: GradedPoly, g: GradedPoly, alpha: Iterable[tuple[Var, int]]) -> GradedPoly:
    """Hirota derivative D^alpha f.g = [d_y^alpha f(x+y) g(x-y)] at y=0.

    Expanded by the Leibniz rule:
    D^a f.g = sum_{b<=a} (-1)^{|a-b|} C(a,b) (d^b f)(d^{a-b} g),
    each partial d^b taken once, from a partial one order lower.  When g is f,
    the b and a - b terms are one product, formed once with (1 + (-1)^{|a|}) times b's weight.
    """
    pairs = [(v, e) for v, e in alpha if e]
    vars_, exps = [v for v, _ in pairs], [e for _, e in pairs]
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
    pieces, windows = [], []
    for beta in box:
        rest = tuple(e - b for b, e in zip(beta, exps))
        windows.append(of_f[beta]._meet(of_g[rest]))
        weight = (-1) ** sum(rest) * prod(comb(e, b) for b, e in zip(beta, exps))
        if g is f and rest != beta:
            weight *= (rest > beta) * (1 + (-1) ** sum(exps))
        if weight:
            pieces.append((weight, of_f[beta], of_g[rest]))
    return weighted_sum(pieces, *map(min, zip(*windows)))


# -- exact scalar helpers -----------------------------------------------------


def _int_nth_root(n: int, k: int) -> int | None:
    """Exact k-th root of a non-negative integer, or None if not a power."""
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


def q_number(x: Fraction, q: Fraction | None) -> Fraction:
    """The factor of every classical and q-product: x at q = None, 1 - q^x otherwise."""
    if q is None:
        return Fraction(x)
    if q == 0:
        raise ValueError("q must be nonzero")
    return 1 - rational_pow(q, x)


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
