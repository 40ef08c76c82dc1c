"""The diagonal operator symbol r(D): factors, integer evaluation, content products.

An RSpec is a nonzero constant times a ratio of products of factors, each
factor being one of

* ``LinFactor(shift)``        -- (D + shift),
* ``QLinFactor(coeff, shift)`` -- (1 - coeff * q^(shift + D)),
* ``QPairFactor(amp, cosv)``   -- (1 - 2*amp*cosv*q^D + amp^2*q^(2D)),
  the folded real form of a conjugate pair
  (1 - amp e^{i eta} q^D)(1 - amp e^{-i eta} q^D) with cosv = cos(eta).

q is an exact rational parameter, required exactly when a q-factor is
present.  Fractional shifts in q-factors are admitted only when q has the
matching exact rational root, keeping every evaluation in the rationals.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, field
from fractions import Fraction
from typing import Iterator

from .partitions import check_partition, contains, contents
from .poly import format_rational, parse_rational, q_number, rational_pow


class PoleError(ArithmeticError):
    """A denominator factor of r vanished at an integer point."""

    def __init__(self, point: int, message: str | None = None):
        self.point = point
        super().__init__(message or f"pole of r at integer point {point}")


@dataclass(frozen=True)
class LinFactor:
    shift: Fraction

    def value(self, n: int, q) -> Fraction:
        return n + self.shift


@dataclass(frozen=True)
class QLinFactor:
    coeff: Fraction
    shift: Fraction

    def value(self, n: int, q) -> Fraction:
        return 1 - self.coeff * rational_pow(q, self.shift + n)


@dataclass(frozen=True)
class QPairFactor:
    amp: Fraction
    cosv: Fraction

    def value(self, n: int, q) -> Fraction:
        qn = rational_pow(q, Fraction(n))
        return 1 - 2 * self.amp * self.cosv * qn + self.amp**2 * qn**2


def _needs_q(factors) -> bool:
    return any(isinstance(f, (QLinFactor, QPairFactor)) for f in factors)


@dataclass(frozen=True)
class RSpec:
    constant: Fraction = Fraction(1)
    num: tuple = ()
    den: tuple = ()
    q: Fraction | None = None
    # n -> r(n), filled by r_eval; poles are never stored
    _values: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "constant", Fraction(self.constant))
        object.__setattr__(self, "num", tuple(self.num))
        object.__setattr__(self, "den", tuple(self.den))
        if self.q is not None:
            object.__setattr__(self, "q", Fraction(self.q))
        if self.constant == 0:
            raise ValueError("constant must be nonzero")
        if _needs_q(self.num + self.den):
            if self.q is None:
                raise ValueError("q-factors present but q not given")
            if self.q == 0:
                raise ValueError("q must be nonzero")

    def is_one(self) -> bool:
        return self.constant == 1 and not self.num and not self.den


def rspec_mul(a: RSpec, b: RSpec) -> RSpec:
    """Product symbol (a*b)(D); q parameters must agree when both are present."""
    if a.q is not None and b.q is not None and a.q != b.q:
        raise ValueError(f"incompatible q parameters: {a.q} vs {b.q}")
    return RSpec(
        constant=a.constant * b.constant,
        num=a.num + b.num,
        den=a.den + b.den,
        q=a.q if a.q is not None else b.q,
    )


def rspec_shift(r: RSpec, m: int) -> RSpec:
    """The shifted symbol r(. + m)."""
    def shift_factor(f):
        if isinstance(f, LinFactor):
            return LinFactor(f.shift + m)
        if isinstance(f, QLinFactor):
            return QLinFactor(f.coeff, f.shift + m)
        if isinstance(f, QPairFactor):
            # q^(m + D) folds into the amplitude
            return QPairFactor(f.amp * rational_pow(r.q, Fraction(m)), f.cosv)
        raise TypeError(f"unknown factor {f!r}")

    return RSpec(
        constant=r.constant,
        num=tuple(shift_factor(f) for f in r.num),
        den=tuple(shift_factor(f) for f in r.den),
        q=r.q,
    )


def r_eval(r: RSpec, n: int) -> Fraction:
    """Exact value r(n) at an integer; raises PoleError on a denominator zero."""
    n = int(n)
    value = r._values.get(n)
    if value is None:
        den = Fraction(1)
        for f in r.den:
            v = f.value(n, r.q)
            if v == 0:
                raise PoleError(n)
            den *= v
        num = r.constant
        for f in r.num:
            num *= f.value(n, r.q)
        value = r._values[n] = num / den
    return value


def content_product(r: RSpec, lam, m: int) -> Fraction:
    """r_lam(M) = prod over cells (i,j) of r(j - i + M); empty product is 1."""
    lam = check_partition(lam)
    out = Fraction(1)
    for i, part in enumerate(lam, start=1):
        for j in range(1, part + 1):
            out *= r_eval(r, j - i + m)
    return out


def content_products(r: RSpec, parts, m: int, inner=()) -> Iterator[tuple[tuple, Fraction]]:
    """(lam, r_{lam/inner}(M)) for lam in parts, in order, each from its parent by one r_eval.

    The parent is lam less the last cell of its lowest row past inner, a
    corner; parts lists each parent before its children, as enumerate_up_to
    and its sublists do.  So each cell is evaluated once, and, the pairs
    being made as they are drawn, a pole is met at the same partition and
    point, and after the same other work, as by the per-cell products.
    """
    values = {}
    for lam in parts:
        if lam == inner:
            value = Fraction(1)
        else:
            i = len(lam) - 1
            while i < len(inner) and lam[i] == inner[i]:
                i -= 1
            parent = lam[:i] + ((lam[i] - 1,) if lam[i] > 1 else ()) + lam[i + 1:]
            value = values[parent] * r_eval(r, lam[i] - i - 1 + m)
        values[lam] = value
        yield lam, value


def skew_content_product(r: RSpec, outer, inner, m: int) -> Fraction:
    """Product of r over contents + M of the skew cells of outer/inner."""
    outer = check_partition(outer)
    inner = check_partition(inner)
    if not contains(outer, inner):
        raise ValueError(f"inner {inner} not contained in outer {outer}")
    padded = tuple(inner) + (0,) * (len(outer) - len(inner))
    out = Fraction(1)
    for i, part in enumerate(outer, start=1):
        for j in range(padded[i - 1] + 1, part + 1):
            out *= r_eval(r, j - i + m)
    return out


def poch_partition(a, lam, q: Fraction | None = None) -> Fraction:
    """Pochhammer symbol of a partition, the product of q_number(a + j - i, q) over its cells:

    (q^a; q)_lam = prod_cells (1 - q^(a + j - i)), and (a)_lam = prod_cells (a + j - i) at q = None.
    """
    a = Fraction(a)
    out = Fraction(1)
    for c in contents(check_partition(lam)):
        out *= q_number(a + c, q)
    return out


def zero_pole_scan(r: RSpec, lo: int, hi: int) -> list[tuple[int, str]]:
    """All integer zeros and poles of r in [lo, hi], in increasing order, as ``r_eval`` decides them (a pole first)."""
    if hi < lo:
        raise ValueError("hi must be >= lo")
    found = []
    for n in range(lo, hi + 1):
        try:
            if r_eval(r, n) == 0:
                found.append((n, "zero"))
        except PoleError:
            found.append((n, "pole"))
    return found


# -- JSON wire format ----------------------------------------------------------


# kind -> (class, wire fields in the order of the class's dataclass fields); both directions read it
_FACTOR_FIELDS = {
    "lin": (LinFactor, ("shift",)),
    "qlin": (QLinFactor, ("coeff", "shift")),
    "qpair": (QPairFactor, ("amp", "cos")),
}


def factor_to_obj(f) -> dict:
    for kind, (cls, fields) in _FACTOR_FIELDS.items():
        if isinstance(f, cls):
            return {kind: {name: format_rational(v) for name, v in zip(fields, astuple(f))}}
    raise TypeError(f"unknown factor {f!r}")


def _named(where: str, parse, value):
    """parse(value), its ValueError prefixed with ``where``, the key or field that held value."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def factor_from_obj(obj: dict):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"malformed factor object: {obj!r}")
    (kind, body), = obj.items()
    if kind not in _FACTOR_FIELDS:
        raise ValueError(f"unknown factor kind {kind!r}")
    cls, fields = _FACTOR_FIELDS[kind]
    if not isinstance(body, dict):
        raise ValueError(f"{kind!r} factor body must be an object with {list(fields)}, got {body!r}")
    for name in fields:
        if name not in body:
            raise ValueError(f"{kind!r} factor is missing field {name!r}")
    for name in body:
        if name not in fields:
            raise ValueError(f"{kind!r} factor has unknown field {name!r}; its fields are {list(fields)}")
    return cls(*(_named(f"{kind!r} factor field {name!r}", parse_rational, body[name]) for name in fields))


def rspec_to_json(r: RSpec) -> str:
    obj: dict = {"constant": format_rational(r.constant)}
    if r.q is not None:
        obj["q"] = format_rational(r.q)
    obj["num"] = [factor_to_obj(f) for f in r.num]
    obj["den"] = [factor_to_obj(f) for f in r.den]
    return json.dumps(obj, separators=(",", ":"))


_RSPEC_KEYS = ("constant", "q", "num", "den")


def rspec_from_json(text: str) -> RSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed rspec JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("rspec JSON must be an object")
    for key in obj:
        if key not in _RSPEC_KEYS:
            raise ValueError(f"unknown rspec key {key!r}; the keys are {list(_RSPEC_KEYS)}")

    def factors(key):
        items = obj.get(key, [])
        if not isinstance(items, list):
            raise ValueError(f"rspec {key!r} must be a list of factor objects, got {items!r}")
        return tuple(_named(f"rspec {key!r}", factor_from_obj, f) for f in items)

    return RSpec(
        constant=_named("rspec 'constant'", parse_rational, obj.get("constant", "1")),
        num=factors("num"),
        den=factors("den"),
        q=_named("rspec 'q'", parse_rational, obj["q"]) if "q" in obj else None,
    )
