"""Tau-expansions over partitions and their hypergeometric specializations.

The central object is the series

    tau_r(M, t, beta) = sum over partitions lam of
        r_lam(M) * s_lam(t) * s_lam(beta),

truncated at a grade d (all |lam| <= d), with r_lam(M) the content product
of an operator symbol r(D) shifted by the integer charge M.  The classical
and basic hypergeometric families are this series for the symbol
r(D) = prod (a_k + D) / prod (b_k + D), or its q-form, with beta at the
principal-infinity times; ``classical_reference`` is the independent
term-ratio recursion they are checked against.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod

from .partitions import contains, enumerate_up_to, hook_data
from .poly import Value, q_number, rational_nth_root, rational_pow, weighted_sum
from .rspec import (
    LinFactor,
    PoleError,
    QLinFactor,
    QPairFactor,
    RSpec,
    _named,
    content_products,
    rspec_mul,
)
from .schur import (
    GenericTimes,
    MiwaTimes,
    PrincipalInfinityTimes,
    PrincipalTimes,
    _live,
    _schur_value,
    schur_pair_sum,
)

# -- expansions -----------------------------------------------------------------


class TauExpansion(Value):
    """Coefficients {lam: c_lam} for partitions of weight <= grade, free of time values: the table every tau renders."""

    _fields = ("grade", "coeffs")

    def __init__(self, grade: int, coeffs: dict):
        self.grade, self.coeffs = grade, coeffs

    @staticmethod
    def build(r: RSpec, m: int, d: int, *times) -> "TauExpansion":
        """The table r_lam(M) over the partitions of weight 0..d that ``_live`` keeps at the times, meeting no pole of r
        that only the cut ones reach."""
        return TauExpansion(d, dict(content_products(r, _live(enumerate_up_to(d), (), *times), m)))

    def render(self, t, beta):
        """sum_lam c * s_lam(t) * s_lam(beta), c = coeffs[lam], over the partitions the table holds, none checked again;
        s_lam(gen) only where c * s_lam(other) != 0."""
        d = self.grade
        if isinstance(t, GenericTimes) and isinstance(beta, GenericTimes):
            if t.family == beta.family:
                raise ValueError("generic time sets on the two slots must use distinct families")
            return schur_pair_sum(self.coeffs, d)
        gen, other = (t, beta) if isinstance(t, GenericTimes) else (beta, t)
        weights = {lam: c * _schur_value(lam, (), other, d) for lam, c in self.coeffs.items() if c}
        pieces = ((w, _schur_value(lam, (), gen, d)) for lam, w in weights.items() if w)
        if isinstance(gen, GenericTimes):
            return weighted_sum(pieces, d, d)
        return sum((w * s for w, s in pieces), Fraction(0))


def tau_series(r: RSpec, m: int, d: int, t, beta):
    """The truncated tau-series sum_{|lam|<=d} r_lam(M) s_lam(t) s_lam(beta), over the partitions ``build`` keeps."""
    return TauExpansion.build(r, m, d, t, beta).render(t, beta)


def tau_two_sided(r_tilde: RSpec, r: RSpec, m: int, d: int, t_tilde, beta):
    """Two-sided series sum (r~ r)_lam(M) s_lam(t~) s_lam(beta).

    The coefficient is computed as the product of the two content products,
    which must agree with tau_series of the merged symbol.
    """
    parts = _live(enumerate_up_to(d), (), t_tilde, beta)
    pairs = zip(content_products(r_tilde, parts, m), content_products(r, parts, m))
    return TauExpansion(d, {lam: a * b for (lam, a), (_, b) in pairs}).render(t_tilde, beta)


# -- chained (skew) expansions ----------------------------------------------------


class ChainSpec(Value):
    """Ordered (RSpec, times) pairs for the two sides of a chained expansion.

    Each side is read outward from the vacuum: the first pair plays the
    plain (r, beta)-role, later pairs attach skew layers.  A side holds at
    most one generic time set, and the two sides' generic sets use distinct
    families, so their product stays in the box (d, d).
    """

    _fields = ("left", "right")

    def __init__(self, left: tuple, right: tuple):
        self.left, self.right = left, right
        if not left or not right:
            raise ValueError("each side of the chain needs at least one (rspec, times) pair")
        left, right = ([tm.family for _, tm in side if isinstance(tm, GenericTimes)] for side in (left, right))
        if len(left) > 1 or len(right) > 1:
            raise ValueError("at most one generic time set per chain side")
        if left and left == right:
            raise ValueError("generic time sets on the two sides must use distinct families")


def _chain_vector(side, m: int, d: int) -> dict:
    """The side's layers applied to the vacuum vector {(): 1}, as {lam: nonzero value}.

    A layer (r, times) maps the held entries (mu, value) to
    new[lam] = sum over held mu inside lam of value * r_{lam/mu}(M) * s_{lam/mu}(times), lam kept by ``_live``.
    """
    parts = enumerate_up_to(d)
    vec = {(): Fraction(1)}
    for rsp, times in side:
        new = {}
        for mu, value in vec.items():
            inside = (lam for lam in parts if contains(lam, mu))
            for lam, weight in content_products(rsp, _live(inside, mu, times), m, mu):
                if weight:
                    piece = value * (weight * _schur_value(lam, mu, times, d))
                    new[lam] = new[lam] + piece if lam in new else piece
        vec = {lam: v for lam, v in new.items() if v != 0}
    return vec


def tau_general(chain: ChainSpec, m: int, d: int):
    """Chained tau-series, a polynomial in the box (d, d) if either side holds generic times, else a number."""
    left = _chain_vector(chain.left, m, d)
    right = _chain_vector(chain.right, m, d)
    pairs = [(value, right[lam]) for lam, value in left.items() if lam in right]
    generic = [any(isinstance(tm, GenericTimes) for _, tm in side) for side in (chain.left, chain.right)]
    if not any(generic):
        return sum((a * b for a, b in pairs), Fraction(0))
    # every value of a side with generic times is a polynomial, and a rational one is the piece's coefficient
    return weighted_sum(((1, a, b) if all(generic) else (b, a) if generic[0] else (a, b) for a, b in pairs), d, d)


# -- hypergeometric families -------------------------------------------------------


def _family_symbol(a, b, q=None) -> RSpec:
    """r(D) = prod (a_k + D) / prod (b_k + D), or prod (1 - q^{a_k+D}) / prod (1 - q^{b_k+D}) at a basic q.

    q is refused first; then each list is read as its own symbol, so a power of q that is not rational is refused
    naming the list's flag, --a or --b.
    """
    q = None if q is None else _basic_q(q)
    factor = LinFactor if q is None else (lambda v: QLinFactor(Fraction(1), v))

    def factors(flag, values) -> tuple:
        return _named(flag, lambda vs: RSpec(num=tuple(factor(Fraction(v)) for v in vs), q=q).num, values)

    return RSpec(num=factors("--a", a), den=factors("--b", b), q=q)


def pfs_multivar(a, b, m: int, t, d: int):
    """sum_lam prod (a_k+M)_lam / prod (b_k+M)_lam * s_lam(t) / H_lam.

    This is the tau-series of the family symbol with beta at the
    principal-infinity times, where s_lam(beta) = 1 / H_lam; the result is
    a polynomial for generic t, otherwise a number.
    """
    return tau_series(_family_symbol(a, b), m, d, PrincipalInfinityTimes(), t)


def _basic_q(q) -> Fraction:
    """q as a rational base of a basic series: nonzero and not a root of unity."""
    q = Fraction(q)
    if q == 0 or abs(q) == 1:
        raise ValueError(f"q must be nonzero and not a root of unity; q={q}")
    return q


def qphi_multivar(a, b, m: int, q, x, d: int) -> Fraction:
    """Multiple basic series sum over lam with l(lam) <= len(x):

    prod (q^{a_k+M}; q)_lam / prod (q^{b_k+M}; q)_lam
        * q^{n(lam)} / H_lam(q) * s_lam(x),

    the tau-series of the q-family symbol at the Miwa times of x and beta = principal-infinity times;
    at q = None the classical series, ``pfs_multivar`` at the Miwa times of x.
    """
    r = _family_symbol(a, b, q)
    return tau_series(r, m, d, MiwaTimes(x), PrincipalInfinityTimes(r.q))


def qphi_one_var_coeffs(a, b, m: int, q, order: int) -> list[Fraction]:
    """r_(n)(M) s_(n)(beta), n = 0..order, beta principal-infinity: the one-variable series, classical at q = None."""
    r = _family_symbol(a, b, q)
    beta = PrincipalInfinityTimes(r.q)
    rows = [(n,) if n else () for n in range(order + 1)]
    return [c * _schur_value(row, (), beta, order) for row, c in content_products(r, rows, m)]


def pfq_one_var_coeffs(a, b, m: int, order: int) -> list[Fraction]:
    """Coefficients of the one-variable classical series, one row partition per order."""
    return qphi_one_var_coeffs(a, b, m, None, order)


def classical_reference(a, b, order: int, q=None) -> list[Fraction]:
    """Taylor coefficients of pFs (or pPhis) by direct term-ratio recursion.

    Independent of the partition machinery: c_0 = 1 and, with [x] = q_number(x, q)
    (x at q = None, 1 - q^x otherwise),

        c_{k+1} = c_k * prod [a_i + k] / (prod [b_j + k] * [k + 1]).

    A zero [b_j + k] raises PoleError.  [k + 1] divides last, so at a root
    of unity q that pole is reported before [k + 1] = 0 is divided by.
    """
    a = [Fraction(v) for v in a]
    b = [Fraction(v) for v in b]
    coeffs = [Fraction(1)]
    for k in range(order):
        c = coeffs[-1]
        for ai in a:
            c *= q_number(ai + k, q)
        for bj in b:
            f = q_number(bj + k, q)
            if f == 0:
                raise PoleError(k, f"series parameter pole at b={bj}, k={k}")
            c /= f
        coeffs.append(c / q_number(k + 1, q))
    return coeffs


# -- terminating q-families ---------------------------------------------------------


def askey_wilson(n: int, a, b, c, dd, q, cos_eta, with_prefactor: bool = False) -> Fraction:
    """Terminating basic series behind the degree-n Askey-Wilson polynomial.

    The complex conjugate parameter pair enters only through its folded
    real quadratic 1 - 2a*cos(eta)*q^i + a^2 q^{2i}.  With the prefactor
    a^{-n} (ab;q)_n (ac;q)_n (ad;q)_n the value is the symmetric polynomial
    p_n(cos eta); the bare sum is returned otherwise.
    """
    total, prefactor = _askey_wilson(n, a, b, c, dd, q, cos_eta)
    return prefactor * total if with_prefactor else total


def _askey_wilson(n: int, a, b, c, dd, q, cos_eta) -> tuple[Fraction, Fraction]:
    """(bare sum, prefactor) of ``askey_wilson``, the series summed once."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b, c, dd, q, cos_eta = (Fraction(v) for v in (a, b, c, dd, _basic_q(q), cos_eta))
    if a == 0:
        raise ValueError(f"a must be nonzero; a={a}")
    # 1 - x q^i for x = ab, ac, ad in turn and i < n; the pole reported is the first zero in this order
    lower = [1 - x * q**i for x in (a * b, a * c, a * dd) for i in range(n)]
    if 0 in lower:
        i = lower.index(0) % n
        raise PoleError(i, f"denominator parameter hits 1 at q^{i}")
    abcd = a * b * c * dd
    terms = [Fraction(1)]
    for mm in range(n):
        qm = q**mm
        num = (1 - q ** (mm - n)) * (1 - abcd * q ** (n - 1 + mm))
        num *= 1 - 2 * a * cos_eta * qm + a**2 * qm**2
        den = lower[mm] * lower[n + mm] * lower[2 * n + mm] * (1 - q ** (mm + 1))
        terms.append(terms[-1] * num / den * q)
    return sum(terms), a ** (-n) * prod(lower)


def askey_wilson_rspec(n: int, a, b, c, dd, q, cos_eta) -> RSpec:
    """The operator symbol whose tau-series reproduces the terminating sum."""
    a, b, c, dd, q = (Fraction(v) for v in (a, b, c, dd, q))
    num = (
        QLinFactor(rational_pow(q, Fraction(-n)), Fraction(0)),
        QLinFactor(a * b * c * dd * rational_pow(q, Fraction(n - 1)), Fraction(0)),
        QPairFactor(a, Fraction(cos_eta)),
    )
    den = (
        QLinFactor(a * b, Fraction(0)),
        QLinFactor(a * c, Fraction(0)),
        QLinFactor(a * dd, Fraction(0)),
    )
    return RSpec(constant=Fraction(1), num=num, den=den, q=q)


# -- exact square-root values ----------------------------------------------------------


def _square_part(n: int) -> tuple[int, int]:
    """n = s^2 * f with f squarefree-ish (small primes pulled out); returns (s, f)."""
    s, f = 1, 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
            f *= p
    root = isqrt(n)
    if root * root == n:
        return s * root, f
    return s, f * n


class SqrtValue(Value):
    """Exact value rational * sqrt(radicand) with a non-negative radicand."""

    _fields = ("rational", "radicand")

    def __init__(self, rational: Fraction, radicand: Fraction):
        self.rational, self.radicand = rational, radicand

    @staticmethod
    def of(rational, radicand=1) -> "SqrtValue":
        rational, radicand = Fraction(rational), Fraction(radicand)
        if radicand < 0:
            raise ValueError("radicand must be >= 0")
        if rational == 0 or radicand == 0:
            return SqrtValue(Fraction(0), Fraction(1))
        sn, fn = _square_part(radicand.numerator)
        sd, fd = _square_part(radicand.denominator)
        return SqrtValue(rational * Fraction(sn, sd), Fraction(fn, fd))

    def square(self) -> Fraction:
        return self.rational**2 * self.radicand

    def __eq__(self, other):
        if not isinstance(other, SqrtValue):
            other = SqrtValue.of(other)
        return (self.rational > 0) == (other.rational > 0) and self.square() == other.square()

    def __hash__(self):
        # a value equal to a rational hashes as that rational, as equality with it asks
        root = rational_nth_root(self.square(), 2)
        return hash((self.rational > 0, self.square()) if root is None else (root if self.rational > 0 else -root))


# -- q-deformed angular-momentum coupling -------------------------------------------


def q_bracket(a: int, q) -> SqrtValue:
    """[a] = q^((1-a)/2) (1 - q^a) / (1 - q); tends to a as q -> 1."""
    q = Fraction(q)
    if q <= 0 or q == 1:
        raise ValueError("q must be positive and != 1")
    return SqrtValue.of((1 - q**a) / (1 - q), q ** (1 - a))


def _bracket_factorial(n: int, q: Fraction) -> tuple[Fraction, int]:
    """[n]! = [1][2]...[n] as (c, h) with [n]! = c * q^(h/2); [0]! = 1."""
    # c = (q;q)_n / (1 - q)^n, and (q;q)_n is the hook product of the row (n)
    return hook_data((n,) if n else (), q) / (1 - q) ** n, -n * (n - 1) // 2


def _as_half_integer(x) -> Fraction:
    x = Fraction(x)
    if (2 * x).denominator != 1:
        raise ValueError(f"{x} is not a half-integer")
    return x


def clebsch_gordan_q(l1, l2, l, j, k, q) -> SqrtValue:
    """Exact coupling coefficient for half-integer spins, as rational * sqrt(rational).

    The terminating balanced series factor phi is summed through the
    partition layer conventions.  The square of the value is rational in q:

        phi^2 [2l+1] q^(2B) prod [x]!^e_x,

    with each bracket factorial carried as c * q^(h/2).  One root is taken
    at the end, so the result is ``SqrtValue.of(sign, square)``, a function
    of the value alone; an odd total h is refused unless q is a rational
    square.
    """
    l1, l2, l, j, k = (_as_half_integer(v) for v in (l1, l2, l, j, k))
    q = Fraction(q)
    if q <= 0 or q == 1:
        raise ValueError("q must be positive and != 1")
    m = j + k
    if not (abs(l1 - l2) <= l <= l1 + l2):
        raise ValueError("triangle condition violated")
    if abs(j) > l1 or abs(k) > l2 or abs(m) > l:
        raise ValueError("magnetic numbers out of range")
    # bracket-factorial argument x and its exponent e_x in the square
    factorials = {
        "l1+j": (l1 + j, 1), "l1-j": (l1 - j, -1), "l2+k": (l2 + k, -1), "l2-k": (l2 - k, 1),
        "l+m": (l + m, 1), "l-m": (l - m, -1),
        "l1+l2-l": (l1 + l2 - l, 1), "l1-l2+l": (l1 - l2 + l, -1), "l-l1+l2": (l - l1 + l2, -1),
        "l1+l2+l+1": (l1 + l2 + l + 1, -1), "l+l2-j": (l + l2 - j, 2), "l2-l+j": (l2 - l + j, -2),
    }
    c, h = Fraction(1), 0
    for name, (v, e) in factorials.items():
        if v.denominator != 1 or v < 0:
            raise ValueError(f"bracket argument {name} = {v} is not a non-negative integer")
        cx, hx = _bracket_factorial(int(v), q)
        c, h = c * cx**e, h + e * hx

    a, b, order = _cg_series(l1, l2, l, j, m)
    phi = sum((coeff * q**s for s, coeff in enumerate(qphi_one_var_coeffs(a, b, 0, q, order))), Fraction(0))
    # [2l+1] = c q^(-2l/2) and q^(2B) = q^(4B/2), 4B = l2(l2+1) - l1(l1+1) - l(l+1) + 2j(m+1)
    c *= phi**2 * (1 - q ** int(2 * l + 1)) / (1 - q)
    h += int(l2 * (l2 + 1) - l1 * (l1 + 1) - l * (l + 1) + 2 * j * (m + 1) - 2 * l)
    sign = (-1) ** int(l1 - j) * (1 if phi > 0 else -1)
    return SqrtValue.of(sign, c * rational_pow(q, Fraction(h, 2)))


def _cg_series(l1, l2, l, j, m) -> tuple:
    """(a, b, order) of the terminating balanced 3-on-2 series factor, summed at argument and base q."""
    a = (j - l1, l1 + j + 1, -l + m)
    b = (l2 - l + j + 1, -l - l2 + j)
    return a, b, int(l1 - j)  # (q^{j-l1}; q)_s vanishes past s = l1 - j


# -- reparametrized pairs ------------------------------------------------------------


def prop4_pair(r: RSpec, b, m: int, d: int, t):
    """Both sides of the principal-infinity vs extra-denominator identity.

    Left: tau with the original symbol at the infinite principal times;
    right: tau with the symbol divided by (b + D) (rational case) or by
    (1 - q^{b+D}) (q case), at the finite principal times of modulus b + M.
    A q-symbol's q must be nonzero and not a root of unity.
    """
    r_b = rspec_mul(r, _family_symbol((), (b,), r.q))
    left = tau_series(r, m, d, PrincipalInfinityTimes(r.q), t)
    return left, tau_series(r_b, m, d, PrincipalTimes(Fraction(b) + m, r.q), t)
