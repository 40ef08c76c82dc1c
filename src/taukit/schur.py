"""Schur and skew-Schur polynomials in time variables, plus their specializations.

A Schur value is computed from a "times" specification:

* ``GenericTimes(family)``: formal variables t1, t2, ... (or b1, b2, ...);
  the value is a GradedPoly, quasi-homogeneous of weighted degree |lam|.
* ``NumericTimes(t)``: explicit rational values t_m; the value is a
  rational number.
* ``MiwaTimes(x, sign)``: t_m = sign * sum_i x_i^m / m.
* ``PrincipalTimes(a, q)``: t_m = [a m] / (m [m]) with [x] = q_number(x, q),
  that is (1 - q^{am}) / (m (1 - q^m)), and a/m at ``q=None``.
* ``PrincipalInfinityTimes(q)``: the large-a limit of the principal family,
  s_lam = q^{n(lam)}/H_lam(q), which is 1/H_lam at ``q=None``, kept in the
  object's memo and stepped by one hook ratio from its parent's value there.

As everywhere in taukit, the classical case of a q-product is q = None:
each factor is q_number(x, q), x classically and 1 - q^x otherwise.

Each evaluated kind (numeric, Miwa, principal) gives its values
[t_1, ..., t_d] through ``values(d)``.

Generic = characters: the coefficient of prod t_k^{m_k} in s_{lam/mu}(t) is chi^{lam/mu}(rho) / prod m_k!, rho having
m_k parts equal to k.  Every generic Schur polynomial, single, skew or paired (``schur_pair_sum``), reads grade n's
packed keys and prod m_k! from one per-grade table, ``_grade_layout``; ``characters`` is the one store of characters,
built for the shapes a value reads and no others.  ``power_sums_basis``, the oracle's Newton recursion, reads none.

Evaluated = Jacobi-Trudi over p_m values resolved once per times object and kept in
its memo for its lifetime, the determinant taken by row-cleared integer
Bareiss elimination (never a bialternant ratio, which would hit 0/0
at coincident points); tests use it on plain value lists as the
independent oracle for the characters and the memo, and the closed form
``schur_principal_value`` = (q^a; q)_lam times the principal-infinity value
likewise.

At N Miwa variables, s_lam/mu is 0 by shape where a column (sign +1) or a row (sign -1) of lam/mu has over N cells
(Macdonald I.5).  The series lists drop those shapes through ``_live`` before forming any content product; the
evaluator takes their determinants, so ``check_remark1`` tests the rule against it at plain ``MiwaTimes``.

``schur_poly`` and ``skew_schur_poly`` check their partitions and share ``_schur_value``, which the series loops call.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from math import factorial, lcm, prod
from operator import mul
from types import MappingProxyType
from typing import Mapping

from .partitions import (
    Partition,
    _check_skew,
    check_partition,
    conjugate,
    contains,
    hook_data,
    n_statistic,
    partitions_of,
)
from .poly import FAMILY_B, FAMILY_T, GradedPoly, Value, Var, _key, q_number, weighted_sum
from .rspec import poch_partition

# -- times specifications -----------------------------------------------------


class GenericTimes(Value):
    _fields = ("family",)

    def __init__(self, family: str = FAMILY_T):
        if family not in (FAMILY_T, FAMILY_B):
            raise ValueError(f"generic times take family 't' or 'b', not {family!r}")
        self.family = family


class _EvaluatedTimes(Value):
    # _memo: "t" -> the resolved [t_1, ..., t_n]; False / True -> p_0..p_n of the plain and the
    # (-1)^(k-1)-twisted values.  Refusals of values(n) are never stored.

    def _power_sums(self, n: int, twisted: bool, top: int) -> list[Fraction]:
        """p_k for k < top, from t_1..t_(top-1) resolved at max(n, top - 1), or at top - 1 alone
        where the longer list is refused: a refusal recurs on every call that reads a refused t_k."""
        memo, need = self._memo, top - 1
        if len(memo.get("t", ())) < need:
            try:
                memo["t"] = self.values(max(n, need))
            except ValueError:
                memo["t"] = self.values(need)
        if len(memo.get(twisted, ())) < top:
            values = memo["t"]
            memo[twisted] = numeric_power_sums(_twist(values) if twisted else values, len(values))
        return memo.get(twisted, [])


class NumericTimes(_EvaluatedTimes):
    _fields = ("t",)  # t_1, t_2, ...; entries beyond the tuple are zero

    def __init__(self, t: tuple):
        self.t = tuple(Fraction(v) for v in t)
        self._memo = {}

    def values(self, d: int) -> list[Fraction]:
        """[t_1, ..., t_d], zero past the given values."""
        return list(self.t[:d]) + [Fraction(0)] * (d - len(self.t))


class MiwaTimes(_EvaluatedTimes):
    _fields = ("x", "sign")

    def __init__(self, x: tuple, sign: int = 1):
        self.x, self.sign = tuple(Fraction(v) for v in x), sign
        self._memo = {}
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def values(self, d: int) -> list[Fraction]:
        """[t_1, ..., t_d] with t_m = sign * sum_i x_i^m / m."""
        return [self.sign * sum((v**m for v in self.x), Fraction(0)) / m for m in range(1, d + 1)]


class PrincipalTimes(_EvaluatedTimes):
    _fields = ("a", "q")

    def __init__(self, a: Fraction, q: Fraction | None = None):
        self.a, self.q = Fraction(a), None if q is None else Fraction(q)
        self._memo = {}

    def values(self, d: int) -> list[Fraction]:
        """[t_1, ..., t_d] with t_m = [a m] / (m [m]), [x] = q_number(x, q).

        That is (1 - q^{am}) / (m (1 - q^m)), and a/m at q = None.  Refuses
        q = 0, a q with q^m = 1 for some m <= d, and an irrational q^a.
        """
        dens = [m * q_number(m, self.q) for m in range(1, d + 1)]
        if 0 in dens:
            raise ValueError(f"q^{dens.index(0) + 1} = 1: q is a root of unity in range")
        return [q_number(self.a * m, self.q) / den for m, den in enumerate(dens, start=1)]


class PrincipalInfinityTimes(Value):
    # _memo: lam -> s_lam = q^{n(lam)} / H_lam(q).  Where the memo holds lam's parent mu, lam less the last cell of its
    # last row, s_lam = s_mu q^(l(lam) - 1) / (H_lam(q) / H_mu(q)), one hook ratio; the series loops read each parent
    # before its children.  Elsewhere (a fresh object, a parent the caller skipped, or one refused at q = -1 whose
    # child is a staircase with a value) the closed form is read.  Refusals are never stored.
    _fields = ("q",)

    def __init__(self, q: Fraction | None = None):
        self.q, self._memo = None if q is None else Fraction(q), {(): Fraction(1)}

    def value(self, lam: Partition) -> Fraction:
        """s_lam = q^{n(lam)} / H_lam(q), 1 / H_lam at q = None: stepped from the parent's value where it is held."""
        q, memo = self.q, self._memo
        if lam not in memo:
            parent = lam[:-1] + ((lam[-1] - 1,) if lam[-1] > 1 else ())
            if parent in memo:
                memo[lam] = memo[parent] * (q or 1) ** (len(lam) - 1) / _hook_ratio(lam, q)
            else:
                memo[lam] = Fraction(q or 1) ** n_statistic(lam) / hook_data(lam, q)
        return memo[lam]


def _hook_ratio(lam: Partition, q: Fraction | None) -> Fraction:
    """H_lam(q) / H_mu(q), mu lam less its cell (l, j) = (l(lam), lam_l): one bracket pair per run of rows above."""
    # the brackets [x] = q_number(x, q) of the hooks that cell changes: [j] in row l and, telescoped,
    # [l - r0 + L - j + 1] / [l - r1 + L - j] in column j for each run r0..r1 < l of rows of one length L
    l, j = len(lam), lam[-1]
    ratio, r0 = q_number(j, q), 1
    for r1 in range(1, l):
        if r1 == l - 1 or lam[r1] != lam[r1 - 1]:  # row r1 (1-based) ends a run
            ratio *= q_number(l - r0 + lam[r1 - 1] - j + 1, q) / q_number(l - r1 + lam[r1 - 1] - j, q)
            r0 = r1 + 1
    return ratio


# -- characters: the generic kind ------------------------------------------------


def _strips(lam: Partition, k: int) -> list[tuple[Partition, int]]:
    """(lam minus a k-rim hook, (-1)^height) for every k-rim hook of lam.

    On the beta-set {lam_i + l - i} a k-rim hook is a bead moved from b to
    a free position b - k >= 0; its height is the number of beads passed.
    """
    n = len(lam)
    beta = [part + n - i for i, part in enumerate(lam, start=1)]
    out = []
    for i, b in enumerate(beta):
        c = b - k
        if c < 0 or c in beta:
            continue
        moved = sorted(beta[:i] + [c] + beta[i + 1 :], reverse=True)
        shape = tuple(x - n + j for j, x in enumerate(moved, start=1) if x - n + j)
        out.append((shape, (-1) ** sum(c < x < b for x in beta)))
    return out


@lru_cache(maxsize=None)
def characters(outer: Partition, inner: Partition = ()) -> Mapping[Partition, int]:
    """rho -> chi^{outer/inner}(rho) for every partition rho of |outer/inner|, in ``partitions_of`` order.

    Murnaghan-Nakayama: remove a rim hook of size rho_1 from outer that
    keeps inner, and recurse on the rest of rho.  The table is read-only.
    """
    n = sum(outer) - sum(inner)
    if n == 0:
        return MappingProxyType({(): 1})
    strips: dict = {}
    table = {}
    for rho in partitions_of(n):
        k = rho[0]
        if k not in strips:
            strips[k] = [(sh, sign) for sh, sign in _strips(outer, k) if contains(sh, inner)]
        table[rho] = sum(sign * characters(sh, inner)[rho[1:]] for sh, sign in strips[k])
    return MappingProxyType(table)


@cache
def _grade_layout(n: int) -> tuple:
    """Grade n's partitions, packed t- and b-keys and prod m(rho)!, as read-only tuples, the keys and factorials of a
    rho from its one multiplicity list: no character, so a grade costs no shape's table; one entry per grade asked
    for, and a grade is at most 255, the slot bound."""
    rhos = partitions_of(n)
    mults = [Counter(rho).items() for rho in rhos]  # (k, m_k) per rho
    tkeys, bkeys = (tuple(_key((Var(fam, k), e) for k, e in m) for m in mults) for fam in (FAMILY_T, FAMILY_B))
    facts = tuple(prod(factorial(e) for _, e in m) for m in mults)
    return rhos, tkeys, bkeys, facts


def _schur_generic(outer: Partition, inner: Partition, family: str, d: int) -> GradedPoly:
    """s_{outer/inner}(t) = sum_rho chi(rho) prod t_k^{m_k} / m_k!, since p_k = k t_k: grade n's keys and prod m(rho)!
    from ``_grade_layout``, the characters over n!, which every prod m(rho)! divides, in the one bucket of weight n."""
    n = sum(outer) - sum(inner)
    if n > d:
        raise ValueError(f"weight {n} of {outer}/{inner} exceeds truncation grade {d}")
    rhos, tkeys, bkeys, facts = _grade_layout(n)
    chars, scale = characters(outer, inner), factorial(n)
    keys, bucket = (tkeys, (n, 0)) if family == FAMILY_T else (bkeys, (0, n))
    sums = {bucket: {key: chi * (scale // f) for rho, key, f in zip(rhos, keys, facts) if (chi := chars[rho])}}
    return GradedPoly._from_sums(d, d, scale, sums)


def power_sums_basis(d: int, family: str = FAMILY_T) -> list[GradedPoly]:
    """Polynomials p_0..p_d with sum p_m z^m = exp(sum t_i z^i), i.e. p_m = s_(m), by the Newton recursion
    of ``numeric_power_sums`` at t_1..t_d, m p_m = sum_k k t_k p_{m-k}, each p_m one kernel call.
    These are the complete homogeneous h_m, KP's elementary Schur polynomials, not power sums (those are m t_m)."""
    if d < 0:
        raise ValueError("d must be >= 0")
    ts = [GradedPoly.variable(Var(family, k), d, d) for k in range(1, d + 1)]
    ps = [GradedPoly.constant(1, d, d)]
    for m in range(1, d + 1):
        ps.append(weighted_sum(((Fraction(k, m), ts[k - 1], ps[m - k]) for k in range(1, m + 1)), d, d))
    return ps


def schur_pair_sum(coeffs: dict, d: int) -> GradedPoly:
    """sum over |lam| <= d of coeffs[lam] s_lam(t) s_lam(b), t and b two generic time sets.

    Grade n is the symmetric block chi^T diag(coeffs) chi, scaled by 1 / (prod m(rho)! prod m(sigma)!).  Keys and
    prod m(rho)! come from ``_grade_layout``; columns are formed per call from the ``characters`` rows of the lam with
    nonzero coefficients, the only tables it builds, read by position (a row lists rho in ``partitions_of`` order, as
    the keys do).  A block is summed in integers into the packed (n, n) bucket over one denominator,
    lcm(denominators of coeffs) * (d!)^2, since every prod m(rho)! divides d!.
    """
    scale = factorial(d)
    den = lcm(*(Fraction(c).denominator for c in coeffs.values()))
    sums = {}
    for n in range(d + 1):
        lams, tkeys, bkeys, facts = _grade_layout(n)
        live = [lam for lam in lams if coeffs.get(lam)]
        if not live:
            continue
        ints, cols = [int(coeffs[lam] * den) for lam in live], list(zip(*(characters(lam).values() for lam in live)))
        facts = [scale // f for f in facts]
        acc = sums[n, n] = {}
        for i, col in enumerate(cols):
            weighted = list(map(mul, ints, col))
            for j in range(i, len(cols)):
                total = sum(map(mul, weighted, cols[j]))
                if total:
                    acc[tkeys[i] + bkeys[j]] = acc[tkeys[j] + bkeys[i]] = total * facts[i] * facts[j]
    return GradedPoly._from_sums(d, d, den * scale * scale, sums)


# -- evaluated kinds: Jacobi-Trudi ------------------------------------------------


def numeric_power_sums(values: list, d: int) -> list:
    """p_0..p_d at the rational times t_1..t_d, by m p_m = sum_{k=1..m} k t_k p_{m-k}.
    These are the complete homogeneous h_m = s_(m) at those times, not power sums (those are m t_m)."""
    ps = [Fraction(1)]
    for m in range(1, d + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            acc += k * values[k - 1] * ps[m - k]
        ps.append(acc * Fraction(1, m))
    return ps


def det_fraction_matrix(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant of a matrix of ints and Fractions by row-cleared integer Bareiss elimination.

    Each row is scaled to integers by the lcm of its denominators.  Each step pivots on the first row with a nonzero
    leading entry p (a swap flips the sign) and takes every row below to (p x - f y) / prev past its leading entry f,
    prev the last pivot, a division that is always exact (Bareiss, Math. Comp. 22, 1968).  The last pivot over the
    product of the row scales is the determinant: 1 for a 0x0 matrix, 0 at a zero column.
    """
    dens = [lcm(*(v.denominator for v in row)) for row in rows]
    a = [[v.numerator * (den // v.denominator) for v in row] for row, den in zip(rows, dens)]
    sign, prev = 1, 1
    while a:
        i = next((i for i, row in enumerate(a) if row[0]), None)
        if i is None:
            return Fraction(0)
        a[0], a[i] = a[i], a[0]
        sign = -sign if i else sign
        (p, *top), *rest = a
        a = [[(p * x - f * y) // prev for x, y in zip(tail, top)] for f, *tail in rest]
        prev = p
    return Fraction(sign * prev, prod(dens))


def _jacobi_trudi_rows(lam: Partition, mu: Partition = ()) -> list[list[int]]:
    """Indices p_{lam_r - mu_c - r + c} of the skew Jacobi-Trudi matrix, less each row with lam_r = mu_r and its
    column: that row's pivot is p_0 = 1, with p_k, k < 0, left of it and below it, so the determinant is unchanged."""
    padded = tuple(mu) + (0,) * (len(lam) - len(mu))
    keep = [r for r, part in enumerate(lam) if part != padded[r]]
    return [[lam[r] - padded[c] - r + c for c in keep] for r in keep]


def _twist(values: list[Fraction]) -> list[Fraction]:
    """t'_k = (-1)^(k-1) t_k, the times at which s_lam(t) = s_lam'(t')."""
    return [(-1) ** (k - 1) * v for k, v in enumerate(values, start=1)]


def _jacobi_trudi(lam: Partition, mu: Partition, power_sums) -> Fraction:
    """det [p_{lam_r - mu_c - r + c}], p_k = 0 for k < 0, from power_sums(twisted, top): p_k for k < top.

    A straight shape longer than wide is read as its conjugate, at _twist times.
    """
    twisted = not mu and len(lam) > (lam[0] if lam else 0)
    if twisted:
        lam = conjugate(lam)
    rows = _jacobi_trudi_rows(lam, mu)
    ps = power_sums(twisted, 1 + max((k for row in rows for k in row), default=-1))
    return det_fraction_matrix([[ps[k] if k >= 0 else 0 for k in row] for row in rows])


def _miwa_zero(outer: Partition, inner: Partition, times: MiwaTimes) -> bool:
    """Whether s_{outer/inner} is 0 at N Miwa variables by shape: a column (sign +1) or row (sign -1) over N long."""
    # a column over N long is a row i + N of outer that passes row i of inner; a row is row i passing it by over N
    n, padded = len(times.x), inner + (0,) * len(outer)
    skip, slack = (n, 0) if times.sign > 0 else (0, n)
    return any(o > i + slack for o, i in zip(outer[skip:], padded))


def _live(parts, inner: Partition, *times):
    """parts less each lam whose s_{lam/inner} is 0 by shape at one of the times that are Miwa; parts itself at none."""
    miwa = [tm for tm in times if isinstance(tm, MiwaTimes)]
    return [lam for lam in parts if not any(_miwa_zero(lam, inner, tm) for tm in miwa)] if miwa else parts


def _schur_numeric(lam: Partition, mu: Partition, values: list[Fraction], d: int) -> Fraction:
    """s_{lam/mu} at the plain list [t_1, t_2, ...], zero past its end: the oracle for the memo."""
    return _jacobi_trudi(lam, mu, lambda twisted, top: numeric_power_sums(
        (_twist(values) if twisted else values) + [Fraction(0)] * top, top))


# -- Schur values -----------------------------------------------------------------


def _schur_value(outer: Partition, inner: Partition, times, d: int):
    """s_{outer/inner} at the times, for checked partitions with inner inside outer."""
    if isinstance(times, GenericTimes):
        return _schur_generic(outer, inner, times.family, d)
    if outer == inner:
        return Fraction(1)
    if isinstance(times, PrincipalInfinityTimes):
        if inner:
            raise TypeError("principal-infinity times are defined for straight shapes only")
        return times.value(outer)
    return _jacobi_trudi(outer, inner, lambda twisted, top: times._power_sums(d, twisted, top))


def schur_poly(lam, times, d: int):
    """Schur value s_lam for the given times; GradedPoly or exact rational.

    Generic times go through the characters, evaluated times through the
    Jacobi-Trudi determinant of the p_m values (p_k = 0 for k < 0,
    s_empty = 1).  Principal-infinity times give q^{n(lam)}/H_lam(q),
    1/H_lam at q = None, stepped from the parent's value where it is held.
    """
    return _schur_value(check_partition(lam), (), times, d)


def skew_schur_poly(outer, inner, times, d: int):
    """Skew Schur value s_{outer/inner}; equals schur_poly at inner = ()."""
    return _schur_value(*_check_skew(outer, inner), times, d)


def schur_principal_value(lam, a, q: Fraction | None = None) -> Fraction:
    """Closed product form of s_lam at PrincipalTimes(a, q): the Pochhammer symbol of lam
    times the principal-infinity value, (q^a; q)_lam q^{n(lam)} / H_lam(q), or (a)_lam / H_lam at q = None.
    """
    return poch_partition(a, lam, q) * schur_poly(lam, PrincipalInfinityTimes(q), 0)
