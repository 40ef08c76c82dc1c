"""Independent references the benchmark checks taukit's outputs against.

Nothing here imports taukit.  Each function recomputes a quantity by a
route the program does not take: content products straight from the
symbol JSON, the Cauchy kernel in closed form, the low grades of tau from
r alone, term-ratio recursions, Cauchy products in the Miwa variables,
bialternant Schur values and the hook-content formula.

A monomial is written as a sorted tuple of (family, index, exponent)
triples, e.g. (("b", 1, 1), ("t", 1, 1)) for t1*b1.
"""

from __future__ import annotations

from fractions import Fraction as F
from math import factorial


def partitions_of(n, max_part=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part or n), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def partitions_up_to(d):
    return [lam for n in range(d + 1) for lam in partitions_of(n)]


def contents(lam):
    return [j - i for i, row in enumerate(lam) for j in range(row)]


def hook_lengths(lam):
    cols = [sum(1 for row in lam if row > j) for j in range(lam[0])] if lam else []
    return [row - j + cols[j] - i - 1 for i, row in enumerate(lam) for j in range(row)]


def n_stat(lam):
    return sum(i * row for i, row in enumerate(lam))


def _int_root(n, k):
    lo, hi = 0, n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    if lo**k != n:
        raise ValueError(f"{n} has no exact {k}-th root")
    return lo


def qpow(q, e):
    """Exact q**e for rational e; q must have the exact root e asks for."""
    q, e = F(q), F(e)
    if e.denominator != 1:
        q = F(_int_root(q.numerator, e.denominator), _int_root(q.denominator, e.denominator))
    return q ** e.numerator


# -- symbols from their JSON --------------------------------------------------------


def factor_value(factor, n, q):
    ((kind, body),) = factor.items()
    if kind == "lin":
        return n + F(body["shift"])
    if kind == "qlin":
        return 1 - F(body["coeff"]) * qpow(q, F(body["shift"]) + n)
    if kind == "qpair":
        qn = qpow(q, n)
        return 1 - 2 * F(body["amp"]) * F(body["cos"]) * qn + F(body["amp"]) ** 2 * qn * qn
    raise ValueError(f"unknown factor kind {kind!r}")


def r_value(obj, n):
    """r(n) for a symbol given as its JSON object; None at a pole."""
    q = F(obj["q"]) if "q" in obj else None
    num = F(obj.get("constant", "1"))
    for f in obj.get("num", []):
        num *= factor_value(f, n, q)
    den = F(1)
    for f in obj.get("den", []):
        den *= factor_value(f, n, q)
    return None if den == 0 else num / den


def content_products(obj, m, d):
    """{lam: prod over cells of r(content + m)} for |lam| <= d."""
    values = {n: r_value(obj, n) for n in range(m - d, m + d + 1)}
    out = {}
    for lam in partitions_up_to(d):
        v = F(1)
        for c in contents(lam):
            v *= values[c + m]
        out[lam] = v
    return out


def content_table_json(obj, m, d):
    """The ``taukit expand`` table: {"[2,1]": "p/q", ...}."""
    return {
        "[" + ",".join(map(str, lam)) + "]": str(v)
        for lam, v in content_products(obj, m, d).items()
    }


# -- generic times -------------------------------------------------------------------


def cauchy_kernel(d):
    """exp(sum_k k t_k b_k), keeping t-weight (= b-weight) <= d.

    The coefficient of prod (t_k b_k)^{m_k} is prod k^{m_k} / m_k!.
    """
    out = {}
    for n in range(d + 1):
        for mu in partitions_of(n):
            mult = {k: mu.count(k) for k in set(mu)}
            coeff = F(1)
            for k, mk in mult.items():
                coeff *= F(k**mk, factorial(mk))
            key = tuple(sorted([("b", k, mk) for k, mk in mult.items()] + [("t", k, mk) for k, mk in mult.items()]))
            out[key] = coeff
    return out


def tau_low_grades(obj, m):
    """Coefficients of tau with t-weight <= 2 and b-weight <= 2, from r alone.

    s_(1) = t1, s_(2) = t2 + t1^2/2, s_(1,1) = t1^2/2 - t2, and the
    coefficients are r(M), A = r(M) r(M+1) and B = r(M) r(M-1).
    """
    r0 = r_value(obj, m)
    a, b = r0 * r_value(obj, m + 1), r0 * r_value(obj, m - 1)
    t1b1 = (("b", 1, 1), ("t", 1, 1))
    return {
        (): F(1),
        t1b1: r0,
        (("b", 2, 1), ("t", 2, 1)): a + b,
        (("b", 1, 2), ("t", 1, 2)): (a + b) / 4,
        (("b", 1, 2), ("t", 2, 1)): (a - b) / 2,
        (("b", 2, 1), ("t", 1, 2)): (a - b) / 2,
    }


def window(poly_terms, t_max, b_max):
    """Nonzero coefficients of a {monomial: value} dict inside a weight box."""
    out = {}
    for key, c in poly_terms.items():
        tw = sum(i * e for fam, i, e in key if fam == "t")
        bw = sum(i * e for fam, i, e in key if fam == "b")
        if c and tw <= t_max and bw <= b_max:
            out[key] = F(c)
    return out


# -- one-variable series ---------------------------------------------------------------


def term_ratio_coeffs(a, b, m, order, q=None):
    """c_0 = 1 and c_{k+1}/c_k from the term ratio of pFs (q None) or pPhis."""
    a = [F(v) + m for v in a]
    b = [F(v) + m for v in b]
    out = [F(1)]
    for k in range(order):
        c = out[-1]
        if q is None:
            for ai in a:
                c *= ai + k
            for bj in b:
                c /= bj + k
            c /= k + 1
        else:
            for ai in a:
                c *= 1 - qpow(q, ai + k)
            for bj in b:
                c /= 1 - qpow(q, bj + k)
            c /= 1 - F(q) ** (k + 1)
        out.append(c)
    return out


# -- numeric times ----------------------------------------------------------------------


def det(rows):
    a = [list(map(F, row)) for row in rows]
    n, out = len(a), F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return F(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def schur_bialternant(lam, xs):
    """s_lam(x_1..x_n) = det(x_i^(lam_j + n - j)) / det(x_i^(n - j)); distinct x."""
    n = len(xs)
    if len(lam) > n:
        return F(0)
    lam = tuple(lam) + (0,) * (n - len(lam))
    num = det([[F(x) ** (lam[j] + n - 1 - j) for j in range(n)] for x in xs])
    return num / det([[F(x) ** (n - 1 - j) for j in range(n)] for x in xs])


def schur_principal(lam, a):
    """Hook-content formula: s_lam at t_m = a/m is prod (a + c) / prod hooks."""
    v = F(1)
    for c in contents(lam):
        v *= a + c
    for h in hook_lengths(lam):
        v /= h
    return v


def tau_numeric(coeffs, left, right):
    """sum_lam coeffs[lam] * left(lam) * right(lam) over the given coefficients."""
    total = F(0)
    for lam, c in coeffs.items():
        if c:
            total += c * left(lam) * right(lam)
    return total


def poch(alpha, lam, q=None):
    """(alpha)_lam = prod (alpha + c), or (q^alpha; q)_lam = prod (1 - q^(alpha + c))."""
    v = F(1)
    for c in contents(lam):
        v *= (F(alpha) + c) if q is None else (1 - qpow(q, F(alpha) + c))
    return v


def family_coeffs(a, b, m, d, q=None, max_len=None):
    """Coefficients of the pFs / pPhis multivariate series, from Pochhammers and hooks."""
    out = {}
    for lam in partitions_up_to(d):
        if max_len is not None and len(lam) > max_len:
            continue
        c = F(1)
        for ak in a:
            c *= poch(F(ak) + m, lam, q)
        for bk in b:
            c /= poch(F(bk) + m, lam, q)
        for h in hook_lengths(lam):
            c /= h if q is None else 1 - F(q) ** h
        if q is not None:
            c *= F(q) ** n_stat(lam)
        out[lam] = c
    return out


def cauchy_product(xs, ys, d):
    """prod_{i,j} (1 - x_i y_j)^(-1), keeping total degree <= d in the products."""
    series = [F(1)] + [F(0)] * d
    for x in xs:
        for y in ys:
            z = F(x) * F(y)
            # multiply by 1/(1 - z u): s_k += z * s_{k-1}, in increasing k
            for k in range(1, d + 1):
                series[k] += z * series[k - 1]
    return sum(series, F(0))
