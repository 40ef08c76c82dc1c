"""Closed-form summation theorems of the tau-series, the oracle for a later summation checker.

Each case sums tau_series exactly and compares it with a product formula
written here from plain Pochhammer symbols, so the test reaches evaluated
Schur values at N > 1 variables and content products that stop at an
integer zero of r (the terminating sums).  Each family has controls that
break the theorem's hypothesis and must not match.
"""

from fractions import Fraction as F
from math import prod

import pytest

from taukit.poly import GradedPoly, exp_series, tvar, weighted_sum
from taukit.rspec import LinFactor, QLinFactor, RSpec
from taukit.schur import GenericTimes, MiwaTimes, PrincipalInfinityTimes, PrincipalTimes
from taukit.tau import tau_series


def poch(x, n: int) -> F:
    """(x)_n = x (x + 1) ... (x + n - 1)."""
    return prod((x + j for j in range(n)), start=F(1))


def qpoch(x, q, n: int) -> F:
    """(x; q)_n = (1 - x)(1 - x q) ... (1 - x q^(n-1))."""
    return prod((1 - x * q**j for j in range(n)), start=F(1))


def rect(x, n: int, nvars: int) -> F:
    """(x)_(n^N) = prod over i = 1..N of (x - i + 1)_n, the Pochhammer symbol of the N x n rectangle."""
    return prod((poch(x - i + 1, n) for i in range(1, nvars + 1)), start=F(1))


def lin(*shifts) -> tuple:
    return tuple(LinFactor(F(s)) for s in shifts)


def xi(coeff, d: int) -> GradedPoly:
    """sum over k = 1..d of coeff(k) t_k, in the box (d, d)."""
    return weighted_sum(((coeff(k), GradedPoly.variable(tvar(k), d, d)) for k in range(1, d + 1)), d, d)


D = 6  # grade of the generic binomial series
Q_BINOMIAL = F(1, 2)


# -- binomial theorems: sum (a + M)_lam s_lam(t) / H_lam = exp((a + M) sum t_k) -----------------


@pytest.mark.parametrize("a, m", [(F(1, 3), 0), (F(-2, 5), 2)], ids=str)
def test_binomial_theorem(a, m):
    got = tau_series(RSpec(num=lin(a)), m, D, GenericTimes("t"), PrincipalInfinityTimes())
    assert got == exp_series(xi(lambda k: a + m, D))


@pytest.mark.parametrize("a, m", [(F(3, 5), 0), (F(-2, 7), 1)], ids=str)
def test_q_binomial_theorem(a, m):
    q = Q_BINOMIAL
    r = RSpec(num=(QLinFactor(a, F(0)),), q=q)  # 1 - a q^D
    got = tau_series(r, m, D, GenericTimes("t"), PrincipalInfinityTimes(q))
    assert got == exp_series(xi(lambda k: (1 - (a * q**m) ** k) / (1 - q**k), D))


# -- Chu-Vandermonde and Saalschuetz at N variables: 1^N, or (q, ..., q^N) ----------------------

B, C = F(1, 3), F(7, 5)
CV_CASES = [(2, 1), (2, 2), (3, 3), (2, 4)]  # (n, N)


def chu_vandermonde(n: int, nvars: int, b, c) -> F:
    """2F1(-n, b; c; 1^N) as the tau-series of (D - n)(D + b)/(D + c), which stops at grade nN."""
    r = RSpec(num=lin(-n, b), den=lin(c))
    return tau_series(r, 0, n * nvars, PrincipalTimes(nvars), PrincipalInfinityTimes())


@pytest.mark.parametrize("n, nvars", CV_CASES, ids=str)
def test_chu_vandermonde(n, nvars):
    assert chu_vandermonde(n, nvars, B, C) == rect(C - B, n, nvars) / rect(C, n, nvars)


@pytest.mark.parametrize("n, nvars", CV_CASES, ids=str)
def test_chu_vandermonde_control_swaps_b_and_c(n, nvars):
    assert chu_vandermonde(n, nvars, C, B) != rect(C - B, n, nvars) / rect(C, n, nvars)


QB, QC = F(1, 3), F(2, 7)
Q_CV_N = 2  # the terminating factor 1 - q^(-2 + D)


def q_chu_vandermonde(q, x) -> F:
    """The tau-series of (1 - q^(-2+D))(1 - b q^D)/(1 - c q^D) at the Miwa times of x, which stops at grade 2 len(x)."""
    r = RSpec(num=(QLinFactor(F(1), F(-Q_CV_N)), QLinFactor(QB, F(0))), den=(QLinFactor(QC, F(0)),), q=q)
    return tau_series(r, 0, Q_CV_N * len(x), MiwaTimes(x), PrincipalInfinityTimes(q))


def q_chu_vandermonde_product(q, nvars: int) -> F:
    """prod over i = 0..N-1 of b^n (c q^-i / b; q)_n / (c q^-i; q)_n."""
    n = Q_CV_N
    return prod((QB**n * qpoch(QC * q**-i / QB, q, n) / qpoch(QC * q**-i, q, n) for i in range(nvars)), start=F(1))


Q_CV_QS = [F(1, 2), F(2, 3), F(-1, 3)]


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("q", Q_CV_QS, ids=str)
def test_q_chu_vandermonde(q, nvars):
    assert q_chu_vandermonde(q, [q**k for k in range(1, nvars + 1)]) == q_chu_vandermonde_product(q, nvars)


@pytest.mark.parametrize("nvars", [2, 3, 4])
@pytest.mark.parametrize("q", Q_CV_QS, ids=str)
def test_q_chu_vandermonde_control_starts_x_at_one(q, nvars):
    assert q_chu_vandermonde(q, [q**k for k in range(nvars)]) != q_chu_vandermonde_product(q, nvars)


SA, SB, SC = F(1, 3), F(2, 7), F(9, 5)
SAALSCHUETZ_CASES = [(2, 2), (3, 3), (2, 4)]  # (n, N)


def saalschuetz(n: int, nvars: int, e) -> F:
    """3F2(-n, a, b; c, e; 1^N) as the tau-series of (D - n)(D + a)(D + b)/((D + c)(D + e))."""
    r = RSpec(num=lin(-n, SA, SB), den=lin(SC, e))
    return tau_series(r, 0, n * nvars, PrincipalTimes(nvars), PrincipalInfinityTimes())


def saalschuetz_product(n: int, nvars: int) -> F:
    """(c - a)_(n^N) (c - b)_(n^N) / ((c)_(n^N) (c - a - b)_(n^N))."""
    num = rect(SC - SA, n, nvars) * rect(SC - SB, n, nvars)
    return num / (rect(SC, n, nvars) * rect(SC - SA - SB, n, nvars))


def balanced(n: int, nvars: int) -> F:
    return SA + SB - SC - n + nvars


@pytest.mark.parametrize("n, nvars", SAALSCHUETZ_CASES, ids=str)
def test_saalschuetz(n, nvars):
    assert saalschuetz(n, nvars, balanced(n, nvars)) == saalschuetz_product(n, nvars)


@pytest.mark.parametrize("k", [-3, -2, -1, 1, 2, 3])
@pytest.mark.parametrize("n, nvars", SAALSCHUETZ_CASES, ids=str)
def test_saalschuetz_control_unbalanced(n, nvars, k):
    assert saalschuetz(n, nvars, balanced(n, nvars) + k) != saalschuetz_product(n, nvars)
