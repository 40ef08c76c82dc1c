from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from taukit.poly import (
    GradedPoly,
    ONE_MONO,
    bvar,
    derivative,
    exp_series,
    hirota_D,
    inverse,
    lift,
    log_series,
    mono,
    parse_rational,
    format_rational,
    rational_nth_root,
    rational_pow,
    tvar,
)

T1, T2, T3, B1 = tvar(1), tvar(2), tvar(3), bvar(1)


def poly_of(cap, *terms):
    return GradedPoly(cap, {mono(m): F(c) for m, c in terms})


def var(v, cap=6):
    return GradedPoly.variable(v, cap)


# -- arithmetic ------------------------------------------------------------------


def test_mul_basic():
    p = var(T1, 2) * var(T1, 2)
    assert p == poly_of(2, ([(T1, 2)], 1))


def test_mul_truncates():
    sq = poly_of(2, ([(T1, 2)], 1))
    assert (sq * var(T1, 2)).is_zero()


def test_add_cancels():
    a = var(T1, 4) + var(B1, 4)
    b = var(T1, 4) - var(B1, 4)
    assert a + b == var(T1, 4).scale(2)


def test_result_cap_is_min():
    p = lift(var(T1, 5), 4) * var(T1, 3)
    assert p.cap == 3


# -- derivative -------------------------------------------------------------------


def test_derivative_examples():
    p = poly_of(4, ([(T1, 2)], F(1, 2)), ([(T2, 1)], 1))
    assert derivative(p, T1) == var(T1, 3)
    assert derivative(p, T2) == GradedPoly.constant(1, 2)
    assert derivative(poly_of(4, ([(T1, 1), (B1, 1)], 1)), B1) == var(T1, 3)


def test_derivative_cap_drops():
    p = poly_of(5, ([(T2, 1)], 1))
    assert derivative(p, T2).cap == 3


# -- exp / log ---------------------------------------------------------------------


def test_exp_xi_series():
    got = exp_series(var(T1, 3))
    want = poly_of(3, ([], 1), ([(T1, 1)], 1), ([(T1, 2)], F(1, 2)), ([(T1, 3)], F(1, 6)))
    assert got == want


def test_log_series():
    got = log_series(1 + var(T1, 2))
    assert got == poly_of(2, ([(T1, 1)], 1), ([(T1, 2)], F(-1, 2)))


def test_exp_log_round_trip():
    p = var(T1, 4) + var(T2, 4)
    assert log_series(exp_series(p)) == p


def test_exp_rejects_constant():
    with pytest.raises(ValueError):
        exp_series(1 + var(T1, 3))
    with pytest.raises(ValueError):
        log_series(var(T1, 3))


def test_inverse():
    u = 1 + var(T1, 4)
    assert (inverse(u) * u) == GradedPoly.constant(1, 4)


# -- Hirota derivative ---------------------------------------------------------------


def test_hirota_odd_diagonal_vanishes():
    f = 1 + var(T1, 4) + poly_of(4, ([(T2, 1)], F(2, 3)))
    assert hirota_D(f, f, [(T1, 1)]).is_zero()


def test_hirota_t1_on_t1_and_1():
    assert hirota_D(var(T1, 3), GradedPoly.constant(1, 3), [(T1, 1)]) == 1


class YPoly:
    """Brute-force oracle: polynomials in (t_i, y_i), keyed by paired exponents."""

    def __init__(self, terms=None):
        self.terms = {k: F(v) for k, v in (terms or {}).items() if v}

    @staticmethod
    def from_graded(p, nvars, shift_sign):
        # t_i -> t_i + shift_sign * y_i, expanded step by step
        out = YPoly()
        for m, c in p.terms.items():
            expansion = YPoly({((0,) * nvars, (0,) * nvars): c})
            for v, e in m:
                for _ in range(e):
                    stepped = YPoly()
                    for (te, ye), cc in expansion.terms.items():
                        up_t = list(te)
                        up_t[v.index - 1] += 1
                        stepped._add(tuple(up_t), ye, cc)
                        up_y = list(ye)
                        up_y[v.index - 1] += 1
                        stepped._add(te, tuple(up_y), cc * shift_sign)
                    expansion = stepped
            for k, v2 in expansion.terms.items():
                out.terms[k] = out.terms.get(k, 0) + v2
        return out

    def _add(self, te, ye, c):
        self.terms[(te, ye)] = self.terms.get((te, ye), 0) + c

    def mul(self, other):
        out = YPoly()
        for (t1, y1), c1 in self.terms.items():
            for (t2, y2), c2 in other.terms.items():
                te = tuple(a + b for a, b in zip(t1, t2))
                ye = tuple(a + b for a, b in zip(y1, y2))
                out._add(te, ye, c1 * c2)
        return out

    def d_y(self, i):
        out = YPoly()
        for (te, ye), c in self.terms.items():
            if ye[i - 1] == 0:
                continue
            down = list(ye)
            down[i - 1] -= 1
            out._add(te, tuple(down), c * ye[i - 1])
        return out

    def at_y_zero(self):
        return {te: c for (te, ye), c in self.terms.items() if not any(ye) and c}


def hirota_oracle(f, g, alpha, nvars):
    prod = YPoly.from_graded(f, nvars, 1).mul(YPoly.from_graded(g, nvars, -1))
    for v, e in alpha:
        for _ in range(e):
            prod = prod.d_y(v.index)
    return prod.at_y_zero()


def graded_to_texps(p, nvars):
    out = {}
    for m, c in p.terms.items():
        te = [0] * nvars
        for v, e in m:
            te[v.index - 1] = e
        out[tuple(te)] = c
    return out


def test_kp_operator_on_linear_tau_matches_definition():
    tau = 1 + var(T1, 4).scale(F(2, 3))
    expr = (
        hirota_D(tau, tau, [(T1, 4)])
        + hirota_D(tau, tau, [(T2, 2)]).scale(3)
        - hirota_D(tau, tau, [(T1, 1), (T3, 1)]).scale(4)
    )
    oracle = {}
    for alpha, w in (([(T1, 4)], 1), ([(T2, 2)], 3), ([(T1, 1), (T3, 1)], -4)):
        for te, c in hirota_oracle(tau, tau, alpha, 3).items():
            oracle[te] = oracle.get(te, 0) + w * c
    oracle = {k: v for k, v in oracle.items() if v}
    assert expr.is_zero()
    assert oracle == {}


@given(st.integers(1, 3), st.integers(1, 3))
def test_hirota_definition_oracle_on_monomials(e1, e2):
    f = poly_of(6, ([(T1, e1)], 1))
    g = poly_of(6, ([(T2, 1)], 1), ([(T1, e2)], F(1, 2)))
    got = hirota_D(f, g, [(T1, 2)])
    want = hirota_oracle(f, g, [(T1, 2)], 2)
    assert graded_to_texps(got, 2) == want


# -- properties ----------------------------------------------------------------------


@st.composite
def small_polys(draw, cap=5):
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        m = draw(
            st.lists(
                st.tuples(st.sampled_from([T1, T2, B1]), st.integers(1, 2)),
                max_size=2,
            )
        )
        c = F(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
        terms[mono(m)] = terms.get(mono(m), 0) + c
    return GradedPoly(cap, terms)


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p


@given(small_polys())
@settings(max_examples=40)
def test_derivative_commutes(p):
    assert derivative(derivative(p, T1), B1) == derivative(derivative(p, B1), T1)
    assert derivative(derivative(p, T1), T2) == derivative(derivative(p, T2), T1)


@given(small_polys())
@settings(max_examples=40)
def test_hirota_parity(p):
    q = 1 + p - GradedPoly.constant(p.constant_term(), p.cap)
    even_fg = hirota_D(p, q, [(T1, 2)])
    even_gf = hirota_D(q, p, [(T1, 2)])
    assert even_fg == even_gf
    odd_fg = hirota_D(p, q, [(T1, 1)])
    odd_gf = hirota_D(q, p, [(T1, 1)])
    assert odd_fg == -odd_gf


VARS = [T1, T2, T3, B1, bvar(2)]
CAPS = st.one_of(st.none(), st.integers(0, 6))


@st.composite
def capped_polys(draw):
    """Polynomials under random caps: each family cap set or unset, some caps past 255."""
    cap = draw(st.one_of(st.integers(0, 10), st.just(300)))
    fam_caps = (draw(CAPS), draw(CAPS))
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        pairs = draw(st.lists(st.tuples(st.sampled_from(VARS), st.integers(1, 3)), max_size=3))
        if draw(st.booleans()) and cap == 300:
            pairs.append((T1, draw(st.integers(100, 290))))
        terms[mono(pairs)] = F(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))
    return GradedPoly(cap, terms, fam_caps)


def pairwise_product(p, q):
    """p * q by every pair of terms, kept where the tighter caps allow."""
    cap = min(p.cap, q.cap)
    fam = [min(c for c in pair if c is not None) if any(c is not None for c in pair) else None
           for pair in zip(p.fam_caps, q.fam_caps)]
    acc = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = mono(m1 + m2)
            t = sum(v.index * e for v, e in m if v.family == "t")
            b = sum(v.index * e for v, e in m if v.family == "b")
            if t + b <= cap and (fam[0] is None or t <= fam[0]) and (fam[1] is None or b <= fam[1]):
                acc[m] = acc.get(m, 0) + c1 * c2
    return GradedPoly(cap, acc, tuple(fam))


@given(capped_polys(), capped_polys(), capped_polys())
@settings(max_examples=150, deadline=None)
def test_product_matches_pairwise_product(p, q, r):
    pq = p * q
    want = pairwise_product(p, q)
    assert pq.terms == want.terms
    assert (pq.cap, pq.fam_caps) == (want.cap, want.fam_caps)
    # the product's own packed form feeds the next product
    assert (pq * r).terms == pairwise_product(want, r).terms


# -- scalars ----------------------------------------------------------------------------


def test_coeff_lookup():
    p = poly_of(4, ([(T1, 2)], F(1, 2)), ([(T2, 1)], 1))
    assert p.coeff(mono([(T2, 1)])) == 1
    assert p.coeff(mono([(T1, 1)])) == 0
    assert p.coeff(ONE_MONO) == 0


def test_parse_format_rational():
    assert parse_rational("3/6") == F(1, 2)
    assert format_rational(F(3, 6)) == "1/2"
    assert format_rational(F(-2)) == "-2"
    with pytest.raises(ValueError):
        parse_rational("x")


def test_rational_pow_exact_roots():
    assert rational_pow(F(1, 4), F(1, 2)) == F(1, 2)
    assert rational_pow(F(8, 27), F(2, 3)) == F(4, 9)
    assert rational_pow(F(1, 2), F(-2)) == 4
    assert rational_nth_root(F(1, 3), 2) is None
    with pytest.raises(ValueError):
        rational_pow(F(1, 3), F(1, 2))
