from fractions import Fraction as F
from math import factorial

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
    log_series,
    mono,
    parse_rational,
    format_rational,
    rational_nth_root,
    rational_pow,
    tvar,
    weighted_sum,
)
from taukit.verify import compare_windowed

T1, T2, T3, B1 = tvar(1), tvar(2), tvar(3), bvar(1)


def poly_of(d, *terms):
    """A polynomial in the box (d, d)."""
    return GradedPoly(d, d, {mono(m): F(c) for m, c in terms})


def var(v, t_max=6, b_max=None):
    return GradedPoly.variable(v, t_max, t_max if b_max is None else b_max)


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
    p = weighted_sum(((1, var(T1, 5)),), 4, 2) * var(T1, 3, 5)
    assert (p.t_max, p.b_max) == (3, 2)


def test_repr_lists_terms_by_weight():
    assert repr(GradedPoly(3, 3, {(): 1, mono([(T1, 1)]): F(1, 2), mono([(bvar(2), 1)]): -3})) == (
        "<GradedPoly 1*1 + 1/2*t1 + -3*b2>"
    )
    assert repr(GradedPoly.zero(3, 3)) == "<GradedPoly 0>"


# -- derivative -------------------------------------------------------------------


def test_derivative_examples():
    p = poly_of(4, ([(T1, 2)], F(1, 2)), ([(T2, 1)], 1))
    assert derivative(p, T1) == var(T1, 3)
    assert derivative(p, T2) == GradedPoly.constant(1, 2, 4)
    assert derivative(poly_of(4, ([(T1, 1), (B1, 1)], 1)), B1) == var(T1, 3)


def test_derivative_cap_drops():
    p = poly_of(5, ([(T2, 1)], 1), ([(bvar(2), 1)], 1))
    assert (derivative(p, T2).t_max, derivative(p, T2).b_max) == (3, 5)
    assert (derivative(p, bvar(2)).t_max, derivative(p, bvar(2)).b_max) == (5, 3)
    assert (derivative(p, bvar(7)).t_max, derivative(p, bvar(7)).b_max) == (5, 0)


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
    assert (inverse(u) * u) == GradedPoly.constant(1, 4, 4)


# -- Hirota derivative ---------------------------------------------------------------


def test_hirota_odd_diagonal_vanishes():
    f = 1 + var(T1, 4) + poly_of(4, ([(T2, 1)], F(2, 3)))
    assert hirota_D(f, f, [(T1, 1)]).is_zero()


def test_hirota_t1_on_t1_and_1():
    assert hirota_D(var(T1, 3), GradedPoly.constant(1, 3, 3), [(T1, 1)]) == 1


def test_hirota_without_derivatives_is_the_product():
    f = 1 + var(T1, 4) + poly_of(4, ([(T2, 1), (B1, 1)], F(2, 3)))
    g = poly_of(3, ([], F(1, 2)), ([(T1, 2)], F(-3)), ([(B1, 2)], F(5)))
    assert hirota_D(f, g, []) == f * g


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
    return GradedPoly(cap, cap, terms)


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
    q = 1 + p - GradedPoly.constant(p.constant_term(), p.t_max, p.b_max)
    even_fg = hirota_D(p, q, [(T1, 2)])
    even_gf = hirota_D(q, p, [(T1, 2)])
    assert even_fg == even_gf
    odd_fg = hirota_D(p, q, [(T1, 1)])
    odd_gf = hirota_D(q, p, [(T1, 1)])
    assert odd_fg == -odd_gf


VARS = [T1, T2, T3, B1, bvar(2)]
BOUNDS = st.one_of(st.integers(0, 10), st.just(255))


@st.composite
def capped_polys(draw):
    """Polynomials in random boxes (t_max, b_max), either bound at times the largest, 255."""
    t_max, b_max = draw(BOUNDS), draw(BOUNDS)
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        pairs = draw(st.lists(st.tuples(st.sampled_from(VARS), st.integers(1, 3)), max_size=3))
        for v, bound in ((T1, t_max), (B1, b_max)):
            if draw(st.booleans()) and bound == 255:
                pairs.append((v, draw(st.integers(100, 255))))
        terms[mono(pairs)] = F(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))
    return GradedPoly(t_max, b_max, terms)


def in_caps(m, t_max, b_max):
    t = sum(v.index * e for v, e in m if v.family == "t")
    b = sum(v.index * e for v, e in m if v.family == "b")
    return t <= t_max and b <= b_max


class RefPoly:
    """The naive reference: a {Monomial: Fraction} dict and its box, every operation term by term."""

    def __init__(self, t_max, b_max, terms):
        self.t_max, self.b_max = t_max, b_max
        self.terms = {m: F(c) for m, c in terms.items() if c and in_caps(m, t_max, b_max)}

    def derivative(self, v):
        dt, db = (v.index if v.family == fam else 0 for fam in "tb")
        terms = {}
        for m, c in self.terms.items():
            e = dict(m).get(v, 0)
            if e:
                rest = mono([(u, k - (u == v)) for u, k in m])
                terms[rest] = terms.get(rest, 0) + c * e
        return RefPoly(max(self.t_max - dt, 0), max(self.b_max - db, 0), terms)

    def series(self, coeffs):
        """sum coeffs[k] * self**k, self without constant term."""
        out, power = {}, {(): F(1)}
        for c in coeffs:
            for m, v in power.items():
                out[m] = out.get(m, 0) + c * v
            power = pairwise_product(RefPoly(self.t_max, self.b_max, power), self).terms
        return RefPoly(self.t_max, self.b_max, out)


def pairwise_product(p, q, window=None):
    """p * q by every pair of terms, kept in the window, by default the meet of the two boxes."""
    t_max, b_max = window or (min(p.t_max, q.t_max), min(p.b_max, q.b_max))
    acc = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = mono(m1 + m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return RefPoly(t_max, b_max, acc)


@given(capped_polys(), capped_polys(), capped_polys())
@settings(max_examples=150, deadline=None)
def test_product_matches_pairwise_product(p, q, r):
    pq = p * q
    want = pairwise_product(p, q)
    assert pq.terms == want.terms
    assert (pq.t_max, pq.b_max) == (want.t_max, want.b_max)
    # the product's own packed form feeds the next product
    assert (pq * r).terms == pairwise_product(want, r).terms


def test_caps_past_255_are_refused_and_cap_255_stays_exact():
    # an exponent slot holds 8 bits: every route to a bound past 255, on either side, is refused,
    # and t1^255 and b1^255 fill their slots exactly
    low = var(T1, 5)
    for box in ((256, 5), (5, 256)):
        for build in (GradedPoly, lambda *w: weighted_sum([(1, low)], *w)):
            with pytest.raises(ValueError, match="255"):
                build(*box)
    top = poly_of(255, ([(T1, 255)], 1), ([(T1, 1)], 1))
    assert (top * GradedPoly.constant(1, 255, 255)).terms == top.terms
    assert derivative(top, T1) == poly_of(254, ([(T1, 254)], 255), ([], 1))
    assert derivative(top, B1).is_zero()  # nothing spilled into the b1 slot next to t1's
    b_top = poly_of(255, ([(B1, 255)], 1), ([(B1, 1)], 1))
    assert (b_top * b_top).terms == {mono([(B1, 2)]): 1}
    assert derivative(b_top, B1) == poly_of(254, ([(B1, 254)], 255), ([], 1))
    assert derivative(b_top, T2).is_zero()  # nothing spilled into the t2 slot next to b1's
    assert top == poly_of(255, ([(T1, 1)], 1), ([(T1, 255)], 1)) and low != top and top != low
    assert compare_windowed(low, top, 255, 255) == ("t1^255", "0", "1")


def test_equality_with_a_non_number_is_not_implemented():
    p = var(T1)
    assert p.__eq__("x") is NotImplemented and p.__eq__(None) is NotImplemented
    assert p != "x" and p != None and not p == [p]  # noqa: E711
    assert GradedPoly.zero(3, 3) == 0 and GradedPoly.constant(F(1, 2), 3, 3) == F(1, 2)


def test_a_constant_hashes_as_the_number_it_equals():
    assert len({GradedPoly.constant(F(3, 2), 2, 2), F(3, 2)}) == 1
    assert len({GradedPoly.zero(2, 2), 0}) == 1 and len({GradedPoly.constant(5, 0, 4), 5}) == 1
    assert len({var(T1), F(1)}) == 2


SMALL_BOUNDS = st.integers(0, 6)


@st.composite
def raw_polys(draw):
    """(t_max, b_max, terms) with both bounds <= 6; terms may lie outside the box."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        pairs = draw(st.lists(st.tuples(st.sampled_from(VARS), st.integers(1, 3)), max_size=3))
        terms[mono(pairs)] = F(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))
    return draw(SMALL_BOUNDS), draw(SMALL_BOUNDS), terms


def agrees(p, ref):
    """Every reading of the packed p matches the reference; the decoded terms are read last."""
    assert (p.t_max, p.b_max) == (ref.t_max, ref.b_max)
    assert p.constant_term() == ref.terms.get((), 0)
    assert p.is_zero() == (not ref.terms)
    same = GradedPoly(255, 255, ref.terms)  # equality reads the packed terms, not the box
    assert p == same and hash(p) == hash(same)  # equal objects hash equally
    if ref.terms.keys() <= {()}:  # a constant, 0 included, equals its Fraction and so hashes as it
        value = ref.terms.get((), F(0))
        assert p == value and hash(p) == hash(value)
    assert p.terms == ref.terms


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_packed_core_matches_reference(data):
    raw = data.draw(raw_polys())
    p, ref = GradedPoly(*raw), RefPoly(*raw)
    seen = [(p, ref)]
    ops = ["mul", "rebox", "derivative", "sum", "log", "exp", "inverse"]
    for op in data.draw(st.lists(st.sampled_from(ops), min_size=1, max_size=4)):
        other = data.draw(raw_polys())
        q, q_ref = GradedPoly(*other), RefPoly(*other)
        const = ref.terms.get((), F(0))
        x_ref = RefPoly(ref.t_max, ref.b_max, {m: c for m, c in ref.terms.items() if m})
        top = x_ref.t_max + x_ref.b_max
        if op == "mul":
            p, ref = p * q, pairwise_product(ref, q_ref)
        elif op == "rebox":  # p as the one-piece sum, in a window narrower or wider than the box of p
            window = tuple(max(bound + data.draw(st.integers(-3, 2)), 0) for bound in (p.t_max, p.b_max))
            p, ref = weighted_sum(((1, p),), *window), RefPoly(*window, ref.terms)
        elif op == "derivative":
            v = data.draw(st.sampled_from(VARS))
            p, ref = derivative(p, v), ref.derivative(v)
        elif op == "sum":  # a p + b q + e p q, in a window narrower or wider than the operands' boxes
            a, b = F(data.draw(st.integers(-3, 3)), 2), F(data.draw(st.integers(-3, 3)), 3)
            e = F(data.draw(st.integers(-3, 3)), 5)
            meet = (min(p.t_max, q.t_max), min(p.b_max, q.b_max))
            window = tuple(max(bound + data.draw(st.integers(-3, 2)), 0) for bound in meet)
            acc = {m: a * c for m, c in ref.terms.items()}
            for m, c in q_ref.terms.items():
                acc[m] = acc.get(m, 0) + b * c
            for m, c in pairwise_product(ref, q_ref, window).terms.items():
                acc[m] = acc.get(m, 0) + e * c
            p, ref = weighted_sum([(a, p), (b, q), (e, p, q)], *window), RefPoly(*window, acc)
        elif op == "exp":
            p, ref = exp_series(p - const), x_ref.series([F(1, factorial(k)) for k in range(top + 1)])
        elif op == "log":
            coeffs = [F(0)] + [F((-1) ** (k + 1), k) for k in range(1, top + 1)]
            p, ref = log_series(p - const + 1), x_ref.series(coeffs)
        else:
            c = const or F(1)  # inverse of p, or of p + 1 when p has no constant term
            p = inverse(p if const else p + 1)
            x_ref = RefPoly(x_ref.t_max, x_ref.b_max, {m: v / c for m, v in x_ref.terms.items()})
            ref = x_ref.series([F((-1) ** k) / c for k in range(top + 1)])
        agrees(p, ref)
        seen.append((p, ref))
    for (p1, r1), (p2, r2) in zip(seen, seen[1:] + seen[:1]):
        assert (p1 == p2) == (r1.terms == r2.terms)


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


def test_rational_pow_of_zero_at_a_positive_fractional_exponent():
    assert rational_pow(F(0), F(1, 2)) == 0
