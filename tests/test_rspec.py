import contextlib
import io
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import taukit.rspec
from taukit import cli
from taukit.partitions import contains, contents, enumerate_up_to
from taukit.rspec import (
    LinFactor,
    PoleError,
    QLinFactor,
    QPairFactor,
    RSpec,
    content_product,
    content_products,
    poch_partition,
    r_eval,
    rspec_from_json,
    rspec_mul,
    rspec_shift,
    rspec_to_json,
    skew_content_product,
    zero_pole_scan,
)
from taukit.tau import TauExpansion, _row_coeffs, pfq_one_var_coeffs, qphi_multivar

D = RSpec(num=(LinFactor(F(0)),))  # r(D) = D


def lin(*shifts, den=(), constant=1):
    return RSpec(
        constant=F(constant),
        num=tuple(LinFactor(F(s)) for s in shifts),
        den=tuple(LinFactor(F(s)) for s in den),
    )


# -- evaluation ------------------------------------------------------------------


def test_r_eval_identity_function():
    assert r_eval(D, 1) == 1
    assert r_eval(D, -3) == -3


def test_r_eval_ratio():
    r = lin(F(1, 2), den=(F(1, 3),))
    assert r_eval(r, 0) == F(3, 2)


def test_r_eval_qlin():
    q, a = F(1, 4), F(1, 2)
    r = RSpec(num=(QLinFactor(F(1), a),), q=q)
    for n in range(-2, 4):
        assert r_eval(r, n) == 1 - q ** F(1, 2) * q**n if n >= 0 else True
    assert r_eval(r, 2) == 1 - F(1, 2) * F(1, 16)


def test_r_eval_qpair_is_folded_conjugate_product():
    q, amp, cosv = F(1, 3), F(1, 5), F(1, 2)
    r = RSpec(num=(QPairFactor(amp, cosv),), q=q)
    for n in range(-2, 4):
        qn = q**n
        assert r_eval(r, n) == 1 - 2 * amp * cosv * qn + amp**2 * qn**2


def test_r_eval_pole():
    r = lin(den=(F(0),))
    for _ in range(2):  # a pole is raised again, never kept as a value
        with pytest.raises(PoleError) as err:
            r_eval(r, 0)
        assert err.value.point == 0
    assert r_eval(r, 2) == F(1, 2) and r_eval(r, 2) == F(1, 2)


def test_empty_spec_is_one():
    assert RSpec().is_one()
    assert r_eval(RSpec(), 17) == 1


def test_rspec_requires_q_for_q_factors():
    with pytest.raises(ValueError):
        RSpec(num=(QLinFactor(F(1), F(0)),))
    with pytest.raises(ValueError):
        RSpec(constant=F(0))


# -- content products -------------------------------------------------------------


def test_content_product_empty_partition():
    assert content_product(D, (), 5) == 1


def test_content_product_single_cell():
    for m in range(-3, 4):
        assert content_product(D, (1,), m) == m


def test_content_product_hits_zero():
    assert content_product(D, (2, 1), 0) == 0


def brute_content_product(r, lam, m):
    out = F(1)
    for c in contents(lam):
        out *= r_eval(r, c + m)
    return out


def test_content_product_matches_cells():
    r = lin(F(1, 2), den=(F(1, 3),))
    for lam in enumerate_up_to(6):
        for m in (-2, 0, 1):
            assert content_product(r, lam, m) == brute_content_product(r, lam, m)


def test_multiplicativity():
    rng = random.Random(7)
    pool = [F(1, 2), F(2, 3), F(1, 5), F(3, 7)]
    for _ in range(5):
        r1 = lin(rng.choice(pool), den=(rng.choice(pool),))
        r2 = lin(rng.choice(pool) + 1)
        merged = rspec_mul(r1, r2)
        for lam in enumerate_up_to(5):
            m = rng.choice((-1, 0, 2))
            assert content_product(merged, lam, m) == content_product(
                r1, lam, m
            ) * content_product(r2, lam, m)


def test_shift_covariance():
    r = lin(F(1, 2), den=(F(2, 5),))
    for m in (-2, 1, 3):
        shifted = rspec_shift(r, m)
        for lam in enumerate_up_to(5):
            assert content_product(r, lam, m) == content_product(shifted, lam, 0)


def test_shift_covariance_q_factors():
    r = RSpec(
        num=(QLinFactor(F(2, 3), F(1)), QPairFactor(F(1, 5), F(1, 2))),
        den=(QLinFactor(F(3, 5), F(0)),),
        q=F(1, 2),
    )
    for m in (-1, 2):
        shifted = rspec_shift(r, m)
        for lam in enumerate_up_to(4):
            assert content_product(r, lam, m) == content_product(shifted, lam, 0)


# -- skew content products ----------------------------------------------------------


def test_skew_reduces_to_straight():
    r = lin(F(1, 2))
    for lam in enumerate_up_to(5):
        assert skew_content_product(r, lam, (), 1) == content_product(r, lam, 1)
        assert skew_content_product(r, lam, lam, 1) == 1


def test_skew_example():
    r = lin(F(5))
    assert skew_content_product(r, (2, 1), (1,), 0) == 6 * 4


def test_skew_times_inner_equals_outer():
    r = lin(F(1, 2), den=(F(2, 7),))
    for outer in enumerate_up_to(5):
        for inner in enumerate_up_to(3):
            try:
                sk = skew_content_product(r, outer, inner, 1)
            except ValueError:
                continue
            assert sk * content_product(r, inner, 1) == content_product(r, outer, 1)


def test_skew_rejects_non_contained():
    with pytest.raises(ValueError):
        skew_content_product(D, (1,), (2,), 0)


# -- content product tables ------------------------------------------------------------

Q = F(1, 2)
# each pool mixes factors with an integer zero in -1..2 at q = 1/2 (a pole when drawn into den) and factors without
_factors = st.one_of(
    st.builds(LinFactor, st.sampled_from([F(-2), F(0), F(1), F(1, 3), F(-5, 2)])),
    st.builds(QLinFactor, st.sampled_from([F(1), F(4), F(2, 5)]), st.sampled_from([F(-1), F(0), F(2)])),
    st.builds(QPairFactor, st.sampled_from([F(4), F(1, 2), F(1, 5)]), st.sampled_from([F(1), F(1, 2)])),
)
_symbols = st.builds(
    lambda c, num, den: RSpec(constant=c, num=num, den=den, q=Q),
    st.sampled_from([F(1), F(-3, 2)]),
    st.lists(_factors, max_size=2),
    st.lists(_factors, max_size=1),
)


def per_cell(product, parts, *args):
    """{lam: product(lam)} in the order of parts, and the PoleError that stops it, if any."""
    out = {}
    try:
        for lam in parts:
            out[lam] = product(lam, *args)
    except PoleError as exc:
        return out, exc.point
    return out, None


def table(r, parts, m, inner=()):
    try:
        return dict(content_products(r, parts, m, inner)), None
    except PoleError as exc:
        return None, exc.point


@given(_symbols, st.integers(-2, 2), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_content_products_match_per_cell_products(r, m, d):
    parts = enumerate_up_to(d)
    values, point = per_cell(lambda lam: content_product(r, lam, m), parts)
    assert table(r, parts, m) == ((values, None) if point is None else (None, point))
    for mu in enumerate_up_to(min(d, 3)):
        above = [lam for lam in parts if contains(lam, mu)]
        values, point = per_cell(lambda lam: skew_content_product(r, lam, mu, m), above)
        assert table(r, above, m, mu) == ((values, None) if point is None else (None, point))


def pole_of(fn, *args):
    with pytest.raises(PoleError) as err:
        fn(*args)
    return err.value.point, str(err.value)


def lin_den(*shifts):
    return RSpec(den=tuple(LinFactor(F(s)) for s in shifts))


# point and message at M = -1, 0, 2, recorded from the per-cell content products
@pytest.mark.parametrize("r, points", [
    (lin_den(-1), (1, 1, 1)),
    (RSpec(num=(LinFactor(F(0)),), den=(LinFactor(F(3)),)), (-3, -3, -3)),
    (RSpec(num=(LinFactor(F(1, 2)),), den=(QLinFactor(F(1), F(-2)),), q=Q), (2, 2, 2)),
    (RSpec(num=(QPairFactor(F(1, 4), F(1)),), den=(QPairFactor(F(4), F(1)),), q=Q), (2, 2, 2)),
    (lin_den(-3, 2), (-2, -2, 3)),
    (lin_den(-2, 2), (-2, 2, 2)),
    (lin_den(2, -2), (-2, 2, 2)),
], ids=["lin", "lin-column", "qlin", "qpair", "two-poles", "tie", "tie-swapped"])
def test_first_pole_of_a_table_is_pinned(r, points):
    for m, point in zip((-1, 0, 2), points):
        assert pole_of(TauExpansion.build, r, m, 8) == (point, f"pole of r at integer point {point}")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["expand", "--rspec", rspec_to_json(r), "-M", str(m), "-d", "8"])
        assert code == 2
        assert err.getvalue() == f"error: pole at integer point {point}: a denominator given by --rspec vanishes there\n"


@pytest.mark.parametrize("b, qphi_points, pfq_points", [
    ([0], (0, 0, None), (0, 0, None)),
    ([-1], (1, 1, 1), (1, 1, None)),
    ([-3], (3, 3, 3), (3, 3, 3)),
    ([2], (-2, None, None), (None, None, None)),
    ([-3, 1], (-1, -1, 3), (-1, 3, 3)),
    ([2, -1], (-2, 1, 1), (1, 1, None)),
])
def test_first_pole_of_a_family_is_pinned(b, qphi_points, pfq_points):
    for m, qphi_point, pfq_point in zip((-1, 0, 2), qphi_points, pfq_points):
        for point, fn, args in (
            (qphi_point, qphi_multivar, ([2], b, m, Q, (F(1, 3), F(1, 5)), 8)),
            (pfq_point, pfq_one_var_coeffs, ([F(1, 3)], b, m, 8)),
        ):
            if point is None:
                fn(*args)
            else:
                assert pole_of(fn, *args) == (point, f"pole of r at integer point {point}")


def test_one_evaluation_per_partition(monkeypatch):
    calls = []
    r_eval = taukit.rspec.r_eval
    monkeypatch.setattr(taukit.rspec, "r_eval", lambda r, n: calls.append(n) or r_eval(r, n))
    r = lin(F(1, 2), den=(F(1, 3),))
    TauExpansion.build(r, 1, 12)
    assert len(calls) == len(enumerate_up_to(12)) - 1
    calls.clear()
    _row_coeffs(r, 0, 50)
    assert len(calls) == 50


# -- partition Pochhammer symbols ------------------------------------------------------


def test_poch_empty():
    assert poch_partition(F(3, 7), (), F(1, 2)) == 1
    assert poch_partition(F(3, 7), ()) == 1


def test_poch_row_two():
    a, q = F(1, 3), F(1, 8)  # q^(1/3) = 1/2
    qa = F(1, 2)
    assert poch_partition(a, (2,), q) == (1 - qa) * (1 - qa * q)


def test_poch_plain_is_content_product_of_lin():
    a = F(2, 5)
    r = lin(a)
    for lam in enumerate_up_to(6):
        assert poch_partition(a, lam) == content_product(r, lam, 0)


def test_poch_q_is_content_product_of_qlin():
    a, q = F(2), F(1, 2)
    r = RSpec(num=(QLinFactor(F(1), a),), q=q)
    for lam in enumerate_up_to(6):
        assert poch_partition(a, lam, q) == content_product(r, lam, 0)


# -- zero / pole scanning ---------------------------------------------------------------------


def test_scan_identity_d():
    assert zero_pole_scan(D, -2, 2) == [(0, "zero")]


def test_scan_qlin_integer_zero():
    r = RSpec(num=(QLinFactor(F(1), F(3)),), q=F(1, 2))
    assert zero_pole_scan(r, -5, 5) == [(-3, "zero")]


def test_scan_empty_for_one():
    assert zero_pole_scan(RSpec(), -5, 5) == []


def test_scan_reports_poles():
    r = lin(den=(F(-1),))
    assert zero_pole_scan(r, 0, 3) == [(1, "pole")]


def test_scan_shared_zero_and_pole_reads_pole():
    # (D - 1)/(D - 1): a numerator and a denominator factor vanish together at n = 1
    assert zero_pole_scan(lin(-1, den=(-1,)), -2, 3) == [(1, "pole")]


def test_scan_qpair_double_zero():
    # amp 1, cos 1: (1 - q^n)^2, a double zero at n = 0
    r = RSpec(num=(QPairFactor(F(1), F(1)),), q=F(1, 2))
    assert zero_pole_scan(r, -3, 3) == [(0, "zero")]


def test_scan_rejects_reversed_range():
    with pytest.raises(ValueError, match="hi must be >= lo"):
        zero_pole_scan(D, 1, 0)


def per_factor_scan(r, lo, hi):
    """Zeros and poles from each factor's own value: a vanishing denominator factor makes a pole."""
    found = []
    for n in range(lo, hi + 1):
        if any(f.value(n, r.q) == 0 for f in r.den):
            found.append((n, "pole"))
        elif any(f.value(n, r.q) == 0 for f in r.num):
            found.append((n, "zero"))
    return found


@given(_symbols, st.integers(-6, 0), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_scan_matches_per_factor_scan(r, lo, hi):
    assert zero_pole_scan(r, lo, hi) == per_factor_scan(r, lo, hi)


# -- JSON wire format --------------------------------------------------------------------------


def test_json_round_trip():
    r = RSpec(
        constant=F(-3, 2),
        num=(LinFactor(F(1, 2)), QLinFactor(F(2, 3), F(-1))),
        den=(QPairFactor(F(1, 5), F(1, 2)),),
        q=F(1, 3),
    )
    text = rspec_to_json(r)
    assert rspec_from_json(text) == r
    assert rspec_to_json(rspec_from_json(text)) == text


def test_json_wire_form_is_pinned():
    r = RSpec(
        constant=F(-3, 2),
        num=(LinFactor(F(1, 2)), QLinFactor(F(2, 3), F(-1))),
        den=(QPairFactor(F(1, 5), F(1, 2)), LinFactor(F(-4))),
        q=F(1, 3),
    )
    assert rspec_to_json(r) == (
        '{"constant":"-3/2","q":"1/3","num":[{"lin":{"shift":"1/2"}},{"qlin":{"coeff":"2/3","shift":"-1"}}],'
        '"den":[{"qpair":{"amp":"1/5","cos":"1/2"}},{"lin":{"shift":"-4"}}]}'
    )


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        rspec_from_json("{not json")
    with pytest.raises(ValueError):
        rspec_from_json('{"constant":"1","num":[{"mystery":{}}],"den":[]}')


@given(st.integers(-6, 6), st.integers(1, 4))
@settings(max_examples=30)
def test_qlin_eval_definition(n, denom):
    q = F(1, 2)
    coeff = F(1, denom)
    r = RSpec(num=(QLinFactor(coeff, F(2)),), q=q)
    assert r_eval(r, n) == 1 - coeff * q ** (2 + n)
