import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from taukit.partitions import contents, enumerate_up_to
from taukit.rspec import (
    LinFactor,
    PoleError,
    QLinFactor,
    QPairFactor,
    RSpec,
    content_product,
    h_from_r,
    poch_partition,
    r_eval,
    rspec_from_json,
    rspec_mul,
    rspec_shift,
    rspec_to_json,
    skew_content_product,
    zero_pole_scan,
)

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


# -- h tables and gauge constants ----------------------------------------------------------


def test_h_identity_function():
    table = h_from_r(RSpec(), -3, 3)
    assert all(v == 1 for v in table.values())


def test_h_recursion_example():
    table = h_from_r(lin(F(1)), -1, 2)
    assert table[-1] == 1 and table[0] == 1
    assert table[1] == F(1, 2)
    assert table[2] == F(1, 6)


def test_h_ratio_is_inverse_r():
    a, b = F(1, 3), F(2, 7)
    r = lin(a, den=(b,))
    table = h_from_r(r, -2, 4)
    for n in range(-1, 5):
        assert table[n] / table[n - 1] == (n + b) / (n + a)


def test_h_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        h_from_r(D, -1, 1)


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
