"""The benchmark's references against values worked out by hand."""

from fractions import Fraction as F

import refs

ONE = {"constant": "1", "num": [], "den": []}
T1B1 = (("b", 1, 1), ("t", 1, 1))
T2B2 = (("b", 2, 1), ("t", 2, 1))
T11B11 = (("b", 1, 2), ("t", 1, 2))


def test_content_products_of_d_at_charge_one():
    r = {"constant": "1", "num": [{"lin": {"shift": "0"}}], "den": []}
    assert refs.content_table_json(r, 1, 2) == {"[]": "1", "[1]": "1", "[2]": "2", "[1,1]": "0"}


def test_content_products_of_q_factor():
    # r(n) = 1 - (1/2)^n at charge 1: r(1) = 1/2, r(2) = 3/4, r(0) = 0
    r = {"constant": "1", "q": "1/2", "num": [{"qlin": {"coeff": "1", "shift": "0"}}], "den": []}
    assert refs.content_products(r, 1, 2) == {(): 1, (1,): F(1, 2), (2,): F(3, 8), (1, 1): 0}


def test_cauchy_kernel_to_grade_two():
    # exp(t1 b1 + 2 t2 b2) = 1 + t1 b1 + 2 t2 b2 + (t1 b1)^2 / 2 + ...
    assert refs.cauchy_kernel(2) == {(): 1, T1B1: 1, T2B2: 2, T11B11: F(1, 2)}


def test_low_grades_of_r_one_are_the_cauchy_kernel():
    assert refs.window(refs.tau_low_grades(ONE, 0), 2, 2) == refs.cauchy_kernel(2)


def test_low_grades_of_d():
    # r(D) = D at M = 2: r(2) = 2, A = 2 * 3 = 6, B = 2 * 1 = 2
    r = {"constant": "1", "num": [{"lin": {"shift": "0"}}], "den": []}
    low = refs.tau_low_grades(r, 2)
    assert low[T1B1] == 2 and low[T2B2] == 8 and low[T11B11] == 2
    assert low[(("b", 1, 2), ("t", 2, 1))] == 2


def test_term_ratio_coefficients():
    # 1F0(1;;x) = 1/(1-x); with no parameters the q-series is 1/(q;q)_k
    assert refs.term_ratio_coeffs([1], [], 0, 3) == [1, 1, 1, 1]
    assert refs.term_ratio_coeffs([], [], 0, 2, F(1, 2)) == [1, 2, F(8, 3)]
    # the charge shifts every parameter: (a + M)_k / k! with a + M = 2
    assert refs.term_ratio_coeffs([1], [], 1, 2) == [1, 2, 3]


def test_cauchy_product_one_by_one():
    assert refs.cauchy_product([F(1, 2)], [F(1, 3)], 2) == 1 + F(1, 6) + F(1, 36)
    assert refs.cauchy_product([F(1, 2), F(1, 3)], [1], 1) == 1 + F(1, 2) + F(1, 3)


def test_schur_values():
    a, b = F(1, 2), F(1, 3)
    assert refs.schur_bialternant((2,), [a, b]) == a * a + a * b + b * b
    assert refs.schur_bialternant((1, 1), [a, b]) == a * b
    assert refs.schur_bialternant((1, 1, 1), [a, b]) == 0
    assert refs.schur_principal((1, 1), F(5)) == 10  # 5 * 4 / (2 * 1)
    assert refs.hook_lengths((2, 1)) == [3, 1, 1]


def test_family_coefficients():
    # (a)_(2) / H = a (a + 1) / 2 and (q^a; q)_(1) q^0 / (1 - q)
    assert refs.family_coeffs([F(1, 2)], [], 0, 2)[(2,)] == F(3, 8)
    assert refs.family_coeffs([2], [], 0, 1, F(1, 2))[(1,)] == F(3, 2)
