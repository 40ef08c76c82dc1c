from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, strategies as st

from taukit.partitions import (
    cells,
    conjugate,
    contents,
    enumerate_up_to,
    hook_data,
    hook_lengths,
    n_statistic,
    partitions_of,
)
from taukit.rspec import RSpec, skew_content_product
from taukit.schur import GenericTimes, _grade_layout, skew_schur_poly


def generated_partitions(n, max_part=None):
    """Independent enumeration, the recursive generator partitions_of used to be: weakly decreasing
    tuples summing to n, in reverse-lex order."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in generated_partitions(n - first, first):
            yield (first,) + rest


def naive_partitions(n):
    return set(generated_partitions(n))


partition_strategy = st.integers(0, 8).flatmap(
    lambda n: st.sampled_from(sorted(naive_partitions(n))) if n else st.just(())
)


# -- enumeration -----------------------------------------------------------------


def test_enumerate_zero():
    assert enumerate_up_to(0) == [()]


def test_weight_five_has_seven_partitions():
    fives = list(partitions_of(5))
    assert len(fives) == 7
    assert set(fives) == naive_partitions(5)


def test_enumerate_up_to_three():
    got = enumerate_up_to(3)
    assert len(got) == 7  # 1 + 1 + 2 + 3
    assert got == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def test_enumeration_order_reverse_lex_within_grade():
    grade5 = list(partitions_of(5))
    assert grade5 == sorted(grade5, reverse=True)


@given(st.integers(0, 9))
def test_enumeration_matches_naive(n):
    assert set(partitions_of(n)) == naive_partitions(n)


def test_partitions_of_matches_the_generator_in_order():
    for n in range(21):
        assert partitions_of(n) == tuple(generated_partitions(n))


def test_partitions_of_is_one_tuple_per_grade():
    first = partitions_of(9)
    assert isinstance(first, tuple)
    assert partitions_of(9) is first


def test_enumerate_up_to_returns_a_list_the_caller_may_change():
    got = enumerate_up_to(4)
    got.append((5,))
    got[0] = (9,)
    assert enumerate_up_to(4) == [lam for n in range(5) for lam in generated_partitions(n)]


def test_cold_grade_layout_builds_each_grade_once():
    partitions_of.cache_clear()
    _grade_layout.cache_clear()
    for n in range(15):
        _grade_layout(n)
    assert partitions_of.cache_info().misses == 15


# -- conjugation ----------------------------------------------------------------


def test_conjugate_examples():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3,)) == (1, 1, 1)
    assert conjugate(()) == ()


def test_conjugate_involution_exhaustive():
    for lam in enumerate_up_to(8):
        assert conjugate(conjugate(lam)) == lam


@given(partition_strategy)
def test_conjugate_weight_and_length(lam):
    conj = conjugate(lam)
    assert sum(conj) == sum(lam)
    if lam:
        assert len(lam) == conj[0]


# -- hooks ----------------------------------------------------------------------


def brute_hooks(lam):
    """Arm + leg + 1 per cell, counted directly from the diagram."""
    cellset = set(cells(lam))
    out = []
    for (i, j) in cells(lam):
        arm = sum(1 for jj in range(j + 1, lam[i - 1] + 1))
        leg = sum(1 for ii in range(i + 1, len(lam) + 1) if (ii, j) in cellset)
        out.append(arm + leg + 1)
    return tuple(out)


def test_hook_data_two_one():
    assert sorted(hook_lengths((2, 1))) == [1, 1, 3]
    assert hook_data((2, 1)) == 3
    assert n_statistic((2, 1)) == 1


def test_hook_data_q():
    q = F(1, 2)
    assert hook_data((2, 1), q) == (1 - q**3) * (1 - q) ** 2


def test_hook_data_empty():
    assert hook_data(()) == 1 and hook_data((), F(1, 3)) == 1 and n_statistic(()) == 0


def test_hooks_match_brute_force():
    for lam in enumerate_up_to(8):
        assert hook_lengths(lam) == brute_hooks(lam)


def test_hook_multiset_conjugation_invariant():
    for lam in enumerate_up_to(8):
        assert sorted(hook_lengths(lam)) == sorted(hook_lengths(conjugate(lam)))


def test_n_statistic_binomial_formula():
    for lam in enumerate_up_to(8):
        conj = conjugate(lam)
        assert n_statistic(lam) == sum(comb(col, 2) for col in conj)


def test_cells_count_is_weight():
    for lam in enumerate_up_to(8):
        assert len(cells(lam)) == sum(lam)
        assert len(contents(lam)) == sum(lam)


# -- skew shapes -----------------------------------------------------------------------


def test_skew_rejects_non_contained():
    for outer, inner in (((2,), (1, 1)), ((2, 1), (3,))):
        with pytest.raises(ValueError):
            skew_content_product(RSpec(), outer, inner, 0)
        with pytest.raises(ValueError):
            skew_schur_poly(outer, inner, GenericTimes(), 3)
