"""The classical case of every q-product is q = None.

Each closed form written through ``q_number`` is checked here against its
classical and its q formula written out by hand, with q^a given as a
number, so no test below goes through ``q_number`` or ``rational_pow``.
"""

from fractions import Fraction as F
from math import factorial, prod

import pytest

from taukit.partitions import enumerate_up_to, hook_data
from taukit.poly import q_number
from taukit.rspec import PoleError, poch_partition
from taukit.schur import PrincipalInfinityTimes, PrincipalTimes, schur_poly, schur_principal_value
from taukit.tau import classical_reference

# (a, q, q^a); q^a is unused at q = None
CASES = [
    (F(1, 2), None, None),
    (F(3), None, None),
    (F(3), F(2, 3), F(8, 27)),
    (F(-2), F(2, 3), F(9, 4)),
    (F(1, 2), F(1, 4), F(1, 2)),
]
IDS = [f"a={a},q={q}" for a, q, _ in CASES]
PARTITIONS = enumerate_up_to(6)


def hooks(lam):
    """Hook lengths by counting arm and leg cells directly."""
    return [
        lam[i] - j + sum(1 for k in range(i + 1, len(lam)) if lam[k] > j)
        for i in range(len(lam))
        for j in range(lam[i])
    ]


def contents(lam):
    return [j - i for i in range(len(lam)) for j in range(lam[i])]


def poch_by_hand(a, q, qa, lam):
    if q is None:
        return prod((a + c for c in contents(lam)), start=F(1))
    return prod((1 - qa * q**c for c in contents(lam)), start=F(1))


def hooks_by_hand(q, lam):
    if q is None:
        return F(prod(hooks(lam)))
    return prod((1 - q**h for h in hooks(lam)), start=F(1))


def n_by_hand(lam):
    return sum(i * part for i, part in enumerate(lam))


def test_q_number():
    assert q_number(F(5, 3), None) == F(5, 3)
    assert q_number(3, F(1, 2)) == F(7, 8)
    assert q_number(F(1, 2), F(1, 4)) == F(1, 2)
    with pytest.raises(ValueError, match="q must be nonzero"):
        q_number(1, F(0))


@pytest.mark.parametrize("a, q, qa", CASES, ids=IDS)
def test_poch_partition_by_hand(a, q, qa):
    for lam in PARTITIONS:
        assert poch_partition(a, lam, q) == poch_by_hand(a, q, qa, lam)


@pytest.mark.parametrize("q", [None, F(2, 3), F(1, 4)])
def test_hook_product_by_hand(q):
    for lam in PARTITIONS:
        assert hook_data(lam, q) == hooks_by_hand(q, lam)
        value = (1 if q is None else q ** n_by_hand(lam)) / hooks_by_hand(q, lam)
        assert schur_poly(lam, PrincipalInfinityTimes(q), 6) == value


@pytest.mark.parametrize("a, q, qa", CASES, ids=IDS)
def test_schur_principal_value_by_hand(a, q, qa):
    for lam in PARTITIONS:
        power = 1 if q is None else q ** n_by_hand(lam)
        want = poch_by_hand(a, q, qa, lam) * power / hooks_by_hand(q, lam)
        assert schur_principal_value(lam, a, q) == want
        assert schur_poly(lam, PrincipalTimes(a, q), 6) == want


@pytest.mark.parametrize("a, q, qa", CASES, ids=IDS)
def test_principal_times_by_hand(a, q, qa):
    if q is None:
        want = [a / m for m in range(1, 7)]
    else:
        want = [(1 - qa**m) / (m * (1 - q**m)) for m in range(1, 7)]
    assert PrincipalTimes(a, q).values(6) == want


def test_classical_reference_by_hand():
    a, b = [F(1, 2), F(3)], [F(5, 2)]
    want = [F(1)]
    for k in range(6):
        want.append(want[-1] * (a[0] + k) * (a[1] + k) / ((b[0] + k) * (k + 1)))
    assert classical_reference(a, b, 6) == want
    # q = 2/3 at integer parameters; at (1/2, 1/4) with q^(1/2) = 1/2
    for (a, b, q, qa, qb) in [
        ([F(3), F(-2)], [F(5)], F(2, 3), [F(8, 27), F(9, 4)], [F(32, 243)]),
        ([F(1, 2)], [F(3, 2)], F(1, 4), [F(1, 2)], [F(1, 8)]),
    ]:
        want = [F(1)]
        for k in range(6):
            num = prod((1 - x * q**k for x in qa), start=F(1))
            den = prod((1 - x * q**k for x in qb), start=F(1)) * (1 - q ** (k + 1))
            want.append(want[-1] * num / den)
        assert classical_reference(a, b, 6, q) == want
    assert classical_reference([], [], 5) == [F(1, factorial(k)) for k in range(6)]


# -- refusals keep their message and their order ----------------------------------------------


def test_zero_q_is_refused_for_every_nonempty_partition():
    for lam in PARTITIONS[1:]:
        for call in (
            lambda: poch_partition(F(1, 2), lam, F(0)),
            lambda: hook_data(lam, F(0)),
            lambda: schur_principal_value(lam, F(1, 2), F(0)),
            lambda: schur_poly(lam, PrincipalInfinityTimes(F(0)), 6),
            lambda: schur_poly(lam, PrincipalTimes(F(1, 2), F(0)), 6),
        ):
            with pytest.raises(ValueError, match="q must be nonzero"):
                call()
    with pytest.raises(ValueError, match="q must be nonzero"):
        PrincipalTimes(F(2), F(0)).values(6)
    assert poch_partition(F(1, 2), (), F(0)) == 1


def test_irrational_power_is_named():
    power = r"1/2\*\*1/2 is not rational"
    for call in (
        lambda: poch_partition(F(1, 2), (2, 1), F(1, 2)),
        lambda: schur_principal_value((2, 1), F(1, 2), F(1, 2)),
        lambda: PrincipalTimes(F(1, 2), F(1, 2)).values(6),
        lambda: classical_reference([F(1, 2)], [], 3, F(1, 2)),
        lambda: classical_reference([], [F(1, 2)], 3, F(1, 2)),
    ):
        with pytest.raises(ValueError, match=power):
            call()


def test_root_of_unity_is_refused_before_the_irrational_power():
    # q = -1: [1] = 2 but [2] = 0, and (-1)^(1/2) is not rational either
    with pytest.raises(ValueError, match=r"q\^2 = 1: q is a root of unity in range"):
        PrincipalTimes(F(1, 2), F(-1)).values(3)
    with pytest.raises(ValueError, match=r"-1\*\*1/2 is not rational"):
        PrincipalTimes(F(1, 2), F(-1)).values(1)


def test_classical_reference_reports_the_pole_before_dividing_by_a_zero_bracket():
    # at q = 1 both [b + 0] = 1 - 1^(-1) and [0 + 1] = 1 - 1 vanish; the pole comes first
    with pytest.raises(PoleError):
        classical_reference([2], [-1], 3, q=1)


# -- the deliberate changes of the collapse ---------------------------------------------------


def test_principal_value_of_the_empty_partition_is_one():
    # s_() = 1 at any times; the closed form no longer refuses an irrational q^a there
    assert schur_principal_value((), F(1, 2), F(1, 2)) == 1
    assert schur_poly((), PrincipalTimes(F(1, 2), F(1, 2)), 4) == 1


def test_zero_q_is_refused_by_classical_reference():
    with pytest.raises(ValueError, match="q must be nonzero"):
        classical_reference([F(1)], [F(2)], 3, q=F(0))
    assert classical_reference([F(1)], [F(2)], 0, q=F(0)) == [1]


def test_principal_times_refuse_only_the_values_they_resolve():
    # no value is resolved at d = 0, so nothing is refused there
    assert PrincipalTimes(F(1, 2), F(0)).values(0) == []
    assert PrincipalTimes(F(1, 2), F(1, 2)).values(0) == []
