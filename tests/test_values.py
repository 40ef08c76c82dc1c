"""Value semantics of the symbol, factor, times, expansion and square-root classes.

Two values are equal, and hash alike, when they are of one class with equal fields; a memo (an RSpec's r(n) values,
an evaluated times' power sums) takes no part in equality, hash or repr; and no field can be assigned again.
"""

from fractions import Fraction as F

import pytest

from taukit.rspec import LinFactor, QLinFactor, QPairFactor, RSpec, r_eval
from taukit.schur import GenericTimes, MiwaTimes, NumericTimes, PrincipalInfinityTimes, PrincipalTimes, schur_poly
from taukit.tau import ChainSpec, SqrtValue, TauExpansion

RATIO = (LinFactor(F(1, 2)),), (LinFactor(F(1, 3)),)
X = (F(1, 2), F(1, 3))


def test_equal_fields_of_two_classes_are_unequal():
    assert QLinFactor(F(1, 2), F(1, 3)) != QPairFactor(F(1, 2), F(1, 3))
    assert MiwaTimes((F(1, 2),)) != NumericTimes((F(1, 2),))
    assert QLinFactor(F(1, 2), F(1, 3)) == QLinFactor(F(1, 2), F(1, 3))
    assert MiwaTimes((F(1, 2),)) == MiwaTimes((F(1, 2),))


def test_a_filled_memo_keeps_equality_and_hash():
    r, fresh = RSpec(num=RATIO[0], den=RATIO[1]), RSpec(num=RATIO[0], den=RATIO[1])
    r_eval(r, 3)
    assert r._values and r == fresh and hash(r) == hash(fresh)
    times = MiwaTimes(X)
    schur_poly((2, 1), times, 3)
    assert times._memo and times == MiwaTimes(X) and hash(times) == hash(MiwaTimes(X))


def test_repr_names_the_fields_and_not_the_memo():
    r = RSpec(num=RATIO[0])
    r_eval(r, 1)
    assert repr(r) == "RSpec(constant=Fraction(1, 1), num=(LinFactor(shift=Fraction(1, 2)),), den=(), q=None)"
    times = MiwaTimes(X[:1])
    schur_poly((1,), times, 1)
    assert repr(times) == "MiwaTimes(x=(Fraction(1, 2),), sign=1)"
    assert repr(TauExpansion(0, {(): F(1)})) == "TauExpansion(grade=0, coeffs={(): Fraction(1, 1)})"


@pytest.mark.parametrize("value, name", [
    (RSpec(), "constant"),
    (RSpec(), "_values"),
    (LinFactor(F(1)), "shift"),
    (GenericTimes(), "family"),
    (NumericTimes((1,)), "t"),
    (MiwaTimes(X), "sign"),
    (PrincipalTimes(2, F(1, 2)), "q"),
    (PrincipalInfinityTimes(), "q"),
    (TauExpansion(0, {(): F(1)}), "coeffs"),
    (ChainSpec(((RSpec(), GenericTimes()),), ((RSpec(), MiwaTimes(X)),)), "left"),
    (SqrtValue.of(1, 2), "radicand"),
], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_fields_cannot_be_assigned_again(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
