"""Mutation battery: each row plants one defect and names the checks that must catch it.

A row is (name, monkeypatch target, defective replacement, checks expected
to kill it).  The replacement is built from the original callable.  Each
listed check must pass on the unmutated code and fail on the mutant; a
mutant that a listed check lets through fails the test.
"""

import importlib
from fractions import Fraction as F

import pytest

from taukit.poly import bvar
from taukit.rspec import LinFactor, RSpec
from taukit.verify import check_hirota

RATIO = RSpec(num=(LinFactor(F(1, 2)),), den=(LinFactor(F(1, 3)),))

CHECKS = {
    "hirota": lambda: check_hirota(RATIO, 0, 5),
}


def _b2_for_b1(alpha):
    return [(bvar(2) if v == bvar(1) else v, e) for v, e in alpha]


MUTANTS = [
    (
        "hirota_D doubled (the dropped 1/2)",
        "taukit.verify.hirota_D",
        lambda hirota_D: lambda f, g, alpha: hirota_D(f, g, alpha).scale(2),
        ("hirota",),
    ),
    (
        "hirota_D with b2 in place of b1",
        "taukit.verify.hirota_D",
        lambda hirota_D: lambda f, g, alpha: hirota_D(f, g, _b2_for_b1(alpha)),
        ("hirota",),
    ),
    (
        "r_eval returns r(n + 1): r(M+1) on the hirota rhs",
        "taukit.verify.r_eval",
        lambda r_eval: lambda r, n: r_eval(r, n + 1),
        ("hirota",),
    ),
]


@pytest.mark.parametrize(
    "target, defect, check",
    [(target, defect, check) for _, target, defect, checks in MUTANTS for check in checks],
    ids=[f"{name}/{check}" for name, _, _, checks in MUTANTS for check in checks],
)
def test_mutant_is_killed(monkeypatch, target, defect, check):
    assert CHECKS[check]().passed
    module, _, attr = target.rpartition(".")
    original = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(target, defect(original))
    assert not CHECKS[check]().passed
