"""Refusals of malformed or out-of-range arguments that no other test reaches, with their messages."""

from fractions import Fraction as F

import pytest

from taukit.partitions import check_partition, enumerate_up_to
from taukit.poly import GradedPoly, bvar, inverse, mono, rational_pow, tvar
from taukit.rspec import QLinFactor, RSpec, factor_from_obj, rspec_from_json, rspec_mul
from taukit.schur import GenericTimes, MiwaTimes, PrincipalInfinityTimes, power_sums_basis, schur_poly, skew_schur_poly
from taukit.tau import ChainSpec, TauExpansion, askey_wilson, clebsch_gordan_q, q_bracket
from taukit.verify import _corner_dets

AW = (F(1, 2), F(1, 3), F(1, 5), F(1, 7))  # Askey-Wilson a, b, c, d

# (call, exception type, message); each message was recorded from the call itself
REFUSALS = {
    "partition-nonpositive": (lambda: check_partition((2, 0)), ValueError, "partition parts must be positive: (2, 0)"),
    "partition-increasing": (
        lambda: check_partition((1, 2)), ValueError, "partition parts must be weakly decreasing: (1, 2)"
    ),
    "enumerate-negative": (lambda: enumerate_up_to(-1), ValueError, "d must be >= 0"),
    "build-negative": (lambda: TauExpansion.build(RSpec(), 0, -1), ValueError, "truncation grade must be >= 0"),
    "power-sums-negative": (lambda: power_sums_basis(-1), ValueError, "d must be >= 0"),
    "tvar-zero": (lambda: tvar(0), ValueError, "variable index must be >= 1"),
    "bvar-zero": (lambda: bvar(0), ValueError, "variable index must be >= 1"),
    "mono-negative": (lambda: mono([(tvar(1), -1)]), ValueError, "negative exponent"),
    "inverse-no-constant": (
        lambda: inverse(GradedPoly.variable(tvar(1), 2, 2)), ValueError, "inverse requires nonzero constant term"
    ),
    "rational-pow-zero": (lambda: rational_pow(F(0), F(-1, 2)), ZeroDivisionError, "0 to a negative power"),
    "rspec-q-zero": (lambda: RSpec(num=(QLinFactor(F(1), F(0)),), q=0), ValueError, "q must be nonzero"),
    "rspec-mul-two-q": (
        lambda: rspec_mul(RSpec(q=F(1, 2)), RSpec(q=F(1, 3))), ValueError, "incompatible q parameters: 1/2 vs 1/3"
    ),
    "factor-not-dict": (lambda: factor_from_obj(["lin"]), ValueError, "malformed factor object: ['lin']"),
    "rspec-json-list": (lambda: rspec_from_json("[]"), ValueError, "rspec JSON must be an object"),
    "miwa-sign": (lambda: MiwaTimes((F(1),), sign=2), ValueError, "sign must be +1 or -1"),
    "generic-weight-above-d": (
        lambda: schur_poly((2, 1), GenericTimes(), 2), ValueError, "weight 3 of (2, 1)/() exceeds truncation grade 2"
    ),
    "skew-at-principal-infinity": (
        lambda: skew_schur_poly((2, 1), (1,), PrincipalInfinityTimes(), 3),
        TypeError,
        "principal-infinity times are defined for straight shapes only",
    ),
    "chain-two-generic": (
        lambda: ChainSpec(
            left=((RSpec(), GenericTimes("t")), (RSpec(), GenericTimes("b"))),
            right=((RSpec(), MiwaTimes((F(1),))),),
        ),
        ValueError,
        "at most one generic time set per chain side",
    ),
    "askey-wilson-negative-n": (lambda: askey_wilson(-1, *AW, F(1, 2), F(1, 3)), ValueError, "n must be >= 0"),
    "askey-wilson-q-one": (
        lambda: askey_wilson(1, *AW, 1, F(1, 3)), ValueError, "q must be nonzero and not a root of unity, a nonzero"
    ),
    "q-bracket-q-one": (lambda: q_bracket(2, 1), ValueError, "q must be positive and != 1"),
    "clebsch-gordan-q-one": (
        lambda: clebsch_gordan_q(F(1, 2), F(1, 2), 1, F(1, 2), F(1, 2), 1), ValueError, "q must be positive and != 1"
    ),
    "corner-dets-non-unit": (
        lambda: _corner_dets([[GradedPoly.zero(1, 1)]]), ArithmeticError, "non-unit pivot in triangular factorization"
    ),
}


@pytest.mark.parametrize("call, exc_type, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_is_pinned(call, exc_type, message):
    with pytest.raises(exc_type) as err:
        call()
    assert err.type is exc_type
    assert str(err.value) == message
