"""Mutation battery: each row plants one defect and names the checks that must catch it.

A row is (name, monkeypatch target, defective replacement, checks expected
to kill it).  The replacement is built from the original callable.  Each
listed check must pass on the unmutated code and fail on the mutant; a
mutant that a listed check lets through fails the test, and so does one
that makes a check raise: a crash is not a kill.
"""

import importlib
from fractions import Fraction as F
from itertools import groupby

import pytest

from taukit import acceptance
from taukit.cli import COMMANDS
from taukit.partitions import hook_data
from taukit.poly import GradedPoly, bvar, mono_weights, q_number
from taukit.rspec import LinFactor, RSpec
from taukit.schur import GenericTimes, MiwaTimes, PrincipalInfinityTimes
from taukit.verify import (
    check_hirota,
    check_kp_bilinear,
    check_ode,
    check_prop4,
    check_qdiff,
    check_remark1,
    check_toda,
    det_oracle_tau,
)

RATIO = RSpec(num=(LinFactor(F(1, 2)),), den=(LinFactor(F(1, 3)),))

CHECKS = {
    "hirota": lambda: check_hirota(RATIO, 0, 5),
    "toda": lambda: check_toda(RATIO, 0, 5),
    "toda-standard": lambda: check_toda(RATIO, 0, 5, "standard"),
    "kp": lambda: check_kp_bilinear(RATIO, 0, 5),
    "oracle": lambda: det_oracle_tau(RATIO, 0, 5)[1],
    "ode": lambda: check_ode([F(1, 2)], [F(3, 2)], 6),
    "qdiff": lambda: check_qdiff([F(2)], [F(3)], F(1, 3), 6),
    "prop4": lambda: check_prop4(RATIO, F(1, 5), 0, 5),
    "remark1-miwa": lambda: check_remark1("miwa", {"N": 2}, 6),
    "remark1-q": lambda: check_remark1("q-spec", {"N": 2, "q": F(1, 2)}, 6),
    "remark1-dual": lambda: check_remark1("dual", {"K": 2, "q": F(1, 2)}, 6),
    # each criterion reads its callees through the acceptance module, where the rows patch them;
    # called directly, not through run_criterion, which would turn a crash into a failing report
    **{f"criterion-{c.__name__.split('_')[1]}": lambda c=c: c(1729) for c in acceptance.CRITERIA},
}


def _b2_for_b1(alpha):
    return [(bvar(2) if v == bvar(1) else v, e) for v, e in alpha]


def _last_doubled(coeffs):
    return coeffs[:-1] + [2 * coeffs[-1]]


def _last_zeroed(coeffs):
    return coeffs[:-1] + [0]


def _one_variable_fewer(rule):
    return lambda outer, inner, times: rule(outer, inner, MiwaTimes(times.x[1:], times.sign))


def _signs_swapped(rule):
    return lambda outer, inner, times: rule(outer, inner, MiwaTimes(times.x, -times.sign))


def _inner_dropped_when_evaluated(value):
    return lambda outer, inner, times, d: value(outer, inner if isinstance(times, GenericTimes) else (), times, d)


def _principal_infinity_without_q_power(value):
    def mutant(outer, inner, times, d):
        if isinstance(times, PrincipalInfinityTimes):
            return 1 / hook_data(outer, times.q)
        return value(outer, inner, times, d)

    return mutant


def _runs_upper_bracket_off_by_one(ratio):
    # each run r0..r1 of rows above the new cell (l, j) reads [l - r0 + L - j + 2] for [l - r0 + L - j + 1]
    def mutant(lam, q):
        l, j, out, r0 = len(lam), lam[-1], ratio(lam, q), 1
        for length, run in groupby(lam[:-1]):
            out *= q_number(l - r0 + length - j + 2, q) / q_number(l - r0 + length - j + 1, q)
            r0 += len(list(run))
        return out

    return mutant


def _top_layers_dropped(series, layers):
    """series with the terms of its result in its top ``layers`` total weights dropped, as a layer loop that stops short would."""

    def mutant(p):
        x = series(p)
        top = x.t_max + x.b_max - layers
        return GradedPoly(x.t_max, x.b_max, {m: c for m, c in x.terms.items() if sum(mono_weights(m)) <= top})

    return mutant


def _entries_narrowed(box, inverse_box):
    return (box[0] - 1, box[1] - 1), inverse_box


def _insertion_order_reversed(characters):
    # every key keeps its value: only a reader that takes a table's rows by position sees the change
    return lambda outer, inner=(): dict(reversed(characters(outer, inner).items()))


def _grade_3_facts_doubled(layout):
    def mutant(n):
        lams, tkeys, bkeys, facts = layout(n)
        return lams, tkeys, bkeys, tuple(2 * f for f in facts) if n == 3 else facts

    return mutant


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
        ("hirota", "toda", "toda-standard", "ode", "qdiff"),
    ),
    (
        "prop4_pair with its right side at charge M + 1",
        "taukit.verify.prop4_pair",
        lambda pair: lambda r, b, m, d, t: (pair(r, b, m, d, t)[0], pair(r, b, m + 1, d, t)[1]),
        ("prop4", "criterion-08"),
    ),
    (
        "MiwaTimes with its sign flipped",
        "taukit.verify.MiwaTimes",
        lambda miwa: lambda x, sign=1: miwa(x, -sign),
        ("remark1-miwa", "remark1-dual"),
    ),
    (
        "content_products at charge M + 1",
        "taukit.verify.content_products",
        lambda products: lambda r, parts, m, inner=(): products(r, parts, m + 1, inner),
        ("remark1-q", "remark1-dual"),
    ),
    (
        "log_series with its top weight layer dropped",
        "taukit.verify.log_series",
        lambda log_series: _top_layers_dropped(log_series, 1),
        ("toda", "toda-standard"),
    ),
    (
        "exp_series with its top weight layer dropped",
        "taukit.verify.exp_series",
        lambda exp_series: _top_layers_dropped(exp_series, 1),
        ("toda", "toda-standard"),
    ),
    (
        # the oracle forms a pivot's inverse in the box (d - 1, d - 1), where every layer reaches a compared
        # coefficient: the top one, of total weight 2d - 2, through an entry of L at bidegree (d, d - 1)
        "inverse one layer short of the layers the oracle reads",
        "taukit.verify.inverse",
        lambda inverse: _top_layers_dropped(inverse, 1),
        ("oracle",),
    ),
    (
        "the factors' entries formed one weight short of the box they are read in",
        "taukit.verify._factor_boxes",
        lambda boxes: lambda d: _entries_narrowed(*boxes(d)),
        ("oracle",),
    ),
    (
        "_grade_layout with grade 3's prod m(rho)! doubled: that block scaled by 1/4",
        "taukit.schur._grade_layout",
        _grade_3_facts_doubled,
        ("hirota", "toda", "toda-standard", "kp", "oracle"),
    ),
    (
        "characters with each table's insertion order reversed",
        "taukit.schur.characters",
        _insertion_order_reversed,
        ("hirota", "toda", "toda-standard", "kp", "oracle"),
    ),
    (
        "the Miwa shape rule at >= N: one variable fewer",
        "taukit.schur._miwa_zero",
        _one_variable_fewer,
        ("criterion-11",),
    ),
    (
        "the Miwa shape rule reading rows at sign +1 and columns at sign -1",
        "taukit.schur._miwa_zero",
        _signs_swapped,
        ("criterion-11",),
    ),
    (
        "the series loops' Schur values with inner dropped at evaluated times",
        "taukit.tau._schur_value",
        _inner_dropped_when_evaluated,
        ("criterion-11",),
    ),
    (
        "the series loops' principal-infinity values without q^(n(lam))",
        "taukit.tau._schur_value",
        _principal_infinity_without_q_power,
        ("criterion-08",),
    ),
    (
        "the principal-infinity hook ratio with each run's upper bracket off by one",
        "taukit.schur._hook_ratio",
        _runs_upper_bracket_off_by_one,
        ("prop4", "criterion-08"),
    ),
    (
        "det_fraction_matrix negated from size 2 on",
        "taukit.schur.det_fraction_matrix",
        lambda det: lambda rows: -det(rows) if len(rows) >= 2 else det(rows),
        ("prop4", "criterion-08", "criterion-10"),
    ),
    (
        "classical_reference with its last coefficient doubled",
        "taukit.acceptance.classical_reference",
        lambda ref: lambda *args, **kwargs: _last_doubled(ref(*args, **kwargs)),
        ("criterion-05",),
    ),
    (
        "content_product at charge M + 1",
        "taukit.acceptance.content_product",
        lambda content_product: lambda r, lam, m: content_product(r, lam, m + 1),
        ("criterion-10",),
    ),
    (
        "schur_principal_value doubled off the empty partition",
        "taukit.acceptance.schur_principal_value",
        lambda value: lambda lam, a, q=None: value(lam, a, q) * (2 if lam else 1),
        ("criterion-10",),
    ),
    (
        "tau_general at charge M + 1",
        "taukit.acceptance.tau_general",
        lambda tau_general: lambda chain, m, d: tau_general(chain, m + 1, d),
        ("criterion-11",),
    ),
    (
        "askey_wilson plus its b",
        "taukit.acceptance.askey_wilson",
        lambda aw: lambda n, a, b, c, dd, q, cos_eta, with_prefactor=False: (
            aw(n, a, b, c, dd, q, cos_eta, with_prefactor) + b
        ),
        ("criterion-12",),
    ),
    (
        "poch_partition plus 1",
        "taukit.acceptance.poch_partition",
        lambda poch: lambda a, lam, q=None: poch(a, lam, q) + 1,
        ("criterion-12",),
    ),
    (
        "tau_two_sided at charge M + 1",
        "taukit.acceptance.tau_two_sided",
        lambda two_sided: lambda rt, r, m, d, t, beta: two_sided(rt, r, m + 1, d, t, beta),
        ("criterion-13",),
    ),
    (
        "qphi_one_var_coeffs with its last coefficient zeroed",
        "taukit.acceptance.qphi_one_var_coeffs",
        lambda coeffs: lambda *args: _last_zeroed(coeffs(*args)),
        ("criterion-14",),
    ),
    (
        "q_bracket at a fixed q",
        "taukit.acceptance.q_bracket",
        lambda q_bracket: lambda a, q: q_bracket(a, F(1, 2)),
        ("criterion-14",),
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


# every verify entry of the CLI: a new check without a mutant row that it kills fails here
@pytest.mark.parametrize("checker", list(COMMANDS["verify"][4]))
def test_every_checker_kills_a_mutant(checker):
    assert any(check.startswith(checker) for *_, checks in MUTANTS for check in checks)
