"""Acceptance battery: every criterion at its stated grade, exact equality only.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failure) and asserts the criterion's report.  The
seed comes from TAUKIT_SEED, matching the ``taukit suite`` CLI command.
"""

import os
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from taukit import acceptance
from taukit.acceptance import CRITERIA, _verdict, battery_specs, run_criterion, run_suite
from taukit.rspec import r_eval
from taukit.verify import CheckReport

SEED = int(os.environ.get("TAUKIT_SEED", "1729"))


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.__name__ for c in CRITERIA])
def test_criterion(criterion):
    report = run_criterion(criterion, SEED)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {report.name} {report.params}")
    assert report.passed, (report.name, report.first_failure, report.params)


def test_suite_runner_aggregates_under_fresh_seed():
    # a different seed redraws every randomized battery
    reports = run_suite(seed=SEED + 1000)
    assert len(reports) == len(CRITERIA)
    failed = [r.name for r in reports if not r.passed]
    assert not failed, failed


def test_fail_reports_the_criterion_grade():
    failed = _verdict({"d": 6}, ("t1", "1", "2"))
    assert not failed.passed and failed.first_failure == ("t1", "1", "2")
    assert failed.max_checked_grade == 6
    assert _verdict({}, ("t1", "1", "2")).max_checked_grade == 0
    passed = _verdict({"d": 5})
    assert passed.passed and passed.first_failure is None and passed.max_checked_grade == 5


def test_criterion_stops_at_its_first_failing_report(monkeypatch):
    calls = []

    def hirota(spec, m, d):
        calls.append(m)
        failure = ("t1", "1", "2") if len(calls) == 2 else None
        return CheckReport(name="hirota", max_checked_grade=d - 1, first_failure=failure)

    monkeypatch.setattr(acceptance, "check_hirota", hirota)
    report = acceptance.criterion_02_hirota(SEED)
    assert report.name == "hirota" and not report.passed
    assert len(calls) == 2


def test_toda_criterion_runs_both_gauges_for_every_spec_and_charge(monkeypatch):
    calls = []

    def toda(spec, m, d, gauge):
        calls.append((spec, m, gauge))
        return CheckReport(name="toda", max_checked_grade=d - 1)

    monkeypatch.setattr(acceptance, "check_toda", toda)
    assert acceptance.criterion_03_toda(SEED).passed
    gauges = ("generalized", "standard")
    assert calls == [(spec, m, gauge) for spec in battery_specs(SEED) for m in (-1, 0, 1) for gauge in gauges]


def test_prop4_criterion_fails_where_the_prop4_check_fails(monkeypatch):
    from taukit import verify
    from taukit.poly import GradedPoly, mono, tvar

    # the pair differs at t1^5, the corner of the compared window
    def pair(r, b, m, d, t):
        return GradedPoly(d, d, {(): 1}), GradedPoly(d, d, {(): 1, mono([(tvar(1), d)]): F(1, 7)})

    monkeypatch.setattr(verify, "prop4_pair", pair)
    report = acceptance.criterion_08_prop4(SEED)
    assert not report.passed and report.first_failure == ("t1^5", "0", "1/7")


def _last_scaled(factor):
    """A builder of coefficient lists whose last coefficient is multiplied by factor."""
    def replacement(coeffs):
        def scaled(*args, **kwargs):
            values = coeffs(*args, **kwargs)
            return values[:-1] + [factor * values[-1]]

        return scaled

    return replacement


def _aw_plus(extra):
    """askey_wilson with extra(a, b, c, with_prefactor) added to every value."""
    return lambda aw: lambda n, a, b, c, dd, q, cos_eta, with_prefactor=False: (
        aw(n, a, b, c, dd, q, cos_eta, with_prefactor) + extra(a, b, c, with_prefactor)
    )


# (criterion, callee patched through the acceptance module, replacement built from the original, first_failure)
FAILING_CRITERIA = [
    (
        "criterion_01_oracle",
        "det_oracle_tau",
        lambda oracle: lambda r, m, d, **kw: (None, CheckReport("oracle", d, ("t1^2 b1", "1", "2") if m == 1 else None)),
        ("t1^2 b1", "1", "2"),
    ),
    (
        "criterion_01_oracle",
        "time",
        lambda time: SimpleNamespace(monotonic=iter((0.0, 75.0)).__next__),
        ("elapsed 75.0s, over the 60s limit", "", ""),
    ),
    (
        "criterion_05_classical",
        "classical_reference",
        _last_scaled(2),
        ("(p,s)=(1,0) M=1 t1^10", "1/3628800", "1/1814400"),
    ),
    (
        "criterion_08_prop4",
        "check_prop4",
        lambda check: lambda r, b, m, d: CheckReport("prop4", d, ("t1", "1", "2") if r.q else None),
        ("t1", "1", "2"),
    ),
    (
        "criterion_10_poch_bridge",
        "content_product",
        lambda content_product: lambda r, lam, m: content_product(r, lam, m + 1),
        ("poch vs content at lam=(1,), a=1, q=1/2", "1/2", "3/4"),
    ),
    (
        "criterion_10_poch_bridge",
        "schur_principal_value",
        lambda value: lambda lam, a, q=None: value(lam, a, q) * (2 if lam else 1),
        ("principal value at lam=(1,), a=1, q=1/2", "1", "2"),
    ),
    (
        "criterion_11_example6",
        "tau_general",
        lambda tau_general: lambda chain, m, d: tau_general(chain, m + 1, d),
        ("tau(M=1) to grade 5", "5261316053755923631/3924286299648000000", "3468175065309676091/2671854501888000000"),
    ),
    (
        "criterion_12_aw",
        "poch_partition",
        lambda poch: lambda a, lam, q=None: poch(a, lam, q) + 1,
        ("termination factor at n=0", "1", "0"),
    ),
    (
        "criterion_12_aw",
        "askey_wilson",
        _aw_plus(lambda a, b, c, with_prefactor: b),
        ("sum with b<->c at n=1", "49807/141372", "29611/141372"),
    ),
    (
        "criterion_12_aw",
        "askey_wilson",
        _aw_plus(lambda a, b, c, with_prefactor: b + c),
        ("sum with b<->d at n=1", "62659/141372", "70003/141372"),
    ),
    (
        "criterion_12_aw",
        "askey_wilson",
        _aw_plus(lambda a, b, c, with_prefactor: a if with_prefactor else 0),
        ("p_n with a<->b at n=1", "1192/2695", "1346/2695"),
    ),
    (
        "criterion_13_two_sided",
        "tau_two_sided",
        lambda two_sided: lambda rt, r, m, d, t, beta: two_sided(rt, r, m + 1, d, t, beta),
        ("M=0 b1*t1", "92/45", "-16/3"),
    ),
    (
        "criterion_14_cg",
        "qphi_one_var_coeffs",
        _last_scaled(0),
        ("spins (1,1,1,0,0) x^1", "0", "-1"),
    ),
    (
        "criterion_14_cg",
        "q_bracket",
        lambda q_bracket: lambda a, q: q_bracket(a, F(1, 2)),
        ("bracket [2]^2 at step 1: 4 < 9/2 < 9/2", "False", "True"),
    ),
]


@pytest.mark.parametrize(
    "criterion, target, replacement, failure",
    FAILING_CRITERIA,
    ids=[f"{criterion.split('_')[1]}-{target}-{k}" for k, (criterion, target, _, _) in enumerate(FAILING_CRITERIA)],
)
def test_a_failing_criterion_names_its_first_differing_values(monkeypatch, criterion, target, replacement, failure):
    # seed 1729, not TAUKIT_SEED: the expected values are those of the seed-1729 draws
    monkeypatch.setattr(acceptance, target, replacement(getattr(acceptance, target)))
    report = getattr(acceptance, criterion)(1729)
    assert not report.passed and report.first_failure == failure


def test_a_report_is_named_from_its_criterion_whatever_the_outcome(monkeypatch):
    # the suite's JSON keys must not depend on whether a criterion passed, failed or raised
    criteria = [acceptance.criterion_05_classical, acceptance.criterion_14_cg]
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    passed = run_suite(SEED)

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(acceptance, "classical_reference", boom)
    raised = run_suite(SEED)
    names = ["criterion-05-classical", "criterion-14-cg"]
    assert [r.name for r in passed] == [r.name for r in raised] == names
    assert all(r.passed for r in passed) and not any(r.passed for r in raised)
    assert raised[0].first_failure == ("RuntimeError: boom", "", "")

    failing = CheckReport(name="hirota", max_checked_grade=4, first_failure=("t1", "1", "2"))
    monkeypatch.setattr(acceptance, "check_hirota", lambda *args: failing)
    assert run_criterion(acceptance.criterion_02_hirota, SEED).name == "criterion-02-hirota"


def test_battery_is_a_function_of_the_seed():
    # drawn afresh on every call; RSpec equality ignores the r_eval memo
    first = battery_specs(SEED)
    for spec in first:
        r_eval(spec, 0)
    assert first == battery_specs(SEED)
    assert battery_specs(SEED) != battery_specs(SEED + 1)
