"""Acceptance battery: every criterion at its stated grade, exact equality only.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failure) and asserts the criterion's report.  The
seed comes from TAUKIT_SEED, matching the ``taukit suite`` CLI command.
"""

import os

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
    failed = _verdict({"d": 6}, "why")
    assert not failed.passed and failed.first_failure == ("why", "", "")
    assert failed.max_checked_grade == 6
    assert _verdict({}, "why").max_checked_grade == 0
    passed = _verdict({"d": 5})
    assert passed.passed and passed.first_failure is None and passed.max_checked_grade == 5


def test_criterion_stops_at_its_first_failing_report(monkeypatch):
    calls = []

    def hirota(spec, m, d):
        calls.append(m)
        return CheckReport(name="hirota", passed=len(calls) != 2, max_checked_grade=d - 1)

    monkeypatch.setattr(acceptance, "check_hirota", hirota)
    report = acceptance.criterion_02_hirota(SEED)
    assert report.name == "hirota" and not report.passed
    assert len(calls) == 2


def test_toda_criterion_runs_both_gauges_for_every_spec_and_charge(monkeypatch):
    calls = []

    def toda(spec, m, d, gauge):
        calls.append((spec, m, gauge))
        return CheckReport(name="toda", passed=True, max_checked_grade=d - 1)

    monkeypatch.setattr(acceptance, "check_toda", toda)
    assert acceptance.criterion_03_toda(SEED).passed
    gauges = ("generalized", "standard")
    assert calls == [(spec, m, gauge) for spec in battery_specs(SEED) for m in (-1, 0, 1) for gauge in gauges]


def test_prop4_criterion_fails_where_the_prop4_check_fails(monkeypatch):
    from fractions import Fraction as F

    from taukit import verify
    from taukit.poly import GradedPoly, mono, tvar

    # the pair differs at t1^5, the corner of the compared window
    def pair(r, b, m, d, t):
        return GradedPoly(d, d, {(): 1}), GradedPoly(d, d, {(): 1, mono([(tvar(1), d)]): F(1, 7)})

    monkeypatch.setattr(verify, "prop4_pair", pair)
    report = acceptance.criterion_08_prop4(SEED)
    assert not report.passed and report.first_failure[0].startswith("rational variant M=")


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

    failing = CheckReport(name="hirota", passed=False, max_checked_grade=4)
    monkeypatch.setattr(acceptance, "check_hirota", lambda *args: failing)
    assert run_criterion(acceptance.criterion_02_hirota, SEED).name == "criterion-02-hirota"


def test_battery_is_a_function_of_the_seed():
    # drawn afresh on every call; RSpec equality ignores the r_eval memo
    first = battery_specs(SEED)
    for spec in first:
        r_eval(spec, 0)
    assert first == battery_specs(SEED)
    assert battery_specs(SEED) != battery_specs(SEED + 1)
