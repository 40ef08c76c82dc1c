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
    failed = _verdict("criterion-x", {"d": 6}, "why")
    assert not failed.passed and failed.first_failure == ("why", "", "")
    assert failed.max_checked_grade == 6
    assert _verdict("criterion-x", {}, "why").max_checked_grade == 0
    passed = _verdict("criterion-x", {"d": 5})
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


def test_battery_is_a_function_of_the_seed():
    # drawn afresh on every call; RSpec equality ignores the r_eval memo
    first = battery_specs(SEED)
    for spec in first:
        r_eval(spec, 0)
    assert first == battery_specs(SEED)
    assert battery_specs(SEED) != battery_specs(SEED + 1)
