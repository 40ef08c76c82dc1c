"""Acceptance battery: every criterion at its stated grade, exact equality only.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failure) and asserts the criterion's report.  The
seed comes from TAUKIT_SEED, matching the ``taukit suite`` CLI command.
"""

import os

import pytest

from taukit.acceptance import CRITERIA, _fail, run_criterion, run_suite

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
    assert _fail("criterion-x", "why", {"d": 6}).max_checked_grade == 6
    assert _fail("criterion-x", "why", {}).max_checked_grade == 0
