"""Acceptance gate: one test id per release criterion, at pinned tolerances.

test_criterion runs each entry of verify.CRITERIA, so a criterion added there
is gated here too, and prints one pass/fail line per case (visible with
pytest -s or on failure).
"""

import math

import pytest

from thetafock import verify
from thetafock.core import DomainError


def _check(cases):
    for case in cases:
        status = "PASS" if case.passed else "FAIL"
        print(f"{status} {case.name}: actual={case.actual:.3e} tolerance={case.tolerance:.1e}")
    for case in cases:
        assert case.passed, (
            f"{case.name}: |{case.expected} - {case.actual}| > {case.tolerance}"
        )


@pytest.mark.parametrize("criterion", verify.CRITERIA, ids=lambda criterion: criterion.__name__)
def test_criterion(criterion):
    _check(criterion())


def test_a_nan_deviation_fails_its_case():
    for deviations in ([0.1, math.nan, 0.2], [math.nan, 0.1], [0.1, math.nan]):
        case = verify._case("nan", 1.0, deviations)
        assert math.isnan(case.actual) and not case.passed
    assert verify._case("worst", 1.0, [0.1, 0.3, 0.2]).actual == 0.3
    assert verify._case("clipped", 1.0, [-0.5]).actual == 0.0


def test_full_report_consistency():
    report = verify.run_acceptance()
    assert report.suite == "acceptance"
    assert len(report.cases) == 20
    assert report.all_passed
    for case in report.cases:
        assert case.passed == (abs(case.expected - case.actual) <= case.tolerance)


@pytest.mark.parametrize("tol", (float("inf"), float("nan"), 0.0, -1.0))
def test_run_acceptance_rejects_bad_tol_before_running(tol, monkeypatch):
    def criterion():
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(verify, "CRITERIA", (criterion,))
    with pytest.raises(DomainError, match="tol must be positive and finite"):
        verify.run_acceptance(tol)
