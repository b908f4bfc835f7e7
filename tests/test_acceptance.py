"""Acceptance gate: one test id per release criterion, at pinned tolerances.

verify.CRITERIA is every criterion_* function of verify, in definition order,
so a criterion defined there runs in `verify all` and is gated here.
test_criterion runs each entry and prints one pass/fail line per case
(visible with pytest -s or on failure); the criteria and the 19 case names
are pinned in order, so one that goes missing or moves fails a test.
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


CRITERIA = [
    "criterion_orthonormal_basis", "criterion_mode_norm", "criterion_parseval", "criterion_kernel_two_path",
    "criterion_kernel_reproduces", "criterion_growth_bound", "criterion_theta_membership",
    "criterion_transform_transport", "criterion_kernel_equals_generating", "criterion_landau_eigenvalues",
    "criterion_ladder", "criterion_eigenmode_gram", "criterion_theta_integral_identity",
    "criterion_truncation_soundness",
]
CASES = [
    "01-orthonormal-basis", "02-mode-norm-closed-form", "03-parseval-norm", "04-kernel-two-path",
    "05-kernel-reproduces", "06-growth-bound", "07-membership-decisions", "07-membership-norm",
    "07-functional-equation", "08-transform-transport", "09-kernel-equals-generating", "10-landau-eigenvalues",
    "10-landau-null-space", "11-ladder-coefficients", "11-ladder-finite-difference", "12-eigenmode-gram",
    "13-theta-integral-identity", "14-series-tail-soundness", "14-quadrature-doubling",
]


def test_criteria_are_every_criterion_function_in_definition_order():
    assert [criterion.__name__ for criterion in verify.CRITERIA] == CRITERIA


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
    assert [case.name for case in report.cases] == CASES
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
