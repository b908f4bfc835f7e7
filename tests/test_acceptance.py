"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test runs its criterion from the verification module and prints one
pass/fail line per criterion (visible with pytest -s or on failure).
"""

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


def test_criterion_01_orthonormal_basis():
    _check(verify.criterion_orthonormal_basis())


def test_criterion_02_mode_norm_closed_form():
    _check(verify.criterion_mode_norm())


def test_criterion_03_parseval_norm():
    _check(verify.criterion_parseval())


def test_criterion_04_kernel_two_path():
    _check(verify.criterion_kernel_two_path())


def test_criterion_05_kernel_reproduces():
    _check(verify.criterion_kernel_reproduces())


def test_criterion_06_growth_bound():
    _check(verify.criterion_growth_bound())


def test_criterion_07_theta_membership():
    _check(verify.criterion_theta_membership())


def test_criterion_08_transform_transport():
    _check(verify.criterion_transform_transport())


def test_criterion_09_kernel_equals_generating():
    _check(verify.criterion_kernel_equals_generating())


def test_criterion_10_landau_eigenvalues():
    _check(verify.criterion_landau_eigenvalues())


def test_criterion_11_ladder():
    _check(verify.criterion_ladder())


def test_criterion_12_eigenmode_gram():
    _check(verify.criterion_eigenmode_gram())


def test_criterion_13_theta_integral_identity():
    _check(verify.criterion_theta_integral_identity())


def test_criterion_14_truncation_soundness():
    _check(verify.criterion_truncation_soundness())


def test_full_report_consistency():
    report = verify.run_acceptance()
    assert report.suite == "acceptance"
    assert len(report.cases) == 19
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
