"""Acceptance gate: every release criterion must hold.

Each test runs one criterion from the built-in validation suite and fails
with the criterion's own diagnostic log, so a red test points directly at
the violated check.
"""

import sys

import pytest

from fdrigs import acceptance


@pytest.fixture(autouse=True)
def without_scipy(monkeypatch):
    # `fdrigs validate` runs without SciPy, a test extra only: an import of
    # it inside any criterion fails here
    monkeypatch.setitem(sys.modules, "scipy", None)


def check(result):
    log = "\n".join(result.details)
    assert result.passed, f"criterion '{result.name}' failed:\n{log}"


def test_criterion_01_closed_form_anchor():
    check(acceptance.criterion_1_closed_form_anchor())


def test_criterion_02_oracle_agreement():
    check(acceptance.criterion_2_oracle_agreement())


def test_criterion_03_bound_ordering():
    check(acceptance.criterion_3_bound_ordering())


def test_criterion_04_ergodic_ub_consistency():
    check(acceptance.criterion_4_ergodic_ub_consistency())


def test_criterion_05_ergodic_sandwich():
    check(acceptance.criterion_5_ergodic_sandwich())


def test_criterion_06_proper_exactness():
    check(acceptance.criterion_6_proper_exactness())


def test_criterion_07_rsi_immunity():
    check(acceptance.criterion_7_rsi_immunity())


def test_criterion_08_unimodality():
    check(acceptance.criterion_8_unimodality())


def test_criterion_09_solver_agreement():
    check(acceptance.criterion_9_solver_agreement())


def test_criterion_10_trend_reproduction():
    check(acceptance.criterion_10_trend_reproduction())


def test_criterion_11_special_functions():
    check(acceptance.criterion_11_special_functions())


def test_criterion_12_convexity():
    check(acceptance.criterion_12_convexity())


def test_suite_registers_all_criteria():
    assert len(acceptance.CRITERIA) == 12
    names = [fn.__name__ for fn in acceptance.CRITERIA]
    assert len(set(names)) == 12
