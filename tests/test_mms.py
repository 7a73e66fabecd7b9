"""Manufactured-solution convergence study."""

import numpy as np
import pytest

from biofilmfront import ValidationError, mms_study
from biofilmfront.audit import ORDER_FLOORS, CaseResult


def test_full_study_meets_floors():
    report = mms_study()
    assert report.ok
    orders = report.orders()
    assert orders["substrate_diffusion"] >= 1.8
    assert orders["biomass_transport"] >= 0.9
    assert orders["thickness_ode"] >= 3.5


def test_errors_decrease_under_refinement():
    report = mms_study(N_values=(25, 50, 100))
    for case in report.cases.values():
        assert np.all(np.diff(case.errors) < 0.0), case.name


def test_study_accepts_fully_implicit_scheme():
    # theta = 1 degrades the substrate order to ~1 in time, but dt ~ dz keeps
    # the measured slope against dz near 1; the study must still run cleanly
    report = mms_study(N_values=(25, 50, 100), theta_scheme=1.0)
    assert report.cases["substrate_diffusion"].observed_order > 0.8
    assert report.cases["thickness_ode"].ok


def test_study_rejects_non_integer_grid_sizes():
    """``mms_study`` used to truncate its grid sizes (40.7 ran at N=40)."""
    with pytest.raises(ValidationError) as exc:
        mms_study(N_values=(25, 40.7))
    assert exc.value.code == "SCHEMA_VIOLATION"
    assert str(exc.value) == "N must be an integer, got 40.7"


@pytest.mark.parametrize("N_values,code,message", [
    ((0, 25), "TOO_COARSE", "grid needs at least 4 cells, got N=0"),
    (("a", 25), "SCHEMA_VIOLATION", "N must be an integer, got 'a'"),
])
def test_study_checks_every_grid_size_first(N_values, code, message):
    """Each ``N`` is checked by its grid before any use, so a zero or a
    string is a ``ValidationError``, not a raw ``ZeroDivisionError`` or
    ``TypeError``."""
    with pytest.raises(ValidationError) as exc:
        mms_study(N_values=N_values)
    assert exc.value.code == code and str(exc.value) == message


@pytest.mark.parametrize("theta", [-1.0, float("nan"), 1.5])
def test_study_rejects_theta_outside_the_scheme_range(theta):
    """``SolverConfig`` owns the range of ``theta_scheme``; -1 used to report
    a substrate order of -37.2, and NaN to end in a ``LinearSolveError``."""
    with pytest.raises(ValidationError) as exc:
        mms_study(N_values=(25, 50), theta_scheme=theta)
    assert exc.value.code == "SCHEMA_VIOLATION"
    assert str(exc.value) == "theta_scheme must lie in [0.5, 1]"


def test_case_result_flags_regression():
    bad = CaseResult(name="substrate_diffusion", dz=np.array([0.04, 0.02]),
                     errors=np.array([1e-3, 9e-4]), observed_order=0.15,
                     floor=ORDER_FLOORS["substrate_diffusion"])
    assert not bad.ok


def test_order_regression_reported():
    # fully implicit stepping caps the substrate case near first order, below
    # its 1.8 floor, so the study's report must flag the regression
    report = mms_study(N_values=(25, 50, 100), theta_scheme=1.0)
    assert not report.ok and not report.cases["substrate_diffusion"].ok
    assert report.orders()["substrate_diffusion"] < 1.8


@pytest.mark.parametrize("N_values", [(), (25,), (25, 25), (40, 40, 40)])
def test_study_rejects_a_ladder_without_two_grid_sizes(N_values):
    """One grid size fits no order: ``(25,)`` and ``(25, 25)`` used to report
    orders from a degenerate least-squares fit, ``()`` to raise a raw
    ``TypeError``."""
    with pytest.raises(ValidationError) as exc:
        mms_study(N_values=N_values)
    assert exc.value.code == "SCHEMA_VIOLATION"
    assert str(exc.value) == ("an order fit needs at least two distinct grid sizes, "
                              f"got N_values={N_values}")
