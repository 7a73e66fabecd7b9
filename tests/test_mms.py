"""Manufactured-solution convergence study."""

import numpy as np
import pytest

from biofilmfront import GridError, OrderRegression, mms_study
from biofilmfront.mms import ORDER_FLOORS, CaseResult


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
    report = mms_study(N_values=(25, 50, 100), theta_scheme=1.0,
                       raise_on_regression=False)
    assert report.cases["substrate_diffusion"].observed_order > 0.8
    assert report.cases["thickness_ode"].ok


def test_study_rejects_non_integer_grid_sizes():
    """``mms_study`` used to truncate its grid sizes (40.7 ran at N=40)."""
    with pytest.raises(GridError) as exc:
        mms_study(N_values=(25, 40.7))
    assert exc.value.code == "SCHEMA_VIOLATION"
    assert str(exc.value) == "N must be an integer, got 40.7"


def test_case_result_flags_regression():
    bad = CaseResult(name="substrate_diffusion", dz=np.array([0.04, 0.02]),
                     errors=np.array([1e-3, 9e-4]), observed_order=0.15,
                     floor=ORDER_FLOORS["substrate_diffusion"])
    assert not bad.ok


def test_order_regression_raised():
    # fully implicit stepping caps the substrate case near first order, below
    # its 1.8 floor, so the study itself must flag the regression
    with pytest.raises(OrderRegression) as exc:
        mms_study(N_values=(25, 50, 100), theta_scheme=1.0)
    assert exc.value.code == "ORDER_REGRESSION"
    assert exc.value.orders["substrate_diffusion"] < 1.8
