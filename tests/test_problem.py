"""Problem-data container and validation codes."""

import math

import numpy as np
import pytest

from biofilmfront import (
    Grid,
    KineticsModel,
    ProblemData,
    ValidationError,
    linear_preset,
    validate_problem,
    zero_kinetics,
)


def _data(**kw):
    base = dict(
        phi=[lambda z: 0.5 * np.ones_like(z)],
        theta=[lambda z: np.cos(0.5 * math.pi * z)],
        psi=[lambda t: 0.0],
        D=[1.0],
        lam=0.5,
        R0=1.0,
    )
    base.update(kw)
    return ProblemData(**base)


def test_counts_and_sampling():
    data = _data()
    assert data.n == 1 and data.m == 1
    g = Grid(10)
    Y0, C0 = data.sample_initial(g.nodes)
    assert Y0.shape == (1, 11)
    assert C0.shape == (1, 11)
    assert np.all(Y0 == 0.5)
    assert C0[0, -1] == pytest.approx(0.0, abs=1e-15)


def test_constant_callables_broadcast():
    # scalar-returning initial data is broadcast across the nodes
    data = _data(phi=[lambda z: 0.25])
    Y0, _ = data.sample_initial(Grid(6).nodes)
    assert Y0.shape == (1, 7)
    assert np.all(Y0 == 0.25)


def test_psi_at():
    data = _data(psi=[lambda t: 2.0 * t])
    assert data.psi_at(0.5) == pytest.approx(np.array([1.0]))


@pytest.mark.parametrize(
    "kw,code",
    [
        (dict(D=[-1.0]), "NONPOSITIVE_D"),
        (dict(lam=0.0), "NONPOSITIVE_LAMBDA"),
        (dict(R0=-2.0), "NONPOSITIVE_R0"),
        (dict(R0=1.0e+200), "NONFINITE_INPUT"),  # the solver squares R0
    ],
)
def test_scalar_parameter_violations(kw, code):
    report = validate_problem(_data(**kw), zero_kinetics(1, 1))
    assert not report.ok
    assert code in report.codes()


def test_dimension_mismatch_detected():
    data = _data(D=[1.0, 2.0])  # two diffusivities, one substrate
    report = validate_problem(data, zero_kinetics(1, 1))
    assert "DIMENSION_MISMATCH" in report.codes()


@pytest.mark.parametrize("psi", [[lambda t: 0.0] * 2, []], ids=["too_many", "too_few"])
def test_psi_count_checked(psi):
    """One boundary value per substrate, checked before any is evaluated."""
    report = validate_problem(_data(psi=psi), zero_kinetics(1, 1))
    assert report.violations == [(
        "DIMENSION_MISMATCH",
        f"psi has {len(psi)} entries, expected 1 (one per substrate, as theta)")]


def test_psi_count_checked_with_two_substrates():
    data = _data(theta=[lambda z: np.cos(0.5 * math.pi * z)] * 2, D=[1.0, 1.0])
    report = validate_problem(data, zero_kinetics(1, 2))
    assert report.codes() == {"DIMENSION_MISMATCH"}
    assert "psi has 1 entries, expected 2" in report.violations[0][1]


def test_kinetics_species_count_checked():
    report = validate_problem(_data(), zero_kinetics(2, 1))
    assert "DIMENSION_MISMATCH" in report.codes()


def test_compat_mismatch():
    # theta(1) = 1 but psi(0) = 0: corner incompatibility
    data = _data(theta=[lambda z: np.ones_like(z)])
    report = validate_problem(data, zero_kinetics(1, 1))
    assert "COMPAT_MISMATCH" in report.codes()


def test_compatible_data_passes():
    report = validate_problem(_data(), zero_kinetics(1, 1))
    assert report.ok, report.violations


def test_negative_initial_data_warns_for_quasi_positive():
    data = _data(phi=[lambda z: -0.1 * np.ones_like(z)])
    report = validate_problem(data, zero_kinetics(1, 1))
    assert report.ok  # warning, not a violation
    assert "NEGATIVE_INITIAL_DATA" in report.warning_codes()


def test_negative_initial_data_silent_without_positivity():
    kin = linear_preset([[-1.0]], [0.0], [[-1.0]], [0.0])
    data = _data(phi=[lambda z: -0.1 * np.ones_like(z)])
    report = validate_problem(data, kin)
    assert "NEGATIVE_INITIAL_DATA" not in report.warning_codes()


@pytest.mark.parametrize("kin", [zero_kinetics(1, 1),
                                 linear_preset([[-1.0]], [0.0], [[-1.0]], [0.0])],
                         ids=["zero", "linear_decay"])
def test_second_order_compat_holds_for_cos_data(kin):
    """theta = cos(pi z / 2) with psi = 0 and no biomass meets the
    second-order matching condition exactly: theta''(1) = theta(1) = 0, so
    D theta''(1) + v1 theta'(1) + R0^2 h(1) = 0 = psi'(0).  The curvature
    stencil at z = 1 is second order, so it reads about 1e-6 here, and
    nothing warns."""
    rep = validate_problem(_data(phi=[lambda z: np.zeros_like(z)]), kin)
    assert rep.ok and rep.warnings == []


def test_second_order_compat_warns_on_mismatch():
    # theta = 1 - z^2 against psi = 0: D theta''(1) = -2, not psi'(0) = 0
    data = _data(phi=[lambda z: np.zeros_like(z)], theta=[lambda z: 1.0 - z**2])
    rep = validate_problem(data, zero_kinetics(1, 1))
    assert rep.warning_codes() == {"SECOND_ORDER_COMPAT"}
    assert "does not match the interior balance -2 at t=0" in rep.warnings[0][1]


def test_nonfinite_initial_data():
    data = _data(phi=[lambda z: np.where(z > 0.5, np.nan, 1.0)])
    report = validate_problem(data, zero_kinetics(1, 1))
    assert "NONFINITE_INPUT" in report.codes()


@pytest.mark.parametrize("bad,value,message", [
    ("f", math.nan, "kinetics f[0] at the initial data is not finite at node 0 (z=0) of N=200"),
    ("h", math.inf, "kinetics h[0] at the initial data is not finite at node 0 (z=0) of N=200"),
    ("g", math.inf, "kinetics g at the initial data is not finite at node 0 (z=0) of N=200"),
])
def test_rates_checked_finite_at_initial_data(bad, value, message):
    """A rate that is not finite at the initial data is a violation that
    names the rate and the first node of the sample where it is not."""
    rates = dict(f=lambda Y, C: np.zeros_like(Y), h=lambda Y, C: np.zeros_like(C),
                 g=lambda Y, C: np.zeros(Y.shape[1]))
    good = rates[bad]
    rates[bad] = lambda Y, C: np.full_like(good(Y, C), value)
    rep = validate_problem(_data(), KineticsModel(n=1, m=1, **rates))
    assert rep.violations == [("NONFINITE_INPUT", message)]


@pytest.mark.parametrize("bad", ["f", "h", "g"])
def test_rate_shapes_checked(bad):
    """The solver works on the rate arrays as returned, so a rate of the
    wrong shape is rejected at entry."""
    rates = dict(f=lambda Y, C: np.zeros_like(Y), h=lambda Y, C: np.zeros_like(C),
                 g=lambda Y, C: np.zeros(Y.shape[1]))
    rates[bad] = lambda Y, C: np.zeros((2, Y.shape[1]))
    rep = validate_problem(_data(), KineticsModel(n=1, m=1, **rates))
    assert rep.codes() == {"DIMENSION_MISMATCH"}
    assert f"kinetics {bad} returned shape" in rep.violations[0][1]
