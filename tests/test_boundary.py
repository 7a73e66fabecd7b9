"""Velocity functional and thickness ODE."""

import math

import numpy as np
import pytest

from biofilmfront import (
    ThicknessCollapse,
    build_grid,
    detachment_rhs,
    integrate_thickness,
    linear_preset,
    r_max_bound,
    zero_kinetics,
)
from biofilmfront.boundary import thickness_update, velocity_nodes


def _velocity(Y, C, R, kin, g):
    return velocity_nodes(kin.g(Y, C), R**2, g.dz)


def test_velocity_zero_growth():
    g = build_grid(10)
    v = _velocity(np.ones((1, 11)), np.ones((1, 11)), 1.0, zero_kinetics(1, 1), g)
    assert np.all(v == 0.0)


def test_velocity_constant_growth_exact():
    # g = c constant: v(z) = R^2 c z, exact under the trapezoid rule
    g = build_grid(10)
    kin = linear_preset([[0.0]], [0.7], [[0.0]], [0.0])
    v = _velocity(np.ones((1, 11)), np.ones((1, 11)), 2.0, kin, g)
    assert np.allclose(v, 4.0 * 0.7 * g.nodes, atol=1e-14)
    assert v[0] == 0.0


def test_velocity_r_squared_scaling():
    g = build_grid(20)
    kin = linear_preset([[0.5]], [0.1], [[0.0]], [0.0])
    Y = np.linspace(0.2, 1.0, 21).reshape(1, -1)
    C = np.ones((1, 21))
    v1 = _velocity(Y, C, 1.0, kin, g)
    v3 = _velocity(Y, C, 3.0, kin, g)
    assert np.allclose(v3, 9.0 * v1, rtol=1e-14)


def test_detachment_rhs_formula():
    assert detachment_rhs(2.0, 0.25, 0.5) == pytest.approx(4 * 0.25 - 0.5 * 16)


def test_rk4_fourth_order_on_decay():
    """Pure-detachment decay has a closed form; RK4 error must shrink ~dt^4."""
    lam, R0, T = 0.5, 1.0, 1.0
    exact = R0 * (1.0 + 3.0 * lam * R0**3 * T) ** (-1.0 / 3.0)

    def err(n_steps):
        dt = T / n_steps
        R = R0
        for _ in range(n_steps):
            R = integrate_thickness(R, (0.0, 0.0, 0.0), lam, dt)
        return abs(R - exact)

    e1, e2 = err(40), err(80)
    order = math.log2(e1 / e2)
    assert order > 3.7


def test_equilibrium_preserved():
    # v1 = lam R^2 makes the right-hand side vanish identically
    lam, R = 0.5, 1.3
    v1 = lam * R**2
    R_new = thickness_update(R, v1, v1, lam, 0.1)
    assert R_new == pytest.approx(R, abs=1e-12)


def test_boundary_step_linear_v1_interpolation():
    """The step sees v1 varying linearly between its endpoints."""
    lam = 1e-12  # essentially pure growth dR/dt = R^2 v1(t)
    R_new = thickness_update(1.0, 0.0, 1.0, lam, 0.01)
    # dR/dt = R^2 t/dt with R ~ 1: R(dt) ~ 1 + dt/2 to leading order
    assert R_new == pytest.approx(1.0 + 0.5 * 0.01, rel=1e-3)


def test_collapse_raises():
    with pytest.raises(ThicknessCollapse) as exc:
        thickness_update(0.05, -30.0, -30.0, 0.5, 20.0)
    assert exc.value.code == "THICKNESS_COLLAPSE"


@pytest.mark.parametrize(
    "R0,lam,v1_max,expect",
    [
        (1.0, 0.5, 2.0, 2.0),          # sqrt(2/0.5) = 2 dominates
        (3.0, 0.5, 2.0, 3.0),          # initial thickness dominates
        (1.0, 0.5, 0.0, 1.0),          # no growth: bound is R0
        (1.0, 0.5, -4.0, 1.0),         # shrinking film: bound is R0
    ],
)
def test_r_max_bound_cases(R0, lam, v1_max, expect):
    assert r_max_bound(R0, lam, v1_max) == pytest.approx(expect)


def test_integrate_thickness_sees_stage_times():
    """Each RK4 stage takes the velocity at its own time: ``v1_start`` in k1,
    ``v1_mid`` (at dt/2) in k2 and k3, ``v1_end`` in k4."""
    R, lam, dt = 1.0, 0.5, 0.2
    v1 = (0.3, 1.1, -0.7)
    k1 = detachment_rhs(R, v1[0], lam)
    k2 = detachment_rhs(R + 0.5 * dt * k1, v1[1], lam)
    k3 = detachment_rhs(R + 0.5 * dt * k2, v1[1], lam)
    k4 = detachment_rhs(R + dt * k3, v1[2], lam)
    assert integrate_thickness(R, v1, lam, dt) == R + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
