"""Semi-Lagrangian transport: feet, clamping, Duhamel source, sup-norm bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biofilmfront import Grid
from biofilmfront.transport import clamped_mask, raw_feet
from stages import transport_step


def _foot(z, v1_mean, dt):
    """Clamped foot of one point, and whether it was clamped."""
    raw = raw_feet(np.array([z]), dt, v1_mean)
    return float(np.minimum(raw, 1.0)[0]), bool(clamped_mask(raw)[0])


def test_scaled_foot_closed_form():
    foot, clamped = _foot(0.5, 1.0, 0.1)
    assert foot == pytest.approx(0.5 * math.exp(0.1), rel=1e-14)
    assert not clamped


def test_foot_clamped_above():
    foot, clamped = _foot(0.9, 1.0, 1.0)
    assert foot == 1.0
    assert clamped


def test_scaled_foot_fixed_at_origin():
    # z = 0 is invariant under the multiplicative displacement
    foot, clamped = _foot(0.0, -2.0, 0.5)
    assert foot == 0.0 and not clamped


def test_constant_field_invariant():
    g = Grid(20)
    Y = np.full((1, 21), 0.7)
    zero = np.zeros((1, 21))
    Y_new, clamped = transport_step(Y, g, zero, zero, (0.4, -0.2), 0.05)
    assert np.allclose(Y_new, 0.7, atol=1e-15)
    assert clamped == 1  # the surface node's foot z e^{0.005} leaves the domain


def test_zero_velocity_constant_source():
    g = Grid(10)
    Y = np.zeros((1, 11))
    ones = np.ones((1, 11))
    Y_new, _ = transport_step(Y, g, ones, ones, (0.0, 0.0), 0.25)
    # trapezoid of a constant source over the step is exact
    assert np.allclose(Y_new, 0.25, atol=1e-15)


def test_duhamel_uses_both_stages():
    g = Grid(10)
    Y = np.zeros((1, 11))
    Y_new, _ = transport_step(Y, g, np.ones((1, 11)), np.zeros((1, 11)), (0.0, 0.0), 0.1)
    assert np.allclose(Y_new, 0.5 * 0.1 * 1.0, atol=1e-15)


def test_pure_advection_maximum_principle():
    rng = np.random.default_rng(7)
    g = Grid(30)
    Y = rng.uniform(-1.0, 2.0, size=(2, 31))
    zero = np.zeros((2, 31))
    Y_new, _ = transport_step(Y, g, zero, zero, (0.8, 0.3), 0.2)
    assert Y_new.min() >= Y.min() - 1e-14
    assert Y_new.max() <= Y.max() + 1e-14


@settings(max_examples=40)
@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=21, max_size=21),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_positivity_preserved(yvals, v1):
    """Nonnegative data plus a nonnegative sampler cannot produce negatives."""
    g = Grid(20)
    Y = np.array(yvals).reshape(1, -1)
    F = np.maximum(Y, 0.0)
    Y_new, _ = transport_step(Y, g, F, F, (v1, v1), 0.05)
    assert Y_new.min() >= 0.0


def test_discrete_gronwall_bound():
    """Repeated linear-source stepping stays below e^{Lt}(|phi| + t c0) x 1.1."""
    g = Grid(40)
    L, c0 = 2.0, 0.5
    Y = (0.5 + 0.5 * np.cos(math.pi * g.nodes)).reshape(1, -1)
    phi_norm = np.max(np.abs(Y))
    dt, n_steps = 0.01, 100
    for k in range(n_steps):
        field = L * Y + c0  # lagged linear source, both stages
        Y, _ = transport_step(Y, g, field, field, (0.3, 0.3), dt)
        t = (k + 1) * dt
        bound = math.exp(L * t) * (phi_norm + t * c0)
        assert np.max(np.abs(Y)) <= 1.1 * bound
