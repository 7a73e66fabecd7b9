"""Grid, Profile and quadrature/interpolation helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import cumulative_trapezoid

from biofilmfront import Grid, GridError, Profile, build_grid, cumtrapz, interp_linear


def test_build_grid_basic():
    g = build_grid(10)
    assert g.N == 10
    assert g.dz == pytest.approx(0.1)
    assert g.nodes.shape == (11,)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 1.0
    assert np.allclose(np.diff(g.nodes), g.dz)


def test_grid_nodes_read_only():
    g = build_grid(8)
    with pytest.raises(ValueError):
        g.nodes[0] = 5.0


def test_grid_too_coarse():
    with pytest.raises(GridError) as exc:
        build_grid(3)
    assert exc.value.code == "TOO_COARSE"


def test_profile_shape_checked():
    g = build_grid(10)
    with pytest.raises(GridError):
        Profile(g, np.zeros(7))


def test_profile_rejects_nonfinite():
    g = build_grid(10)
    vals = np.zeros(11)
    vals[4] = np.nan
    with pytest.raises(GridError):
        Profile(g, vals)


def test_profile_from_callable():
    g = build_grid(20)
    p = Profile.from_callable(g, lambda z: z**2)
    assert np.allclose(p.values, g.nodes**2)


def test_cumtrapz_linear_integrand_exact():
    # integral of z is z^2/2; trapezoid is exact for linear integrands
    g = build_grid(16)
    p = Profile(g, g.nodes.copy())
    v = cumtrapz(p)
    assert np.allclose(v.values, 0.5 * g.nodes**2, atol=1e-15)


def test_cumtrapz_starts_at_zero():
    g = build_grid(12)
    p = Profile.from_callable(g, lambda z: np.cos(z))
    assert cumtrapz(p).values[0] == 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=9, max_size=9))
def test_cumtrapz_monotone_for_nonnegative(vals):
    g = build_grid(8)
    v = cumtrapz(Profile(g, np.array(vals))).values
    assert np.all(np.diff(v) >= -1e-12)


@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=9, max_size=9),
    st.lists(st.floats(min_value=-10, max_value=10), min_size=9, max_size=9),
    st.floats(min_value=-3, max_value=3),
)
def test_cumtrapz_is_linear(a_vals, b_vals, scale):
    g = build_grid(8)
    a = np.array(a_vals)
    b = np.array(b_vals)
    lhs = cumtrapz(Profile(g, a + scale * b)).values
    rhs = cumtrapz(Profile(g, a)).values + scale * cumtrapz(Profile(g, b)).values
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(
    st.integers(min_value=4, max_value=400),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_cumtrapz_bitwise_equals_scipy(N, seed, scale):
    g = build_grid(N)
    vals = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, N + 1)
    ref = cumulative_trapezoid(vals, dx=g.dz, initial=0.0)
    assert np.array_equal(cumtrapz(Profile(g, vals)).values, ref)


def test_interp_linear_hits_nodes():
    g = build_grid(10)
    p = Profile.from_callable(g, lambda z: np.sin(3 * z))
    for k in (0, 3, 10):
        assert interp_linear(p, g.nodes[k]) == pytest.approx(p.values[k], abs=1e-15)


def test_interp_linear_midpoint():
    g = build_grid(4)
    p = Profile(g, np.array([0.0, 1.0, 4.0, 9.0, 16.0]))
    # halfway between nodes 1 and 2
    assert interp_linear(p, 0.375) == pytest.approx(2.5)


def test_interp_linear_out_of_domain():
    g = build_grid(4)
    p = Profile(g, np.zeros(5))
    with pytest.raises(GridError) as exc:
        interp_linear(p, 1.5)
    assert exc.value.code == "OUT_OF_DOMAIN"
