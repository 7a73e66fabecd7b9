"""Grid, and the quadrature and interpolation kernels on nodal profiles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import cumulative_trapezoid

from biofilmfront import Grid, SolverError, State, ValidationError
from biofilmfront.boundary import velocity_nodes
from biofilmfront.grid import cumtrapz_dz, interp_rows


def test_grid_basic():
    g = Grid(10)
    assert g.N == 10
    assert g.dz == pytest.approx(0.1)
    assert g.nodes.shape == (11,)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 1.0
    assert np.allclose(np.diff(g.nodes), g.dz)


def test_grid_nodes_read_only():
    g = Grid(8)
    with pytest.raises(ValueError):
        g.nodes[0] = 5.0


def test_grid_too_coarse():
    with pytest.raises(ValidationError) as exc:
        Grid(3)
    assert exc.value.code == "TOO_COARSE"


# 10**16 nodes need 80 PB, past x86-64's 128 TiB of address space, so the
# allocation fails at once; 2**62 and 2**63 nodes no intp can size in bytes
@pytest.mark.parametrize("N", [10**16, 2**62, 2**63, np.int64(2**62)],
                         ids=["memory", "2**62", "2**63", "int64"])
def test_grid_too_fine(N):
    """A grid whose nodes no array or no memory can hold is bad input, where
    numpy used to raise ``MemoryError``, ``ValueError`` or ``IndexError``."""
    with pytest.raises(ValidationError) as exc:
        Grid(N)
    assert exc.value.code == "TOO_FINE"
    assert str(exc.value) == (f"grid of N={N} cells needs {8.0 * (int(N) + 1):.3g} bytes for "
                              "its nodes, more than an array or memory holds; reduce N")


@pytest.mark.parametrize("N", [40.7, 40.0, "40", True, None])
def test_grid_size_must_be_an_integer(N):
    """A grid size that is not an integer is rejected with a message naming
    it, where the grid used to truncate it (40.7 ran at N=40)."""
    with pytest.raises(ValidationError) as exc:
        Grid(N)
    assert exc.value.code == "SCHEMA_VIOLATION"
    assert str(exc.value) == f"N must be an integer, got {N!r}"


def test_grid_takes_numpy_integers_as_int():
    g = Grid(np.int64(40))
    assert type(g.N) is int and g.N == 40 and repr(g) == "Grid(N=40)"
    assert g.dz == 0.025 and type(g.dz) is float


def test_profile_shape_checked():
    # a state's nodal profiles must match its grid
    g = Grid(10)
    with pytest.raises(ValidationError) as exc:
        State(t=0.0, grid=g, Y=np.zeros((1, 7)), C=np.zeros((1, 11)), R=1.0, v=np.zeros(11))
    assert exc.value.code == "DIMENSION_MISMATCH"


def test_profile_rejects_nonfinite():
    # a non-finite rate profile gives a non-finite velocity profile: a value
    # the step computed, so a step error, not bad input
    g = Grid(10)
    vals = np.zeros(11)
    vals[4] = np.nan
    with pytest.raises(SolverError) as exc:
        velocity_nodes(vals, 1.0, g.dz)
    assert exc.value.code == "NONFINITE"
    assert not isinstance(exc.value, ValidationError)


def test_cumtrapz_linear_integrand_exact():
    # integral of z is z^2/2; trapezoid is exact for linear integrands
    g = Grid(16)
    v = cumtrapz_dz(g.nodes.copy(), g.dz)
    assert np.allclose(v, 0.5 * g.nodes**2, atol=1e-15)


def test_cumtrapz_starts_at_zero():
    g = Grid(12)
    assert cumtrapz_dz(np.cos(g.nodes), g.dz)[0] == 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=9, max_size=9))
def test_cumtrapz_monotone_for_nonnegative(vals):
    g = Grid(8)
    v = cumtrapz_dz(np.array(vals), g.dz)
    assert np.all(np.diff(v) >= -1e-12)


@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=9, max_size=9),
    st.lists(st.floats(min_value=-10, max_value=10), min_size=9, max_size=9),
    st.floats(min_value=-3, max_value=3),
)
def test_cumtrapz_is_linear(a_vals, b_vals, scale):
    g = Grid(8)
    a = np.array(a_vals)
    b = np.array(b_vals)
    lhs = cumtrapz_dz(a + scale * b, g.dz)
    rhs = cumtrapz_dz(a, g.dz) + scale * cumtrapz_dz(b, g.dz)
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(
    st.integers(min_value=4, max_value=400),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_cumtrapz_bitwise_equals_scipy(N, seed, scale):
    g = Grid(N)
    vals = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, N + 1)
    ref = cumulative_trapezoid(vals, dx=g.dz, initial=0.0)
    assert np.array_equal(cumtrapz_dz(vals, g.dz), ref)


def test_cumtrapz_of_integer_values_is_float():
    """Integer nodal values integrate in floating point, as scipy's
    cumulative_trapezoid does, not truncated into an integer array."""
    g = Grid(4)
    vals = np.arange(5)
    assert np.array_equal(cumtrapz_dz(vals, g.dz),
                          cumulative_trapezoid(vals, dx=g.dz, initial=0.0))


def test_interp_linear_hits_nodes():
    g = Grid(10)
    rows = np.vstack([np.sin(3 * g.nodes), np.cos(g.nodes)])
    z = g.nodes[[0, 3, 10]]
    assert np.array_equal(interp_rows(rows, z, g.nodes), rows[:, [0, 3, 10]])


@pytest.mark.parametrize("N", [4, 40, 1600])
def test_interp_rows_is_np_interp_bitwise(N):
    """``interp_rows`` calls the routine behind ``np.interp`` directly, and
    gives its results bit for bit: at random points, at exact nodes and at
    feet clamped onto z = 1."""
    rng = np.random.default_rng(N)
    g = Grid(N)
    rows = rng.uniform(-2.0, 2.0, (3, N + 1))
    z = np.concatenate((rng.uniform(0.0, 1.0, N + 1), g.nodes,
                        np.minimum(g.nodes * np.exp(0.05), 1.0)))
    got = interp_rows(rows, z, g.nodes)
    assert got.shape == (3, len(z))
    for got_row, row in zip(got, rows):
        assert got_row.tobytes() == np.interp(z, g.nodes, row).tobytes()


def test_interp_linear_midpoint():
    g = Grid(4)
    row = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
    # halfway between nodes 1 and 2
    assert interp_rows(row[None, :], np.array([0.375]), g.nodes)[0, 0] == pytest.approx(2.5)
