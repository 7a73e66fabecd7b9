"""Tridiagonal solver and one-step substrate scheme."""

import importlib.machinery
import importlib.util
import math
import re

import numpy as np
import pytest
import scipy
from hypothesis import event, given, settings, strategies as st
from scipy.linalg import lapack

from biofilmfront import (
    Grid,
    ProblemData,
    SolverConfig,
    SolverError,
    initial_state,
    picard_step,
    zero_kinetics,
)
from biofilmfront import parabolic
from biofilmfront.parabolic import (advection_weights, gtsv_solve, peclet_error,
                                    peclet_unstable)
from stages import assemble, substrate_step


# -- tridiagonal solver -------------------------------------------------------


def thomas(sub, diag, sup, rhs):
    """Reference Thomas elimination, without pivoting, on full-length bands
    (``sub[0]`` and ``sup[-1]`` are padding).

    Returns the solution and whether LAPACK ``gtsv`` would swap rows on this
    system: its partial pivoting swaps at step ``k`` when the running pivot
    ``|d[k-1]|`` is smaller than ``|sub[k]|``.
    """
    n = len(diag)
    d = diag.astype(float).copy()
    r = rhs.astype(float).copy()
    swaps = False
    for k in range(1, n):
        swaps = swaps or abs(d[k - 1]) < abs(sub[k])
        w = sub[k] / d[k - 1]
        d[k] -= w * sup[k - 1]
        r[k] -= w * r[k - 1]
    x = np.empty(n)
    x[-1] = r[-1] / d[-1]
    for k in range(n - 2, -1, -1):
        x[k] = (r[k] - sup[k] * x[k + 1]) / d[k]
    return x, swaps


def test_tridiagonal_identity():
    x = gtsv_solve(np.zeros(2), np.ones(3), np.zeros(2), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(x, [1.0, 2.0, 3.0])


def test_tridiagonal_hand_solved_3x3():
    # [2 -1 0; -1 2 -1; 0 -1 2] x = [1, 0, 1] -> x = [1, 1, 1]
    x = gtsv_solve(np.array([-1.0, -1.0]), np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0]),
                   np.array([1.0, 0.0, 1.0]))
    assert np.allclose(x, [1.0, 1.0, 1.0], atol=1e-14)


def test_tridiagonal_zero_pivot():
    # [1 1; 1 1] is singular: elimination leaves an exactly zero last pivot
    with pytest.raises(SolverError) as exc:
        gtsv_solve(np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0]), np.array([1.0, 1.0]))
    assert exc.value.code == "ZERO_PIVOT"
    assert type(exc.value) is SolverError  # a step error: neither bad input nor a subclass


def test_tridiagonal_pivots_past_zero_diagonal():
    # [0 1; 1 1] is nonsingular; partial pivoting solves it despite diag[0] = 0
    rhs = np.array([1.0, 1.0])
    x = gtsv_solve(np.array([1.0]), np.array([0.0, 1.0]), np.array([1.0]), rhs)
    A = np.array([[0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(x, np.linalg.solve(A, rhs), atol=1e-15)


def test_tridiagonal_nonfinite():
    with pytest.raises(SolverError) as exc:
        gtsv_solve(np.zeros(2), np.ones(3), np.zeros(2), np.array([np.inf, 0.0, 0.0]))
    assert exc.value.code == "NONFINITE"
    assert type(exc.value) is SolverError  # a step error: neither bad input nor a subclass


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=2**31 - 1))
def test_tridiagonal_matches_dense_solver(n, seed):
    rng = np.random.default_rng(seed)
    sub = rng.uniform(-1.0, 1.0, n)
    sup = rng.uniform(-1.0, 1.0, n)
    sub[0] = 0.0
    sup[-1] = 0.0
    # force strict diagonal dominance so both solvers are well-conditioned
    diag = 2.5 + np.abs(sub) + np.abs(sup)
    rhs = rng.uniform(-5.0, 5.0, n)
    A = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    x = gtsv_solve(sub[1:], diag, sup[:-1], rhs)
    assert np.allclose(x, np.linalg.solve(A, rhs), atol=1e-10)


def assert_same_solve(dl, d, du, b):
    """The module's ``dgtsv``, loaded from scipy's ``_flapack`` file, returns
    ``scipy.linalg.lapack.dgtsv``'s ``(x, info)`` bit for bit; returns info."""
    *_, x, info = parabolic.dgtsv(dl, d, du, b)
    *_, x_ref, info_ref = lapack.dgtsv(dl, d, du, b)
    assert (x.tobytes(), info) == (x_ref.tobytes(), info_ref)
    return info


@settings(max_examples=100)
@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**31 - 1))
def test_loaded_dgtsv_matches_scipy_bitwise(n, seed):
    # no diagonal dominance and some exact zeros, so rows swap and pivots vanish
    rng = np.random.default_rng(seed)
    dl, d, du = (rng.uniform(-1.0, 1.0, k) * (rng.random(k) < 0.8) for k in (n - 1, n, n - 1))
    info = assert_same_solve(dl, d, du, rng.uniform(-5.0, 5.0, n))
    event("singular" if info else "solved")


@pytest.mark.parametrize("d, info", [([0.0, 1.0], 0), ([1.0, 1.0], 2)],
                         ids=["pivoting", "singular"])
def test_loaded_dgtsv_matches_scipy_on_2x2(d, info):
    # [[0, 1], [1, 1]] needs a row swap; [[1, 1], [1, 1]] has a zero last pivot
    one = np.array([1.0])
    assert assert_same_solve(one, np.array(d), one, np.array([1.0, 2.0])) == info


def test_missing_lapack_wrapper_names_directory_and_version(monkeypatch, tmp_path):
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    message = (r"scipy " + re.escape(scipy.__version__) + r" .* in "
               + re.escape(str(tmp_path / "linalg")))
    with pytest.raises(ImportError, match=message):
        parabolic._load_dgtsv()


def test_missing_scipy_is_module_not_found(monkeypatch):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ModuleNotFoundError) as info:
        parabolic._load_dgtsv()
    assert info.value.name == "scipy"


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(min_value=4, max_value=400),
    D=st.floats(min_value=1e-3, max_value=10.0),
    dt=st.floats(min_value=1e-5, max_value=1.0),
    theta=st.floats(min_value=0.5, max_value=1.0),
    pe=st.tuples(st.floats(min_value=-0.999, max_value=0.999),
                 st.floats(min_value=-0.999, max_value=0.999)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_tridiagonal_bitwise_equals_thomas_on_assembled_systems(N, D, dt, theta, pe, seed):
    """Where gtsv swaps no rows it does Thomas' flops: the same bits.

    The assembled matrices are row diagonally dominant, but a stiff step
    (large ``dt D / dz^2``) with a receding surface (``v1 < 0``) can still
    make gtsv pivot; it then agrees with Thomas to the forward error bound.
    """
    rng = np.random.default_rng(seed)
    g = Grid(N)
    v1 = (2.0 * D * N * pe[0], 2.0 * D * N * pe[1])   # mesh Peclet |v1| dz / 2D < 1
    sub, diag, sup, rhs = assemble(rng.uniform(0.0, 2.0, N + 1), g, v1,
                                   rng.uniform(-1.0, 1.0, N + 1), D,
                                   rng.uniform(0.0, 2.0), dt, theta)
    x_ref, swaps = thomas(sub, diag, sup, rhs)
    x = gtsv_solve(sub[1:], diag, sup[:-1], rhs)
    event("gtsv pivots" if swaps else "no pivoting")
    assert v1[1] < 0.0 or not swaps
    if swaps:
        # both are stable eliminations: they agree to the forward error bound
        A = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        bound = (N + 1) * np.finfo(float).eps * np.linalg.cond(A, np.inf)
        assert np.max(np.abs(x - x_ref)) <= bound * np.max(np.abs(x_ref))
    else:
        assert np.array_equal(x, x_ref)


# -- assembly ------------------------------------------------------------------


def test_interior_stencil_fully_implicit():
    """v1 = 0, theta_scheme = 1: interior rows are the classic implicit stencil."""
    g = Grid(4)
    dt, D = 0.01, 1.0
    sub, diag, sup, _ = assemble(np.zeros(5), g, (0.0, 0.0), np.zeros(5), D, 0.0, dt, 1.0)
    r = dt * D / g.dz**2
    assert diag[1] == pytest.approx(1.0 + 2.0 * r)
    assert sub[1] == pytest.approx(-r)   # row 1, coupling to node 0
    assert sup[1] == pytest.approx(-r)   # row 1, coupling to node 2
    # boundary rows: ghost-node symmetry and exact Dirichlet
    assert diag[0] == pytest.approx(1.0 + 2.0 * r)
    assert sup[0] == pytest.approx(-2.0 * r)
    assert diag[-1] == 1.0
    assert sub[-1] == 0.0


def test_assembly_pe_guard():
    g = Grid(10)  # dz = 0.1, so |z v1| dz / (2D) > 1 needs v1 > 20 at z=1
    D = 1.0
    diff = D / g.dz**2
    interior = g.nodes[1:g.N]
    assert peclet_unstable(advection_weights(interior, 25.0, g.dz), diff)
    assert peclet_unstable(advection_weights(interior, -25.0, g.dz), diff)
    assert not peclet_unstable(advection_weights(interior, 20.0, g.dz), diff)
    exc = peclet_error(25.0, 25.0, D, 0.5, g)
    assert exc.code == "UNSTABLE_ASSEMBLY"
    # the fix is a grid with N > |v1| / (2D) = 12.5, or a larger D; the mesh
    # Peclet number does not depend on the time step
    msg = str(exc)
    assert "N >= 13" in msg
    assert "increase D" in msg
    assert "time step" not in msg and "dt" not in msg


def test_peclet_error_names_only_d_when_the_grid_size_overflows():
    """|v1| / (2D) beyond the largest float names no grid size."""
    exc = peclet_error(1.0e+308, 0.0, 0.05, 1.0, Grid(40))
    assert exc.code == "UNSTABLE_ASSEMBLY"
    assert str(exc) == ("advection too strong for centered differencing at N=40 (mesh "
                        "Peclet 2.5e+307 > 1); increase D")


# -- one-step scheme -----------------------------------------------------------


def _step_plain(C, g, dt, psi=0.0, v1=(0.0, 0.0), H=None, theta=0.5, D=1.0):
    H = np.zeros(g.N + 1) if H is None else H
    return substrate_step(C, g, v1, H, D, psi, dt, theta)


def test_constant_steady_state_exact():
    g = Grid(16)
    C = np.full(17, 3.0)
    C_new = _step_plain(C, g, dt=0.05, psi=3.0, v1=(0.2, 0.2))
    assert np.allclose(C_new, 3.0, rtol=1e-15)  # constants sit in the stencil kernel


def test_dirichlet_trace_bitwise():
    g = Grid(8)
    C = np.linspace(0.0, 1.0, 9)
    psi = 0.4321
    C_new = _step_plain(C, g, dt=0.01, psi=psi)
    assert C_new[-1] == psi


def test_eigenmode_decay_rate():
    """cos(pi z / 2) decays like e^{-D (pi/2)^2 t} under the homogeneous problem."""
    g = Grid(100)
    C = np.cos(0.5 * math.pi * g.nodes)
    dt, n_steps = 1e-3, 100
    for _ in range(n_steps):
        C = _step_plain(C, g, dt=dt)
    t = dt * n_steps
    exact = math.exp(-((0.5 * math.pi) ** 2) * t) * np.cos(0.5 * math.pi * g.nodes)
    err = np.max(np.abs(C - exact))
    assert err < 2e-5


def test_polynomial_steady_state():
    """With H = H0 and psi = psi_bar the fixed point is psi_bar + H0 (1 - z^2) / 2D."""
    g = Grid(40)
    H0, psi_bar, D = 1.5, 0.25, 2.0
    C = np.full(g.N + 1, psi_bar)
    H = np.full(g.N + 1, H0)
    for _ in range(4000):
        C = _step_plain(C, g, dt=0.01, psi=psi_bar, H=H, D=D)
    target = psi_bar + (H0 / (2.0 * D)) * (1.0 - g.nodes**2)
    assert np.max(np.abs(C - target)) < 1e-6


def test_implicit_maximum_principle():
    rng = np.random.default_rng(3)
    g = Grid(25)
    psi = 0.6
    for _ in range(20):
        C = rng.uniform(0.0, 2.0, g.N + 1)
        C_new = _step_plain(C, g, dt=0.3, psi=psi, v1=(1.0, 1.0), theta=1.0)
        lo, hi = min(C.min(), psi), max(C.max(), psi)
        assert C_new.min() >= lo - 1e-13
        assert C_new.max() <= hi + 1e-13


def test_implicit_positivity_with_source():
    rng = np.random.default_rng(11)
    g = Grid(25)
    for _ in range(20):
        C = rng.uniform(0.0, 1.0, g.N + 1)
        H = rng.uniform(0.0, 2.0, g.N + 1)
        C_new = _step_plain(C, g, dt=0.5, psi=0.1, v1=(-0.5, -0.5), H=H, theta=1.0)
        assert C_new.min() >= -1e-13


def test_parabolic_step_multiple_substrates():
    """The coupled step advances each substrate with its own D and surface
    value; with zero kinetics the velocity stays 0."""
    data = ProblemData(phi=[lambda z: np.zeros_like(z)],
                       theta=[lambda z: np.ones_like(z), lambda z: 2.0 * z],
                       psi=[lambda t: 1.0, lambda t: 2.0], D=[1.0, 0.5], lam=0.5, R0=1.0)
    kin = zero_kinetics(1, 2)
    cfg = SolverConfig(N=12, dt=0.01)
    s1 = picard_step(initial_state(data, kin, cfg), data, kin, cfg)[0]
    C_new = s1.C
    assert C_new.shape == (2, 13)
    assert np.allclose(C_new[0], 1.0, rtol=1e-15)   # constant substrate untouched
    assert C_new[1, -1] == 2.0              # Dirichlet trace, second substrate


def test_parabolic_step_lagged_source_scaling():
    """Source enters as R^2 h: doubling R quadruples the one-step deposit.

    Checked through the coupled step, which scales the rates by the squared
    thickness of the iterate.  With ``g = 0`` the velocity stays 0, and with
    negligible detachment the thickness stays at ``R0`` to about 1e-11."""
    kin_unit = zero_kinetics(1, 1)

    def h_one(Y, C):
        return np.ones((1, Y.shape[1]))

    kin = type(kin_unit)(n=1, m=1, f=kin_unit.f, h=h_one, g=kin_unit.g,
                         quasi_positive=False)
    cfg = SolverConfig(N=10, dt=1e-3)

    def deposit(R):
        data = ProblemData(phi=[lambda z: np.zeros_like(z)], theta=[lambda z: np.zeros_like(z)],
                           psi=[lambda t: 0.0], D=[1.0], lam=1e-9, R0=R)
        s0 = initial_state(data, kin, cfg)
        return picard_step(s0, data, kin, cfg)[0].C

    C1, C2 = deposit(1.0), deposit(2.0)
    # compare away from the Dirichlet edge where the source is visible
    assert C1[0, 0] > 0.0
    assert C2[0, 0] == pytest.approx(4.0 * C1[0, 0], rel=1e-10)
