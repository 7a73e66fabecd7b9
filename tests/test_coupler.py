"""Coupled step, trajectory outcomes, energy audit and physical back-transform."""

import collections
import dataclasses
import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from biofilmfront import (
    AssemblyError,
    Grid,
    InvalidProblem,
    KineticsModel,
    PicardDivergence,
    ProblemData,
    SolverConfig,
    SolverError,
    State,
    ThicknessCollapse,
    ValidationError,
    ValidationReport,
    back_transform,
    build_runspec,
    check_invariants,
    dissipation_envelope_check,
    energy,
    flag_names,
    initial_state,
    linear_preset,
    monod_preset,
    picard_step,
    run_simulation,
    validate_problem,
    zero_kinetics,
)
from biofilmfront import coupler
from biofilmfront.boundary import r_max_bound, velocity_nodes
from biofilmfront.coupler import RECORD_BLOCK, START_HISTORY, _Run
from biofilmfront.grid import interp_rows
from biofilmfront.kinetics import _species_sum
from biofilmfront.parabolic import explicit_part
from stages import substrate_step, thickness_step, transport_step


def _substrate_only(theta=lambda z: np.cos(0.5 * math.pi * z), lam=0.5, R0=1.0):
    return ProblemData(
        phi=[lambda z: np.zeros_like(z)],
        theta=[theta],
        psi=[lambda t: 0.0],
        D=[1.0],
        lam=lam,
        R0=R0,
    )


def _linear_reference():
    data = ProblemData(
        phi=[lambda z: 0.5 + 0.2 * np.cos(math.pi * z)],
        theta=[lambda z: 1.0 - 0.5 * z**2],
        psi=[lambda t: 0.5],
        D=[1.0],
        lam=0.5,
        R0=1.0,
    )
    kin = linear_preset([[-3.0]], [1.5], [[-5.0]], [2.0])
    return data, kin


# -- State and helpers ---------------------------------------------------------


def test_state_requires_pinned_base_velocity():
    g = Grid(4)
    with pytest.raises(ValidationError) as exc:
        State(t=0.0, grid=g, Y=np.zeros((1, 5)), C=np.zeros((1, 5)), R=1.0,
              v=np.linspace(0.1, 1.0, 5))
    assert exc.value.code == "NONZERO_BASE_VELOCITY"


@pytest.mark.parametrize("field", ["Y", "C", "R", "v"])
def test_state_rejects_nonfinite_input(field):
    """The constructor guards its input: ``NONFINITE_INPUT``, the code of
    bad input, not the step error's ``NONFINITE``."""
    values = {"Y": np.zeros((1, 5)), "C": np.zeros((1, 5)), "R": 1.0, "v": np.zeros(5)}
    if field == "R":
        values["R"] = math.nan
    else:
        values[field][..., 2] = np.inf
    with pytest.raises(ValidationError) as exc:
        State(t=0.0, grid=Grid(4), **values)
    assert (exc.value.code, str(exc.value)) == ("NONFINITE_INPUT", "non-finite state")


def _assert_packed(s):
    """``s.x`` is the read-only vector ``(Y, C, R, v1)``, and ``X``, ``Y``
    and ``C`` are read-only views of it."""
    assert s.x.shape == ((len(s.Y) + len(s.C)) * (s.grid.N + 1) + 2,) and s.x.dtype == float
    assert not any(a.flags.writeable for a in (s.x, s.X, s.Y, s.C, s.v))
    assert all(np.shares_memory(a, s.x) for a in (s.X, s.Y, s.C))
    assert np.array_equal(s.x[:-2], np.concatenate((s.Y, s.C)).ravel())
    assert s.x[-2] == s.R and s.x[-1] == s.v1


def test_states_pack_one_read_only_vector():
    """A constructed state, a stepped one and every state of a run pack
    ``x = (Y, C, R, v1)`` once; the warm start is a fresh vector of that
    length, not a view of any state's."""
    g = Grid(4)
    s = State(t=0.0, grid=g, Y=np.arange(10.0).reshape(2, 5), C=np.ones((1, 5)), R=3,
              v=np.linspace(0.0, 0.5, 5))
    _assert_packed(s)
    assert s.x.tolist()[-7:] == [1.0] * 5 + [3.0, 0.5]
    data, kin = _monod_problem(2)
    cfg = SolverConfig(N=30, dt=5e-3)
    traj = run_simulation(data, kin, cfg, t_end=0.05, snapshot_stride=1)
    for s in traj.states + [picard_step(traj.states[0], data, kin, cfg)[0]]:
        _assert_packed(s)
    run = _Run(traj.states[0], data, cfg)
    for state in traj.states[1:3]:
        run.push(state)
    start = run.start()
    assert start.shape == ((kin.n + kin.m) * 31 + 2,) and start.dtype == float
    assert not any(np.shares_memory(start, s.x) for s in traj.states)


def test_energy_hand_value():
    g = Grid(10)
    s = State(t=0.0, grid=g, Y=np.ones((1, 11)), C=np.full((1, 11), 2.0), R=1.0,
              v=np.zeros(11))
    E = energy(s, np.array([1.0]), np.array([1.0]))
    assert E == pytest.approx(0.5 * 1.0 + 0.5 * 4.0)


@pytest.mark.parametrize("N", [4, 40, 1600])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_energy_is_the_per_row_trapezoid_rule_bitwise(n, m, N):
    """Each row's integral is ``dz (sum x^2 - (x_0^2 + x_N^2) / 2)``, and the
    weighted rows are summed in row order, Y's and C's apart."""
    rng = np.random.default_rng(1000 * N + 10 * n + m)
    g = Grid(N)
    s = State(t=0.0, grid=g, Y=rng.uniform(-2.0, 2.0, (n, N + 1)),
              C=rng.uniform(-2.0, 2.0, (m, N + 1)), R=1.0, v=np.zeros(N + 1))
    mu, nu = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, m)

    def weighted(rows, weights):
        total = 0.0
        for w, x in zip(weights, rows):
            total += float(w) * (g.dz * (float((x * x).sum())
                                         - 0.5 * (float(x[0]) ** 2 + float(x[-1]) ** 2)))
        return total

    want = 0.5 * (weighted(s.Y, mu) + weighted(s.C, nu))
    assert energy(s, mu, nu).hex() == want.hex()


def _surface_flux(s, D, nu):
    """The surface energy flux of one state, as a per-state formula:
    ``|sum_j nu_j (v1 C_j(1)^2 / 2 + D_j C_j(1) dC_j/dz(1))|`` on Python
    floats, with a one-sided slope."""
    total = 0.0
    for nu_j, D_j, (c3, c2, c1) in zip(nu.tolist(), D.tolist(), s.C[:, -3:].tolist()):
        slope = (3.0 * c1 - 4.0 * c2 + c3) / (2.0 * s.grid.dz)
        total += nu_j * (0.5 * s.v1 * (c1 * c1) + D_j * c1 * slope)
    return abs(total)


def _growth_problem(m):
    """Exponential growth of ``m`` species on ``m`` inert substrates, so a
    low continuation threshold stops the run."""
    kin = KineticsModel(n=m, m=m, f=lambda Y, C: 8.0 * Y, h=lambda Y, C: np.zeros_like(C),
                        g=lambda Y, C: np.zeros(Y.shape[1]), quasi_positive=True)
    data = ProblemData(phi=[lambda z: 1.0 + 0.1 * z, lambda z: 0.8 + 0.0 * z][:m],
                       theta=[lambda z: 1.0 - 0.5 * z**2, lambda z: 0.2 + 0.3 * z][:m],
                       psi=[lambda t: 0.5, lambda t: 0.5][:m], D=[1.0, 0.3][:m],
                       lam=1e-3, R0=1.0)
    return data, kin


@pytest.mark.parametrize("case", ["blocks", "continuation", "failure"])
def test_record_blocks_give_each_step_its_own_energy_and_flux(case):
    """A run computes its energy and surface-flux columns a block of steps
    at a time and at its end, whatever the outcome.  Every row equals, bit
    for bit, ``energy`` and the flux formula of that row's own state: over
    two whole blocks and a part (``blocks``), and in runs that stop past the
    first block, not at a block's end, on a flag (``continuation``) or on a
    failed step (``failure``).  Three rows of each kind with distinct weights order the
    weighted sums; two split them between ``Y`` and ``C``."""
    if case == "blocks":
        data = ProblemData(phi=[lambda z: 0.3 + 0.1 * z, lambda z: 1.0 - z**2,
                                lambda z: np.cos(z)],
                           theta=[lambda z: 1.0 - 0.5 * z**2, lambda z: 0.2 + 0.3 * z,
                                  lambda z: 0.7 + 0.0 * z],
                           psi=[lambda t: 0.5, lambda t: 0.5, lambda t: 0.7], D=[1.0, 0.3, 0.1],
                           lam=0.5, R0=1.0)
        kin = zero_kinetics(3, 3)
        cfg = SolverConfig(N=12, dt=1e-3, mu=(1.5, 0.5, 0.3), nu=(0.7, 2.0, 1.1))
        t_end, outcome = (2 * RECORD_BLOCK + 88) * 1e-3, "completed"
    elif case == "continuation":
        (data, kin), cfg = _growth_problem(2), SolverConfig(N=10, dt=1e-3, mu=(0.5, 3.0),
                                                            nu=(2.0, 0.25),
                                                            continuation_threshold=10.0)
        t_end, outcome = 2.0, "continuation_tripped"
    else:  # the second surface value turns infinite at t = 0.3, in step 300
        linear, kin = _linear_problem(2)
        data = ProblemData(phi=linear.phi, theta=linear.theta, D=linear.D, lam=linear.lam,
                           R0=linear.R0,
                           psi=[lambda t: 0.5, lambda t: 0.5 if t < 0.2995 else math.inf])
        cfg, t_end, outcome = SolverConfig(N=10, dt=1e-3, nu=(3.0, 0.5)), 1.0, "solve_failed"
    traj = run_simulation(data, kin, cfg, t_end=t_end, snapshot_stride=1)
    steps = len(traj.reports)
    assert traj.outcome == outcome and steps > RECORD_BLOCK and steps % RECORD_BLOCK != 0
    assert traj.state_steps == list(range(steps + 1))
    mu, nu = cfg.weights(kin.n, kin.m)
    for s, row in zip(traj.states[1:], traj.reports):
        assert row.energy.hex() == energy(s, mu, nu).hex()
        assert row.boundary_energy_flux.hex() == _surface_flux(s, data.D, nu).hex()


def test_record_flux_squares_the_surface_value_by_multiplication():
    """The flux's ``C_j(1)^2`` is ``c * c``, which IEEE arithmetic rounds
    correctly on every platform, not libm's ``pow`` (``c ** 2`` on a Python
    float), which glibc rounds otherwise for about one value in a thousand.
    The surface values here include such values when libm has any."""
    data, cfg = _substrate_only(), SolverConfig(N=8)
    mu, nu = cfg.weights(1, 1)
    values = np.random.default_rng(5).uniform(0.5, 2.0, 4000).tolist()
    surface = [c for c in values if c ** 2 != c * c][:8] + values[:8]
    v1 = 0.3

    def state(k, c):
        C = np.linspace(0.0, 1.0, 9) ** 2
        C[-1] = c
        return State(t=k * cfg.dt, grid=Grid(8), Y=np.ones(9), C=C, R=1.0,
                     v=np.linspace(0.0, v1, 9))

    states = [state(k, c) for k, c in enumerate([1.0] + surface)]
    run = _Run(states[0], data, cfg, len(surface))
    for s in states[1:]:
        run.accept((s, [0.0], 0), data, cfg, mu, nu)
    run.finish(data, mu, nu)
    got = [f.hex() for f in run.reports.boundary_energy_flux.tolist()]

    def flux(c, square):  # C(1 - 2 dz) = 0.75^2 and C(1 - dz) = 0.875^2 are exact
        return abs(0.5 * v1 * square + c * ((3.0 * c - 4.0 * 0.875**2 + 0.75**2) / 0.25)).hex()

    assert got == [flux(c, c * c) for c in surface]
    if surface[0] ** 2 != surface[0] * surface[0]:  # libm has such values: pow would differ
        assert got != [flux(c, c ** 2) for c in surface]


def test_solver_config_validated_once():
    with pytest.raises(ValidationError) as exc:
        SolverConfig(dt=math.nan)
    assert exc.value.code == "NONFINITE_INPUT"
    mu_in = np.array([2.0])
    cfg = SolverConfig(mu=mu_in)
    with pytest.raises(AttributeError):
        cfg.dt = 1.0  # frozen
    mu, nu = cfg.weights(1, 1)
    assert mu[0] == 2.0 and nu[0] == 1.0
    assert mu_in.flags.writeable  # the caller's array is not frozen
    with pytest.raises(ValidationError) as exc:
        cfg.weights(2, 1)
    assert exc.value.code == "DIMENSION_MISMATCH"


@pytest.mark.parametrize("name", ["picard_tol", "continuation_threshold"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_solver_config_rejects_nonpositive_tolerances(name, value):
    with pytest.raises(ValidationError) as exc:
        SolverConfig(**{name: value})
    assert exc.value.code == "NONPOSITIVE_PARAM"
    assert name in str(exc.value)


@pytest.mark.parametrize("name", ["mu", "nu"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_solver_config_rejects_nonpositive_energy_weights(name, value):
    with pytest.raises(ValidationError) as exc:
        SolverConfig(**{name: np.array([1.0, value])})
    assert exc.value.code == "NONPOSITIVE_PARAM"
    assert f"energy weights {name}" in str(exc.value)


def test_solver_config_accepts_infinite_tolerances():
    cfg = SolverConfig(picard_tol=math.inf, continuation_threshold=math.inf)
    assert cfg.picard_tol == math.inf and cfg.continuation_threshold == math.inf


@pytest.mark.parametrize("name", ["N", "picard_max_iter"])
@pytest.mark.parametrize("value", [40.7, 40.0, "40", True, None])
def test_solver_config_rejects_non_integer_counts(name, value):
    """A float, a string or a bool is not a cell or sweep count: it is named
    at construction, not truncated by the grid or raised by ``range()``."""
    with pytest.raises(ValidationError) as exc:
        SolverConfig(**{name: value})
    assert exc.value.code == "SCHEMA_VIOLATION"
    assert str(exc.value) == f"{name} must be an integer, got {value!r}"


def test_solver_config_accepts_numpy_integer_counts():
    cfg = SolverConfig(N=np.int64(8), picard_max_iter=np.int32(5))
    traj = run_simulation(_substrate_only(), zero_kinetics(1, 1), cfg, t_end=2e-3)
    assert traj.outcome == "completed" and traj.grid.N == 8


def test_solver_config_stores_energy_weights_as_float_tuples():
    mu_in = np.array([1.0, 2.0])
    cfg = SolverConfig(mu=mu_in, nu=3)
    assert cfg.mu == (1.0, 2.0) and cfg.nu == (3.0,)
    assert all(type(w) is float for w in cfg.mu + cfg.nu)
    mu, nu = cfg.weights(2, 1)
    assert mu.tolist() == [1.0, 2.0] and nu.tolist() == [3.0]
    mu[0] = 5.0  # the returned arrays are the caller's to change
    assert cfg.mu == (1.0, 2.0) and mu_in.flags.writeable
    with pytest.raises(ValidationError) as exc:
        SolverConfig(mu=[[1.0, 2.0]])
    assert exc.value.code == "DIMENSION_MISMATCH"
    assert str(exc.value) == "energy weights mu must be a flat list, got shape (1, 2)"


def _short_run():
    return run_simulation(_substrate_only(), linear_preset([[-1.0]], [0.0], [[-1.0]], [0.0]),
                          SolverConfig(N=8), t_end=2e-3)


_TREE = {"problem": {"kinetics": {"preset": "zero"}, "phi": [0.0], "theta": ["cos(pi*z/2)"],
                     "psi": [0.0], "D": [1.0], "lambda": 0.5, "R0": 1.0},
         "solver": {"N": 8, "t_end": 1e-3}}

#: a builder of one instance per package value type, and whether two
#: instances built alike compare equal (by value) or not (by identity)
_VALUE_TYPES = {
    "ProblemData": (lambda: ProblemData(phi=[np.cos], theta=[np.cos, np.sin],
                                        psi=[np.cos, np.sin], D=[1.0, 2.0], lam=0.5, R0=1.0),
                    False),
    "State": (lambda: initial_state(_substrate_only(), zero_kinetics(1, 1), SolverConfig(N=8)),
              False),
    "Trajectory": (_short_run, False),
    "RunSpec": (lambda: build_runspec(_TREE), False),
    "EnvelopeReport": (lambda: dissipation_envelope_check(_short_run(), alpha=1.0), False),
    "SolverConfig": (lambda: SolverConfig(mu=[1, 2], nu=np.ones(2)), True),
    "ValidationReport": (lambda: ValidationReport(warnings=[("CODE", "message")]), True),
}


@pytest.mark.parametrize("name", sorted(_VALUE_TYPES))
def test_value_types_compare_and_hash(name):
    """``==`` and ``hash()`` never raise: the settings and the validation
    report compare by value, every other value type by identity."""
    make, by_value = _VALUE_TYPES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == a and (a == b) is by_value and (a != b) is not by_value
    if name != "ValidationReport":  # mutable, and unhashable as its lists are
        assert hash(a) == hash(a)
        if by_value:
            assert hash(a) == hash(b)


def test_thickness_bound_uses_running_v1_max(monkeypatch):
    """Each step's thickness bound is taken at the largest ``|v1|`` seen so
    far, t = 0 included, and computed only when that maximum rises.  Here
    ``g = C - 1/2`` on a substrate that fills up from the surface: ``v1``
    starts negative, passes 0 and ends above its initial magnitude.  The
    spied bound is the ``|v1|`` maximum it was taken at, so the bound each
    step's ``check_invariants`` receives names it."""
    seen, taken = [], []

    def bound(R0, lam, v1_max):
        taken.append(v1_max)
        return v1_max

    def spy(s, cfg, r_bound, minima):
        seen.append(r_bound)
        return check_invariants(s, cfg, r_bound, minima)

    monkeypatch.setattr(coupler, "r_max_bound", bound)
    monkeypatch.setattr(coupler, "check_invariants", spy)
    kin = KineticsModel(n=1, m=1, f=lambda Y, C: np.zeros_like(Y),
                        h=lambda Y, C: np.zeros_like(C), g=lambda Y, C: C[0] - 0.5)
    data = ProblemData(phi=[lambda z: np.zeros_like(z)], theta=[lambda z: 0.2 + 0.8 * z**8],
                       psi=[lambda t: 1.0], D=[1.0], lam=0.5, R0=1.0)
    traj = run_simulation(data, kin, SolverConfig(N=30, dt=5e-3), t_end=0.5)
    v1 = np.abs(traj.v1_series())
    assert traj.outcome == "completed" and len(seen) == len(traj.reports) == 100
    assert v1.argmin() > 0 and v1[-1] > v1[0]  # |v1| falls, then rises past its start
    # never decreasing, and at least every |v1| so far
    running = np.maximum.accumulate(v1)
    assert seen == running[1:].tolist()
    # taken at the start and at each new maximum, not at every step
    assert taken == np.unique(running).tolist() and len(taken) < len(seen)


def test_check_invariants_flags():
    g = Grid(4)
    s = State(t=0.0, grid=g, Y=np.full((1, 5), -1e-6), C=np.zeros((1, 5)), R=5.0,
              v=np.zeros(5))
    flags = flag_names(check_invariants(s, SolverConfig(N=4), 1.0,
                                        (float(s.Y.min()), float(s.C.min()))))
    assert "NEGATIVE_Y" in flags
    assert "R_BOUND_EXCEEDED" in flags
    assert "NEGATIVE_C" not in flags


def test_continuation_sees_the_slope_alone():
    """CONTINUATION trips on the discrete dY/dz alone: here every sup norm is
    1 and the slope is 1 / dz = 4."""
    g = Grid(4)
    s = State(t=0.0, grid=g, Y=np.array([[0.0, 1.0, 0.0, 1.0, 0.0]]), C=np.zeros((1, 5)),
              R=1.0, v=np.zeros(5))
    minima = (float(s.Y.min()), float(s.C.min()))
    for threshold, flagged in ((3.0, True), (np.nextafter(4.0, 5.0), False)):
        flags = check_invariants(s, SolverConfig(N=4, continuation_threshold=threshold), 10.0,
                                 minima)
        assert flag_names(flags) == (["CONTINUATION"] if flagged else [])


# -- single coupled step -------------------------------------------------------


def test_zero_kinetics_converges_in_two_iterations():
    data = _substrate_only()
    kin = zero_kinetics(1, 1)
    cfg = SolverConfig(N=20, dt=1e-3)
    s0 = initial_state(data, kin, cfg)
    s1, residuals, _ = picard_step(s0, data, kin, cfg)
    assert len(residuals) <= 2
    assert s1.t == pytest.approx(1e-3)
    assert np.all(s1.Y == 0.0)  # no reactions, no advection of a zero field


def test_step_report_residuals_decrease():
    """A run's first step is the cold ``picard_step``: its row records that
    step's sweep count and first and last residual, and so its contraction
    ratio."""
    data, kin = _linear_reference()
    cfg = SolverConfig(N=30, dt=5e-3, picard_tol=1e-12)
    _, hist, _ = picard_step(initial_state(data, kin, cfg), data, kin, cfg)
    assert len(hist) >= 3
    assert all(b < a for a, b in zip(hist, hist[1:]))
    row = run_simulation(data, kin, cfg, t_end=5e-3).reports[0]
    assert row.picard_iterations == len(hist)
    assert row.first_residual == hist[0] and row.residual == hist[-1]
    ratio = (row.residual / row.first_residual) ** (1.0 / (row.picard_iterations - 1))
    assert ratio == (hist[-1] / hist[0]) ** (1.0 / (len(hist) - 1))
    assert 0.0 < ratio < 1.0


# -- lockstep oracle for the coupled step ----------------------------------------


def reference_picard_step(state, data, kin, cfg, start=None):
    """Reference coupled step built from one-stage steps (``stages.py``).

    This is the sweep as it was written before it moved onto the stages'
    array kernels: every substrate is assembled and solved on its own, ``h``
    is evaluated on every sweep, and the biomass sources are interpolated
    at the nodes as well as at the feet.  The sweeps start from the packed
    vector ``start = (Y, C, R, v1)`` when given, laid out as ``State.x``.
    The new state is the last sweep's iterate with the velocity profile
    that sweep integrated; nothing is evaluated after convergence.
    ``picard_step`` must reproduce its ``(state, residuals, clamped_feet)``
    bit for bit.
    """
    grid, dt = state.grid, cfg.dt
    t_new = state.t + dt
    theta = cfg.theta_scheme
    Y0, C0, R_start, v1_start = state.Y, state.C, state.R, state.v1
    psi_end = data.psi_at(t_new)

    F_start = R_start**2 * np.asarray(kin.f(Y0, C0), dtype=float)
    H_start = R_start**2 * np.asarray(kin.h(Y0, C0), dtype=float)

    def velocity(Y, C, R):
        return velocity_nodes(np.asarray(kin.g(Y, C), dtype=float), R**2, grid.dz)

    if start is None:
        Yk, Ck, Rk, v1k = Y0, C0, R_start, v1_start
    else:
        X, (Rk, v1k) = start[:-2].reshape(state.X.shape), start[-2:].tolist()
        Yk, Ck = X[:kin.n], X[kin.n:]
    residuals = []
    rising = 0
    for _ in range(cfg.picard_max_iter):
        H_end = Rk**2 * np.asarray(kin.h(Yk, Ck), dtype=float)
        H = theta * H_end + (1.0 - theta) * H_start
        C_new = np.array([substrate_step(C0[j], grid, (v1_start, v1k), H[j], float(D),
                                         float(psi_end[j]), dt, theta)
                          for j, D in enumerate(data.D)])

        v_new = velocity(Yk, C_new, Rk)
        v1_new = float(v_new[-1])

        F_end = Rk**2 * np.asarray(kin.f(Yk, C_new), dtype=float)
        Y_new, clamped = transport_step(Y0, grid, F_start, F_end, (v1_start, v1_new), dt)
        R_new = thickness_step(R_start, (v1_start, v1_new), data.lam, dt)

        residual = max(
            float(np.max(np.abs(Y_new - Yk))),
            float(np.max(np.abs(C_new - Ck))),
            abs(R_new - Rk),
            abs(v1_new - v1k),
        )
        residuals.append(residual)
        rising = rising + 1 if len(residuals) >= 2 and residual > residuals[-2] else 0
        Yk, Ck, Rk, v1k = Y_new, C_new, R_new, v1_new
        if residual <= cfg.picard_tol:
            break
        assert rising < 3, "reference sweep diverged"
    else:
        raise AssertionError("reference sweep did not converge")

    return State(t=t_new, grid=grid, Y=Yk, C=Ck, R=Rk, v=v_new), residuals, clamped


def _monod_problem(m):
    """The shipped Monod config's problem; with ``m = 2`` a second species
    grows on a second, slower-diffusing substrate and also eats the first."""
    if m == 1:
        params = dict(mu=[0.5], K=[0.05], k_d=[0.02], limiting=[0], yields=[[0.08]])
        phi = [lambda z: 0.3 + 0.1 * np.cos(math.pi * z)]
    else:
        params = dict(mu=[0.5, 0.3], K=[0.05, 0.1], k_d=[0.02, 0.01], limiting=[0, 1],
                      yields=[[0.08, 0.0], [0.1, 0.2]])
        phi = [lambda z: 0.3 + 0.1 * np.cos(math.pi * z), lambda z: 0.2 + 0.0 * z]
    theta = [lambda z: 1.0 - 0.9 * np.cos(0.5 * math.pi * z), lambda z: 0.5 + 0.0 * z][:m]
    data = ProblemData(phi=phi, theta=theta, psi=[lambda t: 1.0, lambda t: 0.5][:m],
                       D=[0.05, 0.02][:m], lam=0.5, R0=1.0)
    return data, monod_preset(**params, m=m)


def _linear_problem(m):
    """Linear growth and uptake; with ``m = 2`` two coupled species and
    substrates."""
    if m == 1:
        return _linear_reference()
    data = ProblemData(
        phi=[lambda z: 0.5 + 0.2 * np.cos(math.pi * z), lambda z: 0.3 + 0.0 * z],
        theta=[lambda z: 1.0 - 0.5 * z**2, lambda z: 0.2 + 0.3 * z],
        psi=[lambda t: 0.5, lambda t: 0.5],
        D=[1.0, 0.3],
        lam=0.5,
        R0=1.0,
    )
    kin = linear_preset([[-1.0, 0.5], [0.2, -2.0]], [1.0, 0.5],
                        [[-3.0, 0.5], [0.5, -1.0]], [1.0, 0.2])
    return data, kin


def _zero_problem(m):
    theta = [lambda z: np.cos(0.5 * math.pi * z), lambda z: 1.0 - 0.5 * z**2][:m]
    data = ProblemData(phi=[lambda z: np.zeros_like(z)], theta=theta,
                       psi=[lambda t: 0.0, lambda t: 0.5][:m], D=[1.0, 0.4][:m],
                       lam=0.5, R0=1.0)
    return data, zero_kinetics(1, m)


def _assert_same_step(got, want):
    (s, residuals, clamped), (s_ref, residuals_ref, clamped_ref) = got, want
    assert s.t == s_ref.t
    assert np.array_equal(s.Y, s_ref.Y)
    assert np.array_equal(s.C, s_ref.C)
    assert np.array_equal(s.v, s_ref.v)
    assert s.R == s_ref.R
    assert residuals == residuals_ref
    assert clamped == clamped_ref


#: the ``-scaled`` suffix names the foot z*e^{dt*v1} that both steps trace;
#: it keeps each case's id from before the unscaled foot was removed
@pytest.mark.parametrize("theta", [0.5, 1.0], ids=["0.5-scaled", "1.0-scaled"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("problem", [_monod_problem, _linear_problem, _zero_problem])
def test_picard_step_matches_reference_bitwise(problem, m, theta):
    """Cold steps, and from the third step on also steps started from the
    extrapolation run_simulation uses: a quadratic, a cubic, a quartic, then
    quintics (the last one from a buffer that has rolled over)."""
    data, kin = problem(m)
    cfg = SolverConfig(N=30, dt=5e-3, picard_tol=1e-12, theta_scheme=theta)
    state = initial_state(data, kin, cfg)
    run = _Run(state, data, cfg)
    for _ in range(START_HISTORY + 1):
        got = picard_step(state, data, kin, cfg)
        _assert_same_step(got, reference_picard_step(state, data, kin, cfg))
        start = run.start()
        if start is not None:
            _assert_same_step(picard_step(state, data, kin, cfg, start),
                              reference_picard_step(state, data, kin, cfg, start))
        state = got[0]
        run.push(state)


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_run_states_match_direct_steps_and_stay_frozen(theta):
    """run_simulation builds one run object for the run, and its states
    keep ``Y`` and ``C`` in one packed array each.  Replayed by direct
    ``picard_step`` calls on a run object of their own, which gives them the
    same start iterates, the run gives the same states bit for bit; and no
    recorded state changes after the run, or while later steps run."""
    data, kin = _monod_problem(2)
    cfg = SolverConfig(N=30, dt=5e-3, theta_scheme=theta)
    traj = run_simulation(data, kin, cfg, t_end=0.1, snapshot_stride=1)
    assert traj.outcome == "completed" and traj.state_steps == list(range(21))

    def frozen_copy(s):
        return s.t, s.R, s.Y.tobytes(), s.C.tobytes(), s.v.tobytes(), s.X.tobytes()

    recorded = [frozen_copy(s) for s in traj.states]
    state = traj.states[0]
    replayed = [frozen_copy(state)]
    run = _Run(state, data, cfg)
    for _ in range(20):
        state = picard_step(state, data, kin, cfg, run.start(), run)[0]
        replayed.append(frozen_copy(state))
        run.push(state)
    assert replayed == recorded == [frozen_copy(s) for s in traj.states]
    for s in traj.states:
        assert not any(a.flags.writeable for a in (s.X, s.Y, s.C, s.v))
        assert np.shares_memory(s.Y, s.X) and np.shares_memory(s.C, s.X)


# -- checks on quantities computed inside the sweep ----------------------------


#: the UNSTABLE_ASSEMBLY message for |v1| = 2, D = 0.005 and N = 8
_PECLET_25_AT_N8 = ("advection too strong for centered differencing at N=8 (mesh Peclet "
                    "25 > 1); refine the grid to N >= 201 or increase D")


def test_sweep_raises_unstable_assembly():
    # linear growth g = 2 Y gives v1 = 2 at t = 0: mesh Peclet 25 at N = 8
    data = ProblemData(phi=[lambda z: np.ones_like(z)], theta=[lambda z: np.ones_like(z)],
                       psi=[lambda t: 1.0], D=[0.005], lam=0.01, R0=1.0)
    kin = linear_preset([[2.0]], [0.0], [[0.0]], [0.0])
    cfg = SolverConfig(N=8, dt=1e-2)
    s0 = initial_state(data, kin, cfg)
    with pytest.raises(AssemblyError) as exc:
        picard_step(s0, data, kin, cfg)
    assert exc.value.code == "UNSTABLE_ASSEMBLY"
    assert str(exc.value) == _PECLET_25_AT_N8


def test_sweep_raises_on_nonfinite_velocity():
    calls = []

    def g(Y, C):
        calls.append(None)
        return np.zeros(Y.shape[1]) if len(calls) == 1 else np.full(Y.shape[1], np.nan)

    kin = KineticsModel(n=1, m=1, f=lambda Y, C: np.zeros_like(Y),
                        h=lambda Y, C: np.zeros_like(C), g=g)
    data = _substrate_only()
    cfg = SolverConfig(N=10, dt=1e-3)
    s0 = initial_state(data, kin, cfg)   # the first g call
    with pytest.raises(SolverError) as exc:
        picard_step(s0, data, kin, cfg)
    assert exc.value.code == "NONFINITE"
    assert not isinstance(exc.value, ValidationError)
    assert len(calls) == 2  # the first sweep's velocity


@pytest.mark.parametrize("s", range(3, START_HISTORY + 1))
def test_start_is_exact_for_polynomials_of_degree_s_minus_1(s):
    """The start after ``s`` states is exact for degree ``s - 1``; with
    ``s = START_HISTORY`` also after the rolling buffer has wrapped, when it
    extrapolates through the newest ``s`` of ``s + 4`` states."""
    g = Grid(4)

    def p(t):  # integer coefficients and times: every value is exact
        return sum((k + 1) * (-t) ** k for k in range(s))

    def state(t):
        return State(t=t, grid=g, Y=np.stack([np.full(5, p(t)), np.arange(5.0) * p(t)]),
                     C=np.full((1, 5), 2.0 * p(t)), R=1.0 - p(t),
                     v=np.linspace(0.0, -p(t), 5))

    run = _Run(state(0.0), _substrate_only(), SolverConfig(N=4))
    for pushes in range(1, s + (4 if s == START_HISTORY else 0)):
        assert (run.start() is None) == (pushes < 3)
        run.push(state(float(pushes)))
    x = run.start()
    want = state(float(pushes + 1))
    assert np.array_equal(x, want.x)


def test_step_clamps_feet_before_interpolating(monkeypatch):
    """On a growing film (``v1 > 0``) the foot ``z e^(dt v1)`` of the surface
    node lands past ``z = 1``; the step clamps it onto the surface, so every
    point it interpolates at lies in [0, 1], as ``interp_rows`` asks."""
    queries = []

    def recorder(rows, z, nodes):
        queries.append(np.array(z))
        return interp_rows(rows, z, nodes)

    monkeypatch.setattr(coupler, "interp_rows", recorder)
    data, kin = _monod_problem(1)
    cfg = SolverConfig(N=30, dt=5e-3)
    s0 = initial_state(data, kin, cfg)
    assert s0.v1 > 0.0
    _, residuals, clamped = picard_step(s0, data, kin, cfg)
    assert clamped > 0
    assert len(queries) == len(residuals)  # Y0 and F_start stacked, once a sweep
    assert all(float(q.max()) <= 1.0 for q in queries)


def test_step_rejects_nonfinite_biomass():
    # f = inf makes Y infinite; an infinite tolerance lets that sweep converge.
    # Validation rejects such an f at the initial data, so the state is built
    # directly.
    kin = KineticsModel(n=1, m=1, f=lambda Y, C: np.full_like(Y, np.inf),
                        h=lambda Y, C: np.zeros_like(C), g=lambda Y, C: np.zeros(Y.shape[1]))
    data = _substrate_only()
    cfg = SolverConfig(N=10, dt=1e-3, picard_tol=math.inf)
    grid = Grid(10)
    s0 = State(t=0.0, grid=grid, Y=np.zeros((1, 11)), C=[np.cos(0.5 * math.pi * grid.nodes)],
               R=1.0, v=np.zeros(11))
    with pytest.raises(SolverError) as exc:
        picard_step(s0, data, kin, cfg)
    assert exc.value.code == "NONFINITE"
    assert not isinstance(exc.value, ValidationError)


def test_h_called_once_per_sweep():
    """One ``h`` call for the step-start sources, then one per sweep, cold
    (iterated from the step-start state) or warm (from a start iterate)."""
    data, base = _linear_reference()
    calls = []

    def h(Y, C):
        calls.append(None)
        return base.h(Y, C)

    kin = KineticsModel(n=1, m=1, f=base.f, h=h, g=base.g)
    cfg = SolverConfig(N=30, dt=5e-3, picard_tol=1e-12)
    state = initial_state(data, kin, cfg)
    run = _Run(state, data, cfg)
    for _ in range(START_HISTORY + 1):
        del calls[:]
        new_state, residuals, _ = picard_step(state, data, kin, cfg)
        assert len(residuals) >= 3
        assert len(calls) == len(residuals) + 1
        start = run.start()
        if start is not None:
            del calls[:]
            _, residuals, _ = picard_step(state, data, kin, cfg, start)
            assert len(calls) == len(residuals) + 1
        state = new_state
        run.push(state)


def _counted(kin, tagged):
    """``kin`` with counting ``f`` and ``g``, and the counts; ``g`` is the
    species sum of the counting ``f``, tagged as a preset's or untagged."""
    calls = {"f": 0, "g": 0}

    def f(Y, C):
        calls["f"] += 1
        return kin.f(Y, C)

    g_sum = _species_sum(f) if tagged else (lambda Y, C: f(Y, C).sum(axis=0))

    @functools.wraps(g_sum)  # keeps the tag
    def g(Y, C):
        calls["g"] += 1
        return g_sum(Y, C)

    return KineticsModel(n=kin.n, m=kin.m, f=f, h=kin.h, g=g), calls


@pytest.mark.parametrize("m", [1, 2])
def test_preset_rates_are_evaluated_once_per_iterate(m):
    """With a preset's ``g``, a run evaluates ``f`` once per sweep, plus
    once at entry: the problem check's ``fg`` call, whose ``f`` also starts
    the first step and whose ``g`` gives the initial velocity.  A converged
    step keeps its last sweep's ``f`` and velocity, so nothing is evaluated
    after the sweeps, and that ``f`` starts the next step.  No call
    evaluates ``g`` on its own.  An untagged ``g`` that sums the same ``f``
    is called as given and gives the same bits."""
    data, preset = _monod_problem(m)
    cfg = SolverConfig(N=40, dt=1e-3)
    runs = {}
    for tagged in (True, False):
        kin, calls = _counted(preset, tagged)
        traj = run_simulation(data, kin, cfg, t_end=0.05)
        steps, sweeps = len(traj.reports), int(traj.reports.picard_iterations.sum())
        assert traj.outcome == "completed" and steps == 50
        if tagged:
            assert calls == {"f": sweeps + 1, "g": 0}
        else:  # g as often as f itself, and each g call calls f once more
            assert calls == {"f": 2 * (sweeps + 1), "g": sweeps + 1}
        # residual histories of the same steps taken on a run object
        state, run, histories = traj.states[0], _Run(traj.states[0], data, cfg), []
        for _ in range(8):
            state, residuals, _ = picard_step(state, data, kin, cfg, run.start(), run)
            histories.append(residuals)
            run.push(state)
        runs[tagged] = (traj.reports.tobytes(), traj.final_state.X.tobytes(),
                        traj.final_state.v.tobytes(), histories)
    assert runs[True] == runs[False]


@pytest.mark.parametrize("theta_scheme", [0.5, 1.0])
def test_peclet_guard_binds_on_smallest_d(theta_scheme):
    """With several substrates the guard's advice comes from the smallest D,
    from the explicit guard (theta < 1) and the sweep's implicit one alike:
    D = [0.05, 0.005] at v1 = 2 and N = 8 asks for N >= 201, where the first
    substrate alone would ask for N >= 21, a grid that fails again."""
    data = ProblemData(phi=[np.ones_like], theta=[np.ones_like] * 2, psi=[lambda t: 1.0] * 2,
                       D=[0.05, 0.005], lam=0.01, R0=1.0)
    kin = linear_preset([[2.0]], [0.0], np.zeros((2, 2)), [0.0, 0.0])
    traj = run_simulation(data, kin, SolverConfig(N=8, dt=1e-2, theta_scheme=theta_scheme),
                          t_end=1e-2)
    assert traj.outcome == "assembly_rejected"
    assert traj.failure["message"] == _PECLET_25_AT_N8


def test_warm_step_checks_explicit_peclet():
    """With theta < 1 the explicit operator sits at the step-start velocity,
    which a warm sweep 1 no longer assembles at."""
    data = ProblemData(phi=[lambda z: np.zeros_like(z)], theta=[lambda z: np.ones_like(z)],
                       psi=[lambda t: 1.0], D=[0.005], lam=0.5, R0=1.0)
    kin = zero_kinetics(1, 1)
    g = Grid(8)
    # a stored surface velocity of 2 (mesh Peclet 25), while g = 0 keeps
    # every iterate's velocity at 0
    s0 = State(t=0.0, grid=g, Y=np.zeros((1, 9)), C=np.ones((1, 9)), R=1.0,
               v=np.linspace(0.0, 2.0, 9))
    start = np.append(s0.x[:-1], 0.0)
    with pytest.raises(AssemblyError) as exc:
        picard_step(s0, data, kin, SolverConfig(N=8, dt=1e-2, theta_scheme=0.5), start)
    assert exc.value.code == "UNSTABLE_ASSEMBLY"
    assert str(exc.value) == _PECLET_25_AT_N8
    # the implicit operator alone is stable at the iterates' velocity
    _, residuals, _ = picard_step(s0, data, kin, SolverConfig(N=8, dt=1e-2, theta_scheme=1.0),
                                  start)
    assert len(residuals) == 2


def _cold_run(data, kin, cfg, n_steps):
    """States and per-step residual histories of ``n_steps`` cold steps,
    chained on one run object, so that each step starts from the rates the
    step before it carries, as in a run."""
    states, histories = [initial_state(data, kin, cfg)], []
    run = _Run(states[0], data, cfg)
    for _ in range(n_steps):
        state, residuals, _ = picard_step(states[-1], data, kin, cfg, None, run)
        run.push(state)
        states.append(state)
        histories.append(residuals)
    return states, histories


def _max_state_gap(a, b):
    return max(float(np.abs(a.Y - b.Y).max()), float(np.abs(a.C - b.C).max()),
               float(np.abs(a.v - b.v).max()), abs(a.R - b.R))


def _square_wave_problem(m):
    """The Monod problem with a surface value that jumps every 20 steps of
    1e-3: the extrapolation overshoots after each jump."""
    data, kin = _monod_problem(m)
    psi = [lambda t: 1.0 if math.floor(t / 0.02 + 1e-9) % 2 == 0 else 0.2]
    return ProblemData(phi=data.phi, theta=data.theta, psi=psi, D=data.D, lam=data.lam,
                       R0=data.R0), kin


@pytest.mark.parametrize("problem", [_monod_problem, _linear_problem, _square_wave_problem])
def test_warm_start_agrees_with_cold_steps(problem):
    """From the third step on, run_simulation starts each step from the
    extrapolation of up to START_HISTORY accepted states: the same fixed
    points in fewer sweeps."""
    data, kin = problem(1)
    cfg = SolverConfig(N=40, dt=1e-3)
    traj = run_simulation(data, kin, cfg, t_end=0.2, snapshot_stride=1)
    states, histories = _cold_run(data, kin, cfg, 200)
    assert traj.outcome == "completed" and len(traj.reports) == 200
    for k in (1, 2):  # steps 1 and 2 start cold
        a, b, row, hist = traj.states[k], states[k], traj.reports[k - 1], histories[k - 1]
        assert all(np.array_equal(x, y) for x, y in ((a.Y, b.Y), (a.C, b.C), (a.v, b.v)))
        assert a.R == b.R
        assert row.picard_iterations == len(hist)
        assert row.first_residual == hist[0] and row.residual == hist[-1]
    assert max(_max_state_gap(a, b) for a, b in zip(traj.states, states)) <= 1e-9
    warm = [r.picard_iterations for r in traj.reports]
    cold = [len(h) for h in histories]
    assert sum(warm) < sum(cold)
    assert max(warm) <= max(cold)


@pytest.mark.parametrize("dt, theta, m", [
    pytest.param(1e-3, 0.5, 1, id="0.001"), pytest.param(1e-2, 0.5, 1, id="0.01"),
    pytest.param(1e-3, 0.75, 1, id="0.001-theta0.75"), pytest.param(1e-3, 0.5, 2, id="0.001-m2")])
def test_carried_rates_move_a_step_by_less_than_the_tolerance(dt, theta, m):
    """A run's step starts from the rates its last sweep evaluated, at the
    iterate before the converged one, and from that sweep's substrate
    right-hand side, whose explicit half sits at that iterate's velocity; a
    direct call evaluates the rates at its state and the explicit half by
    the stencil at its ``v1``.  Taken both ways from the same state and
    start iterate, each of 200 steps of the Monod problem ends within
    ``picard_tol`` in ``x`` and ``v``."""
    data, kin = _monod_problem(m)
    cfg = SolverConfig(N=40, dt=dt, theta_scheme=theta)
    state = initial_state(data, kin, cfg)
    run, gap, carried = _Run(state, data, cfg), 0.0, 0
    for _ in range(200):
        start = run.start()
        carried += run.carried[0] is state and run.carried[3] is not None
        fresh = picard_step(state, data, kin, cfg, start)[0]
        state = picard_step(state, data, kin, cfg, start, run)[0]
        run.push(state)
        gap = max(gap, float(np.abs(fresh.x - state.x).max()),
                  float(np.abs(fresh.v - state.v).max()))
    assert carried == 199 and 0.0 < gap <= cfg.picard_tol


def test_a_run_assembles_the_explicit_stencil_on_its_first_step_only(monkeypatch):
    """From its second step on, a run takes each step's explicit half from
    the last solve of the step before; a direct call builds it by the
    stencil, once per substrate."""
    calls = []

    def stencil(*args):
        calls.append(None)
        return explicit_part(*args)

    monkeypatch.setattr(coupler.parabolic, "explicit_part", stencil)
    data, kin = _monod_problem(2)
    cfg = SolverConfig(N=30, dt=5e-3)
    traj = run_simulation(data, kin, cfg, t_end=0.1)
    assert traj.outcome == "completed" and len(traj.reports) == 20
    assert len(calls) == 2  # the first step's, one per substrate
    picard_step(traj.final_state, data, kin, cfg)
    assert len(calls) == 4


def test_warm_steps_of_c01_take_one_sweep():
    """c01's reaction-free problem: sweep 1 does not depend on the iterate,
    so every step whose start is a cubic or higher extrapolation
    (the 4th on) meets the tolerance at once."""
    traj = run_simulation(_substrate_only(), zero_kinetics(1, 1), SolverConfig(N=20, dt=1e-3),
                          t_end=0.2, snapshot_stride=50)
    sweeps = [r.picard_iterations for r in traj.reports]
    assert len(sweeps) == 200
    assert sweeps[:3] == [2, 2, 2] and set(sweeps[3:]) == {1}


def test_monod_warm_steps_sweep_count():
    """The shipped Monod problem at N=40, dt=1e-3 over 200 steps, as the
    benchmark's monod_n40 runs it: the quintic start takes 245 sweeps, where
    a quartic took 373 (most steps needed a second sweep)."""
    data, kin = _monod_problem(1)
    traj = run_simulation(data, kin, SolverConfig(N=40, dt=1e-3), t_end=0.2,
                          snapshot_stride=1000)
    sweeps = [r.picard_iterations for r in traj.reports]
    assert traj.outcome == "completed" and len(sweeps) == 200
    assert sum(sweeps) <= 250


# -- trajectories and outcomes -------------------------------------------------


def test_detachment_decay_closed_form():
    data = _substrate_only()
    traj = run_simulation(data, zero_kinetics(1, 1), SolverConfig(N=20, dt=1e-3),
                          t_end=0.2, snapshot_stride=50)
    exact = (1.0 + 3.0 * 0.5 * 0.2) ** (-1.0 / 3.0)
    assert traj.outcome == "completed"
    assert traj.final_state.R == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("n_steps, kept", [(10, [0, 5, 10]), (12, [0, 5, 10, 12])],
                         ids=["on_stride", "off_stride"])
def test_snapshot_stride(n_steps, kept):
    """States every ``stride`` steps, and the last one also off the stride."""
    data = _substrate_only()
    traj = run_simulation(data, zero_kinetics(1, 1), SolverConfig(N=10, dt=1e-3),
                          t_end=n_steps * 1e-3, snapshot_stride=5)
    assert traj.outcome == "completed" and traj.state_steps == kept
    assert len(traj.reports) == n_steps
    assert traj.final_state.t == traj.reports.t[-1]
    times = traj.times()
    assert len(times) == n_steps + 1 and times[0] == 0.0


@pytest.mark.parametrize("stride", [math.nan, 2.5, 5.0, True, "5"])
def test_snapshot_stride_must_be_an_integer(stride):
    """A stride that is not an integer is named, as ``SolverConfig`` names
    such an ``N``: NaN used to keep only the first and last states and 2.5
    the states of steps 0, 5 and 10."""
    with pytest.raises(ValidationError) as exc:
        run_simulation(_substrate_only(), zero_kinetics(1, 1), SolverConfig(N=10, dt=1e-3),
                       t_end=1e-2, snapshot_stride=stride)
    assert exc.value.code == "SCHEMA_VIOLATION"
    assert str(exc.value) == f"snapshot_stride must be an integer, got {stride!r}"


def test_snapshot_stride_takes_numpy_integers():
    traj = run_simulation(_substrate_only(), zero_kinetics(1, 1), SolverConfig(N=10, dt=1e-3),
                          t_end=1e-2, snapshot_stride=np.int64(5))
    assert traj.state_steps == [0, 5, 10]


def test_steps_end_on_exact_time_levels():
    """Step ``k`` ends at ``k dt`` exactly, not at a sum of ``k`` steps
    (1000 steps of 1e-3 sum to 1.0000000000000007), also when it fails."""
    data = _substrate_only()
    traj = run_simulation(data, zero_kinetics(1, 1), SolverConfig(N=10, dt=1e-3), t_end=1.0,
                          snapshot_stride=1000)
    assert traj.outcome == "completed" and traj.final_state.t == 1.0
    assert traj.reports.t.tolist() == [k * 1e-3 for k in range(1, 1001)]
    # a surface value that turns infinite from t = 0.5 on fails step 500
    bad = ProblemData(phi=data.phi, theta=data.theta,
                      psi=[lambda t: 0.0 if t < 0.5 else math.inf], D=data.D, lam=data.lam,
                      R0=data.R0)
    traj = run_simulation(bad, zero_kinetics(1, 1), SolverConfig(N=10, dt=1e-3), t_end=1.0)
    assert traj.outcome == "solve_failed" and traj.failure["step"] == 500
    assert traj.failure["t"] == 500 * 1e-3 == 0.5
    # reported as bad input, before the sweeps feed it to the solve
    assert traj.failure["code"] == "NONFINITE_INPUT"
    assert traj.failure["message"] == "surface value psi[0] is not finite at t=0.5"
    assert traj.reports.t[-1] == 499 * 1e-3


def test_dt_halving_consistency():
    data, kin = _linear_reference()
    t_end = 0.2

    def final(dt):
        cfg = SolverConfig(N=50, dt=dt, picard_tol=1e-12)
        return run_simulation(data, kin, cfg, t_end=t_end, snapshot_stride=10**9).final_state

    a, b = final(1e-2), final(5e-3)
    diff = max(np.max(np.abs(a.Y - b.Y)), np.max(np.abs(a.C - b.C)), abs(a.R - b.R))
    assert diff < 5e-3


def test_rerun_is_deterministic():
    data, kin = _linear_reference()
    cfg = SolverConfig(N=25, dt=5e-3)
    t1 = run_simulation(data, kin, cfg, t_end=0.1, snapshot_stride=10)
    t2 = run_simulation(data, kin, cfg, t_end=0.1, snapshot_stride=10)
    assert t1.final_state.R == t2.final_state.R
    assert np.array_equal(t1.final_state.C, t2.final_state.C)
    assert t1.reports.energy.tolist() == t2.reports.energy.tolist()


def test_washout_outcome():
    # strong uniform shrinkage plus a coarse step drives the thickness through 0
    data = ProblemData(
        phi=[lambda z: np.full_like(z, 0.1)],
        theta=[lambda z: np.zeros_like(z)],
        psi=[lambda t: 0.0],
        D=[1.0],
        lam=0.5,
        R0=0.05,
    )
    kin = linear_preset([[0.0]], [-8000.0], [[0.0]], [0.0])
    traj = run_simulation(data, kin, SolverConfig(N=10, dt=4.0, picard_max_iter=10),
                          t_end=40.0, snapshot_stride=1)
    assert traj.outcome == "washout"
    assert traj.failure is not None and traj.failure["code"] == "THICKNESS_COLLAPSE"


def test_picard_divergence_outcome():
    # stiff saturation growth with a deliberately huge step: the lagged-source
    # loop amplifies by ~ mu * dt >> 1 per sweep and cannot contract
    mu, K, yield_ = 80.0, 1e-3, 0.01

    def f(Y, C):
        return mu * C / (K + C) * Y

    def h(Y, C):
        return -(1.0 / yield_) * f(Y, C)

    kin = KineticsModel(n=1, m=1, f=f, h=h, g=lambda Y, C: np.zeros(Y.shape[1]),
                        quasi_positive=False)
    data = ProblemData(
        phi=[lambda z: np.full_like(z, 1e-4)],
        theta=[lambda z: np.full_like(z, 1.0)],
        psi=[lambda t: 1.0],
        D=[1.0],
        lam=0.5,
        R0=1.0,
    )
    traj = run_simulation(data, kin, SolverConfig(N=10, dt=2.0, picard_max_iter=6),
                          t_end=20.0, snapshot_stride=1)
    assert traj.outcome == "picard_diverged"
    assert traj.failure is not None
    assert len(traj.failure["residual_history"]) >= 2
    hist = traj.failure["residual_history"]
    assert hist[-1] > hist[0]  # the loop was genuinely blowing up


def test_continuation_monitor_trips():
    # exponential biomass growth with the norm guard set low
    def f(Y, C):
        return 30.0 * Y

    def h(Y, C):
        return np.zeros_like(C)

    kin = KineticsModel(n=1, m=1, f=f, h=h, g=lambda Y, C: np.zeros(Y.shape[1]),
                        quasi_positive=True)
    data = ProblemData(
        phi=[lambda z: np.ones_like(z)],
        theta=[lambda z: np.zeros_like(z)],
        psi=[lambda t: 0.0],
        D=[1.0],
        lam=1e-3,
        R0=1.0,
    )
    cfg = SolverConfig(N=10, dt=1e-3, continuation_threshold=10.0)
    traj = run_simulation(data, kin, cfg, t_end=2.0, snapshot_stride=100)
    assert traj.outcome == "continuation_tripped"
    assert "CONTINUATION" in flag_names(traj.reports[-1].invariant_flags)
    assert traj.final_state.t < 2.0


def test_positivity_fail_mode():
    # constant negative production drives Y below zero; fail mode stops the run
    data = ProblemData(
        phi=[lambda z: np.full_like(z, 0.05)],
        theta=[lambda z: np.zeros_like(z)],
        psi=[lambda t: 0.0],
        D=[1.0],
        lam=0.5,
        R0=1.0,
    )
    kin = linear_preset([[0.0]], [-5.0], [[0.0]], [0.0])
    cfg = SolverConfig(N=10, dt=1e-2, positivity_mode="fail")
    traj = run_simulation(data, kin, cfg, t_end=1.0, snapshot_stride=1)
    assert traj.outcome == "positivity_violated"
    assert traj.min_Y_seen < -1e-12

    cfg_mon = SolverConfig(N=10, dt=1e-2, positivity_mode="monitor")
    traj_mon = run_simulation(data, kin, cfg_mon, t_end=1.0, snapshot_stride=1)
    assert traj_mon.outcome == "completed"
    assert any("NEGATIVE_Y" in flag_names(f) for f in traj_mon.reports.invariant_flags)


def _peclet_growth_problem():
    """Linear growth whose surface velocity climbs until the mesh Peclet
    number at N = 40 passes 1 (0.19 at t = 0, 1.1 at t = 0.62)."""
    data = ProblemData(phi=[lambda z: 0.3 + 0.1 * np.cos(math.pi * z)],
                       theta=[lambda z: 1.0 - 0.5 * z**2], psi=[lambda t: 0.5],
                       D=[0.02], lam=0.01, R0=1.0)
    return data, linear_preset([[1.0]], [0.0], [[0.0]], [0.0])


def test_assembly_rejected_outcome():
    data, kin = _peclet_growth_problem()
    traj = run_simulation(data, kin, SolverConfig(N=40, dt=1e-2), t_end=5.0,
                          snapshot_stride=25)
    assert traj.outcome == "assembly_rejected"
    fail = traj.failure
    assert fail["code"] == "UNSTABLE_ASSEMBLY" and "mesh Peclet 1.1 > 1" in fail["message"]
    assert fail["step"] == 62 and fail["t"] == pytest.approx(0.62)
    # the steps before the failure are kept, and so is the last accepted state
    assert len(traj.reports) == 61
    assert traj.state_steps == [0, 25, 50, 61]
    assert traj.final_state.t == pytest.approx(0.61)


@pytest.mark.parametrize("m", [1, 2])
def test_run_samples_and_evaluates_the_initial_data_once(m):
    """A run samples each initial profile in one call, on its own grid
    (``theta`` also at the points of the second-order check, in that call),
    and evaluates ``h`` there once: validation's ``h`` starts the first step,
    as its ``f`` does, and each later step starts from the ``h`` of the last
    sweep before it.  So ``h`` is called once at entry and once per sweep."""
    data, kin = _monod_problem(m)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    data = dataclasses.replace(data, phi=[counted("phi", p) for p in data.phi],
                               theta=[counted("theta", t) for t in data.theta])
    kin = dataclasses.replace(kin, h=counted("h", kin.h))
    traj = run_simulation(data, kin, SolverConfig(N=40, dt=1e-3), t_end=0.01)
    steps, sweeps = len(traj.reports), int(traj.reports.picard_iterations.sum())
    assert traj.outcome == "completed" and steps == 10
    assert calls == {"phi": m, "theta": m, "h": 1 + sweeps}


@pytest.mark.parametrize("N", [10, 20])
def test_compatible_data_give_no_warning_on_coarse_grids(N):
    """cos(pi z/2) with psi = 0 and no reactions meets the second-order
    matching condition.  The check differences theta at z = 1 on its own
    fixed step, so a coarse run grid adds no error to it and nothing warns."""
    traj = run_simulation(_substrate_only(), zero_kinetics(1, 1), SolverConfig(N=N), t_end=1e-3)
    assert traj.validation.ok and traj.validation.warnings == []


@pytest.mark.parametrize("rate,message", [
    ("f", "non-finite state"),
    ("h", "non-finite solution from elimination"),
    ("g", "profile contains non-finite values"),
])
def test_solve_failed_outcome(rate, message):
    """A rate that turns non-finite mid-run makes a step compute a non-finite
    biomass (``f``), substrate solution (``h``, in the tridiagonal solve) or
    velocity (``g``); the run ends as ``solve_failed``.  An infinite
    tolerance accepts every step after one sweep, so the step's own checks
    fire before the residual can."""
    calls = []

    def turning(Y, C, shape):
        calls.append(None)
        return np.zeros(shape) if len(calls) < 12 else np.full(shape, np.inf)

    rates = {"f": lambda Y, C: np.zeros_like(Y), "h": lambda Y, C: np.zeros_like(C),
             "g": lambda Y, C: np.zeros(Y.shape[1])}
    shapes = {"f": lambda Y, C: Y.shape, "h": lambda Y, C: C.shape,
              "g": lambda Y, C: Y.shape[1]}
    rates[rate] = lambda Y, C: turning(Y, C, shapes[rate](Y, C))
    kin = KineticsModel(n=1, m=1, **rates)
    cfg = SolverConfig(N=10, dt=1e-3, picard_tol=math.inf)
    traj = run_simulation(_substrate_only(), kin, cfg, t_end=0.1)
    assert traj.outcome == "solve_failed"
    assert traj.failure["code"] == "NONFINITE" and traj.failure["message"] == message
    k = traj.failure["step"]
    assert k > 1 and len(traj.reports) == k - 1
    assert traj.failure["t"] == pytest.approx(k * 1e-3)
    assert traj.final_state.t == pytest.approx((k - 1) * 1e-3)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_nonfinite_biomass_ends_its_sweep_at_default_tolerance(value):
    """A biomass rate that turns non-finite mid-run, at the default
    tolerance: the sweep that computes the non-finite biomass ends the step
    as ``solve_failed`` with ``NONFINITE``, not 50 sweeps of non-finite
    residuals later.  The 8th ``f`` call is the first sweep of step 4
    (validation calls ``f`` once, and that ``f`` starts step 1; steps 1 to 3
    call it in 2 sweeps each, and each carries its last sweep's ``f`` on),
    and it is the last ``f`` call of the run."""
    calls = []

    def f(Y, C):
        calls.append(None)
        return np.zeros(Y.shape) if len(calls) < 8 else np.full(Y.shape, value)

    kin = KineticsModel(n=1, m=1, f=f, h=lambda Y, C: np.zeros_like(C),
                        g=lambda Y, C: np.zeros(Y.shape[1]))
    traj = run_simulation(_substrate_only(), kin, SolverConfig(N=10, dt=1e-3), t_end=0.1)
    assert traj.outcome == "solve_failed"
    assert traj.failure["code"] == "NONFINITE" and traj.failure["message"] == "non-finite state"
    assert traj.failure["step"] == 4 and traj.reports.picard_iterations.tolist() == [2, 2, 2]
    assert len(calls) == 8


@pytest.mark.parametrize("t_end", [math.nan, math.inf, 1e308])
def test_nonfinite_step_count_rejected(t_end):
    """A horizon without a finite step count is invalid input, rejected
    before the problem is validated (1e308 / 1e-3 overflows)."""
    with pytest.raises(ValidationError) as exc:
        run_simulation(_substrate_only(), zero_kinetics(1, 1), SolverConfig(N=10, dt=1e-3),
                       t_end=t_end)
    assert exc.value.code == "NONFINITE_INPUT"
    assert str(exc.value) == f"t_end / dt must be finite, got t_end={t_end}, dt=0.001"


def test_invalid_problem_names_every_violation():
    data = _substrate_only(lam=-1.0, R0=0.0)
    with pytest.raises(InvalidProblem) as exc:
        run_simulation(data, zero_kinetics(1, 1), SolverConfig(N=10), t_end=0.1)
    assert exc.value.code == "NONPOSITIVE_LAMBDA"
    assert str(exc.value).startswith("invalid problem data: NONPOSITIVE_LAMBDA: ")
    assert "; NONPOSITIVE_R0: " in str(exc.value)
    assert [code for code, _ in exc.value.report.violations] == [
        "NONPOSITIVE_LAMBDA", "NONPOSITIVE_R0"]


def test_nonfinite_initial_data_on_run_grid_is_a_violation():
    """theta is infinite only at z = 1/3, a node of N = 6 but not of the
    default grid of N = 100.  The run validates the problem on its own grid,
    so it rejects the data with one violation naming the node.  That ends
    the checks: the report warns of nothing (psi = 1 + t, which would not
    match the interior balance at t = 0, is not checked)."""
    data = ProblemData(phi=[lambda z: np.zeros_like(z)],
                       theta=[lambda z: np.where(np.isclose(3.0 * z, 1.0), np.inf, 1.0)],
                       psi=[lambda t: 1.0 + t], D=[1.0], lam=0.5, R0=1.0)
    assert validate_problem(data, zero_kinetics(1, 1)).warning_codes() == {"SECOND_ORDER_COMPAT"}
    with pytest.raises(InvalidProblem) as exc:
        run_simulation(data, zero_kinetics(1, 1), SolverConfig(N=6), t_end=0.1)
    assert exc.value.code == "NONFINITE_INPUT"
    assert exc.value.report.violations == [
        ("NONFINITE_INPUT", "initial data theta[0] is not finite at node 2 (z=0.333333) of N=6")]
    assert exc.value.report.warnings == []


def test_nonfinite_velocity_on_run_grid_is_a_violation():
    """``g = Y`` is finite at every node of N = 1000, but ``v1(0)``, its
    integral, overflows there and not on the default grid of N = 100.  The
    t = 0 velocity is input: a violation naming ``R0`` and the run's grid,
    not the step error ``NONFINITE`` of the velocity kernel, from
    ``initial_state`` as from the run."""
    data = ProblemData(phi=[lambda z: 1.7e308 * np.exp(-1e6 * (z - 0.3325) ** 2)],
                       theta=[lambda z: np.ones_like(z)], psi=[lambda t: 1.0], D=[1.0],
                       lam=0.5, R0=1.0)
    kin = linear_preset([[1.0]], [0.0], [[0.0]], [0.0])
    assert validate_problem(data, kin).ok
    violation = ("surface velocity v1(0) = R0^2 int_0^1 g is not finite at R0=1 on the run's "
                 "grid of N=1000; reduce R0 or g at the initial data")
    with pytest.raises(InvalidProblem) as exc:
        initial_state(data, kin, SolverConfig(N=1000))
    assert exc.value.code == "NONFINITE_INPUT"
    assert exc.value.report.violations == [("NONFINITE_INPUT", violation)]
    with pytest.raises(InvalidProblem) as exc:
        run_simulation(data, kin, SolverConfig(N=1000), t_end=0.01)
    assert exc.value.report.violations == [("NONFINITE_INPUT", violation)]


def test_trajectory_keeps_validation_report():
    # 1 - z^2 against psi = 0 fails the second-order matching condition:
    # D theta''(1) = -2, not psi'(0) = 0
    traj = run_simulation(_substrate_only(theta=lambda z: 1.0 - z**2), zero_kinetics(1, 1),
                          SolverConfig(N=10), t_end=1e-3)
    assert traj.validation.ok
    assert traj.validation.warning_codes() == {"SECOND_ORDER_COMPAT"}


# -- energy audit ---------------------------------------------------------------


def test_envelope_passes_on_dissipative_run():
    data = _substrate_only()
    kin = linear_preset([[-1.0]], [0.0], [[-1.0]], [0.0])
    traj = run_simulation(data, kin, SolverConfig(N=60, dt=2e-3), t_end=1.0,
                          snapshot_stride=10**9)
    rep = dissipation_envelope_check(traj, alpha=1.0, beta=0.0, M0=0.0)
    assert rep.gamma == pytest.approx(2.0)
    assert rep.ok and rep.first_crossing is None
    assert np.all(rep.margins >= 0.0)
    assert rep.energies[-1] < rep.energies[0]


def test_envelope_violation_on_overclaimed_rate():
    data = _substrate_only()
    kin = linear_preset([[-1.0]], [0.0], [[-1.0]], [0.0])
    traj = run_simulation(data, kin, SolverConfig(N=60, dt=2e-3), t_end=1.0,
                          snapshot_stride=10**9)
    rep = dissipation_envelope_check(traj, alpha=50.0, beta=0.0, M0=0.0)
    assert not rep.ok
    assert rep.margins.shape == rep.times.shape == (len(traj.reports) + 1,)
    k = rep.first_crossing
    assert rep.margins[k] < 0.0 and np.all(rep.margins[:k] >= 0.0)
    # the first step already crosses, by about 20%
    assert rep.times[k] == pytest.approx(2e-3, rel=1e-12)
    assert rep.energies[k] / rep.budget[k] - 1.0 == pytest.approx(0.2046, abs=1e-4)


def test_envelope_with_production_budget():
    # constant substrate production: steady leak covered by the beta/M0 offset
    data = ProblemData(
        phi=[lambda z: np.zeros_like(z)],
        theta=[lambda z: np.cos(0.5 * math.pi * z)],
        psi=[lambda t: 0.0],
        D=[1.0],
        lam=0.5,
        R0=1.0,
    )
    kin = linear_preset([[0.0]], [0.0], [[-1.0]], [0.3])
    traj = run_simulation(data, kin, SolverConfig(N=60, dt=2e-3), t_end=2.0,
                          snapshot_stride=10**9)
    rep = dissipation_envelope_check(traj, alpha=1.0, beta=0.3, M0=0.5)
    assert np.all(rep.margins >= 0.0)


def test_envelope_budget_with_surface_flux():
    """``include_boundary`` adds the recorded surface energy flux, summed
    over the steps, to the leak-free budget.  Substrate flows in through
    the surface (psi = 1) while it decays inside."""
    data = ProblemData(phi=[lambda z: np.zeros_like(z)], theta=[lambda z: np.ones_like(z)],
                       psi=[lambda t: 1.0], D=[1.0], lam=0.5, R0=1.0)
    kin = linear_preset([[-1.0]], [0.0], [[-1.0]], [0.0])
    dt = 2e-3
    traj = run_simulation(data, kin, SolverConfig(N=40, dt=dt), t_end=0.5,
                          snapshot_stride=10**9)
    sealed = dissipation_envelope_check(traj, alpha=1.0, beta=1.0, M0=0.0)
    leaky = dissipation_envelope_check(traj, alpha=1.0, beta=1.0, M0=0.0,
                                       include_boundary=True)
    flux = traj.reports.boundary_energy_flux
    assert np.all(flux > 0.0)
    want = sealed.budget + np.concatenate([[0.0], np.cumsum(flux * dt)])
    assert leaky.budget == pytest.approx(want, rel=1e-12, abs=0.0)
    assert np.all(sealed.margins >= 0.0) and np.all(leaky.margins >= sealed.margins)


@pytest.mark.parametrize("name", ["alpha", "beta", "M0", "tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_envelope_rejects_nonfinite_constants(name, value):
    traj = run_simulation(_substrate_only(), zero_kinetics(1, 1), SolverConfig(N=10),
                          t_end=2e-3)
    with pytest.raises(ValidationError) as exc:
        dissipation_envelope_check(traj, **{"alpha": 1.0, name: value})
    assert exc.value.code == "NONFINITE_INPUT"
    assert str(exc.value) == f"{name} must be finite, got {value}"


@pytest.mark.parametrize("name,value,low", [
    ("alpha", 0.0, ">"), ("alpha", -1.0, ">"), ("beta", -0.5, ">="), ("M0", -1e-300, ">="),
    ("tol", 0.0, ">"), ("tol", -1e-3, ">"),
])
def test_envelope_rejects_constants_out_of_range(name, value, low):
    """The ranges the config loader checks hold for a direct call too: a
    negative ``beta`` or ``M0``, or a ``tol`` at or below 0, would shrink
    the budget and pass a run that crosses the claimed envelope."""
    traj = run_simulation(_substrate_only(), zero_kinetics(1, 1), SolverConfig(N=10),
                          t_end=2e-3)
    with pytest.raises(ValidationError) as exc:
        dissipation_envelope_check(traj, **{"alpha": 1.0, name: value})
    assert exc.value.code == "NONPOSITIVE_PARAM"
    assert str(exc.value) == f"{name} must be {low} 0, got {value}"


def test_envelope_counts_a_nan_margin_as_a_crossing():
    """alpha = 1e308 makes gamma infinite and the budget at t = 0 NaN
    (exp(-inf * 0)): an envelope that cannot be evaluated is not ``ok``."""
    traj = run_simulation(_substrate_only(), zero_kinetics(1, 1), SolverConfig(N=10),
                          t_end=2e-3)
    rep = dissipation_envelope_check(traj, alpha=1.0e+308)
    assert math.isinf(rep.gamma) and math.isnan(rep.margins[0])
    assert not rep.ok and rep.first_crossing == 0


def test_step_count_beyond_any_array_is_rejected():
    """t_end / dt = 1e203 steps: a ``ValidationError`` before ``reports``
    is sized, not numpy's "Maximum allowed dimension exceeded"."""
    with pytest.raises(ValidationError) as exc:
        run_simulation(_substrate_only(), zero_kinetics(1, 1), SolverConfig(N=10),
                       t_end=1.0e+200)
    assert exc.value.code == "TOO_MANY_STEPS"


def test_step_errors_name_their_outcome():
    """Each step error carries the outcome of the run it ends, one outcome
    per class."""
    outcomes = [c.outcome for c in (SolverError, AssemblyError, ThicknessCollapse,
                                    PicardDivergence)]
    assert outcomes == ["solve_failed", "assembly_rejected", "washout", "picard_diverged"]
    assert len(set(outcomes)) == 4


# -- physical back-transform -----------------------------------------------------


def test_back_transform_thickness_law():
    data = _substrate_only()
    traj = run_simulation(data, zero_kinetics(1, 1), SolverConfig(N=20, dt=1e-3),
                          t_end=1.0, snapshot_stride=100)
    phys = back_transform(traj)
    assert phys.t_phys[0] == 0.0
    assert np.all(np.diff(phys.t_phys) > 0.0)
    # L(t) = 1 / (1 + 0.5 t) along the whole recorded series
    expect = 1.0 / (1.0 + 0.5 * phys.t_phys)
    assert np.allclose(phys.L, expect, atol=1e-6)


# -- the benchmark's tracer ------------------------------------------------------


def test_traced_run_matches_untraced(monkeypatch):
    """The benchmark's per-layer metrics come from runs traced by
    ``perfbench/spans.py``, which rebinds package functions and wraps the
    rate callables.  A package change that a traced run cannot survive (say,
    a rate callable that may be ``None``) fails here.  The module is loaded
    from its source, with nothing written next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)

    data, kin = _monod_problem(1)
    cfg = SolverConfig(N=40, dt=1e-3)
    plain = run_simulation(data, kin, cfg, t_end=0.05, snapshot_stride=50)
    tracer = spans.Tracer()
    traced_kin = tracer.kinetics(kin)
    tracer.install()
    try:
        traced = run_simulation(data, traced_kin, cfg, t_end=0.05, snapshot_stride=50)
    finally:
        tracer.uninstall()

    assert plain.outcome == traced.outcome == "completed" and len(traced.reports) == 50
    assert traced.final_state.R.hex() == plain.final_state.R.hex()
    assert ([r.picard_iterations for r in traced.reports]
            == [r.picard_iterations for r in plain.reports])
    # the per-step sites stay module functions called once per step, and the
    # energy one is called once per record block (here the run's one block,
    # at its end), so no per-layer key can silently read 0
    for key in ("coupler.picard_step", "coupler.check_invariants"):
        assert tracer.stats[key].calls == 50, key
    assert tracer.stats["coupler.energy"].calls == 1
    assert all(tracer.stats[f"kinetics.{name}"].calls > 0 for name in spans.KINETICS)
