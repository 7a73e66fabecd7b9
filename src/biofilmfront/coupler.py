"""Coupled time stepping: per-step fixed-point iteration, run loop, monitors.

One time step advances the full state (biomass ``Y``, substrates ``C``,
thickness ``R``, velocity ``v``) by iterating the stage map

1. substrate solve (implicit theta-scheme, sources lagged at the iterate),
2. velocity update ``v = R**2 * cumint(g)``,
3. biomass transport (semi-Lagrangian with trapezoid sources),
4. thickness update (RK4),

until successive iterates agree in sup norm.  The run loop assembles a
:class:`Trajectory` with per-step diagnostics, classifies the terminal
outcome, and exposes energy/invariant monitors.

A run is one object, :class:`_Run`, which also keeps the clock: step ``k``
ends at ``t = k dt`` exactly, not at a sum of ``k`` steps.  Work is done as
rarely as it can be.  Per run: the theta-scheme weights, ``D/dz^2`` and the
implicit operator's bands.  Per step: the step-start ``h`` (``f`` is carried
from the step before) and the explicit half of the substrate scheme.  Per
sweep: the rates at the iterate, each evaluated once, the off-diagonals at
its ``v1``, the solves, the transport and the thickness.  Per accepted
step, after the sweeps: the invariant flags, the energy and the surface
flux.  An iterate is one packed vector ``x = (Y, C, R, v1)``, as
:attr:`State.x` is: each sweep writes a fresh one, the residual and the warm
start's extrapolation act on it whole, and ``Y`` and ``C`` are the rows of
its ``(n + m, N + 1)`` view, which the monitors take one pass over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import boundary, parabolic, transport
from .boundary import r_max_bound
from .errors import InvalidProblem, PicardDivergence, SolverError, ValidationError
from .grid import Grid, cumtrapz_dz, interp_rows, require_int
from .kinetics import KineticsModel
from .problem import ProblemData, ValidationReport, nonfinite_at, nonfinite_v1, validate_problem

#: nodal values below this (negative) level trip the negativity flags
POSITIVITY_TOL = 1e-12
#: slack added to the a priori thickness bound before flagging
R_BOUND_SLACK = 1e-8
#: accepted states a warm start extrapolates through, a quintic at most.
#: Against a quartic it saves sweeps on smooth Monod runs at every step tried
#: (N=40: 1.87 -> 1.23 per step at dt=1e-3, 4.14 -> 3.90 at dt=2e-2); it
#: costs up to 3% more on linear kinetics at dt=1e-2 and when the surface
#: data jump every 4-10 steps.  A sextic loses on the shipped Monod run and
#: at dt=2e-2.
START_HISTORY = 6
#: snapshot stride of a run that names none: a state every step
SNAPSHOT_STRIDE = 1


@dataclass(frozen=True, eq=False, repr=False)
class State:
    """Full solver state at one time level (arrays are frozen copies).  One
    packed vector ``x = (Y, C, R, v1)`` holds the iterate that the coupled
    step maps: ``Y`` and ``C`` are the rows of its view ``X`` of shape
    ``(n + m, N + 1)``, ``x[-2] == R`` and ``x[-1] == v1 == v[-1]``."""

    t: float
    grid: Grid
    Y: np.ndarray
    C: np.ndarray
    R: float
    v: np.ndarray

    def __post_init__(self):
        K = self.grid.N + 1
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        v = np.asarray(self.v, dtype=float).copy()
        if Y.shape[1] != K or C.shape[1] != K or v.shape != (K,):
            raise ValidationError("state arrays do not match the grid", code="DIMENSION_MISMATCH")
        x = np.concatenate((Y.ravel(), C.ravel(), (self.R, v[-1])))
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise ValidationError("non-finite state", code="NONFINITE_INPUT")
        if v[0] != 0.0:
            raise ValidationError("velocity must vanish at z=0", code="NONZERO_BASE_VELOCITY")
        self._freeze(self.t, self.grid, x, len(Y), v)

    def _freeze(self, t: float, grid: Grid, x: np.ndarray, n: int, v: np.ndarray) -> "State":
        """Freeze and take arrays that the caller owns and has checked: a
        packed float ``x`` with ``n`` rows of ``Y`` and ``x[-1] == v[-1]``,
        and a velocity with ``v[0] = 0`` on ``grid``, all finite.  The
        coupled step builds its states as ``object.__new__(State)._freeze(...)``,
        without the constructor's copies and checks."""
        x.setflags(write=False)
        v.setflags(write=False)
        X = x[:-2].reshape(-1, grid.N + 1)
        vars(self).update(t=t, grid=grid, x=x, X=X, Y=X[:n], C=X[n:], R=float(x[-2]), v=v)
        return self

    @property
    def v1(self) -> float:
        return float(self.v[-1])


@dataclass(frozen=True)
class SolverConfig:
    """Numerical settings shared by all runs, validated at construction."""

    N: int = 100
    dt: float = 1e-3
    picard_tol: float = 1e-10
    picard_max_iter: int = 50
    theta_scheme: float = 0.5
    positivity_mode: str = "monitor"        # or "fail"
    continuation_threshold: float = 1e6
    mu: np.ndarray | None = None            # biomass energy weights
    nu: np.ndarray | None = None            # substrate energy weights

    def __post_init__(self):
        if not math.isfinite(self.dt):
            raise ValidationError(f"dt must be finite, got {self.dt}", code="NONFINITE_INPUT")
        if self.dt <= 0.0:
            raise ValidationError(f"dt must be > 0, got {self.dt}", code="NONPOSITIVE_PARAM")
        if not 0.5 <= self.theta_scheme <= 1.0:
            raise ValidationError("theta_scheme must lie in [0.5, 1]", code="SCHEMA_VIOLATION")
        for name in ("picard_tol", "continuation_threshold"):
            if not getattr(self, name) > 0.0:  # NaN fails too
                raise ValidationError(f"{name} must be > 0, got {getattr(self, name)}",
                                      code="NONPOSITIVE_PARAM")
        if self.positivity_mode not in ("monitor", "fail"):
            raise ValidationError("positivity_mode must be 'monitor' or 'fail'",
                                  code="SCHEMA_VIOLATION")
        require_int("N", self.N)  # its range is the grid's to check
        if require_int("picard_max_iter", self.picard_max_iter) < 1:
            raise ValidationError("picard_max_iter must be >= 1", code="NONPOSITIVE_PARAM")
        for name in ("mu", "nu"):  # stored as tuples of floats, so == and hash() work
            w = getattr(self, name)
            if w is not None:
                w = np.atleast_1d(np.asarray(w, dtype=float))
                if w.ndim > 1:
                    raise ValidationError(f"energy weights {name} must be a flat list, got "
                                          f"shape {w.shape}", code="DIMENSION_MISMATCH")
                if not np.all(w > 0.0):  # NaN fails too
                    raise ValidationError(f"energy weights {name} must be > 0, got {w}",
                                          code="NONPOSITIVE_PARAM")
                object.__setattr__(self, name, tuple(w.tolist()))

    def weights(self, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Energy weights ``(mu, nu)`` for ``n`` species and ``m`` substrates
        (unit weights by default), as arrays."""
        mu = np.ones(n) if self.mu is None else np.array(self.mu)
        nu = np.ones(m) if self.nu is None else np.array(self.nu)
        if mu.shape != (n,) or nu.shape != (m,):
            raise ValidationError(f"energy weights need {n} mu and {m} nu entries, got "
                                  f"{mu.size} and {nu.size}", code="DIMENSION_MISMATCH")
        return mu, nu


#: invariant flags, ``FLAGS[i]`` on bit ``i`` of the ``invariant_flags`` column;
#: alphabetical, so :func:`flag_names` lists them sorted
FLAGS = ("CONTINUATION", "NEGATIVE_C", "NEGATIVE_Y", "R_BOUND_EXCEEDED")
CONTINUATION, NEGATIVE_C, NEGATIVE_Y, R_BOUND_EXCEEDED = (1 << i for i in range(len(FLAGS)))

#: columns of :attr:`Trajectory.reports` (``.flags`` of an array is numpy's, hence
#: ``invariant_flags``)
STEP_COLUMNS = np.dtype([
    ("t", float), ("R", float), ("v1", float), ("energy", float),
    ("picard_iterations", np.int64), ("residual", float), ("first_residual", float),
    ("clamped_feet", np.int64), ("boundary_energy_flux", float),
    ("invariant_flags", np.int64)])


def flag_names(mask: int) -> list[str]:
    """Names of the flags set in ``mask``, in :data:`FLAGS` order."""
    return [name for i, name in enumerate(FLAGS) if mask >> i & 1]


@dataclass(eq=False, repr=False)
class Trajectory:
    """Recorded run: strided states, per-step scalars (``reports``, a record
    array with one row per accepted step and the columns :data:`STEP_COLUMNS`),
    terminal outcome and the report of the problem validation it started with."""

    grid: Grid
    cfg: SolverConfig
    kin: KineticsModel
    validation: ValidationReport
    states: list
    state_steps: list
    reports: np.recarray
    min_Y_seen: float                       # least nodal Y at t = 0 and every accepted step
    min_C_seen: float                       # least nodal C, likewise
    outcome: str
    failure: dict | None

    @property
    def final_state(self) -> State:
        return self.states[-1]

    def times(self) -> np.ndarray:
        """Times of all recorded steps including t = 0."""
        return np.concatenate(([self.states[0].t], self.reports.t))

    def thickness_series(self) -> np.ndarray:
        return np.concatenate(([self.states[0].R], self.reports.R))

    def v1_series(self) -> np.ndarray:
        return np.concatenate(([self.states[0].v1], self.reports.v1))


def energy(s: State, mu: np.ndarray, nu: np.ndarray) -> float:
    """Weighted squared-profile energy
    ``E = 1/2 sum_i mu_i int Y_i^2 + 1/2 sum_j nu_j int C_j^2``, with the
    weights of :meth:`SolverConfig.weights`.  Each integral is the trapezoid
    rule on one row of ``s.X**2``; each sum runs in row order."""
    dz, X = s.grid.dz, s.X
    # the end terms as Python floats: the numpy expression's operations, in
    # its order; ``X[:, ::N]`` is the columns z = 0 and z = 1
    rows = [dz * (total - 0.5 * (a * a + b * b))
            for total, (a, b) in zip((X * X).sum(axis=1).tolist(), X[:, ::s.grid.N].tolist())]
    n = len(s.Y)
    total_Y = total_C = 0.0
    for w, row in zip(mu.tolist(), rows[:n]):
        total_Y += w * row
    for w, row in zip(nu.tolist(), rows[n:]):
        total_C += w * row
    return 0.5 * (total_Y + total_C)


def _boundary_flux(s: State, D: np.ndarray, nu: np.ndarray) -> float:
    """Magnitude of the surface energy-flux terms
    ``sum_j nu_j (v1 * C_j(1)^2 / 2 + D_j C_j(1) dC_j/dz(1))``."""
    dz, v1 = s.grid.dz, s.v1
    total = 0.0
    for nu_j, D_j, (c3, c2, c1) in zip(nu.tolist(), D.tolist(), s.C[:, -3:].tolist()):
        slope = (3.0 * c1 - 4.0 * c2 + c3) / (2.0 * dz)
        total += nu_j * (0.5 * v1 * c1 ** 2 + D_j * c1 * slope)
    return abs(total)


def picard_step(state: State, data: ProblemData, kin: KineticsModel, cfg: SolverConfig,
                start: np.ndarray | None = None,
                run: _Run | None = None) -> tuple[State, list[float], int]:
    """Advance one step of length ``cfg.dt`` by fixed-point iteration and
    return ``(new_state, residuals, clamped_feet)``: the converged state, the
    residual of every sweep, and how many characteristic feet of the last
    sweep fell past ``z = 1`` and were clamped onto it.  The step computes
    nothing about the run; :func:`run_simulation` writes the step's row of
    ``Trajectory.reports`` (energy, surface flux, invariant flags) from these.

    Every sweep restarts all substeps from the converged state at the step
    start, with sources/coefficients taken from the latest iterate, and
    writes a fresh packed vector ``x = (Y, C, R, v1)`` laid out as
    :attr:`State.x`; the residual is the sup norm of the change in ``x``
    between sweeps.  The first iterate is ``start`` when given (the vector
    :meth:`_Run.start` returns, a prediction of the step's end state) and
    the step-start ``state.x`` otherwise.  The fixed point is unique, so the
    start changes only how many sweeps reach it.

    What is fixed for the run comes in ``run`` (:class:`_Run`):
    :func:`run_simulation` builds it once, and the step builds its own from
    ``state`` when a caller passes none.  The step ends at ``run.t0 +
    run.count dt``: a run's step ``k`` ends at ``k dt``, and a direct call at
    ``state.t + dt``.  What is fixed for the step is computed once before the
    sweeps: the surface values ``psi`` at the step's end, the step-start
    sources ``f`` and ``h``, the explicit half of the theta-scheme and its
    mesh-Peclet guard.  The step-start ``f`` is the one ``run`` carries when
    the previous step on ``run`` ended at ``state``.  Each sweep evaluates
    ``h`` once at the iterate and ``f`` and ``g`` once at its new substrates
    (one ``f`` call for a preset, :meth:`KineticsModel.fg`), rewrites the
    off-diagonals in ``run``'s bands, and writes its new iterate into a
    fresh ``x``, which becomes the state's ``x`` when the sweeps converge;
    no later step writes to it.  The converged state's ``f`` and ``g`` give
    its velocity, and ``f`` is carried in ``run`` to the next step.

    The inputs are trusted: :func:`run_simulation` validates them once, and
    the sweeps check only what they compute (the mesh Peclet number, the
    tridiagonal solves, the velocity and the thickness).  A non-finite
    biomass shows as a non-finite residual and ends the step in its sweep.

    Raises
    ------
    PicardDivergence
        When the sweep limit is exhausted or the residual grows three sweeps
        in a row.  The exception carries the residual history.
    ThicknessCollapse
        Propagated from the thickness update (washout).
    AssemblyError
        From the mesh-Peclet guard.
    SolverError
        ``ZERO_PIVOT`` from a tridiagonal solve; ``NONFINITE`` for a value a
        sweep computed; the ``ValidationError`` ``NONFINITE_INPUT`` for a
        non-finite surface value ``psi``.
    """
    grid, dt, n = state.grid, cfg.dt, kin.n
    dz, nodes = grid.dz, grid.nodes
    run = _Run(state, data, cfg) if run is None else run
    t_new = run.t0 + run.count * dt
    theta = cfg.theta_scheme
    Y0, C0, R_start, v1_start = state.Y, state.C, state.R, state.v1
    psi_end = data.psi_at(t_new)
    for j, value in enumerate(psi_end.tolist()):
        if not math.isfinite(value):
            raise ValidationError(f"surface value psi[{j}] is not finite at t={t_new:g}",
                                  code="NONFINITE_INPUT")

    # step-start source fields, fixed across sweeps; f comes from the step
    # that ended at ``state`` when ``run`` carries it
    R2_start = R_start**2
    state_f, f_start = run.end_f
    if state_f is not state:
        f_start = np.asarray(kin.f(Y0, C0), dtype=float)
    F_start = R2_start * f_start
    H_lag = (1.0 - theta) * (R2_start * np.asarray(kin.h(Y0, C0), dtype=float))
    # Y0 and F_start stacked, interpolated at each sweep's feet by one call
    YF_start = np.concatenate((Y0, F_start))
    xk = state.x if start is None else start
    Xk = xk[:-2].reshape(state.X.shape)
    Rk, v1k = xk[-2:].tolist()
    # The explicit half of the substrate scheme sits at v1_start, and so does
    # its mesh-Peclet guard (theta < 1); the sweeps guard the implicit
    # operator at each iterate's v1.  A guard fails for some substrate
    # exactly when it fails for the smallest D, so each runs once, on that.
    adv_old = parabolic.advection_weights(run.interior, v1_start, dz)
    if theta < 1.0 and parabolic.peclet_unstable(adv_old, run.diff_min):
        raise parabolic.peclet_error(v1k, v1_start, run.D_min, theta, grid)
    explicit = np.empty(C0.shape)
    for j, diff in enumerate(run.diffs):
        explicit[j] = parabolic.explicit_part(C0[j], adv_old, diff, run.a_old)
    residuals: list[float] = []
    rising = 0

    for _ in range(cfg.picard_max_iter):
        R2 = Rk**2
        Yk = Xk[:n]
        x = np.empty(xk.shape)
        X = x[:-2].reshape(Xk.shape)
        # (1) substrates: theta-blended sources, iterate-lagged at the end stage
        H_end = R2 * np.asarray(kin.h(Yk, Xk[n:]), dtype=float)
        rhs = parabolic.step_rhs(explicit, theta * H_end + H_lag, dt, psi_end)
        adv = parabolic.advection_weights(run.interior, v1k, dz)
        if parabolic.peclet_unstable(adv, run.diff_min):
            raise parabolic.peclet_error(v1k, v1_start, run.D_min, theta, grid)
        for j, (diff, (dl, d, du)) in enumerate(zip(run.diffs, run.bands)):
            parabolic.implicit_off_diagonals(adv, diff, run.a_new, dl, du)
            X[n + j] = parabolic.gtsv_solve(dl, d, du, rhs[j])
        C_new = X[n:]

        # (2) velocity from the freshest fields available
        f_new, g_new = kin.fg(Yk, C_new)
        v1_new = float(boundary.velocity_nodes(g_new, R2, dz)[-1])

        # (3) biomass transport along characteristics
        F_end = R2 * f_new
        unclamped = transport.raw_feet(nodes, dt, 0.5 * (v1_start + v1_new))
        YF_foot = interp_rows(YF_start, np.minimum(unclamped, 1.0), nodes)
        X[:n] = transport.advance(YF_foot[:n], YF_foot[n:], F_end, dt)

        # (4) thickness
        R_new = boundary.thickness_update(R_start, v1_start, v1_new, data.lam, dt)

        x[-2], x[-1] = R_new, v1_new
        residual = float(np.abs(x - xk).max())
        if not math.isfinite(residual):  # Y; C, R and v1 are checked above
            raise SolverError("non-finite state", code="NONFINITE")
        residuals.append(residual)
        rising = rising + 1 if len(residuals) >= 2 and residual > residuals[-2] else 0
        xk, Xk, Rk, v1k = x, X, R_new, v1_new
        if residual <= cfg.picard_tol:
            break
        if rising >= 3:
            raise PicardDivergence(f"fixed-point residual grew 3 sweeps in a row at t={t_new:g}",
                                   residual_history=residuals)
    else:
        raise PicardDivergence(f"no contraction within {cfg.picard_max_iter} sweeps at "
                               f"t={t_new:g} (last residual {residuals[-1]:.3e})",
                               residual_history=residuals)

    # make the stored velocity exactly consistent with the converged fields
    # (x[-1] takes its v1); their f starts the run's next step.  The arrays
    # are this step's own and finite, so the state wraps them without copies.
    f_end, g_end = kin.fg(Xk[:n], Xk[n:])
    v_final = boundary.velocity_nodes(g_end, Rk**2, dz)
    xk[-1] = v_final[-1]
    new = object.__new__(State)._freeze(t_new, grid, xk, n, v_final)
    run.end_f = new, f_end
    return new, residuals, int(np.count_nonzero(transport.clamped_mask(unclamped)))


def check_invariants(s: State, cfg: SolverConfig, r_bound: float,
                     minima: tuple[float, float]) -> int:
    """Evaluate the per-step invariant monitors, returning a :data:`FLAGS` bitmask.

    ``NEGATIVE_Y`` / ``NEGATIVE_C``: nodal values below ``-POSITIVITY_TOL``.
    ``R_BOUND_EXCEEDED``: thickness above ``r_bound``, the running a priori
    bound.
    ``CONTINUATION``: any monitored norm above ``cfg.continuation_threshold``.

    It runs once per accepted step, not per sweep.  ``minima`` is
    ``(s.Y.min(), s.C.min())``, which the run loop takes from one pass over
    the packed ``s.X``; the maximum takes one more.
    """
    y_min, c_min = minima
    flags = 0
    if y_min < -POSITIVITY_TOL:
        flags |= NEGATIVE_Y
    if c_min < -POSITIVITY_TOL:
        flags |= NEGATIVE_C
    if s.R > r_bound + R_BOUND_SLACK:
        flags |= R_BOUND_EXCEEDED
    # sup norms of Y and C (as max(max, -min)), R and the discrete dY/dz.
    # Since |fl(a - b)| <= 2 max|Y| and rounding is monotone, dY/dz can pass
    # the threshold only when 2 max|Y| / dz does, so only then is it taken.
    threshold, x_max = cfg.continuation_threshold, float(s.X.max())
    norm = max(x_max, -y_min, -c_min, abs(s.R))
    if norm <= threshold and 2.0 * max(x_max, -y_min) / s.grid.dz > threshold:
        norm = float(np.abs(s.Y[:, 1:] - s.Y[:, :-1]).max()) / s.grid.dz
    if norm > threshold:
        flags |= CONTINUATION
    return flags


def _start_weights(s: int, count: int) -> np.ndarray:
    """Start-buffer row weights after ``count`` pushes for the polynomial through
    the newest ``s`` rows: ``(-1)^(s-1-i) binom(s, i)`` on the ``i``-th oldest."""
    w = np.zeros(START_HISTORY)
    for i in range(s):
        w[(count - s + i) % START_HISTORY] = (-1) ** (s - 1 - i) * math.comb(s, i)
    w.setflags(write=False)
    return w


class _Run:
    """One run from its start ``state`` at ``t0``: the weights ``dt theta`` and
    ``dt (1 - theta)``, ``nodes[1:N]``, ``D/dz^2`` with its smallest value (the
    binding one of the mesh-Peclet guard) and the implicit bands that its
    sweeps share; the newest accepted ``state`` and the ``count`` of them
    (the start included), the last :data:`START_HISTORY` of their
    :attr:`State.x` as the rows of a rolling buffer, which :meth:`start`
    extrapolates; ``end_f``, the state the last :func:`picard_step` ended at
    and the raw ``f`` there, which starts the next step; the running max
    ``|v1|`` of the a priori thickness bound; the running minima of ``Y``
    and ``C``, where the earlier of equal values stays, as in ``min``;
    ``reports``; and the states kept (every ``stride``-th)."""

    #: row weights by (states used, pushes modulo START_HISTORY)
    _WEIGHTS = {(s, r): _start_weights(s, r)
                for s in range(3, START_HISTORY + 1) for r in range(START_HISTORY)}

    def __init__(self, state: State, data: ProblemData, cfg: SolverConfig, n_steps: int = 0,
                 stride: int = SNAPSHOT_STRIDE):
        self.a_new, self.a_old = cfg.dt * cfg.theta_scheme, cfg.dt * (1.0 - cfg.theta_scheme)
        self.interior = state.grid.nodes[1:state.grid.N]
        self.diffs = [float(D) / state.grid.dz**2 for D in data.D]
        self.D_min = float(data.D.min())
        self.diff_min = min(self.diffs)
        self.bands = [parabolic.implicit_bands(state.grid.N, d, self.a_new) for d in self.diffs]
        self._buf = np.zeros((START_HISTORY, state.x.size))
        self.t0, self.count, self.v1_max = state.t, 0, abs(state.v1)
        self.min_Y_seen, self.min_C_seen = float(state.Y.min()), float(state.C.min())
        self.end_f = None, None
        self.reports = np.recarray(n_steps, STEP_COLUMNS)
        self.stride, self.states, self.state_steps = stride, [state], [0]
        self.push(state)

    def push(self, state: State) -> None:
        """Take ``state`` as the newest accepted one."""
        self._buf[self.count % START_HISTORY] = state.x
        self.count += 1
        self.state = state

    def start(self) -> np.ndarray | None:
        """Start iterate of :func:`picard_step`, a fresh vector laid out as
        :attr:`State.x`: the polynomial through the newest ``s = min(count,
        START_HISTORY)`` states, one ``dt`` apart, evaluated one ``dt`` on,
        ``x* = sum_i (-1)^(s-1-i) binom(s, i) x_i`` (oldest first), ``R``
        and ``v1`` included.  ``None`` (a cold start) below three states."""
        count = self.count
        if count < 3:
            return None
        return self._WEIGHTS[min(count, START_HISTORY), count % START_HISTORY].dot(self._buf)

    def accept(self, step: tuple, data: ProblemData, cfg: SolverConfig, mu: np.ndarray,
               nu: np.ndarray) -> int:
        """Record :func:`picard_step`'s ``(state, residuals, clamped_feet)``
        as the next step's row and state; return the row's invariant flags."""
        state, residuals, clamped = step
        k = self.count
        self.v1_max = max(self.v1_max, abs(state.v1))
        row_min, n = state.X.min(axis=1).tolist(), len(state.Y)
        y_min, c_min = min(row_min[:n]), min(row_min[n:])
        self.min_Y_seen, self.min_C_seen = min(self.min_Y_seen, y_min), min(self.min_C_seen, c_min)
        flags = check_invariants(state, cfg, r_max_bound(data.R0, data.lam, self.v1_max),
                                 (y_min, c_min))
        self.reports[k - 1] = (state.t, state.R, state.v1, energy(state, mu, nu),
                               len(residuals), residuals[-1], residuals[0], clamped,
                               _boundary_flux(state, data.D, nu), flags)
        self.push(state)
        if k % self.stride == 0:
            self.states.append(state)
            self.state_steps.append(k)
        return flags

    def finish(self) -> None:
        """Keep the last accepted state off the stride; cut ``reports``."""
        if self.states[-1] is not self.state:
            self.states.append(self.state)
            self.state_steps.append(self.count - 1)
        self.reports = self.reports[:self.count - 1]


def initial_state(data: ProblemData, kin: KineticsModel, cfg: SolverConfig) -> State:
    """Sample the problem data onto the grid and build the t = 0 state.

    Raises :class:`ValidationError` ``NONFINITE_INPUT`` naming the profile,
    or the rate ``g`` at the sampled data, and the first node (with its
    ``z``) where it is not finite, or ``R0`` and the grid when ``v1(0)`` is
    not finite.
    """
    grid = Grid(cfg.N)
    Y0, C0 = data.sample_initial(grid.nodes)
    bad = (nonfinite_at("initial data phi[{}]", Y0, grid.nodes)
           or nonfinite_at("initial data theta[{}]", C0, grid.nodes))
    if bad is None:  # g only at finite data
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # named below
            g0 = np.asarray(kin.g(Y0, C0), dtype=float)
            v0 = cumtrapz_dz(data.R0**2 * g0, grid.dz)
        bad = (nonfinite_at("kinetics g at the initial data", g0, grid.nodes)
               or nonfinite_v1(data.R0, v0[-1], f" on the run's grid of N={grid.N}"))
    if bad is not None:
        raise ValidationError(bad, code="NONFINITE_INPUT")
    return State(t=0.0, grid=grid, Y=Y0, C=C0, R=data.R0, v=v0)


# numpy's floating-point warnings are off for the whole run: its outcome names an overflow
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_simulation(data: ProblemData, kin: KineticsModel, cfg: SolverConfig,
                   t_end: float, snapshot_stride: int = SNAPSHOT_STRIDE) -> Trajectory:
    """Run from t = 0 to ``t_end`` (rounded to whole steps) and classify the
    outcome:

    - ``completed``: every step was taken;
    - ``washout``: the thickness fell to its floor;
    - ``picard_diverged``: a step's fixed-point iteration did not contract;
    - ``assembly_rejected``: the mesh Peclet number of a step exceeded 1;
    - ``solve_failed``: a tridiagonal solve hit a zero pivot, a step
      computed a non-finite value, or a surface value ``psi`` was not finite
      at a step's end (``NONFINITE_INPUT``);
    - ``continuation_tripped``: a monitored norm blew up;
    - ``positivity_violated``: a nodal value went negative (only in
      ``positivity_mode="fail"``).

    A negative ``t_end`` or a ``snapshot_stride`` below 1 raises
    :class:`ValidationError` ``NONPOSITIVE_PARAM``, a ``snapshot_stride``
    that is not an integer ``SCHEMA_VIOLATION``, a ``t_end`` whose
    step count ``t_end / dt`` is not finite ``NONFINITE_INPUT``, and one
    whose ``reports`` no array or no memory could hold ``TOO_MANY_STEPS``.
    The problem is validated at entry; an invalid one raises
    :class:`InvalidProblem`, which names every violation and carries the
    report.  Initial data, or ``g`` at them, that are not finite at a node
    of the run's grid are one more violation (``NONFINITE_INPUT``, from
    :func:`initial_state`), added to that report with its warnings kept.  A
    valid problem's report (with its warnings) is kept on
    ``Trajectory.validation``.  When ``t_end`` is not a whole number of
    steps, that report also carries a ``HORIZON_ROUNDED`` warning naming the
    horizon the run takes instead.  A step that fails keeps the trajectory
    recorded up to it, its error names the outcome (``SolverError.outcome``),
    and ``Trajectory.failure`` holds the error's code and message, the step
    number and its end time ``t``, plus the error's own attributes: the
    residual history (``picard_diverged``) or the thickness (``washout``).

    Step ``k`` ends at ``t = k dt`` exactly, not at a sum of steps.  Snapshots
    are stored every ``snapshot_stride`` steps (plus t = 0 and the final
    accepted state); ``Trajectory.reports`` has a row per accepted step.
    From the third step on, each step's Picard iteration starts from the
    polynomial extrapolation of the last ``s = min(k, START_HISTORY)``
    accepted states (``k`` of them exist before step ``k``): a quadratic at
    step 3, a cubic at step 4, a quartic at step 5 and a quintic from step 6
    on.
    """
    if t_end < 0.0:
        raise ValidationError(f"t_end must be >= 0, got {t_end}", code="NONPOSITIVE_PARAM")
    steps = t_end / cfg.dt
    if not math.isfinite(steps):
        raise ValidationError(f"t_end / dt must be finite, got t_end={t_end}, dt={cfg.dt}",
                              code="NONFINITE_INPUT")
    if steps > np.iinfo(np.intp).max // STEP_COLUMNS.itemsize:  # numpy could not size reports
        raise ValidationError(f"t_end / dt = {steps:.6g} steps are more than an array can "
                              "hold", code="TOO_MANY_STEPS")
    if require_int("snapshot_stride", snapshot_stride) < 1:
        raise ValidationError(f"snapshot_stride must be >= 1, got {snapshot_stride}",
                              code="NONPOSITIVE_PARAM")
    rep = validate_problem(data, kin)
    if not rep.ok:
        raise InvalidProblem(rep)
    n_steps = int(round(steps))
    if abs(steps - n_steps) > 1e-6:  # more than rounding off a whole step count
        rep.warnings.append(("HORIZON_ROUNDED", f"t_end={t_end:.12g} is not a whole number of "
                             f"steps of dt={cfg.dt:.12g}: running {n_steps} steps, to "
                             f"t={n_steps * cfg.dt:.12g}"))
    mu, nu = cfg.weights(kin.n, kin.m)  # checked once, before the first step

    try:
        start = initial_state(data, kin, cfg)
    except ValidationError as exc:
        if exc.code != "NONFINITE_INPUT":
            raise
        rep.violations.append((exc.code, str(exc)))
        raise InvalidProblem(rep) from None
    try:
        run = _Run(start, data, cfg, n_steps, snapshot_stride)
    except MemoryError:  # reports has a row for every step, sized up front
        raise ValidationError(f"t_end={t_end:.12g} at dt={cfg.dt:.12g} is {n_steps} steps, whose "
                              f"reports ({n_steps * STEP_COLUMNS.itemsize:.3g} bytes) do not fit "
                              "in memory", code="TOO_MANY_STEPS") from None
    outcome, failure = "completed", None
    for k in range(1, n_steps + 1):
        try:
            step = picard_step(run.state, data, kin, cfg, run.start(), run)
        except SolverError as exc:  # its own attributes (thickness, ...) after the four keys
            outcome = exc.outcome
            failure = {"code": exc.code, "message": str(exc), "step": k, "t": k * cfg.dt,
                       **vars(exc)}
            break
        flags = run.accept(step, data, cfg, mu, nu)
        if flags & CONTINUATION:
            outcome = "continuation_tripped"
            break
        if cfg.positivity_mode == "fail" and flags & (NEGATIVE_Y | NEGATIVE_C):
            outcome = "positivity_violated"
            break

    run.finish()
    return Trajectory(grid=run.state.grid, cfg=cfg, kin=kin, validation=rep, states=run.states,
                      state_steps=run.state_steps, reports=run.reports,
                      min_Y_seen=run.min_Y_seen, min_C_seen=run.min_C_seen, outcome=outcome,
                      failure=failure)
