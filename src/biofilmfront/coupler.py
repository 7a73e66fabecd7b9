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
ends at ``t = k dt`` exactly.  Work is done as rarely as it can be.  Per
run: the ratio of the theta-scheme weights, the velocity-free factors of the
implicit bands (``dt theta z / (2 dz)`` and ``-dt theta D / dz^2``), the
bands themselves and the nodes a step's record keeps.  Per step: the
explicit half of the substrate scheme, from the carried right-hand side of
the step before (the stencil on the first step), and, after the sweeps, the
invariant flags and the step's record.  Per sweep: ``f`` once and ``h``
once, the velocity, the off-diagonals at its ``v1``, the solves, the
transport and the thickness.  Nothing is evaluated after convergence: a step
carries its last sweep's ``f``, ``h`` and substrate right-hand side into the
next, so a run's step and a direct :func:`picard_step` call from the same
state can differ by less than ``picard_tol``.  When the running max ``|v1|``
rises: the thickness bound.  Per block of :data:`RECORD_BLOCK` steps, and at
the run's end: the energy and surface flux of its records.  An iterate is
one packed vector ``x = (Y, C, R, v1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import boundary, parabolic, transport
from .boundary import r_max_bound
from .errors import InvalidProblem, PicardDivergence, SolverError, ValidationError
from .grid import DEFAULT_N, Grid, interp_rows, require_int
from .kinetics import KineticsModel
from .problem import ProblemData, ValidationReport, validate_problem

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
#: steps whose energy and surface flux a run computes in one pass: a block
#: of 64 holds 5 KB at n = m = 1 and costs 0.6 us a step to flush
RECORD_BLOCK = 64


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
        """Freeze and take arrays the caller owns and has checked: a finite ``x``
        packed with ``n`` rows of ``Y``, a finite ``v`` with ``v[0] = 0`` and ``v[-1] == x[-1]``.
        The coupled step builds its states so, without the constructor's copies."""
        x.setflags(write=False)
        v.setflags(write=False)
        X = x[:-2].reshape(-1, grid.N + 1)
        self.__dict__.update(t=t, grid=grid, x=x, X=X, Y=X[:n], C=X[n:], R=x[-2].item(), v=v)
        return self

    @property
    def v1(self) -> float:
        return float(self.v[-1])


@dataclass(frozen=True)
class SolverConfig:
    """Numerical settings shared by all runs, validated at construction."""

    N: int = DEFAULT_N
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


def energy(s: State | tuple, mu: np.ndarray, nu: np.ndarray) -> float | np.ndarray:
    """Weighted squared-profile energy
    ``E = 1/2 sum_i mu_i int Y_i^2 + 1/2 sum_j nu_j int C_j^2`` of a
    :class:`State` ``s``, with the weights of :meth:`SolverConfig.weights`;
    for ``s = (dz, records)``, the array of the energies of the step records
    :meth:`_Run.accept` keeps.  Each integral is the trapezoid rule on one
    row of ``X**2``; each sum runs in row order, elementwise over records."""
    if isinstance(s, State):  # a record of one step: row sums of squares, then ends
        dz, X = s.grid.dz, s.X
        rec = np.concatenate((np.add.reduce(X * X, axis=1), X[:, [0, -1]].ravel()))[None]
    else:
        dz, rec = s
    n, r = len(mu), len(mu) + len(nu)
    a, b = rec[:, r:3 * r:2], rec[:, r + 1:3 * r:2]  # each row's values at z = 0 and z = 1
    rows = dz * (rec[:, :r] - 0.5 * (a * a + b * b))
    total = np.zeros((2, len(rec)))
    for i, w in enumerate(np.concatenate((mu, nu)).tolist()):
        total[int(i >= n)] += w * rows[:, i]
    E = 0.5 * (total[0] + total[1])
    return E.item() if isinstance(s, State) else E


def picard_step(state: State, data: ProblemData, kin: KineticsModel, cfg: SolverConfig,
                start: np.ndarray | None = None,
                run: _Run | None = None) -> tuple[State, list[float], int]:
    """Advance one step of length ``cfg.dt`` by fixed-point iteration and
    return ``(new_state, residuals, clamped_feet)``: the converged state, the
    residual of every sweep, and how many characteristic feet of the last
    sweep fell past ``z = 1`` and were clamped onto it.

    Every sweep restarts all substeps from the step-start state, with
    sources and coefficients from the latest iterate, ``f`` once and ``h``
    once (``g`` from the same ``f`` call for a preset,
    :meth:`KineticsModel.fg`), and writes a fresh packed vector ``x`` laid
    out as :attr:`State.x`; the residual is the sup norm of the change in
    ``x`` between sweeps.  The last sweep's ``x`` and velocity profile are
    the new state.  The first iterate is ``start`` when given
    (:meth:`_Run.start`, a prediction of the step's end state) and
    ``state.x`` otherwise; the fixed point is unique, so the start changes
    only how many sweeps reach it.

    What is fixed for the run comes in ``run``, built from ``state`` when a
    caller passes none; the step ends at ``run.t0 + run.count dt`` (a run's
    step ``k`` at ``k dt``, a direct call at ``state.t + dt``).  When the
    last step of ``run`` ended at ``state``, ``run.carried`` holds
    ``(state, f, h, rhs)``: that step's last sweep's raw ``f`` and ``h``
    (or the validation report's, and ``rhs = None``, at a run's start) and
    the right-hand side its substrate solves took.  The step-start rates
    are then those ``f`` and ``h``, and the explicit half of the substrate
    scheme is ``C + ((1-theta)/theta) (C - rhs)``
    (:func:`parabolic.carried_explicit_part`), at the velocity of the
    iterate that sweep started from.  Otherwise the rates are evaluated at
    ``state`` and the explicit half is the stencil at ``state.v1``.  Nothing
    is evaluated after convergence, so a run's step and a direct call from
    the same state can differ by less than ``picard_tol``.  The inputs are
    trusted: :func:`run_simulation` validates them once, and the sweeps
    check only what they compute (the mesh Peclet number, the solves, the
    velocity and the thickness; a non-finite biomass shows in the residual).

    Raises ``PicardDivergence``, with the residual history, when the sweep
    limit is exhausted or the residual grows three sweeps in a row;
    ``ThicknessCollapse`` from the thickness update (washout);
    ``AssemblyError`` from the mesh-Peclet guard; ``SolverError``
    ``ZERO_PIVOT`` from a solve and ``NONFINITE`` for a value a sweep
    computed; ``ValidationError`` ``NONFINITE_INPUT`` for a surface value
    ``psi`` that is not finite.
    """
    grid, dt, n, theta = state.grid, cfg.dt, kin.n, cfg.theta_scheme
    dz, nodes = grid.dz, grid.nodes
    run = _Run(state, data, cfg) if run is None else run
    t_new = run.t0 + run.count * dt
    Y0, C0, R_start, v1_start = state.Y, state.C, state.R, state.v1
    psi_end = [float(p(t_new)) for p in data.psi]
    for j, value in enumerate(psi_end):
        if not math.isfinite(value):
            raise ValidationError(f"surface value psi[{j}] is not finite at t={t_new:g}",
                                  code="NONFINITE_INPUT")

    # step-start source fields, fixed across sweeps: the rates of the step
    # that ended at ``state`` when ``run`` carries them
    R2_start = R_start**2
    at, f_start, h_start, rhs_end = run.carried
    if at is not state:
        f_start = np.asarray(kin.f(Y0, C0), dtype=float)
        h_start = np.asarray(kin.h(Y0, C0), dtype=float)
        rhs_end = None
    H_lag = (1.0 - theta) * (R2_start * h_start)
    # Y0 and F_start = R^2 f stacked, interpolated at each sweep's feet by one call
    YF_start = np.concatenate((Y0, R2_start * f_start))
    xk = state.x if start is None else start
    Xk = xk[:-2].reshape(state.X.shape)
    Rk, v1k = xk[-2:].tolist()
    # The explicit half of the substrate scheme: from the last solve of the
    # step that ended at ``state`` when ``run`` carries it, at that sweep's
    # iterate velocity, else by the stencil at v1_start.  Its mesh-Peclet
    # guard (theta < 1) tests v1_start either way; the sweeps guard the
    # implicit operator at each iterate's v1.  A guard fails for some
    # substrate exactly when it fails for the smallest D, so each runs once.
    if theta < 1.0 and parabolic.peclet_unstable(v1_start, run.w_last, run.b_min):
        raise parabolic.peclet_error(v1k, v1_start, run.D_min, theta, grid)
    if rhs_end is not None:
        explicit = parabolic.carried_explicit_part(C0, rhs_end, run.ratio)
    else:
        explicit = np.array([parabolic.explicit_part(c, grid, v1_start, D, dt * (1.0 - theta))
                             for c, D in zip(C0, data.D.tolist())])
    residuals: list[float] = []
    rising = 0

    for _ in range(cfg.picard_max_iter):
        R2 = Rk**2
        Yk = Xk[:n]
        x = np.empty(xk.shape)
        X = x[:-2].reshape(Xk.shape)
        # (1) substrates: theta-blended sources, iterate-lagged at the end stage
        h_k = np.asarray(kin.h(Yk, Xk[n:]), dtype=float)
        rhs = parabolic.step_rhs(explicit, theta * (R2 * h_k) + H_lag, dt, psi_end)
        if parabolic.peclet_unstable(v1k, run.w_last, run.b_min):
            raise parabolic.peclet_error(v1k, v1_start, run.D_min, theta, grid)
        vw = v1k * run.w
        for j, (b, (dl, d, du)) in enumerate(zip(run.b, run.bands)):
            parabolic.implicit_off_diagonals(vw, b, dl, du)
            X[n + j] = parabolic.gtsv_solve(dl, d, du, rhs[j])
        C_new = X[n:]

        # (2) velocity from the freshest fields available
        f_new, g_new = kin.fg(Yk, C_new)
        v = boundary.velocity_nodes(g_new, R2, dz)
        v1_new = float(v[-1])

        # (3) biomass transport along characteristics
        F_end = R2 * f_new
        unclamped = transport.raw_feet(nodes, dt, 0.5 * (v1_start + v1_new))
        YF_foot = interp_rows(YF_start, np.minimum(unclamped, 1.0), nodes)
        X[:n] = transport.advance(YF_foot[:n], YF_foot[n:], F_end, dt)

        # (4) thickness
        R_new = boundary.thickness_update(R_start, v1_start, v1_new, data.lam, dt)

        x[-2], x[-1] = R_new, v1_new
        residual = float(np.maximum.reduce(np.abs(x - xk)))
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

    # the last sweep's x and velocity are the new state; its f, h and
    # substrate right-hand side start the next step.  The arrays are this
    # step's own and finite, so the state wraps them without copies.
    new = object.__new__(State)._freeze(t_new, grid, xk, n, v)
    run.carried = new, f_new, h_k, rhs
    return new, residuals, int(np.count_nonzero(transport.clamped_mask(unclamped)))


def check_invariants(s: State, cfg: SolverConfig, r_bound: float,
                     minima: tuple[float, float]) -> int:
    """Evaluate the per-step invariant monitors, returning a :data:`FLAGS` bitmask.

    ``NEGATIVE_Y`` / ``NEGATIVE_C``: nodal values below ``-POSITIVITY_TOL``.
    ``R_BOUND_EXCEEDED``: thickness above ``r_bound``, the running a priori
    bound.
    ``CONTINUATION``: any monitored norm above ``cfg.continuation_threshold``.
    ``minima`` is ``(min Y, min C)``, which the run loop takes in one pass.
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
    threshold, x_max = cfg.continuation_threshold, float(np.maximum.reduce(s.x[:-2]))
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
    """One run from its start ``state`` at ``t0``.  What its sweeps share:
    the ratio ``(1 - theta) / theta`` of the theta-scheme's weights, the
    band constants ``w`` and ``b`` of :func:`parabolic.implicit_constants`
    with ``w[-1]`` and the ``b`` of the smallest ``D`` (which bind the
    mesh-Peclet guard), and the implicit bands.  Its steps: the newest
    accepted ``state``, the ``count`` of them (the start included) and the
    last :data:`START_HISTORY` of their ``x`` in a rolling buffer, which
    :meth:`start` extrapolates; ``carried = (state, f, h, rhs)``, the state
    the last :func:`picard_step` ended at (or the run's start), the raw
    ``f`` and ``h`` that start the next step and the substrate right-hand
    side whose solve gave that state's ``C``, from which the next step's
    explicit half comes (``None`` at the start); the running max ``|v1|``
    with the thickness bound ``r_bound`` taken at it at the start and again
    only when the max rises; minima of ``Y`` and ``C`` (the earlier of equal
    values stays, as in ``min``); ``reports`` and the states kept (every
    ``stride``-th).  A step's flags are taken as it is accepted, since one
    can stop the run.  Its energy and surface flux come from its record
    (each row's sum of squares, then ``x[idx]``: the rows' ends, the
    substrates' three surface nodes and ``v1``), a block of
    :data:`RECORD_BLOCK` at a time and in :meth:`finish`, bit for bit."""

    #: row weights by (states used, pushes modulo START_HISTORY)
    _WEIGHTS = {(s, r): _start_weights(s, r)
                for s in range(3, START_HISTORY + 1) for r in range(START_HISTORY)}

    def __init__(self, state: State, data: ProblemData, cfg: SolverConfig, n_steps: int = 0,
                 stride: int = SNAPSHOT_STRIDE):
        grid, theta = state.grid, cfg.theta_scheme
        self.ratio = (1.0 - theta) / theta
        self.D_min = float(data.D.min())
        self.w, self.b = parabolic.implicit_constants(grid, data.D, cfg.dt * theta)
        self.w_last, self.b_min = float(self.w[-1]), max(self.b)
        self.bands = [parabolic.implicit_bands(grid.N, b) for b in self.b]
        self._buf = np.zeros((START_HISTORY, state.x.size))
        self.t0, self.count, self.v1_max = state.t, 0, abs(state.v1)
        self.r_bound = r_max_bound(data.R0, data.lam, self.v1_max)
        self.min_Y_seen, self.min_C_seen = float(state.Y.min()), float(state.C.min())
        self.carried = None, None, None, None
        self.reports = np.recarray(n_steps, STEP_COLUMNS)
        self.stride, self.states, self.state_steps = stride, [state], [0]
        K, N, n, r = state.grid.N + 1, state.grid.N, len(state.Y), len(state.X)
        self._idx = np.array([i * K + e for i in range(r) for e in (0, N)]
                             + [j * K + e for j in range(n, r) for e in (N - 2, N - 1, N)]
                             + [state.x.size - 1])
        self._rec, self._flushed = np.empty((min(n_steps, RECORD_BLOCK), r + self._idx.size)), 0
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
        k, X, v1 = self.count, state.X, state.x[-1].item()
        if abs(v1) > self.v1_max:  # else the bound stays
            self.v1_max = abs(v1)
            self.r_bound = r_max_bound(data.R0, data.lam, self.v1_max)
        row_min, n = np.minimum.reduce(X, axis=1).tolist(), len(state.Y)
        y_min, c_min = min(row_min[:n]), min(row_min[n:])
        self.min_Y_seen, self.min_C_seen = min(self.min_Y_seen, y_min), min(self.min_C_seen, c_min)
        flags = check_invariants(state, cfg, self.r_bound, (y_min, c_min))
        rec = self._rec[(k - 1) % RECORD_BLOCK]
        np.add.reduce(X * X, axis=1, out=rec[:len(X)])
        state.x.take(self._idx, out=rec[len(X):])
        self.reports[k - 1] = (state.t, state.R, v1, 0.0, len(residuals), residuals[-1],
                               residuals[0], clamped, 0.0, flags)  # energy and flux: _flush
        self.push(state)
        if k % self.stride == 0:
            self.states.append(state)
            self.state_steps.append(k)
        if k % RECORD_BLOCK == 0:
            self._flush(data, mu, nu)
        return flags

    def _flush(self, data: ProblemData, mu: np.ndarray, nu: np.ndarray) -> None:
        """Write the energy and the surface flux, ``|sum_j nu_j (v1 C_j(1)^2 / 2
        + D_j C_j(1) dC_j/dz(1))|``, of the steps recorded since the last flush."""
        lo, hi, dz = self._flushed, self.count - 1, self.state.grid.dz
        rec = self._rec[:hi - lo]
        self.reports.energy[lo:hi] = energy((dz, rec), mu, nu)
        surface, total = rec[:, 3 * (len(mu) + len(nu)):-1], np.zeros(hi - lo)
        for j, (nu_j, D_j) in enumerate(zip(nu.tolist(), data.D.tolist())):
            c3, c2, c1 = surface[:, 3 * j:3 * j + 3].T
            slope = (3.0 * c1 - 4.0 * c2 + c3) / (2.0 * dz)
            total += nu_j * (0.5 * rec[:, -1] * (c1 * c1) + D_j * c1 * slope)
        self.reports.boundary_energy_flux[lo:hi] = np.abs(total)
        self._flushed = hi

    def finish(self, data: ProblemData, mu: np.ndarray, nu: np.ndarray) -> None:
        """Flush the last records, keep the last state off the stride; cut ``reports``."""
        self._flush(data, mu, nu)
        if self.states[-1] is not self.state:
            self.states.append(self.state)
            self.state_steps.append(self.count - 1)
        self.reports = self.reports[:self.count - 1]


def initial_state(data: ProblemData, kin: KineticsModel, cfg: SolverConfig) -> State:
    """The t = 0 state on the run's grid, of ``cfg.N`` cells, built from the
    initial data and velocity that :func:`validate_problem` samples and
    checks there.  An invalid problem raises :class:`InvalidProblem`, whose
    code is its first violation's."""
    grid = Grid(cfg.N)
    rep = validate_problem(data, kin, grid)
    if not rep.ok:
        raise InvalidProblem(rep)
    return State(t=0.0, grid=grid, Y=rep.Y0, C=rep.C0, R=data.R0, v=rep.v0)


def check_horizon(t_end: float, dt: float, snapshot_stride: int) -> float:
    """Check a run's horizon and snapshot stride and return its step count
    ``t_end / dt``, not yet rounded: the checks of :func:`run_simulation`,
    which a caller can make before it starts any run."""
    if t_end < 0.0:
        raise ValidationError(f"t_end must be >= 0, got {t_end}", code="NONPOSITIVE_PARAM")
    steps = t_end / dt
    if not math.isfinite(steps):
        raise ValidationError(f"t_end / dt must be finite, got t_end={t_end}, dt={dt}",
                              code="NONFINITE_INPUT")
    if steps > np.iinfo(np.intp).max // STEP_COLUMNS.itemsize:  # numpy could not size reports
        raise ValidationError(f"t_end / dt = {steps:.6g} steps are more than an array can "
                              "hold", code="TOO_MANY_STEPS")
    if require_int("snapshot_stride", snapshot_stride) < 1:
        raise ValidationError(f"snapshot_stride must be >= 1, got {snapshot_stride}",
                              code="NONPOSITIVE_PARAM")
    return steps


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
    The problem is validated at entry, once, on the run's grid
    (:func:`validate_problem`); an invalid one raises
    :class:`InvalidProblem`, which names every violation and carries the
    report with its warnings.  The run starts from the initial data,
    velocity and rates that report holds, and a valid problem's report
    (with its warnings) is kept on ``Trajectory.validation``.  When
    ``t_end`` is not a whole number of steps, that report also carries a
    ``HORIZON_ROUNDED`` warning naming the horizon the run takes instead.
    A step that fails keeps the trajectory recorded up to it, its error
    names the outcome (``SolverError.outcome``), and ``Trajectory.failure``
    holds the error's code and message, the step number and its end time
    ``t``, plus the error's own attributes: the residual history
    (``picard_diverged``) or the thickness (``washout``).

    Step ``k`` ends at ``t = k dt`` exactly, not at a sum of steps.  Snapshots
    are stored every ``snapshot_stride`` steps (plus t = 0 and the final
    accepted state); ``Trajectory.reports`` has a row per accepted step.
    From the third step on, a step's Picard iteration starts from
    :meth:`_Run.start`, a quintic extrapolation from step 6 on.
    """
    steps = check_horizon(t_end, cfg.dt, snapshot_stride)
    grid = Grid(cfg.N)
    rep = validate_problem(data, kin, grid)
    if not rep.ok:
        raise InvalidProblem(rep)
    n_steps = int(round(steps))
    if abs(steps - n_steps) > 1e-6:  # more than rounding off a whole step count
        rep.warnings.append(("HORIZON_ROUNDED", f"t_end={t_end:.12g} is not a whole number of "
                             f"steps of dt={cfg.dt:.12g}: running {n_steps} steps, to "
                             f"t={n_steps * cfg.dt:.12g}"))
    mu, nu = cfg.weights(kin.n, kin.m)  # checked once, before the first step

    start = State(t=0.0, grid=grid, Y=rep.Y0, C=rep.C0, R=data.R0, v=rep.v0)
    try:
        run = _Run(start, data, cfg, n_steps, snapshot_stride)
    except MemoryError:  # reports has a row for every step, sized up front
        raise ValidationError(f"t_end={t_end:.12g} at dt={cfg.dt:.12g} is {n_steps} steps, whose "
                              f"reports ({n_steps * STEP_COLUMNS.itemsize:.3g} bytes) do not fit "
                              "in memory", code="TOO_MANY_STEPS") from None
    run.carried = start, rep.f0, rep.h0, None  # the first step's start: no rate is evaluated twice
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

    run.finish(data, mu, nu)
    return Trajectory(grid=run.state.grid, cfg=cfg, kin=kin, validation=rep, states=run.states,
                      state_steps=run.state_steps, reports=run.reports,
                      min_Y_seen=run.min_Y_seen, min_C_seen=run.min_C_seen, outcome=outcome,
                      failure=failure)
