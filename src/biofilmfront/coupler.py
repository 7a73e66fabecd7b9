"""Coupled time stepping: per-step fixed-point iteration, run loop, monitors.

One time step advances the full state (biomass ``Y``, substrates ``C``,
thickness ``R``, velocity ``v``) by iterating the stage map

1. substrate solve (implicit theta-scheme, sources lagged at the iterate),
2. velocity update ``v = R**2 * cumint(g)``,
3. biomass transport (semi-Lagrangian with trapezoid sources),
4. thickness update (RK4),

until successive iterates agree in sup norm.  The run loop assembles a
:class:`Trajectory` with per-step diagnostics, classifies the terminal
outcome, and exposes energy/invariant monitors plus the map back to physical
(moving-domain) coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import boundary, parabolic, transport
from .boundary import r_max_bound
from .errors import (AssemblyError, EnvelopeViolation, InvalidProblem, PicardDivergence,
                     SolverError, ThicknessCollapse, ValidationError)
from .grid import Grid, build_grid, interp_rows
from .kinetics import KineticsModel
from .problem import ProblemData, ValidationReport, validate_problem

#: nodal values below this (negative) level trip the negativity flags
POSITIVITY_TOL = 1e-12
#: slack added to the a priori thickness bound before flagging
R_BOUND_SLACK = 1e-8
#: accepted states a warm start extrapolates through, a quartic at most: a
#: quintic does worse on coarse steps and after jumps in the surface data
START_HISTORY = 5


@dataclass(frozen=True)
class State:
    """Full solver state at one time level (arrays are frozen copies)."""

    t: float
    grid: Grid
    Y: np.ndarray
    C: np.ndarray
    R: float
    v: np.ndarray

    def __post_init__(self):
        K = self.grid.N + 1
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float)).copy()
        C = np.atleast_2d(np.asarray(self.C, dtype=float)).copy()
        v = np.asarray(self.v, dtype=float).copy()
        if Y.shape[1] != K or C.shape[1] != K or v.shape != (K,):
            raise ValidationError("state arrays do not match the grid", code="DIMENSION_MISMATCH")
        if not (np.all(np.isfinite(Y)) and np.all(np.isfinite(C))
                and np.all(np.isfinite(v)) and np.isfinite(self.R)):
            raise ValidationError("non-finite state", code="NONFINITE")
        if v[0] != 0.0:
            raise ValidationError("velocity must vanish at z=0", code="NONZERO_BASE_VELOCITY")
        for a in (Y, C, v):
            a.setflags(write=False)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "R", float(self.R))

    @classmethod
    def _wrap(cls, t: float, grid: Grid, Y: np.ndarray, C: np.ndarray, R: float,
              v: np.ndarray) -> "State":
        """Freeze and wrap arrays that the caller owns and has checked: 2-D
        float ``Y`` and ``C`` and a velocity with ``v[0] = 0`` on ``grid``,
        all finite.  The coupled step builds its states this way, without the
        constructor's copies and checks."""
        for a in (Y, C, v):
            a.setflags(write=False)
        s = object.__new__(cls)
        vars(s).update(t=t, grid=grid, Y=Y, C=C, R=R, v=v)
        return s

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
        if self.picard_max_iter < 1:
            raise ValidationError("picard_max_iter must be >= 1", code="NONPOSITIVE_PARAM")
        for name in ("mu", "nu"):
            w = getattr(self, name)
            if w is not None and not np.all(np.asarray(w, dtype=float) > 0.0):  # NaN fails too
                raise ValidationError(f"energy weights {name} must be > 0, got {w}",
                                      code="NONPOSITIVE_PARAM")

    def weights(self, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Energy weights ``(mu, nu)`` for ``n`` species and ``m`` substrates
        (unit weights by default), as copies of the configured ones."""
        mu = np.ones(n) if self.mu is None else np.atleast_1d(np.array(self.mu, dtype=float))
        nu = np.ones(m) if self.nu is None else np.atleast_1d(np.array(self.nu, dtype=float))
        if mu.shape != (n,) or nu.shape != (m,):
            raise ValidationError(f"energy weights need {n} mu and {m} nu entries, got "
                                  f"{mu.size} and {nu.size}", code="DIMENSION_MISMATCH")
        return mu, nu


@dataclass
class StepReport:
    """Diagnostics for one accepted time step."""

    t: float
    R: float
    v1: float
    residual_history: list
    clamped_feet: int
    energy: float
    boundary_energy_flux: float
    invariant_flags: set

    @property
    def picard_iterations(self) -> int:
        return len(self.residual_history)

    @property
    def contraction_ratio(self) -> float:
        """Geometric mean of successive residual ratios; NaN under 2 sweeps,
        which is most warm steps of a smooth run."""
        res = self.residual_history
        if len(res) < 2 or res[0] <= 0.0:
            return float("nan")
        return float((res[-1] / res[0]) ** (1.0 / (len(res) - 1)))


@dataclass
class Trajectory:
    """Recorded run: strided states, per-step reports, terminal outcome and
    the report of the problem validation it started with."""

    grid: Grid
    cfg: SolverConfig
    kin: KineticsModel
    validation: ValidationReport
    states: list = field(default_factory=list)
    state_steps: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    outcome: str = "completed"
    failure: dict | None = None
    min_Y_seen: float = math.inf
    min_C_seen: float = math.inf

    @property
    def final_state(self) -> State:
        return self.states[-1]

    def times(self) -> np.ndarray:
        """Times of all recorded steps including t = 0."""
        return np.array([self.states[0].t] + [r.t for r in self.reports])

    def thickness_series(self) -> np.ndarray:
        return np.array([self.states[0].R] + [r.R for r in self.reports])

    def v1_series(self) -> np.ndarray:
        return np.array([self.states[0].v1] + [r.v1 for r in self.reports])


def energy(s: State, mu: np.ndarray, nu: np.ndarray) -> float:
    """Weighted squared-profile energy
    ``E = 1/2 sum_i mu_i int Y_i^2 + 1/2 sum_j nu_j int C_j^2``, with the
    weights of :meth:`SolverConfig.weights`."""
    dz = s.grid.dz
    return 0.5 * float(_weighted_square_integral(s.Y, mu, dz)
                       + _weighted_square_integral(s.C, nu, dz))


def _weighted_square_integral(rows: np.ndarray, w: np.ndarray, dz: float) -> float:
    """``sum_i w_i int rows_i^2`` by the trapezoid rule, summed in row order."""
    total = 0.0
    for w_i, row in zip(w.tolist(), rows):
        sq = row**2
        total += w_i * (dz * (sq.sum() - 0.5 * (sq[0] + sq[-1])))
    return total


def _boundary_flux(s: State, D: np.ndarray, nu: np.ndarray) -> float:
    """Magnitude of the surface energy-flux terms
    ``sum_j nu_j (v1 * C_j(1)^2 / 2 + D_j C_j(1) dC_j/dz(1))``."""
    dz = s.grid.dz
    total = 0.0
    for j in range(s.C.shape[0]):
        c = s.C[j]
        slope = (3.0 * c[-1] - 4.0 * c[-2] + c[-3]) / (2.0 * dz)
        total += nu[j] * (0.5 * s.v1 * c[-1] ** 2 + D[j] * c[-1] * slope)
    return abs(float(total))


def picard_step(state: State, data: ProblemData, kin: KineticsModel, cfg: SolverConfig,
                start: tuple | None = None) -> tuple[State, list[float], int]:
    """Advance one step of length ``cfg.dt`` by fixed-point iteration and
    return ``(new_state, residuals, clamped_feet)``: the converged state, the
    residual of every sweep, and how many characteristic feet of the last
    sweep fell past ``z = 1`` and were clamped onto it.  The step computes
    nothing about the run; :func:`run_simulation` builds the step's
    :class:`StepReport` (energy, surface flux, invariant flags) from these.

    Every sweep restarts all substeps from the converged state at the step
    start, with sources/coefficients taken from the latest iterate; the
    residual is the largest sup-norm change of ``(Y, C, R, v1)`` between
    sweeps.  The first iterate is ``start = (Y, C, R, v1)`` when given (a
    prediction of the step's end state) and the step-start state otherwise.
    The fixed point is unique, so the start changes only how many sweeps
    reach it.

    The inputs are trusted: :func:`run_simulation` validates them once, and
    the sweeps check only what they compute (the mesh Peclet number, the
    tridiagonal solves, the velocity and the thickness).  They run the
    stages' array kernels on raw arrays, with everything fixed within the
    step (step-start sources, the explicit half of the theta-scheme, the
    diagonals) computed once.

    Raises
    ------
    PicardDivergence
        When the sweep limit is exhausted or the residual grows three sweeps
        in a row.  The exception carries the residual history.
    ThicknessCollapse
        Propagated from the thickness update (washout).
    AssemblyError, LinearSolveError
        From the mesh-Peclet guard and the tridiagonal solves.
    ValidationError, GridError
        Code ``NONFINITE`` for a non-finite thickness, biomass or velocity.
    """
    grid, dt = state.grid, cfg.dt
    N, dz, nodes = grid.N, grid.dz, grid.nodes
    t_new = state.t + dt
    theta = cfg.theta_scheme
    lam = data.lam
    Y0, C0, R_start, v1_start = state.Y, state.C, state.R, state.v1
    psi_end = data.psi_at(t_new)

    # step-start source fields, fixed across sweeps
    R2_start = R_start**2
    F_start = R2_start * np.asarray(kin.f(Y0, C0), dtype=float)
    H_start = R2_start * np.asarray(kin.h(Y0, C0), dtype=float)
    H_lag = (1.0 - theta) * H_start

    # substrate operators: the explicit half and the diagonal are fixed
    # across sweeps; the off-diagonals follow the iterate's v1
    a_new, a_old = dt * theta, dt * (1.0 - theta)
    adv_old = parabolic.advection_weights(grid, v1_start)
    diffs = [float(D) / dz**2 for D in data.D]
    explicit = np.array([parabolic.explicit_part(C0[j], adv_old, diff, a_old)
                         for j, diff in enumerate(diffs)])
    diags = [parabolic.implicit_diagonal(N, diff, a_new) for diff in diffs]

    Yk, Ck, Rk, v1k = (Y0, C0, R_start, v1_start) if start is None else start
    # The sweeps guard the implicit operator at each iterate's v1; the
    # explicit one (theta < 1) sits at v1_start.
    if theta < 1.0:
        for j, diff in enumerate(diffs):
            if parabolic.peclet_unstable(adv_old, diff):
                raise parabolic.peclet_error(v1k, v1_start, float(data.D[j]), theta, grid)
    residuals: list[float] = []
    rising = 0
    converged = False

    for _ in range(cfg.picard_max_iter):
        R2 = Rk**2
        # (1) substrates: theta-blended sources, iterate-lagged at the end stage
        H_end = R2 * np.asarray(kin.h(Yk, Ck), dtype=float)
        rhs = parabolic.step_rhs(explicit, theta * H_end + H_lag, dt, psi_end)
        adv = parabolic.advection_weights(grid, v1k)
        C_new = np.empty_like(C0)
        for j, diff in enumerate(diffs):
            if parabolic.peclet_unstable(adv, diff):
                raise parabolic.peclet_error(v1k, v1_start, float(data.D[j]), theta, grid)
            sub, sup = parabolic.implicit_off_diagonals(adv, diff, a_new)
            C_new[j] = parabolic.gtsv_solve(sub[1:], diags[j], sup[:-1], rhs[j])

        # (2) velocity from the freshest fields available
        g_new = np.asarray(kin.g(Yk, C_new), dtype=float)
        v1_new = float(boundary.velocity_nodes(g_new, R2, dz)[-1])

        # (3) biomass transport along characteristics
        F_end = R2 * np.asarray(kin.f(Yk, C_new), dtype=float)
        unclamped = transport.raw_feet(nodes, dt, 0.5 * (v1_start + v1_new))
        feet = np.minimum(unclamped, 1.0)
        Y_new = transport.advance(interp_rows(Y0, feet, nodes), interp_rows(F_start, feet, nodes),
                                  F_end, dt)

        # (4) thickness
        R_new = boundary.thickness_update(R_start, v1_start, v1_new, lam, dt)

        residual = max(
            float(np.abs(Y_new - Yk).max()),
            float(np.abs(C_new - Ck).max()),
            abs(R_new - Rk),
            abs(v1_new - v1k),
        )
        residuals.append(residual)
        rising = rising + 1 if len(residuals) >= 2 and residual > residuals[-2] else 0
        Yk, Ck, Rk, v1k = Y_new, C_new, R_new, v1_new
        if residual <= cfg.picard_tol:
            converged = True
            break
        if rising >= 3:
            raise PicardDivergence(
                f"fixed-point residual grew 3 sweeps in a row at t={t_new:g}",
                residual_history=residuals,
            )
    if not converged:
        raise PicardDivergence(
            f"no contraction within {cfg.picard_max_iter} sweeps at t={t_new:g} "
            f"(last residual {residuals[-1]:.3e})",
            residual_history=residuals,
        )

    # make the stored velocity exactly consistent with the converged fields
    v_final = boundary.velocity_nodes(np.asarray(kin.g(Yk, Ck), dtype=float), Rk**2, dz)
    # C (gtsv), R (thickness) and v (velocity_nodes, with v[0] = 0) are
    # checked where they are computed; Y is checked here.  The arrays are
    # this step's own, so the state wraps them without copies.
    if not np.isfinite(Yk).all():
        raise ValidationError("non-finite state", code="NONFINITE")
    return (State._wrap(t_new, grid, Yk, Ck, Rk, v_final), residuals,
            int(transport.clamped_mask(unclamped).sum()))


def check_invariants(s: State, cfg: SolverConfig, r_bound: float,
                     minima: tuple[float, float]) -> set:
    """Evaluate the per-step invariant monitors, returning raised flags.

    ``NEGATIVE_Y`` / ``NEGATIVE_C``: nodal values below ``-POSITIVITY_TOL``.
    ``R_BOUND_EXCEEDED``: thickness above ``r_bound``, the running a priori
    bound.
    ``CONTINUATION``: any monitored norm above ``cfg.continuation_threshold``.
    ``minima`` is ``(s.Y.min(), s.C.min())``, which the run loop has already.
    """
    Y, C = s.Y, s.C
    y_min, c_min = minima
    flags = set()
    if y_min < -POSITIVITY_TOL:
        flags.add("NEGATIVE_Y")
    if c_min < -POSITIVITY_TOL:
        flags.add("NEGATIVE_C")
    if s.R > r_bound + R_BOUND_SLACK:
        flags.add("R_BOUND_EXCEEDED")
    # sup norms of Y and C (as max(max, -min)), R and the discrete dY/dz
    dy = float(np.abs(Y[:, 1:] - Y[:, :-1]).max()) / s.grid.dz
    if max(float(Y.max()), -y_min, float(C.max()), -c_min, abs(s.R), dy) \
            > cfg.continuation_threshold:
        flags.add("CONTINUATION")
    return flags


def _start_weights(s: int, count: int) -> np.ndarray:
    """Row weights of :class:`_StartHistory` after ``count`` pushes, for the
    polynomial through its newest ``s`` states: ``(-1)^(s-1-i) binom(s, i)``
    on the ``i``-th oldest, zero on the rows it does not use."""
    w = np.zeros(START_HISTORY)
    for i in range(s):
        w[(count - s + i) % START_HISTORY] = (-1) ** (s - 1 - i) * math.comb(s, i)
    w.setflags(write=False)
    return w


class _StartHistory:
    """The last :data:`START_HISTORY` accepted states of a run, packed as
    ``(Y, C, R, v1)`` one per row of a rolling buffer, and the start iterate
    they predict for the next step."""

    #: row weights by (states used, pushes modulo START_HISTORY)
    _WEIGHTS = {(s, r): _start_weights(s, r)
                for s in range(3, START_HISTORY + 1) for r in range(START_HISTORY)}

    def __init__(self, n: int, m: int, K: int):
        self._buf = np.zeros((START_HISTORY, (n + m) * K + 2))
        self._x = np.empty((n + m) * K + 2)
        # views of Y and C within the rows and within the start
        self._Y = self._buf[:, :n * K].reshape(START_HISTORY, n, K)
        self._C = self._buf[:, n * K:-2].reshape(START_HISTORY, m, K)
        self._Y_start = self._x[:n * K].reshape(n, K)
        self._C_start = self._x[n * K:-2].reshape(m, K)
        self._count = 0

    def push(self, state: State) -> None:
        row = self._count % START_HISTORY
        self._Y[row] = state.Y
        self._C[row] = state.C
        self._buf[row, -2] = state.R
        self._buf[row, -1] = state.v1
        self._count += 1

    def start(self) -> tuple | None:
        """Start iterate ``(Y, C, R, v1)``: the polynomial through the newest
        ``s = min(pushes, START_HISTORY)`` states, one ``dt`` apart, evaluated
        one ``dt`` on, ``X* = sum_i (-1)^(s-1-i) binom(s, i) X_i`` (oldest
        first).  ``None`` (a cold start) below three states.  ``Y`` and ``C``
        are views of one array, which the next call overwrites."""
        count = self._count
        if count < 3:
            return None
        x = self._x
        self._WEIGHTS[min(count, START_HISTORY), count % START_HISTORY].dot(self._buf, out=x)
        R, v1 = x[-2:].tolist()
        return self._Y_start, self._C_start, R, v1


def initial_state(data: ProblemData, kin: KineticsModel, cfg: SolverConfig) -> State:
    """Sample the problem data onto the grid and build the t = 0 state."""
    grid = build_grid(cfg.N)
    Y0, C0 = data.sample_initial(grid.nodes)
    v0 = boundary.velocity_nodes(np.asarray(kin.g(Y0, C0), dtype=float), data.R0**2, grid.dz)
    return State(t=0.0, grid=grid, Y=Y0, C=C0, R=data.R0, v=v0)


def run_simulation(data: ProblemData, kin: KineticsModel, cfg: SolverConfig,
                   t_end: float, snapshot_stride: int = 1) -> Trajectory:
    """Run from t = 0 to ``t_end`` (rounded to whole steps) and classify the
    outcome:

    - ``completed``: every step was taken;
    - ``washout``: the thickness fell to its floor;
    - ``picard_diverged``: a step's fixed-point iteration did not contract;
    - ``assembly_rejected``: the mesh Peclet number of a step exceeded 1;
    - ``solve_failed``: a tridiagonal solve hit a zero pivot, or a step
      computed a non-finite value;
    - ``continuation_tripped``: a monitored norm blew up;
    - ``positivity_violated``: a nodal value went negative (only in
      ``positivity_mode="fail"``).

    The problem is validated at entry; an invalid one raises
    :class:`InvalidProblem`, which names every violation and carries the
    report, and a valid one's report (with its warnings) is kept on
    ``Trajectory.validation``.  When ``t_end`` is not a whole number of steps,
    that report also carries a ``HORIZON_ROUNDED`` warning naming the
    horizon the run takes instead.  A step that fails keeps the trajectory
    recorded up to it, and ``Trajectory.failure`` holds the error's code and
    message, the step number and its end time ``t``, plus the residual
    history (``picard_diverged``) or the thickness (``washout``).

    Snapshots are stored every ``snapshot_stride`` steps (plus t = 0 and the
    final accepted state); per-step scalar diagnostics are always complete.
    From the third step on, each step's Picard iteration starts from the
    polynomial extrapolation of the last ``s = min(k, START_HISTORY)``
    accepted states (``k`` of them exist before step ``k``): a quadratic at
    step 3, a cubic at step 4 and a quartic from step 5 on.
    """
    if t_end < 0.0:
        raise ValidationError(f"t_end must be >= 0, got {t_end}", code="NONPOSITIVE_PARAM")
    if snapshot_stride < 1:
        raise ValidationError("snapshot_stride must be >= 1", code="NONPOSITIVE_PARAM")
    rep = validate_problem(data, kin)
    if not rep.ok:
        raise InvalidProblem(rep)
    n_steps = int(round(t_end / cfg.dt))
    if abs(t_end / cfg.dt - n_steps) > 1e-6:  # more than rounding off a whole step count
        rep.warnings.append(("HORIZON_ROUNDED", f"t_end={t_end:.12g} is not a whole number of "
                             f"steps of dt={cfg.dt:.12g}: running {n_steps} steps, to "
                             f"t={n_steps * cfg.dt:.12g}"))
    mu, nu = cfg.weights(kin.n, kin.m)  # checked once, before the first step

    state = initial_state(data, kin, cfg)
    traj = Trajectory(grid=state.grid, cfg=cfg, kin=kin, validation=rep)
    traj.states.append(state)
    traj.state_steps.append(0)
    traj.min_Y_seen = float(state.Y.min())
    traj.min_C_seen = float(state.C.min())
    v1_max = abs(state.v1)  # running max |v1| of the a priori thickness bound

    outcome = "completed"
    history = _StartHistory(kin.n, kin.m, state.grid.N + 1)
    history.push(state)
    for k in range(1, n_steps + 1):
        try:
            state_new, residuals, clamped = picard_step(state, data, kin, cfg, history.start())
        except SolverError as exc:
            traj.failure = {"code": exc.code, "message": str(exc), "step": k,
                            "t": state.t + cfg.dt}
            if isinstance(exc, PicardDivergence):
                outcome = "picard_diverged"
                traj.failure["residual_history"] = exc.residual_history
            elif isinstance(exc, ThicknessCollapse):
                outcome = "washout"
                traj.failure["thickness"] = exc.thickness
            elif isinstance(exc, AssemblyError):
                outcome = "assembly_rejected"
            else:  # LinearSolveError, or a non-finite value the step computed
                outcome = "solve_failed"
            break

        v1_max = max(v1_max, abs(state_new.v1))
        y_min, c_min = float(state_new.Y.min()), float(state_new.C.min())
        flags = check_invariants(state_new, cfg, r_max_bound(data.R0, data.lam, v1_max),
                                 (y_min, c_min))
        traj.reports.append(StepReport(
            t=state_new.t, R=state_new.R, v1=state_new.v1, residual_history=residuals,
            clamped_feet=clamped, energy=energy(state_new, mu, nu),
            boundary_energy_flux=_boundary_flux(state_new, data.D, nu), invariant_flags=flags))
        traj.min_Y_seen = min(traj.min_Y_seen, y_min)
        traj.min_C_seen = min(traj.min_C_seen, c_min)
        state = state_new
        history.push(state)
        if k % snapshot_stride == 0 or k == n_steps:
            traj.states.append(state)
            traj.state_steps.append(k)

        if "CONTINUATION" in flags:
            outcome = "continuation_tripped"
            break
        if cfg.positivity_mode == "fail" and flags & {"NEGATIVE_Y", "NEGATIVE_C"}:
            outcome = "positivity_violated"
            break

    if traj.state_steps[-1] != len(traj.reports):
        # early break between stride points: keep the last accepted state
        traj.states.append(state)
        traj.state_steps.append(len(traj.reports))
    traj.outcome = outcome
    return traj


# -- energy dissipation envelope ----------------------------------------------


@dataclass
class EnvelopeReport:
    """Result of :func:`dissipation_envelope_check` (no violation found)."""

    gamma: float
    M_R: float
    C_star: float
    times: np.ndarray
    energies: np.ndarray
    budget: np.ndarray
    margins: np.ndarray


def dissipation_envelope_check(traj: Trajectory, alpha: float, beta: float,
                               M0: float, tol: float = 1e-3,
                               include_boundary: bool = False) -> EnvelopeReport:
    """Check recorded energies against the dissipation envelope
    ``E(t) <= exp(-gamma t) E(0) + M_R (beta + M0) / gamma`` with
    ``M_R = max R**2`` over the trajectory, ``C* = min`` energy weight and
    ``gamma = 2 alpha M_R / C*``.

    The caller asserts that the kinetics satisfy the dissipation inequality
    with constants ``(alpha, beta, M0)``; this routine only audits the
    recorded run.  With ``include_boundary`` the accumulated magnitude of the
    recorded surface energy flux is added to the budget (the envelope itself
    assumes a leak-free surface).

    Raises
    ------
    EnvelopeViolation
        At the first recorded time with ``E > budget * (1 + tol)``.
    """
    if alpha <= 0.0:
        raise ValidationError(f"alpha must be > 0, got {alpha}", code="NONPOSITIVE_PARAM")
    mu, nu = traj.cfg.weights(traj.kin.n, traj.kin.m)
    C_star = float(min(mu.min(), nu.min()))
    R_series = traj.thickness_series()
    M_R = float(np.max(R_series**2))
    gamma = 2.0 * alpha * M_R / C_star

    times = traj.times()
    E0 = energy(traj.states[0], mu, nu)
    energies = np.array([E0] + [r.energy for r in traj.reports])
    budget = np.exp(-gamma * times) * E0 + M_R * (beta + M0) / gamma
    if include_boundary:
        flux = np.array([0.0] + [r.boundary_energy_flux for r in traj.reports])
        steps = np.diff(times, prepend=times[0])
        budget = budget + np.cumsum(flux * steps)

    margins = budget * (1.0 + tol) - energies
    bad = np.nonzero(margins < 0.0)[0]
    if bad.size:
        k = int(bad[0])
        raise EnvelopeViolation(
            f"energy {energies[k]:.6g} exceeded its envelope {budget[k]:.6g} "
            f"at t={times[k]:g}",
            time=float(times[k]),
            excess=float(energies[k] / budget[k] - 1.0),
        )
    return EnvelopeReport(gamma=gamma, M_R=M_R, C_star=C_star, times=times,
                          energies=energies, budget=budget, margins=margins)


# -- back-transform to the physical (moving) domain ---------------------------


@dataclass
class PhysicalSnapshot:
    """One stored state mapped to physical coordinates."""

    t_phys: float
    x: np.ndarray
    X: np.ndarray   # biomass fractions on the physical nodes
    S: np.ndarray   # substrate concentrations
    u: np.ndarray   # physical velocity


@dataclass
class PhysicalTrajectory:
    """Physical-domain view of a run: thickness and velocity vs physical time."""

    t_phys: np.ndarray
    L: np.ndarray
    u1: np.ndarray
    snapshots: list


def back_transform(traj: Trajectory) -> PhysicalTrajectory:
    """Map a recorded run to the physical moving domain.

    The computational clock integrates ``dt = L**2 dt_c``, so physical time
    is accumulated with the trapezoid rule on ``R**2``; positions scale as
    ``x = z * L`` and the physical velocity is ``u = v / L`` (the thickness
    ``L`` equals ``R``).

    Raises
    ------
    SolverError
        Code ``NONPOSITIVE_THICKNESS`` when any recorded thickness is <= 0.
    """
    R = traj.thickness_series()
    if np.any(R <= 0.0):
        raise SolverError("trajectory contains nonpositive thickness",
                          code="NONPOSITIVE_THICKNESS")
    times = traj.times()
    Rsq = R**2
    t_phys = np.zeros_like(times)
    if len(times) > 1:
        t_phys[1:] = np.cumsum(0.5 * np.diff(times) * (Rsq[:-1] + Rsq[1:]))
    u1 = traj.v1_series() / R

    snapshots = []
    for s, step in zip(traj.states, traj.state_steps):
        L = s.R
        snapshots.append(PhysicalSnapshot(
            t_phys=float(t_phys[step]),
            x=s.grid.nodes * L,
            X=s.Y.copy(),
            S=s.C.copy(),
            u=s.v / L,
        ))
    return PhysicalTrajectory(t_phys=t_phys, L=R, u1=u1, snapshots=snapshots)
