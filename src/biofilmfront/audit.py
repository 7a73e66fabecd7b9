"""Audits: the checks ``verify`` runs on a recorded run, and the
manufactured-solution convergence study of the three solver cores.

Each study case drives one core with forcing terms derived by hand from a
chosen exact solution (derivations in ``docs/manufactured_solutions.md``) and
reports the least-squares slope of ``log(error)`` against ``log(dz)`` over a
ladder of resolutions with ``dt`` proportional to ``dz``:

* ``substrate_diffusion``: theta-scheme on ``C* = exp(-t) cos(pi z / 2) + psi*(t)``
  with ``psi* = exp(-t)/2`` — expected order 2 (floor 1.8);
* ``biomass_transport``: semi-Lagrangian advection of ``Y* = exp(-t)(1 + z^2)``
  with constant surface velocity ``-1/2`` — expected order 1 (floor 0.9);
* ``thickness_ode``: RK4 on ``R* = 1 + exp(-t)/2`` with the surface velocity
  manufactured to reproduce it — expected order 4 (floor 3.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# coupler first: with no bytecode cached, coupler.py, the largest module, then
# compiles while the fewest other modules are resident (a lower peak RSS)
from .coupler import (NEGATIVE_C, NEGATIVE_Y, R_BOUND_EXCEEDED, SolverConfig, Trajectory, energy,
                      flag_names)
from . import parabolic, transport
from .boundary import integrate_thickness
from .errors import ValidationError
from .grid import Grid, interp_rows
from .problem import ProblemData

#: ``|v1 - lambda R^2|`` below which a run ends at equilibrium; a bound on
#: ``dR/dt = R^2 (v1 - lambda R^2)`` itself would pass any thin film
_EQUILIBRIUM_TOL = 1e-8


# floating-point warnings off, as in a run: a record names an overflow (``excess inf``)
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def audit(traj: Trajectory, data: ProblemData, verify: dict | None = None) -> list:
    """``verify``'s checks of a recorded run, in the order it prints them:
    run outcome, positivity, thickness bound, energy envelope (against the
    constants ``verify``, skipped without them) and equilibrium.  Each is a
    ``(name, ok, line)`` triple: ``line`` is what ``verify`` prints, ``name``
    labels a failure and ``ok`` is ``None`` for a skipped check."""
    done = traj.outcome in ("completed", "washout")
    hit = int(np.bitwise_or.reduce(traj.reports.invariant_flags))
    negative = flag_names(hit & (NEGATIVE_Y | NEGATIVE_C))
    minima = f"min Y={traj.min_Y_seen:.3e}, min C={traj.min_C_seen:.3e}"
    bounded = not hit & R_BOUND_EXCEEDED
    records = [
        ("outcome", done, f"run outcome: {traj.outcome} ({len(traj.reports)} steps)" if done
         else f"run outcome: FAIL ({traj.outcome})"),
        ("positivity", not negative, f"positivity: FAIL (flags {negative}, {minima})"
         if negative else f"positivity: ok ({minima})"),
        ("thickness bound", bounded,
         f"thickness bound: ok (max R={max(traj.thickness_series()):.6g})" if bounded
         else "thickness bound: FAIL (R exceeded its a priori bound)"),
    ]
    if verify is None:
        records.append(("energy envelope", None, "energy envelope: skipped (no verify block)"))
    else:
        env = dissipation_envelope_check(traj, **verify)
        k = env.first_crossing
        records.append(("energy envelope", env.ok, f"energy envelope: ok (gamma={env.gamma:.6g}, "
                        f"min margin={env.margins.min():.3e})" if env.ok else
                        f"energy envelope: FAIL at t={env.times[k]:.6g} "
                        f"(excess {env.energies[k] / env.budget[k] - 1.0:.3e})"))
    final = traj.final_state
    gap = abs(final.v1 - data.lam * final.R**2)
    if gap < _EQUILIBRIUM_TOL:
        records.append(("equilibrium", True,
                        f"equilibrium residual: ok (|v1 - lambda R^2|={gap:.3e})"))
    else:  # |dR/dt| = R^2 gap: R*R is finite where R**4 may not be
        records.append(("equilibrium", None, f"equilibrium residual: skipped "
                        f"(|dR/dt|={final.R * final.R * gap:.3e}, not at equilibrium)"))
    return records


@dataclass(eq=False, repr=False)
class EnvelopeReport:
    """Result of :func:`dissipation_envelope_check`: the envelope and its
    margin at every recorded time, and the index of the first time with a
    negative margin (``None`` when there is none)."""

    gamma: float
    M_R: float
    C_star: float
    times: np.ndarray
    energies: np.ndarray
    budget: np.ndarray
    margins: np.ndarray
    first_crossing: int | None

    @property
    def ok(self) -> bool:
        return self.first_crossing is None


def _check_constants(constants: dict) -> None:
    """Raise :class:`ValidationError` for the first envelope constant of
    ``constants`` that is not finite (``NONFINITE_INPUT``) or out of range
    (``NONPOSITIVE_PARAM``); other keys, such as ``include_boundary``, pass."""
    for name, value in constants.items():
        low = {"alpha": ">", "beta": ">=", "M0": ">=", "tol": ">"}.get(name)
        if low is None:
            continue
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}", code="NONFINITE_INPUT")
        if value < 0.0 or (value == 0.0 and low == ">"):
            raise ValidationError(f"{name} must be {low} 0, got {value}", code="NONPOSITIVE_PARAM")


# floating-point warnings off, as in a run: the report's margins show an overflow
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def dissipation_envelope_check(traj: Trajectory, alpha: float, beta: float = 0.0,
                               M0: float = 0.0, tol: float = 1e-3,
                               include_boundary: bool = False) -> EnvelopeReport:
    """Check recorded energies against the dissipation envelope
    ``E(t) <= exp(-gamma t) E(0) + M_R (beta + M0) / gamma`` with
    ``M_R = max R**2`` over the trajectory, ``C* = min`` energy weight and
    ``gamma = 2 alpha M_R / C*``.

    The caller asserts that the kinetics satisfy the dissipation inequality
    with constants ``(alpha, beta, M0)``; this routine only audits the
    recorded run.  With ``include_boundary`` the accumulated magnitude of the
    recorded surface energy flux is added to the budget (the envelope itself
    assumes a leak-free surface).  A recorded time with
    ``E > budget * (1 + tol)``, or a NaN margin, crosses the envelope, and
    the report is not ``ok``.  A constant that is not finite raises
    :class:`ValidationError` ``NONFINITE_INPUT``; ``alpha`` or ``tol`` not
    above 0, or ``beta`` or ``M0`` below it, ``NONPOSITIVE_PARAM``.
    """
    _check_constants({"alpha": alpha, "beta": beta, "M0": M0, "tol": tol})
    mu, nu = traj.cfg.weights(traj.kin.n, traj.kin.m)
    C_star = float(min(mu.min(), nu.min()))
    R_series = traj.thickness_series()
    M_R = float(np.max(R_series**2))
    gamma = 2.0 * alpha * M_R / C_star

    times = traj.times()
    E0 = energy(traj.states[0], mu, nu)
    energies = np.concatenate(([E0], traj.reports.energy))
    budget = np.exp(-gamma * times) * E0 + M_R * (beta + M0) / gamma
    if include_boundary:
        flux = np.concatenate(([0.0], traj.reports.boundary_energy_flux))
        steps = np.diff(times, prepend=times[0])
        budget = budget + np.cumsum(flux * steps)

    margins = budget * (1.0 + tol) - energies
    bad = np.flatnonzero(~(margins >= 0.0))  # NaN crosses too
    return EnvelopeReport(gamma=gamma, M_R=M_R, C_star=C_star, times=times,
                          energies=energies, budget=budget, margins=margins,
                          first_crossing=int(bad[0]) if bad.size else None)


ORDER_FLOORS = {
    "substrate_diffusion": 1.8,
    "biomass_transport": 0.9,
    "thickness_ode": 3.5,
}
#: horizon of every case
T_END = 0.25


@dataclass(eq=False, repr=False)
class CaseResult:
    """Errors and fitted order for one manufactured case."""

    name: str
    dz: np.ndarray
    errors: np.ndarray
    observed_order: float
    floor: float

    @property
    def ok(self) -> bool:
        return self.observed_order >= self.floor


@dataclass(eq=False, repr=False)
class ConvergenceReport:
    """Results of the full study keyed by case name."""

    cases: dict

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases.values())

    def orders(self) -> dict:
        return {name: c.observed_order for name, c in self.cases.items()}


def _fit_order(dz: np.ndarray, errors: np.ndarray) -> float:
    return float(np.polyfit(np.log(dz), np.log(errors), 1)[0])


def _steps_for(t_end: float, dt_target: float) -> tuple[int, float]:
    """Whole step count closest to the target dt, with the adjusted dt."""
    steps = max(1, round(t_end / dt_target))
    return steps, t_end / steps


# -- case 1: substrate diffusion ------------------------------------------------

_HALF_PI = 0.5 * math.pi


def _diffusion_case(N_values, theta):
    """Exact: C*(z,t) = exp(-t) cos(pi z/2) + psi*(t), psi*(t) = exp(-t)/2, D = 1.

    Forcing H* = dC*/dt - d2C*/dz2 = exp(-t) [((pi/2)^2 - 1) cos(pi z/2) - 1/2];
    the step feeds the theta-blend of H* at the two time endpoints.
    """
    D = 1.0

    def exact(z, t):
        return math.exp(-t) * (np.cos(_HALF_PI * z) + 0.5)

    def forcing(z, t):
        return math.exp(-t) * ((_HALF_PI**2 - 1.0) * np.cos(_HALF_PI * z) - 0.5)

    errors = []
    for N in N_values:
        grid = Grid(N)
        steps, dt = _steps_for(T_END, 0.5 * grid.dz)
        # no advection (v1 = 0): the implicit matrix is the same every step
        w, (b,) = parabolic.implicit_constants(grid, [D], dt * theta)
        dl, diag, du = parabolic.implicit_bands(N, b)
        parabolic.implicit_off_diagonals(0.0 * w, b, dl, du)
        C = exact(grid.nodes, 0.0)
        t = 0.0
        for _ in range(steps):
            H = theta * forcing(grid.nodes, t + dt) + (1.0 - theta) * forcing(grid.nodes, t)
            psi_end = 0.5 * math.exp(-(t + dt))
            explicit = parabolic.explicit_part(C, grid, 0.0, D, dt * (1.0 - theta))
            C = parabolic.gtsv_solve(dl, diag, du, parabolic.step_rhs(explicit, H, dt, psi_end))
            t += dt
        errors.append(float(np.max(np.abs(C - exact(grid.nodes, T_END)))))
    return np.array(errors)


# -- case 2: biomass transport ---------------------------------------------------


def _transport_case(N_values):
    """Exact: Y*(z,t) = exp(-t)(1 + z^2) advected by constant v1 = -1/2.

    Forcing F* = dY*/dt - z v1 dY*/dz = -exp(-t) (the z-terms cancel).
    """
    v1 = -0.5

    def exact(z, t):
        return math.exp(-t) * (1.0 + z**2)

    errors = []
    for N in N_values:
        grid = Grid(N)
        steps, dt = _steps_for(T_END, 0.5 * grid.dz)
        # constant velocity: the same feet every step
        feet = np.minimum(transport.raw_feet(grid.nodes, dt, v1), 1.0)
        Y = exact(grid.nodes, 0.0)[None, :]
        t = 0.0
        for _ in range(steps):
            Y = transport.advance(interp_rows(Y, feet, grid.nodes), -math.exp(-t),
                                  -math.exp(-(t + dt)), dt)
            t += dt
        errors.append(float(np.max(np.abs(Y[0] - exact(grid.nodes, T_END)))))
    return np.array(errors)


# -- case 3: thickness ODE -------------------------------------------------------


def _ode_case(N_values):
    """Exact: R*(t) = 1 + exp(-t)/2 with lam = 1/2.

    The surface velocity that reproduces it is
    v1*(t) = (dR*/dt + lam R*^4) / R*^2, evaluated exactly at the RK4 stage
    times t, t + dt/2 and t + dt and passed to the solver's RK4 kernel.
    """
    lam = 0.5

    def exact(t):
        return 1.0 + 0.5 * math.exp(-t)

    def v1_star(t):
        R = exact(t)
        return (-0.5 * math.exp(-t) + lam * R**4) / R**2

    errors = []
    for N in N_values:
        steps, dt = _steps_for(T_END, 2.0 / N)
        R = exact(0.0)
        t = 0.0
        for _ in range(steps):
            R = integrate_thickness(R, (v1_star(t), v1_star(t + 0.5 * dt), v1_star(t + dt)),
                                    lam, dt)
            t += dt
        errors.append(abs(R - exact(T_END)))
    return np.array(errors)


def mms_study(N_values=(25, 50, 100, 200), theta_scheme: float = 0.5) -> ConvergenceReport:
    """Run all manufactured cases to ``t = T_END`` and fit observed
    convergence orders.  The report's ``ok`` says whether every order meets
    its floor.

    Raises
    ------
    ValidationError
        From :class:`SolverConfig`, which owns the range of ``theta_scheme``:
        code ``SCHEMA_VIOLATION`` outside [0.5, 1] or NaN.  From the grid of
        the first bad ``N``: ``SCHEMA_VIOLATION`` for one that is not an
        integer, ``TOO_COARSE`` for one below 4.  ``SCHEMA_VIOLATION`` for
        fewer than two distinct grid sizes, from which no order can be fitted.
    """
    SolverConfig(theta_scheme=theta_scheme)
    N_values = tuple(N_values)
    dz = np.array([Grid(N).dz for N in N_values])
    if np.unique(dz).size < 2:
        raise ValidationError(f"an order fit needs at least two distinct grid sizes, "
                              f"got N_values={N_values}", code="SCHEMA_VIOLATION")
    results = {
        "substrate_diffusion": _diffusion_case(N_values, theta_scheme),
        "biomass_transport": _transport_case(N_values),
        "thickness_ode": _ode_case(N_values),
    }
    return ConvergenceReport(cases={
        name: CaseResult(name=name, dz=dz, errors=errors,
                         observed_order=_fit_order(dz, errors), floor=ORDER_FLOORS[name])
        for name, errors in results.items()})
