"""Manufactured-solution convergence study for the three solver cores.

Each case drives one numerical core with forcing terms derived by hand from a
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

from . import parabolic, transport
from .boundary import integrate_thickness
from .coupler import SolverConfig
from .errors import ValidationError
from .grid import Grid, interp_rows

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
        diff = D / grid.dz**2
        adv = parabolic.advection_weights(grid.nodes[1:N], 0.0, grid.dz)
        dl, diag, du = parabolic.implicit_bands(N, diff, dt * theta)
        parabolic.implicit_off_diagonals(adv, diff, dt * theta, dl, du)
        C = exact(grid.nodes, 0.0)
        t = 0.0
        for _ in range(steps):
            H = theta * forcing(grid.nodes, t + dt) + (1.0 - theta) * forcing(grid.nodes, t)
            psi_end = 0.5 * math.exp(-(t + dt))
            explicit = parabolic.explicit_part(C, adv, diff, dt * (1.0 - theta))
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
