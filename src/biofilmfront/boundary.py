"""Film-surface velocity and thickness (detachment) dynamics.

The growth-induced velocity on the unit domain is the running integral of the
local expansion rate scaled by the squared thickness,
``v(z) = R**2 * int_0^z g(Y, C) dxi``, and the film thickness obeys

``dR/dt = R**2 * v1(t) - lambda * R**4``

with ``v1(t) = v(1, t)`` varying linearly between the supplied endpoints
inside one step.  The thickness step is a classical RK4 stage rule; a result
at or below ``R_FLOOR`` signals washout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ThicknessCollapse, ValidationError
from .grid import Grid, Profile, cumtrapz_dz
from .kinetics import KineticsModel

#: thickness at/below which a run is classified as washed out
R_FLOOR = 1e-10


@dataclass(frozen=True)
class BoundaryState:
    """Thickness and surface velocity at one time level."""

    R: float
    v1: float

    def __post_init__(self):
        if not (np.isfinite(self.R) and np.isfinite(self.v1)):
            raise ValidationError("non-finite boundary state", code="NONFINITE_INPUT")


def velocity_profile(Y: np.ndarray, C: np.ndarray, R: float, kin: KineticsModel,
                     grid: Grid) -> Profile:
    """Growth velocity ``v(z) = R**2 * int_0^z g``; ``v(0) = 0`` exactly.

    ``Y`` and ``C`` are stacked nodal profiles of shapes ``(n, N+1)`` and
    ``(m, N+1)``.
    """
    gvals = Profile(grid, np.asarray(kin.g(np.atleast_2d(Y), np.atleast_2d(C)), dtype=float))
    return Profile(grid, velocity_nodes(gvals.values, float(R) ** 2, grid.dz))


def velocity_nodes(gvals: np.ndarray, R2: float, dz: float) -> np.ndarray:
    """Nodal velocity ``R2 * int_0^z g`` from raw nodal rates ``gvals``.

    Raises ``GridError`` ``NONFINITE`` when it is not finite.  Checking the
    last node suffices: a running sum carries any NaN or inf to its end.
    """
    v = cumtrapz_dz(R2 * gvals, dz)
    if not math.isfinite(v[-1]):
        raise GridError("profile contains non-finite values", code="NONFINITE")
    return v


def detachment_rhs(R: float, v1: float, lam: float) -> float:
    """Right-hand side ``R**2 * v1 - lam * R**4`` of the thickness equation."""
    return R * R * v1 - lam * R ** 4


def integrate_thickness(R: float, v1_of_t, lam: float, dt: float) -> float:
    """One RK4 step of the thickness equation with ``v1`` a callable of the
    local time offset in [0, dt]."""
    k1 = detachment_rhs(R, v1_of_t(0.0), lam)
    k2 = detachment_rhs(R + 0.5 * dt * k1, v1_of_t(0.5 * dt), lam)
    k3 = detachment_rhs(R + 0.5 * dt * k2, v1_of_t(0.5 * dt), lam)
    k4 = detachment_rhs(R + dt * k3, v1_of_t(dt), lam)
    return R + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def boundary_step(state: BoundaryState, v1_new: float, lam: float, dt: float) -> float:
    """Advance the thickness by one RK4 step.

    ``v1`` varies linearly from ``state.v1`` to ``v1_new`` over the step.

    Raises
    ------
    ThicknessCollapse
        When the updated thickness falls to ``R_FLOOR`` or below (washout).
    ValidationError
        For nonpositive ``lam``/``dt`` or non-finite input.
    """
    if not (np.isfinite(v1_new) and np.isfinite(lam) and np.isfinite(dt)):
        raise ValidationError("non-finite boundary step input", code="NONFINITE_INPUT")
    if lam <= 0.0 or dt <= 0.0:
        raise ValidationError("lam and dt must be > 0", code="NONPOSITIVE_PARAM")
    return thickness_update(state.R, state.v1, v1_new, lam, dt)


def thickness_update(R: float, v1_old: float, v1_new: float, lam: float, dt: float) -> float:
    """RK4 thickness step from validated scalars, with the washout and
    non-finite checks of :func:`boundary_step`."""
    slope = (v1_new - v1_old) / dt
    R_new = integrate_thickness(R, lambda s: v1_old + slope * s, lam, dt)
    if not math.isfinite(R_new):
        raise ValidationError("thickness update produced non-finite value", code="NONFINITE")
    if R_new <= R_FLOOR:
        raise ThicknessCollapse(
            f"thickness {R_new:.3e} fell to the washout floor {R_FLOOR:g}",
            thickness=float(R_new),
        )
    return float(R_new)


def r_max_bound(R0: float, lam: float, v1_max: float) -> float:
    """A priori thickness bound ``max(R0, sqrt(v1_max / lam))``.

    Whenever ``R**2 >= v1_max / lam`` the thickness equation has
    ``dR/dt <= R**2 * (v1_max - lam * R**2) <= 0``, so the larger of the
    initial thickness and that threshold can never be exceeded.
    """
    if lam <= 0.0:
        raise ValidationError(f"lam must be > 0, got {lam}", code="NONPOSITIVE_LAMBDA")
    v1_max = max(float(v1_max), 0.0)
    return max(float(R0), float(np.sqrt(v1_max / lam)))
