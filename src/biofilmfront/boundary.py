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

import numpy as np

from .errors import SolverError, ThicknessCollapse, ValidationError
from .grid import cumtrapz_dz

#: thickness at/below which a run is classified as washed out
R_FLOOR = 1e-10


def velocity_nodes(gvals: np.ndarray, R2: float, dz: float) -> np.ndarray:
    """Nodal velocity ``R2 * int_0^z g`` from raw nodal rates ``gvals``;
    ``v(0) = 0`` exactly.

    Raises ``SolverError`` ``NONFINITE`` when it is not finite.  Checking the
    last node suffices: a running sum carries any NaN or inf to its end.
    """
    v = cumtrapz_dz(R2 * gvals, dz)
    if not math.isfinite(v[-1]):
        raise SolverError("profile contains non-finite values", code="NONFINITE")
    return v


def detachment_rhs(R: float, v1: float, lam: float) -> float:
    """Right-hand side ``R**2 * v1 - lam * R**4`` of the thickness equation."""
    return R * R * v1 - lam * R ** 4


def integrate_thickness(R: float, v1: tuple, lam: float, dt: float) -> float:
    """One RK4 step of the thickness equation, with ``v1 = (v1_start, v1_mid,
    v1_end)`` the surface velocity at the stage times 0, dt/2 and dt."""
    v1_start, v1_mid, v1_end = v1
    k1 = R * R * v1_start - lam * R**4
    x = R + 0.5 * dt * k1
    k2 = x * x * v1_mid - lam * x**4
    x = R + 0.5 * dt * k2
    k3 = x * x * v1_mid - lam * x**4
    x = R + dt * k3
    k4 = x * x * v1_end - lam * x**4
    return R + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def thickness_update(R: float, v1_old: float, v1_new: float, lam: float, dt: float) -> float:
    """Advance the thickness by one RK4 step, with ``v1`` varying linearly
    from ``v1_old`` to ``v1_new`` over the step.

    The inputs are trusted (finite, ``lam > 0``, ``dt > 0``).

    Raises
    ------
    ThicknessCollapse
        When the updated thickness falls to ``R_FLOOR`` or below (washout).
    SolverError
        Code ``NONFINITE`` when the updated thickness, or its square, is not
        finite, also when a stage's ``x**4`` overflows.
    """
    slope = (v1_new - v1_old) / dt
    try:
        R_new = integrate_thickness(R, (v1_old, v1_old + slope * (0.5 * dt),
                                        v1_old + slope * dt), lam, dt)
    except OverflowError:
        R_new = math.inf
    if not math.isfinite(R_new * R_new):
        raise SolverError("thickness update produced non-finite value", code="NONFINITE")
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
    return max(float(R0), math.sqrt(max(float(v1_max), 0.0) / lam))
