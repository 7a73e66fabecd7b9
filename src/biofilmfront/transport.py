"""Semi-Lagrangian step for the biomass advection equations.

The biomass fractions satisfy ``dY/dt - z * v1(t) * dY/dz = F`` on the fixed
unit domain, where ``v1(t)`` is the surface velocity.  Each step traces the
characteristic through every node backward over ``[t, t + dt]``, interpolates
the previous profile at the characteristic foot and adds the source integral
by the trapezoid rule along the characteristic:

``Y_new(z_k) = Y(foot(z_k)) + dt/2 * (F(foot(z_k), start) + F(z_k, end))``.

With the default ``z``-proportional advection coefficient the foot is
``z * exp(dt * v1_mean)`` (exact when ``v1`` varies linearly over the step);
the ``"unscaled"`` variant drops the ``z`` factor and uses
``z + dt * v1_mean``.  Feet leaving the domain are clamped onto it (constant
extrapolation of the boundary value) and counted in the diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import Grid, interp_rows


@dataclass(frozen=True)
class V1Segment:
    """Surface velocity endpoints over one step of length ``dt``.

    The velocity is taken to vary linearly in time between ``v1_old`` at the
    step start and ``v1_new`` at the step end.
    """

    v1_old: float
    v1_new: float
    dt: float

    def __post_init__(self):
        if not (np.isfinite(self.v1_old) and np.isfinite(self.v1_new) and np.isfinite(self.dt)):
            raise ValidationError("non-finite velocity segment", code="NONFINITE_INPUT")
        if self.dt <= 0.0:
            raise ValidationError(f"dt must be > 0, got {self.dt}", code="NONPOSITIVE_PARAM")

    @property
    def mean(self) -> float:
        """Time average of the linear-in-time velocity (trapezoid, exact)."""
        return 0.5 * (self.v1_old + self.v1_new)


def characteristic_foot(z: float, seg: V1Segment, coefficient: str = "scaled"):
    """Backward characteristic foot of a node at height ``z``.

    Returns ``(z_foot, clamped)``.  ``coefficient="scaled"`` integrates
    ``dZ/ds = -Z * v1(s)`` giving ``z * exp(dt * v1_mean)``;  ``"unscaled"``
    integrates ``dZ/ds = -v1(s)`` giving ``z + dt * v1_mean``.  Feet beyond
    the domain are clamped to [0, 1].
    """
    raw = raw_feet(np.asarray([float(z)]), seg.dt, seg.mean, coefficient)
    return float(np.clip(raw, 0.0, 1.0)[0]), bool(clamped_mask(raw)[0])


@dataclass
class TransportDiagnostics:
    """Per-step bookkeeping: the number of clamped feet."""

    clamped_feet: int


def transport_step(
    Y: np.ndarray,
    grid: Grid,
    sources,
    seg: V1Segment,
    coefficient: str = "scaled",
) -> tuple[np.ndarray, TransportDiagnostics]:
    """Advance stacked biomass profiles ``Y`` (shape ``(n, N+1)``) by one step.

    Parameters
    ----------
    Y : numpy.ndarray
        Profiles at the step start, one row per species.
    grid : Grid
        Shared spatial grid.
    sources : callable
        ``sources(z_points, stage)`` with ``stage`` in ``{"start", "end"}``
        returning the (already thickness-scaled) source rows ``(n, len(z))``
        at the step start/end time.
    seg : V1Segment
        Surface-velocity endpoints for the step.
    coefficient : str
        ``"scaled"`` (default) or ``"unscaled"``, see module docstring.

    Returns
    -------
    (Y_new, TransportDiagnostics)
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[1] != grid.N + 1:
        raise ValidationError(
            f"Y rows must have {grid.N + 1} nodes, got {Y.shape[1]}",
            code="DIMENSION_MISMATCH",
        )
    raw = raw_feet(grid.nodes, seg.dt, seg.mean, coefficient)
    feet = np.clip(raw, 0.0, 1.0)
    Y_foot = interp_rows(Y, feet, grid.nodes)
    F_start = np.atleast_2d(np.asarray(sources(feet, "start"), dtype=float))
    F_end = np.atleast_2d(np.asarray(sources(grid.nodes, "end"), dtype=float))
    Y_new = advance(Y_foot, F_start, F_end, seg.dt)
    return Y_new, TransportDiagnostics(clamped_feet=int(clamped_mask(raw).sum()))


# -- array kernels, shared with the coupled step (package-internal) ----------


def raw_feet(z: np.ndarray, dt: float, v1_mean: float, coefficient: str) -> np.ndarray:
    """Unclamped backward feet of the points ``z``."""
    if coefficient == "scaled":
        return z * np.exp(dt * v1_mean)
    if coefficient == "unscaled":
        return z + dt * v1_mean
    raise ValidationError(
        f"unknown transport coefficient {coefficient!r}", code="SCHEMA_VIOLATION"
    )


def clamped_mask(raw: np.ndarray) -> np.ndarray:
    """Mask of the feet that left the domain."""
    return (raw > 1.0) | (raw < 0.0)


def advance(Y_foot: np.ndarray, F_foot: np.ndarray, F_node: np.ndarray,
            dt: float) -> np.ndarray:
    """Trapezoid rule along the characteristics: the profile at the feet plus
    ``dt/2`` times the start-stage (at the feet) and end-stage (at the nodes)
    sources."""
    return Y_foot + 0.5 * dt * (F_foot + F_node)
