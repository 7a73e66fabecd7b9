"""Semi-Lagrangian step for the biomass advection equations.

The biomass fractions satisfy ``dY/dt - z * v1(t) * dY/dz = F`` on the fixed
unit domain, where ``v1(t)`` is the surface velocity.  Each step traces the
characteristic through every node backward over ``[t, t + dt]``, interpolates
the previous profile at the characteristic foot and adds the source integral
by the trapezoid rule along the characteristic:

``Y_new(z_k) = Y(foot(z_k)) + dt/2 * (F(foot(z_k), start) + F(z_k, end))``.

The foot is ``z * exp(dt * v1_mean)``, exact when ``v1`` varies linearly over
the step.  It never leaves the domain below (``z * exp(x) >= 0``); feet beyond
``z = 1`` are clamped onto the surface (constant extrapolation of the boundary
value) and counted in the step's row of ``Trajectory.reports``.

The functions here are the step's array kernels; the coupled step
(:func:`biofilmfront.coupler.picard_step`) interpolates with
:func:`biofilmfront.grid.interp_rows` and composes them.
"""

from __future__ import annotations

import numpy as np


def raw_feet(z: np.ndarray, dt: float, v1_mean: float) -> np.ndarray:
    """Unclamped backward feet of the points ``z``, for the step's time-mean
    surface velocity ``v1_mean``."""
    return z * np.exp(dt * v1_mean)


def clamped_mask(raw: np.ndarray) -> np.ndarray:
    """Mask of the feet that left the domain (through the surface)."""
    return raw > 1.0


def advance(Y_foot: np.ndarray, F_foot: np.ndarray, F_node: np.ndarray,
            dt: float) -> np.ndarray:
    """Trapezoid rule along the characteristics: the profile at the feet plus
    ``dt/2`` times the start-stage (at the feet) and end-stage (at the nodes)
    sources."""
    return Y_foot + 0.5 * dt * (F_foot + F_node)
