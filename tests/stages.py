"""Reference stage steps for the tests, built from the solver's array kernels.

The coupled step runs its substrate, transport and thickness stages inline on
raw arrays.  These functions take one stage step at a time, the way the sweep
was written before it moved onto the kernels: the lockstep oracle in
``test_coupler.py`` composes them, and the per-stage tests exercise them.
"""

import numpy as np

from biofilmfront import integrate_thickness, parabolic


def assemble(C, grid, v1, H, D, psi_end, dt, theta=0.5):
    """Full-length bands ``(sub, diag, sup)`` and right-hand side of one
    substrate's theta-scheme step, with the mesh-Peclet guard.

    ``v1 = (v1_start, v1_end)``: the explicit operator uses the start value,
    the implicit one the end value.  ``sub[0]`` and ``sup[-1]`` are padding.
    """
    a_new = dt * theta
    w, (b,) = parabolic.implicit_constants(grid, [D], a_new)
    # the explicit operator only matters for theta < 1
    if parabolic.peclet_unstable(v1[1], w[-1], b) or (
            theta < 1.0 and parabolic.peclet_unstable(v1[0], w[-1], b)):
        raise parabolic.peclet_error(v1[1], v1[0], D, theta, grid)
    dl, diag, du = parabolic.implicit_bands(grid.N, b)
    parabolic.implicit_off_diagonals(v1[1] * w, b, dl, du)
    explicit = parabolic.explicit_part(C, grid, v1[0], D, dt * (1.0 - theta))
    rhs = parabolic.step_rhs(explicit, H, dt, psi_end)
    return np.concatenate(([0.0], dl)), diag, np.concatenate((du, [0.0])), rhs


def substrate_step(C, grid, v1, H, D, psi_end, dt, theta=0.5):
    """One substrate profile advanced by one theta-scheme step."""
    sub, diag, sup, rhs = assemble(C, grid, v1, H, D, psi_end, dt, theta)
    return parabolic.gtsv_solve(sub[1:], diag, sup[:-1], rhs)


def transport_step(Y, grid, F_start, F_end, v1, dt):
    """Stacked biomass profiles advanced by one semi-Lagrangian step.

    ``F_start`` and ``F_end`` are nodal source rows at the step's start and
    end; each is interpolated along the characteristics, the start stage at
    the feet and the end stage at the nodes.  ``v1 = (v1_start, v1_end)``
    varies linearly over the step.  Returns ``(Y_new, clamped_feet)``.
    """
    nodes = grid.nodes
    v1_mean = 0.5 * (v1[0] + v1[1])
    raw = nodes * np.exp(dt * v1_mean)
    feet = np.clip(raw, 0.0, 1.0)

    def at(rows, z):
        return np.array([np.interp(z, nodes, row) for row in np.atleast_2d(rows)])

    Y_new = at(Y, feet) + 0.5 * dt * (at(F_start, feet) + at(F_end, nodes))
    return Y_new, int(np.count_nonzero((raw < 0.0) | (raw > 1.0)))


def thickness_step(R, v1, lam, dt):
    """One RK4 thickness step with ``v1 = (v1_start, v1_end)`` varying
    linearly over the step."""
    slope = (v1[1] - v1[0]) / dt
    return integrate_thickness(R, (v1[0], v1[0] + slope * (0.5 * dt), v1[0] + slope * dt),
                               lam, dt)
