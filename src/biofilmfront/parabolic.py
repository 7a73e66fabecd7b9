"""Implicit theta-scheme for the substrate advection-diffusion equations.

Each substrate satisfies ``dC/dt - z * v1(t) * dC/dz - D * d2C/dz2 = H`` with
a no-flux condition at ``z = 0`` and a Dirichlet value ``psi(t)`` at ``z = 1``.
One step solves

``(I - dt*theta*L_new) C_new = (I + dt*(1-theta)*L_old) C_old + dt*H``

with ``L`` the centered advection-diffusion operator (advection coefficient
evaluated at the matching time endpoint).  The no-flux condition enters
through a ghost node (``C_{-1} = C_1``, second order); the Dirichlet row is
kept exact (``diag = 1``, ``rhs = psi_end``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import AssemblyError, LinearSolveError, ValidationError
from .grid import Grid
from .kinetics import KineticsModel


@dataclass
class TridiagonalSystem:
    """Tridiagonal linear system ``A x = rhs``.

    ``sub[k]`` couples row ``k`` to ``k-1`` (``sub[0]`` unused) and
    ``sup[k]`` couples row ``k`` to ``k+1`` (``sup[-1]`` unused).
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        n = len(self.diag)
        if not (len(self.sub) == len(self.sup) == len(self.rhs) == n):
            raise ValidationError("tridiagonal band lengths differ", code="DIMENSION_MISMATCH")
        if n < 2:
            raise ValidationError("a tridiagonal system needs at least 2 rows",
                                  code="DIMENSION_MISMATCH")


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """Solve ``A x = rhs`` with LAPACK ``gtsv`` (elimination, partial pivoting).

    ``gtsv`` swaps rows only where a running pivot is smaller than the next
    subdiagonal entry; where it swaps none its arithmetic is that of Thomas
    elimination, bit for bit.  On the systems of :func:`assemble_step` that
    holds unless a stiff step (large ``dt D / dz^2``) meets a receding
    surface (``v1 < 0``).  Raises ``ZERO_PIVOT`` when ``A`` is singular (an
    exactly zero pivot) and ``NONFINITE`` when the solution is not finite.
    """
    *_, x, info = dgtsv(system.sub[1:], system.diag, system.sup[:-1], system.rhs)
    if info > 0:
        raise LinearSolveError(f"zero pivot in row {info - 1}", code="ZERO_PIVOT")
    if not np.all(np.isfinite(x)):
        raise LinearSolveError("non-finite solution from elimination", code="NONFINITE")
    return x


def assemble_step(
    C: np.ndarray,
    grid: Grid,
    v1: tuple[float, float],
    H: np.ndarray,
    D: float,
    psi_end: float,
    dt: float,
    theta_scheme: float = 0.5,
) -> TridiagonalSystem:
    """Assemble the one-step system for a single substrate.

    Parameters
    ----------
    C : numpy.ndarray, shape (N+1,)
        Profile at the step start.
    v1 : (float, float)
        Surface velocity at the step start and end; the implicit operator
        uses the end value, the explicit operator the start value.
    H : numpy.ndarray, shape (N+1,)
        Thickness-scaled source, already collocated in time by the caller.
    D : float
        Diffusivity (> 0).
    psi_end : float
        Dirichlet value at ``z = 1`` at the step end.
    dt, theta_scheme : float
        Step size and implicitness weight in [0.5, 1].

    Raises
    ------
    AssemblyError
        Code ``UNSTABLE_ASSEMBLY`` when the advective term breaks the sign
        pattern of the implicit operator (mesh Peclet number
        ``|v1| * dz / (2 D) > 1``), which would void diagonal dominance and
        the discrete maximum principle.  The message names the fix: the
        smallest ``N`` above ``|v1| / (2 D)``, or a larger ``D``.
    """
    C = np.asarray(C, dtype=float)
    H = np.asarray(H, dtype=float)
    N, dz = grid.N, grid.dz
    if C.shape != (N + 1,) or H.shape != (N + 1,):
        raise ValidationError("profile/source length mismatch", code="DIMENSION_MISMATCH")
    if D <= 0.0 or dt <= 0.0:
        raise ValidationError("D and dt must be > 0", code="NONPOSITIVE_PARAM")
    if not 0.0 <= theta_scheme <= 1.0:
        raise ValidationError("theta_scheme must lie in [0, 1]", code="SCHEMA_VIOLATION")
    v1_old, v1_new = float(v1[0]), float(v1[1])

    z = grid.nodes
    diff = D / dz**2
    adv_new = z * v1_new / (2.0 * dz)   # centered advection weights, implicit stage
    adv_old = z * v1_old / (2.0 * dz)

    # Mesh Peclet guard: implicit off-diagonals must stay nonpositive so the
    # matrix is an M-matrix (strictly diagonally dominant, inverse >= 0).  The
    # explicit operator only matters for theta < 1.
    bad_old = theta_scheme < 1.0 and np.any(np.abs(adv_old[1:N]) > diff)
    if np.any(np.abs(adv_new[1:N]) > diff) or bad_old:
        # the mesh Peclet number |v1| dz / (2D) does not depend on dt
        v = max(abs(v1_new), abs(v1_old) if theta_scheme < 1.0 else 0.0)
        n_min = math.floor(v / (2.0 * D)) + 1
        raise AssemblyError(
            f"advection too strong for centered differencing at N={N} "
            f"(mesh Peclet {v * dz / (2.0 * D):.3g} > 1); refine the grid to "
            f"N >= {n_min} or increase D",
            code="UNSTABLE_ASSEMBLY",
        )

    a_new = dt * theta_scheme
    a_old = dt * (1.0 - theta_scheme)

    sub = np.zeros(N + 1)
    diag = np.ones(N + 1)
    sup = np.zeros(N + 1)
    rhs = np.empty(N + 1)

    # interior rows
    sub[1:N] = -a_new * (diff - adv_new[1:N])
    diag[1:N] = 1.0 + 2.0 * a_new * diff
    sup[1:N] = -a_new * (diff + adv_new[1:N])
    rhs[1:N] = (
        C[1:N]
        + a_old * ((diff - adv_old[1:N]) * C[0:N - 1]
                   - 2.0 * diff * C[1:N]
                   + (diff + adv_old[1:N]) * C[2:N + 1])
        + dt * H[1:N]
    )

    # no-flux row via ghost node C_{-1} = C_1 (advection vanishes with z=0)
    diag[0] = 1.0 + 2.0 * a_new * diff
    sup[0] = -2.0 * a_new * diff
    rhs[0] = C[0] + a_old * 2.0 * diff * (C[1] - C[0]) + dt * H[0]

    # exact Dirichlet row
    diag[N] = 1.0
    sub[N] = 0.0
    rhs[N] = float(psi_end)

    return TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)


def parabolic_step(
    C: np.ndarray,
    grid: Grid,
    Y_implicit: np.ndarray,
    v1: tuple[float, float],
    R_implicit: float,
    kin: KineticsModel,
    D: np.ndarray,
    psi_end: np.ndarray,
    dt: float,
    theta_scheme: float = 0.5,
    C_implicit: np.ndarray | None = None,
    H_override: np.ndarray | None = None,
) -> np.ndarray:
    """Advance all substrate profiles (shape ``(m, N+1)``) by one step.

    Sources are lagged: ``H_j = R_implicit**2 * h_j(Y_implicit, C_implicit)``
    with the current outer-iteration iterate (``C_implicit`` defaults to the
    step-start profiles), so each substrate reduces to one tridiagonal solve.
    ``H_override``, when given, bypasses the kinetics evaluation entirely
    (used by manufactured-solution drivers).
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C_implicit is None:
        C_implicit = C
    C_implicit = np.atleast_2d(np.asarray(C_implicit, dtype=float))
    if H_override is not None:
        H = np.atleast_2d(np.asarray(H_override, dtype=float))
    else:
        H = R_implicit**2 * np.asarray(kin.h(np.atleast_2d(Y_implicit), C_implicit), dtype=float)
    psi_end = np.atleast_1d(np.asarray(psi_end, dtype=float))
    D = np.atleast_1d(np.asarray(D, dtype=float))

    C_new = np.empty_like(C)
    for j in range(C.shape[0]):
        system = assemble_step(C[j], grid, v1, H[j], float(D[j]), float(psi_end[j]),
                               dt, theta_scheme)
        C_new[j] = solve_tridiagonal(system)
    return C_new
