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
    return gtsv_solve(system.sub[1:], system.diag, system.sup[:-1], system.rhs)


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

    diff = D / dz**2
    adv_new = advection_weights(grid, v1_new)
    adv_old = advection_weights(grid, v1_old)
    # The explicit operator only matters for theta < 1.
    if peclet_unstable(adv_new, diff) or (theta_scheme < 1.0 and peclet_unstable(adv_old, diff)):
        raise peclet_error(v1_new, v1_old, D, theta_scheme, grid)

    a_new = dt * theta_scheme
    sub, sup = implicit_off_diagonals(adv_new, diff, a_new)
    explicit = explicit_part(C, adv_old, diff, dt * (1.0 - theta_scheme))
    rhs = step_rhs(explicit, H, dt, float(psi_end))
    return TridiagonalSystem(sub=sub, diag=implicit_diagonal(N, diff, a_new), sup=sup, rhs=rhs)


def parabolic_step(
    C: np.ndarray,
    grid: Grid,
    v1: tuple[float, float],
    H: np.ndarray,
    D: np.ndarray,
    psi_end: np.ndarray,
    dt: float,
    theta_scheme: float = 0.5,
) -> np.ndarray:
    """Advance all substrate profiles (shape ``(m, N+1)``) by one step.

    ``H`` holds the thickness-scaled sources, one row per substrate, already
    collocated in time by the caller; each substrate is one
    :func:`assemble_step` and one :func:`solve_tridiagonal`.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    psi_end = np.atleast_1d(np.asarray(psi_end, dtype=float))
    D = np.atleast_1d(np.asarray(D, dtype=float))

    C_new = np.empty_like(C)
    for j in range(C.shape[0]):
        system = assemble_step(C[j], grid, v1, H[j], float(D[j]), float(psi_end[j]),
                               dt, theta_scheme)
        C_new[j] = solve_tridiagonal(system)
    return C_new


# -- array kernels, shared with the coupled step (package-internal) ----------
#
# Full-length arrays have N + 1 entries, one per node; ``adv`` arrays hold
# the centered advection weights of the interior nodes 1..N-1 only.


def advection_weights(grid: Grid, v1: float) -> np.ndarray:
    """Centered advection weights ``z * v1 / (2 dz)`` at the interior nodes."""
    return grid.nodes[1:grid.N] * v1 / (2.0 * grid.dz)


def peclet_unstable(adv: np.ndarray, diff: float) -> bool:
    """Mesh Peclet guard: an interior off-diagonal of the operator would turn
    positive, so the implicit matrix is no M-matrix (strictly diagonally
    dominant, inverse >= 0).  ``|adv|`` grows with ``z`` and rounding is
    monotone, so the last interior node holds the largest ``|adv|``."""
    return abs(adv[-1]) > diff


def peclet_error(v1_new: float, v1_old: float, D: float, theta_scheme: float,
                 grid: Grid) -> AssemblyError:
    """The ``UNSTABLE_ASSEMBLY`` error of :func:`assemble_step`."""
    # the mesh Peclet number |v1| dz / (2D) does not depend on dt
    v = max(abs(v1_new), abs(v1_old) if theta_scheme < 1.0 else 0.0)
    n_min = math.floor(v / (2.0 * D)) + 1
    return AssemblyError(
        f"advection too strong for centered differencing at N={grid.N} "
        f"(mesh Peclet {v * grid.dz / (2.0 * D):.3g} > 1); refine the grid to "
        f"N >= {n_min} or increase D",
        code="UNSTABLE_ASSEMBLY",
    )


def implicit_diagonal(N: int, diff: float, a_new: float) -> np.ndarray:
    """Main diagonal: ``1 + 2 dt theta D / dz^2`` except the Dirichlet row's 1."""
    diag = np.ones(N + 1)
    diag[:N] = 1.0 + 2.0 * a_new * diff
    return diag


def implicit_off_diagonals(adv: np.ndarray, diff: float, a_new: float):
    """Full-length ``(sub, sup)`` bands of the implicit operator.

    The no-flux row uses the ghost node ``C_{-1} = C_1`` (advection vanishes
    at ``z = 0``); the exact Dirichlet row has no off-diagonal entries.
    """
    N = len(adv) + 1
    sub = np.zeros(N + 1)
    sup = np.zeros(N + 1)
    sub[1:N] = -a_new * (diff - adv)
    sup[1:N] = -a_new * (diff + adv)
    sup[0] = -2.0 * a_new * diff
    return sub, sup


def explicit_part(C: np.ndarray, adv_old: np.ndarray, diff: float, a_old: float) -> np.ndarray:
    """Explicit half of the theta-scheme, ``(I + dt (1-theta) L_old) C``, in
    rows 0..N-1 (the Dirichlet row's entry is left 0)."""
    N = len(C) - 1
    out = np.zeros(N + 1)
    out[1:N] = (
        C[1:N]
        + a_old * ((diff - adv_old) * C[0:N - 1]
                   - 2.0 * diff * C[1:N]
                   + (diff + adv_old) * C[2:N + 1])
    )
    out[0] = C[0] + a_old * 2.0 * diff * (C[1] - C[0])
    return out


def step_rhs(explicit: np.ndarray, H: np.ndarray, dt: float, psi_end) -> np.ndarray:
    """Right-hand side(s): the explicit part plus ``dt * H``, with the
    Dirichlet value in the last entry of each row."""
    rhs = explicit + dt * H
    rhs[..., -1] = psi_end
    return rhs


def gtsv_solve(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``gtsv`` on the bands of a tridiagonal system (``dl`` and ``du`` have
    one entry fewer than ``d``), with the checks of :func:`solve_tridiagonal`."""
    *_, x, info = dgtsv(dl, d, du, b)
    if info > 0:
        raise LinearSolveError(f"zero pivot in row {info - 1}", code="ZERO_PIVOT")
    if not np.isfinite(x).all():
        raise LinearSolveError("non-finite solution from elimination", code="NONFINITE")
    return x
