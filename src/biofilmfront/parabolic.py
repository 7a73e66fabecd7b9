"""Implicit theta-scheme for the substrate advection-diffusion equations.

Each substrate satisfies ``dC/dt - z * v1(t) * dC/dz - D * d2C/dz2 = H`` with
a no-flux condition at ``z = 0`` and a Dirichlet value ``psi(t)`` at ``z = 1``.
One step solves

``(I - dt*theta*L_new) C_new = (I + dt*(1-theta)*L_old) C_old + dt*H``

with ``L`` the centered advection-diffusion operator (advection coefficient
evaluated at the matching time endpoint).  The no-flux condition enters
through a ghost node (``C_{-1} = C_1``, second order); the Dirichlet row is
kept exact (``diag = 1``, ``rhs = psi_end``).

The functions here are the step's array kernels.  The coupled step
(:func:`biofilmfront.coupler.picard_step`) composes them: the bands of the
implicit matrix, the explicit half and the right-hand side, the mesh-Peclet
guard and one ``gtsv`` solve per substrate.  Full-length arrays have
``N + 1`` entries, one per node; ``adv`` arrays hold the centered advection
weights of the interior nodes 1..N-1 only; the off-diagonal bands have
``N`` entries, as ``gtsv`` takes them.

The solve is LAPACK's ``dgtsv`` from scipy's compiled f2py wrapper module
``scipy/linalg/_flapack``, loaded by :func:`_load_dgtsv` from its file.
Only that extension is loaded, not ``scipy.linalg``: the package's
``__init__`` also imports scipy's array-API layer, which pulls in
``numpy.f2py`` and about 280 further modules, and costs about two thirds
of the package's import time, for a solver that calls one routine.
Nor is scipy's own ``__init__`` run, except on Windows (see
:func:`_load_dgtsv`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .errors import AssemblyError, SolverError
from .grid import Grid


def _load_dgtsv():
    """LAPACK ``dgtsv`` from scipy's ``_flapack`` extension, the routine
    ``scipy.linalg.lapack.dgtsv`` is, loaded from its file without importing
    ``scipy`` or ``scipy.linalg``: ``find_spec`` locates scipy without
    running its ``__init__``, and Linux and macOS wheels resolve the
    extension's OpenBLAS by RPATH.  On Windows scipy is imported, since its
    ``__init__`` adds the wheel's DLL directory.

    The interpreter enters an f2py module in ``sys.modules`` when it creates
    it.  That entry is removed unless it was there before: left behind, a
    later ``import scipy.linalg`` would take it as found and never bind it
    as the package's ``_flapack`` attribute.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    if os.name == "nt":
        import scipy  # noqa: F401  (adds the wheel's DLL directory)
    directory = os.path.join(spec.submodule_search_locations[0], "linalg")
    path = os.path.join(directory, "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        import scipy
        raise ImportError(f"scipy {scipy.__version__} has no compiled LAPACK wrapper "
                          f"{os.path.basename(path)} in {directory}")
    name = "scipy.linalg._flapack"
    registered = name in sys.modules
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = loader.create_module(importlib.machinery.ModuleSpec(name, loader, origin=path))
    loader.exec_module(module)
    if not registered:
        del sys.modules[name]
    return module.dgtsv


dgtsv = _load_dgtsv()


def advection_weights(interior: np.ndarray, v1: float, dz: float) -> np.ndarray:
    """Centered advection weights ``z * v1 / (2 dz)`` at ``interior = nodes[1:N]``."""
    return interior * v1 / (2.0 * dz)


def peclet_unstable(adv: np.ndarray, diff: float) -> bool:
    """Mesh Peclet guard of the operator with advection weights ``adv`` and
    diffusion weight ``diff = D / dz^2``.

    True when the advective term breaks the operator's sign pattern: the
    mesh Peclet number ``|v1| * dz / (2 D)`` exceeds 1, an interior
    off-diagonal turns positive, and the implicit matrix is no M-matrix
    (strictly diagonally dominant, inverse >= 0), which voids the discrete
    maximum principle.  ``|adv|`` grows with ``z`` and rounding is monotone,
    so the last interior node holds the largest ``|adv|``.
    """
    return abs(adv[-1]) > diff


def peclet_error(v1_new: float, v1_old: float, D: float, theta_scheme: float,
                 grid: Grid) -> AssemblyError:
    """The ``AssemblyError`` (code ``UNSTABLE_ASSEMBLY``) for a step from
    ``v1_old`` to ``v1_new`` that fails :func:`peclet_unstable`.

    The explicit operator sits at ``v1_old`` and only matters for
    ``theta_scheme < 1``.  With several substrates ``D`` is the smallest
    diffusivity, which binds.  The message names the fix: the smallest ``N``
    above ``|v1| / (2 D)``, or a larger ``D``, alone where that ratio overflows.
    """
    # the mesh Peclet number |v1| dz / (2D) does not depend on dt
    v = max(abs(v1_new), abs(v1_old) if theta_scheme < 1.0 else 0.0)
    ratio = v / (2.0 * D)
    fix = f"refine the grid to N >= {math.floor(ratio) + 1} or " if ratio < math.inf else ""
    return AssemblyError(
        f"advection too strong for centered differencing at N={grid.N} "
        f"(mesh Peclet {v * grid.dz / (2.0 * D):.3g} > 1); {fix}increase D",
        code="UNSTABLE_ASSEMBLY",
    )


def implicit_bands(N: int, diff: float, a_new: float):
    """Bands ``(dl, d, du)`` of the implicit operator, with the entries no
    velocity changes: the diagonal ``1 + 2 dt theta D / dz^2`` but the
    Dirichlet row's 1, ``dl[-1] = 0`` and the no-flux row's ghost-node
    ``du[0]`` (advection vanishes at ``z = 0``)."""
    d = np.ones(N + 1)
    d[:N] = 1.0 + 2.0 * a_new * diff
    dl, du = np.zeros(N), np.zeros(N)
    du[0] = -2.0 * a_new * diff
    return dl, d, du


def implicit_off_diagonals(adv: np.ndarray, diff: float, a_new: float, dl: np.ndarray,
                           du: np.ndarray) -> None:
    """Write the off-diagonal entries that follow the advection weights
    ``adv`` into the bands ``dl``, ``du`` of :func:`implicit_bands`."""
    np.multiply(-a_new, diff - adv, out=dl[:-1])
    np.multiply(-a_new, diff + adv, out=du[1:])


def explicit_part(C: np.ndarray, adv_old: np.ndarray, diff: float, a_old: float) -> np.ndarray:
    """Explicit half of the theta-scheme, ``(I + dt (1-theta) L_old) C``, in
    rows 0..N-1 (the Dirichlet row's entry is 0)."""
    N = len(C) - 1
    out = np.empty(N + 1)
    out[1:N] = (
        C[1:N]
        + a_old * ((diff - adv_old) * C[0:N - 1]
                   - 2.0 * diff * C[1:N]
                   + (diff + adv_old) * C[2:N + 1])
    )
    c0, c1 = C[:2].tolist()
    out[0], out[N] = c0 + a_old * 2.0 * diff * (c1 - c0), 0.0
    return out


def step_rhs(explicit: np.ndarray, H: np.ndarray, dt: float, psi_end) -> np.ndarray:
    """Right-hand side(s): the explicit part plus ``dt * H``, with the
    Dirichlet value in the last entry of each row."""
    rhs = explicit + dt * H
    rhs[..., -1] = psi_end
    return rhs


def gtsv_solve(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and super-diagonal ``dl``,
    ``d``, ``du`` (``dl`` and ``du`` have one entry fewer than ``d``) by
    LAPACK ``gtsv``: elimination with partial pivoting.

    ``gtsv`` swaps rows only where a running pivot is smaller than the next
    subdiagonal entry; where it swaps none its arithmetic is that of Thomas
    elimination, bit for bit.  On the theta-scheme's matrices that holds
    unless a stiff step (large ``dt D / dz^2``) meets a receding surface
    (``v1 < 0``).  Raises ``SolverError`` ``ZERO_PIVOT`` when the
    matrix is singular (an exactly zero pivot) and ``NONFINITE`` when the
    solution is not finite.
    """
    *_, x, info = dgtsv(dl, d, du, b)
    if info > 0:
        raise SolverError(f"zero pivot in row {info - 1}", code="ZERO_PIVOT")
    if not np.logical_and.reduce(np.isfinite(x)):
        raise SolverError("non-finite solution from elimination", code="NONFINITE")
    return x
