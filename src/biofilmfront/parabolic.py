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
guard and one ``gtsv`` solve per substrate.  The bands are built from
constants fixed for a run (:func:`implicit_constants`), so a velocity
writes the off-diagonals in one operation per band.  The explicit half is
the 3-point stencil (:func:`explicit_part`) on a run's first step and on a
direct step; within a run it comes from the last solve of the step before
(:func:`carried_explicit_part`), and so sits at that sweep's iterate
velocity, within the Picard tolerance of the step-start one.  Full-length
arrays have ``N + 1`` entries, one per node; ``w`` holds weights of the
interior nodes 1..N-1 only; the off-diagonal bands have
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


def implicit_constants(grid: Grid, D, a_new: float) -> tuple[np.ndarray, list[float]]:
    """The velocity-free factors of the implicit operator's bands, fixed for a
    run: ``w = a_new z / (2 dz)`` at the interior nodes and, for each
    diffusivity ``D_j``, ``b_j = -a_new D_j / dz^2``, with ``a_new = dt theta``.
    The interior off-diagonals at velocity ``v1`` are ``b_j + v1 w`` (below)
    and ``b_j - v1 w`` (above), and the diagonal is ``1 - 2 b_j``."""
    w = grid.nodes[1:grid.N] * (a_new / (2.0 * grid.dz))
    return w, [-(a_new * (float(d) / grid.dz**2)) for d in D]


def peclet_unstable(v1: float, w_last: float, b: float) -> bool:
    """Mesh Peclet guard at velocity ``v1``, from the last interior entry
    ``w_last = w[-1]`` of :func:`implicit_constants` and the ``b`` of the
    smallest diffusivity, which binds.

    True when the advective term breaks the operator's sign pattern: the
    mesh Peclet number ``|v1| * dz / (2 D)`` exceeds 1, an interior
    off-diagonal ``b +- v1 w`` turns positive, and the implicit matrix is
    no M-matrix (strictly diagonally dominant, inverse >= 0), which voids
    the discrete maximum principle.  Rounding is monotone and its sign is
    exact, so the test is exactly that of the off-diagonals the sweep
    writes, and ``w`` grows with ``z``, so the last interior node binds.
    The number does not depend on ``dt``: the explicit operator, at
    ``dt (1 - theta)``, is guarded by the same test at its own velocity.
    """
    return abs(v1) * w_last > -b


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


def implicit_bands(N: int, b: float):
    """Bands ``(dl, d, du)`` of the implicit operator, with the entries no
    velocity changes: the diagonal ``1 - 2 b`` but the Dirichlet row's 1,
    ``dl[-1] = 0`` and the no-flux row's ghost-node ``du[0] = 2 b``
    (advection vanishes at ``z = 0``), for a ``b`` of :func:`implicit_constants`."""
    d = np.ones(N + 1)
    d[:N] = 1.0 - 2.0 * b
    dl, du = np.zeros(N), np.zeros(N)
    du[0] = 2.0 * b
    return dl, d, du


def implicit_off_diagonals(vw: np.ndarray, b: float, dl: np.ndarray, du: np.ndarray) -> None:
    """Write the interior off-diagonals at a velocity ``v1``, ``b + v1 w``
    below and ``b - v1 w`` above, into the bands ``dl``, ``du`` of
    :func:`implicit_bands`, given ``vw = v1 * w`` (shared by the substrates)."""
    np.add(b, vw, out=dl[:-1])
    np.subtract(b, vw, out=du[1:])


def explicit_part(C: np.ndarray, grid: Grid, v1: float, D: float, a_old: float) -> np.ndarray:
    """Explicit half of the theta-scheme, ``(I + dt (1-theta) L_old) C`` with
    ``L_old`` at velocity ``v1`` and diffusivity ``D``, in rows 0..N-1 (the
    Dirichlet row's entry is 0), by its 3-point stencil: the centered
    advection weights ``z v1 / (2 dz)`` and ``diff = D / dz^2``."""
    N, dz = grid.N, grid.dz
    adv_old, diff = grid.nodes[1:N] * v1 / (2.0 * dz), D / dz**2
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


def carried_explicit_part(C: np.ndarray, rhs: np.ndarray, ratio: float) -> np.ndarray:
    """Explicit half ``(I + dt (1-theta) L) C`` of the next step, from the
    solve that gave ``C``: ``(I - dt theta L) C = rhs`` gives
    ``dt theta L C = C - rhs``, so the half is ``C + ratio (C - rhs)`` with
    ``ratio = (1 - theta) / theta``, on every row of ``C`` and ``rhs`` at
    once (the Dirichlet row's entry is ``C``'s own, which :func:`step_rhs`
    replaces).  ``L`` is the operator that solve assembled, at its velocity.

    Forward error against :func:`explicit_part` at that velocity, in row
    ``i < N`` of one substrate, with ``u`` the unit roundoff, ``A`` the
    matrix the solve took and ``s = max_j (|A| |C|)_j``:

    - the solve is backward stable, so ``|rhs - A C|_i <= c1 u s``: about
      ``12 u`` componentwise where ``gtsv`` does not pivot (the matrix is
      diagonally dominant), and normwise, with growth at most 2, where it does;
    - ``dt theta L = I - A``, and each entry of ``A`` rounds ``b +- v1 w``
      (a few ``u`` relative) where the stencil rounds its own, so
      ``ratio (I - A)`` and ``dt (1-theta) L`` differ by ``c2 u ratio |A|``
      entrywise (``dt (1-theta) |L| <= ratio |A|``);
    - the stencil's sums and this function's three operations round by
      ``c3 u (|C_i| + |rhs_i| + ratio (|A| |C|)_i)``.

    So the two halves agree to ``k u (|C_i| + |rhs_i| + ratio s)``, where
    the constants add to about ``k = 20``, and bit for bit at ``theta = 1``
    (``ratio = 0``).
    """
    return C + ratio * (C - rhs)


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
