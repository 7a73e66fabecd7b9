"""Uniform grid on the unit interval and the array kernels on its nodal
profiles.

All field quantities live on the fixed computational domain [0, 1] sampled at
``N + 1`` equispaced nodes.  Multi-component fields are stored as 2D arrays of
shape ``(k, N + 1)`` with one row per component.  The trapezoid quadratures
and the row interpolation below work on such raw arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform mesh of ``N`` cells (``N + 1`` nodes) on [0, 1].

    Attributes
    ----------
    N : int
        Cell count, at least 4.
    nodes : numpy.ndarray
        Node coordinates ``0 = z_0 < ... < z_N = 1`` (read-only).
    dz : float
        Cell width ``1 / N``.
    """

    N: int

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 4:
            raise GridError(f"grid needs at least 4 cells, got N={self.N}", code="TOO_COARSE")
        nodes = np.linspace(0.0, 1.0, self.N + 1)
        nodes.setflags(write=False)
        vars(self).update(nodes=nodes, dz=1.0 / self.N)


def build_grid(N: int) -> Grid:
    """Construct a uniform grid with ``N`` cells.

    Raises
    ------
    GridError
        Code ``TOO_COARSE`` when ``N < 4``.
    """
    return Grid(int(N))


def cumtrapz_dz(values: np.ndarray, dz: float) -> np.ndarray:
    """Running trapezoid integral ``z -> int_0^z`` of nodal values with uniform
    spacing ``dz``.

    The first entry is exactly 0 and the last equals the trapezoid integral
    over [0, 1].  The arithmetic is that of
    ``scipy.integrate.cumulative_trapezoid(..., initial=0.0)``, bit for bit.
    """
    out = np.empty(len(values))
    out[0] = 0.0
    tail = np.add(values[1:], values[:-1], out=out[1:])
    tail *= dz
    tail /= 2.0
    np.add.accumulate(tail, out=tail)
    return out


def interp_rows(rows: np.ndarray, z: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Interpolate each row of 2-D ``rows`` at query points ``z`` (in [0, 1])."""
    out = np.empty((rows.shape[0], len(z)))
    for i in range(rows.shape[0]):
        out[i] = np.interp(z, nodes, rows[i])
    return out
