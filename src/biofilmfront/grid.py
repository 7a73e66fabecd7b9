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

from .errors import ValidationError

try:  # the compiled routine behind np.interp, without its Python wrapper
    from numpy._core.multiarray import interp as _interp
except ImportError:  # numpy < 2
    from numpy.core.multiarray import interp as _interp

#: cells of a run that names none (``SolverConfig.N``), and of the grid
#: ``validate_problem`` checks on when it is given none
DEFAULT_N = 100


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform mesh of ``N`` cells (``N + 1`` nodes) on [0, 1].

    Attributes
    ----------
    N : int
        Cell count, an integer of at least 4 (a numpy integer is taken as
        ``int``) whose nodes fit in memory; else ``ValidationError``
        ``SCHEMA_VIOLATION``, ``TOO_COARSE`` or ``TOO_FINE``.
    nodes : numpy.ndarray
        Node coordinates ``0 = z_0 < ... < z_N = 1`` (read-only).
    dz : float
        Cell width ``1 / N``.
    """

    N: int

    def __post_init__(self):
        N = require_int("N", self.N)
        if N < 4:
            raise ValidationError(f"grid needs at least 4 cells, got N={N}", code="TOO_COARSE")
        try:
            if N >= np.iinfo(np.intp).max // 8:  # numpy could not size the nodes in bytes
                raise MemoryError
            nodes = np.linspace(0.0, 1.0, N + 1)
        except MemoryError:
            raise ValidationError(f"grid of N={N} cells needs {8.0 * (N + 1):.3g} bytes for its "
                                  "nodes, more than an array or memory holds; reduce N",
                                  code="TOO_FINE") from None
        nodes.setflags(write=False)
        vars(self).update(N=N, nodes=nodes, dz=1.0 / N)


def require_int(name: str, value) -> int:
    """``value`` as an ``int``, a numpy integer included; anything else, a
    ``bool`` too, raises ``ValidationError`` ``SCHEMA_VIOLATION``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}", code="SCHEMA_VIOLATION")
    return int(value)


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
    """Each row of 2-D float ``rows`` at points ``z`` in [0, 1], as ``np.interp``."""
    return np.array([_interp(z, nodes, row, None, None) for row in rows])
