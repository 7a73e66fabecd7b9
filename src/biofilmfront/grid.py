"""Uniform grid on the unit interval and nodal profile primitives.

All field quantities live on the fixed computational domain [0, 1] sampled at
``N + 1`` equispaced nodes.  Multi-component fields are stored as 2D arrays of
shape ``(k, N + 1)`` with one row per component; single fields are wrapped in
:class:`Profile` for the public quadrature/interpolation helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError

#: interpolation queries may overshoot [0, 1] by at most this much
DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
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
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    dz: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 4:
            raise GridError(
                f"grid needs at least 4 cells, got N={self.N}", code="TOO_COARSE"
            )
        nodes = np.linspace(0.0, 1.0, self.N + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "dz", 1.0 / self.N)


def build_grid(N: int) -> Grid:
    """Construct a uniform grid with ``N`` cells.

    Raises
    ------
    GridError
        Code ``TOO_COARSE`` when ``N < 4``.
    """
    return Grid(int(N))


@dataclass(frozen=True)
class Profile:
    """A scalar field sampled at the nodes of a :class:`Grid`.

    Values are copied and frozen at construction; all entries must be finite.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.N + 1,):
            raise GridError(
                f"profile needs {self.grid.N + 1} nodal values, got shape {vals.shape}",
                code="SHAPE_MISMATCH",
            )
        if not np.all(np.isfinite(vals)):
            raise GridError("profile contains non-finite values", code="NONFINITE")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "Profile":
        """Sample ``fn(z)`` (vectorized over a node array) onto ``grid``."""
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float))


def cumtrapz(p: Profile) -> Profile:
    """Running trapezoid integral ``z -> int_0^z p`` on the same grid.

    The first output node is exactly 0 and the last equals the trapezoid
    integral of ``p`` over [0, 1].  The arithmetic is that of
    ``scipy.integrate.cumulative_trapezoid(..., initial=0.0)``, bit for bit.
    """
    return Profile(p.grid, cumtrapz_dz(p.values, p.grid.dz))


def interp_linear(p: Profile, z: float) -> float:
    """Piecewise-linear interpolation of ``p`` at a single point.

    Queries within ``DOMAIN_SLACK`` outside [0, 1] are clamped onto the
    domain; anything farther out raises ``OUT_OF_DOMAIN``.  Node coordinates
    reproduce nodal values exactly.
    """
    z = float(z)
    if z < -DOMAIN_SLACK or z > 1.0 + DOMAIN_SLACK:
        raise GridError(f"query z={z!r} outside [0, 1]", code="OUT_OF_DOMAIN")
    z = min(max(z, 0.0), 1.0)
    return float(np.interp(z, p.grid.nodes, p.values))


# -- array-level helpers shared by the solvers (module-internal) --------------


def trapz_dz(values: np.ndarray, dz: float) -> float:
    """Trapezoid integral of nodal values with uniform spacing ``dz``."""
    v = np.asarray(values, dtype=float)
    return float(dz * (v.sum() - 0.5 * (v[0] + v[-1])))


def cumtrapz_dz(values: np.ndarray, dz: float) -> np.ndarray:
    """Running trapezoid integral of nodal values with uniform spacing ``dz``
    (the arithmetic of :func:`cumtrapz`, on a raw array)."""
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(dz * (values[1:] + values[:-1]) / 2.0, out=out[1:])
    return out


def interp_rows(rows: np.ndarray, z: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Interpolate each row of ``rows`` at query points ``z`` (assumed in [0,1])."""
    rows = np.atleast_2d(rows)
    out = np.empty((rows.shape[0], len(z)))
    for i in range(rows.shape[0]):
        out[i] = np.interp(z, nodes, rows[i])
    return out
