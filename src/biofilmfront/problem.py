"""Problem data (initial/boundary data, diffusivities, detachment) + validation.

A :class:`ProblemData` collects everything about a run that is not kinetics or
solver settings.  Spatial data are stored as vectorized callables of the
computational coordinate ``z`` so a single problem can be sampled onto any
grid; Dirichlet data are callables of time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grid import DEFAULT_N, Grid, cumtrapz_dz
from .kinetics import KineticsModel

#: tolerance for the Dirichlet/initial-data compatibility check theta(1) == psi(0)
COMPAT_TOL = 1e-12
#: step of the one-sided differences for theta'(1) and theta''(1) in the
#: SECOND_ORDER_COMPAT check, fixed whatever the grid, as its ``dt_fd`` is for
#: psi'(0): on a coarse grid's nodes their own error would trip the check
COMPAT_DZ = 1.0 / 200


@dataclass(frozen=True, eq=False, repr=False)
class ProblemData:
    """Data defining one free-boundary run.

    Attributes
    ----------
    phi : sequence of callables
        Initial biomass profiles, one ``z -> values`` callable per species.
    theta : sequence of callables
        Initial substrate profiles, one per substrate.
    psi : sequence of callables
        Dirichlet substrate values at the film surface ``z = 1``, callables
        of time.
    D : numpy.ndarray, shape (m,)
        Substrate diffusivities.
    lam : float
        Detachment rate coefficient.
    R0 : float
        Initial film thickness.
    """

    phi: Sequence[Callable[[np.ndarray], np.ndarray]]
    theta: Sequence[Callable[[np.ndarray], np.ndarray]]
    psi: Sequence[Callable[[float], float]]
    D: np.ndarray
    lam: float
    R0: float

    def __post_init__(self):
        D = np.atleast_1d(np.asarray(self.D, dtype=float)).copy()
        D.setflags(write=False)
        vars(self).update(phi=tuple(self.phi), theta=tuple(self.theta), psi=tuple(self.psi),
                          D=D, lam=float(self.lam), R0=float(self.R0))

    @property
    def n(self) -> int:
        return len(self.phi)

    @property
    def m(self) -> int:
        return len(self.theta)

    def psi_at(self, t: float) -> np.ndarray:
        """Dirichlet values of all substrates at time ``t`` as an (m,) array."""
        return np.array([float(p(t)) for p in self.psi])


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_problem`.

    ``violations`` are fatal ``(code, message)`` pairs; ``warnings`` flag
    conditions a run survives but a user should know about.  Two reports
    compare by these two lists.  An ok report also holds what the checks
    computed on the grid of ``K`` nodes they ran on, from which a run starts:
    the initial data ``Y0`` ``(n, K)`` and ``C0`` ``(m, K)``, the t = 0
    velocity ``v0`` ``(K,)`` and the rates ``f0`` ``(n, K)`` and ``h0``
    ``(m, K)`` at the initial data; ``None`` while it is not ok.
    """

    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    Y0: np.ndarray | None = field(default=None, compare=False, repr=False)
    C0: np.ndarray | None = field(default=None, compare=False, repr=False)
    v0: np.ndarray | None = field(default=None, compare=False, repr=False)
    f0: np.ndarray | None = field(default=None, compare=False, repr=False)
    h0: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set:
        return {code for code, _ in self.violations}

    def warning_codes(self) -> set:
        return {code for code, _ in self.warnings}


def validate_problem(data: ProblemData, kin: KineticsModel,
                     grid: Grid | None = None) -> ValidationReport:
    """Check problem data against the model for shape, sign, finiteness and
    boundary/initial-data compatibility on ``grid``, the run's grid (by
    default a default run's, of :data:`~biofilmfront.grid.DEFAULT_N` cells).
    The initial data are sampled there once, and the rates evaluated there
    once (``f`` and ``g`` in one :meth:`KineticsModel.fg` call); an ok
    report holds them and the t = 0 velocity, from which a run starts.

    Violations (fatal): ``DIMENSION_MISMATCH`` (counts that disagree with
    the kinetics; ``D`` or ``psi`` without one entry per substrate; ``f``,
    ``h`` or ``g`` at the initial data not of shape ``(n, K)``, ``(m, K)``
    or ``(K,)``), ``NONPOSITIVE_D``, ``NONPOSITIVE_LAMBDA``, ``NONPOSITIVE_R0``,
    ``NONFINITE_INPUT`` (a coefficient, ``psi_j(0)`` or the square of ``R0``
    that is not finite; a profile or rate at the initial data, naming it
    and its first such node of the grid; the velocity
    ``v1(0) = R0^2 int_0^1 g`` on the grid, naming ``R0`` and ``N``),
    ``COMPAT_MISMATCH`` (``theta_j(1) != psi_j(0)`` beyond ``COMPAT_TOL``).

    Warnings: ``NEGATIVE_INITIAL_DATA`` when the model is quasi-positive but
    the data start negative; ``SECOND_ORDER_COMPAT`` when the substrate data
    fail the higher-order matching condition
    ``D_j theta_j'' (1) + v1(0) theta_j'(1) + R0^2 h_j(1) = psi_j'(0)``
    (checked by finite differences of step :data:`COMPAT_DZ`, so only gross
    mismatches are flagged).
    """
    rep = ValidationReport()
    if data.n != kin.n or data.m != kin.m:
        rep.violations.append((
            "DIMENSION_MISMATCH",
            f"data has (n={data.n}, m={data.m}) but kinetics expects "
            f"(n={kin.n}, m={kin.m})",
        ))
        return rep
    if data.D.shape != (data.m,):
        rep.violations.append((
            "DIMENSION_MISMATCH",
            f"D must have shape ({data.m},), got {data.D.shape}",
        ))
    if len(data.psi) != data.m:
        rep.violations.append((
            "DIMENSION_MISMATCH",
            f"psi has {len(data.psi)} entries, expected {data.m} (one per substrate, as theta)",
        ))
    if not rep.ok:
        return rep

    if not np.all(np.isfinite(data.D)):
        rep.violations.append(("NONFINITE_INPUT", "non-finite diffusivity"))
    elif np.any(data.D <= 0.0):
        rep.violations.append(("NONPOSITIVE_D", f"diffusivities must be > 0, got {data.D}"))
    if not np.isfinite(data.lam):
        rep.violations.append(("NONFINITE_INPUT", "non-finite detachment rate"))
    elif data.lam <= 0.0:
        rep.violations.append(("NONPOSITIVE_LAMBDA", f"detachment rate must be > 0, got {data.lam}"))
    if not np.isfinite(data.R0):
        rep.violations.append(("NONFINITE_INPUT", "non-finite initial thickness"))
    elif not np.isfinite(data.R0 * data.R0):  # the solver squares it
        rep.violations.append(("NONFINITE_INPUT", f"R0={data.R0:g} has no finite square"))
    elif data.R0 <= 0.0:
        rep.violations.append(("NONPOSITIVE_R0", f"initial thickness must be > 0, got {data.R0}"))

    grid = Grid(DEFAULT_N) if grid is None else grid
    nodes, K = grid.nodes, grid.N + 1
    Y0 = _sample(data.phi, nodes)
    # theta also at z = 1 - 3 COMPAT_DZ, ..., 1 for SECOND_ORDER_COMPAT, in the same call
    C = _sample(data.theta, np.concatenate((nodes, 1.0 - COMPAT_DZ * np.arange(3.0, -1.0, -1.0))))
    C0, C_fd = C[:, :K].copy(), C[:, K:]
    psi0 = data.psi_at(0.0)
    bad = (nonfinite_at("initial data phi[{}]", Y0, nodes)
           or nonfinite_at("initial data theta[{}]", C0, nodes)
           or next((f"surface value psi[{j}] is not finite at t=0"
                    for j, value in enumerate(psi0.tolist()) if not np.isfinite(value)), None))
    if bad:
        rep.violations.append(("NONFINITE_INPUT", bad))
        return rep

    # Dirichlet data must match the initial substrate trace at z = 1.
    mismatch = np.abs(C0[:, -1] - psi0)
    if np.any(mismatch > COMPAT_TOL):
        j = int(np.argmax(mismatch))
        rep.violations.append((
            "COMPAT_MISMATCH",
            f"theta_{j}(1)={C0[j, -1]!r} differs from psi_{j}(0)={psi0[j]!r} "
            f"by {mismatch[j]:.3e} (> {COMPAT_TOL:g})",
        ))

    if kin.quasi_positive and (np.any(Y0 < 0.0) or np.any(C0 < 0.0)):
        rep.warnings.append((
            "NEGATIVE_INITIAL_DATA",
            "model preserves nonnegativity but initial data start negative",
        ))

    if not rep.ok:
        return rep
    # the solver works on the rate arrays as returned, so their shapes are
    # checked here, once
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # named below
        f0, g0 = kin.fg(Y0, C0)
        h0 = np.asarray(kin.h(Y0, C0), dtype=float)
    for name, label, rate, shape in (("f", "f[{}]", f0, (kin.n, K)), ("h", "h[{}]", h0, (kin.m, K)),
                                     ("g", "g", g0, (K,))):
        if rate.shape != shape:
            rep.violations.append((
                "DIMENSION_MISMATCH",
                f"kinetics {name} returned shape {rate.shape}, expected {shape}",
            ))
        elif bad := nonfinite_at(f"kinetics {label} at the initial data", rate, nodes):
            rep.violations.append(("NONFINITE_INPUT", bad))
    if not rep.ok:
        return rep
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        v0 = cumtrapz_dz(data.R0 ** 2 * g0, grid.dz)  # as a step computes the velocity
    if not np.isfinite(v0[-1]):
        rep.violations.append((
            "NONFINITE_INPUT",
            f"surface velocity v1(0) = R0^2 int_0^1 g is not finite at R0={data.R0:g} on the "
            f"run's grid of N={grid.N}; reduce R0 or g at the initial data",
        ))
        return rep
    # the second-order matching condition: theta_j's one-sided, second-order
    # curvature and slope at z = 1 of step COMPAT_DZ, and psi_j'(0) centred
    dz, dt_fd = COMPAT_DZ, 1e-6
    for j, c in enumerate(C_fd):
        d2 = (2.0 * c[-1] - 5.0 * c[-2] + 4.0 * c[-3] - c[-4]) / dz ** 2
        d1 = (3.0 * c[-1] - 4.0 * c[-2] + c[-3]) / (2.0 * dz)
        lhs = data.D[j] * d2 + v0[-1] * d1 + data.R0 ** 2 * h0[j, -1]
        psi_rate = (float(data.psi[j](dt_fd)) - float(data.psi[j](-dt_fd))) / (2.0 * dt_fd)
        if abs(lhs - psi_rate) > 1e-3 * max(1.0, abs(lhs), abs(psi_rate)):
            rep.warnings.append((
                "SECOND_ORDER_COMPAT",
                f"substrate {j}: boundary data rate psi'(0)={psi_rate:.6g} does not "
                f"match the interior balance {lhs:.6g} at t=0; expect a transient "
                "boundary layer",
            ))
    rep.Y0, rep.C0, rep.v0, rep.f0, rep.h0 = Y0, C0, v0, f0, h0
    return rep


def _sample(profiles, z: np.ndarray) -> np.ndarray:
    """Each callable of ``profiles`` at the points ``z``, one row each; a
    constant it returns fills its row."""
    return np.array([np.broadcast_to(np.asarray(p(z), dtype=float), z.shape) for p in profiles])


def nonfinite_at(what: str, rows: np.ndarray, nodes: np.ndarray) -> str | None:
    """The message naming ``what`` (the row index fills its ``{}``) and the
    first of ``nodes`` where ``rows`` is not finite; ``None`` if all are."""
    bad = np.argwhere(~np.isfinite(np.atleast_2d(rows)))
    if not bad.size:
        return None
    i, k = bad[0].tolist()
    return f"{what.format(i)} is not finite at node {k} (z={nodes[k]:.6g}) of N={len(nodes) - 1}"
