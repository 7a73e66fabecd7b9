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

from .grid import Grid, cumtrapz_dz
from .kinetics import KineticsModel

#: tolerance for the Dirichlet/initial-data compatibility check theta(1) == psi(0)
COMPAT_TOL = 1e-12
#: cells of the grid the initial data and rates are checked on
N_SAMPLE = 200


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

    def sample_initial(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sample (phi, theta) onto the given nodes as (n, K) and (m, K) arrays."""
        Y0 = np.array([np.broadcast_to(np.asarray(p(nodes), dtype=float), nodes.shape)
                       for p in self.phi])
        C0 = np.array([np.broadcast_to(np.asarray(t(nodes), dtype=float), nodes.shape)
                       for t in self.theta])
        return Y0, C0

    def psi_at(self, t: float) -> np.ndarray:
        """Dirichlet values of all substrates at time ``t`` as an (m,) array."""
        return np.array([float(p(t)) for p in self.psi])


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_problem`.

    ``violations`` are fatal ``(code, message)`` pairs; ``warnings`` flag
    conditions a run survives but a user should know about.
    """

    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set:
        return {code for code, _ in self.violations}

    def warning_codes(self) -> set:
        return {code for code, _ in self.warnings}


def validate_problem(data: ProblemData, kin: KineticsModel) -> ValidationReport:
    """Check problem data against the model for shape, sign, finiteness and
    boundary/initial-data compatibility.

    Violations (fatal): ``DIMENSION_MISMATCH`` (counts that disagree with
    the kinetics; ``D`` or ``psi`` without one entry per substrate; ``f``,
    ``h`` or ``g`` at the initial data not of shape ``(n, K)``, ``(m, K)``
    or ``(K,)``), ``NONPOSITIVE_D``, ``NONPOSITIVE_LAMBDA``, ``NONPOSITIVE_R0``,
    ``NONFINITE_INPUT`` (a coefficient, ``psi_j(0)``, ``v1(0)`` or the square
    of ``R0`` that is not finite, or a profile or rate at the initial data,
    naming it and its first such node), ``COMPAT_MISMATCH``
    (``theta_j(1) != psi_j(0)`` beyond ``COMPAT_TOL``).

    Warnings: ``NEGATIVE_INITIAL_DATA`` when the model is quasi-positive but
    the data start negative; ``SECOND_ORDER_COMPAT`` when the substrate data
    fail the higher-order matching condition
    ``D_j theta_j'' (1) + v1(0) theta_j'(1) + H_j(1) = psi_j'(0)``
    (checked by finite differences, so only gross mismatches are flagged).
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

    grid = Grid(N_SAMPLE)
    Y0, C0 = data.sample_initial(grid.nodes)
    psi0 = data.psi_at(0.0)
    bad = (nonfinite_at("initial data phi[{}]", Y0, grid.nodes)
           or nonfinite_at("initial data theta[{}]", C0, grid.nodes)
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
    K = len(grid.nodes)
    rates = {}
    for name, label, shape in (("f", "f[{}]", (kin.n, K)), ("h", "h[{}]", (kin.m, K)),
                               ("g", "g", (K,))):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # named below
            rates[name] = np.asarray(getattr(kin, name)(Y0, C0), dtype=float)
        if rates[name].shape != shape:
            rep.violations.append((
                "DIMENSION_MISMATCH",
                f"kinetics {name} returned shape {rates[name].shape}, expected {shape}",
            ))
        elif bad := nonfinite_at(f"kinetics {label} at the initial data", rates[name],
                                 grid.nodes):
            rep.violations.append(("NONFINITE_INPUT", bad))
    if rep.ok:
        _second_order_compat(rep, data, grid.nodes, C0, rates["h"], rates["g"])
    return rep


def nonfinite_at(what: str, rows: np.ndarray, nodes: np.ndarray) -> str | None:
    """The message naming ``what`` (the row index fills its ``{}``) and the
    first of ``nodes`` where ``rows`` is not finite; ``None`` if all are."""
    bad = np.argwhere(~np.isfinite(np.atleast_2d(rows)))
    if not bad.size:
        return None
    i, k = bad[0].tolist()
    return f"{what.format(i)} is not finite at node {k} (z={nodes[k]:.6g}) of N={len(nodes) - 1}"


def nonfinite_v1(R0: float, v1: float, where: str = "") -> str | None:
    """The message naming ``R0`` (and ``where``, the grid) when the surface
    velocity ``v1(0)`` is not finite; ``None`` if it is."""
    if np.isfinite(v1):
        return None
    return (f"surface velocity v1(0) = R0^2 int_0^1 g is not finite at R0={R0:g}{where}; "
            "reduce R0 or g at the initial data")


def _second_order_compat(rep, data, nodes, C0, hvals, gvals):
    """Finite-difference check of the higher-order boundary matching condition,
    made only at a finite v1(0); one that is not finite is a violation."""
    dz = nodes[1] - nodes[0]
    R0sq = data.R0 ** 2
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        v1_0 = cumtrapz_dz(R0sq * gvals, dz)[-1]  # the solver's v1(0)
    if bad := nonfinite_v1(data.R0, v1_0):
        rep.violations.append(("NONFINITE_INPUT", bad))
        return
    dt_fd = 1e-6
    for j in range(data.m):
        c = C0[j]
        # one-sided, second-order curvature and slope at z=1
        d2 = (2.0 * c[-1] - 5.0 * c[-2] + 4.0 * c[-3] - c[-4]) / dz ** 2
        d1 = (3.0 * c[-1] - 4.0 * c[-2] + c[-3]) / (2.0 * dz)
        lhs = data.D[j] * d2 + v1_0 * d1 + R0sq * hvals[j, -1]
        psi_rate = (float(data.psi[j](dt_fd)) - float(data.psi[j](-dt_fd))) / (2.0 * dt_fd)
        scale = max(1.0, abs(lhs), abs(psi_rate))
        if abs(lhs - psi_rate) > 1e-3 * scale:
            rep.warnings.append((
                "SECOND_ORDER_COMPAT",
                f"substrate {j}: boundary data rate psi'(0)={psi_rate:.6g} does not "
                f"match the interior balance {lhs:.6g} at t=0; expect a transient "
                "boundary layer",
            ))
