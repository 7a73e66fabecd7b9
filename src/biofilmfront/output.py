"""Run output: per-step scalars, strided snapshots, physical series, manifest.

All files are plain CSV with LF line endings, ``.`` decimal separator and
full double precision (17 significant digits), so identical runs produce
bitwise-identical bytes.  A snapshot is formatted by one ``%`` over a
whole-file template (one per call for all snapshots, with the shared ``z``
column already in it) and written by one ``write``.  The per-step tables
take one ``%`` and one ``write`` per block of :data:`_BLOCK_ROWS` rows, so
the text held at once is bounded by the block, not by the run.
An existing file is overwritten in place and then cut to length, never
truncated first, since on ext4 (``auto_da_alloc``) that starts writeback at
close; there is no fsync or atomic rename, so outputs are no more
crash-safe than before.  An accompanying ``manifest.json`` indexes the
files together with the configuration hash and terminal outcome.  The
physical series come from :func:`back_transform`, the map of a run to the
moving physical domain.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .coupler import FLAGS, STEP_COLUMNS, Trajectory, flag_names
from .errors import OutputError, ValidationError

PACKAGE_NAME = "biofilmfront"

#: names of the snapshot files, the only ones a rerun removes
_SNAPSHOT_NAME = re.compile(r"snapshot_[0-9]+\.csv")
#: ``flags`` text of ``scalars.csv`` by bitmask: the names, ``;``-joined
_FLAG_TEXT = [";".join(flag_names(mask)) for mask in range(1 << len(FLAGS))]
#: columns of ``scalars.csv`` before ``flags``: every column of ``Trajectory.reports``
#: but ``invariant_flags``, which is printed last, as text
_SCALAR_COLUMNS = tuple(name for name in STEP_COLUMNS.names if name != "invariant_flags")
#: rows per ``%`` and per ``write`` of ``scalars.csv`` and ``physical_scalars.csv``
_BLOCK_ROWS = 1024


def _blocks(header: str, row: str, nrows: int, values):
    """CSV text of ``nrows`` rows in pieces: ``header``, then ``row`` for each
    block of up to :data:`_BLOCK_ROWS` rows ``lo:hi``, whose flat, row-major
    values ``values(lo, hi)`` gives.  ``row`` is a ``%`` template with one
    conversion per column (``%.17g`` gives the same text as
    ``format(float(x), ".17g")`` for every double)."""
    yield f"{header}\n"
    for lo in range(0, nrows, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, nrows)
        yield ((row + "\n") * (hi - lo)) % tuple(values(lo, hi))


def _write_text(path: str, text) -> None:
    """Write ``text``, a string or an iterable of strings written in order,
    to ``path`` as UTF-8 over what the file held, from offset 0, then cut
    the file to the length written.  Truncating first would start
    writeback at close on ext4 (``auto_da_alloc``), which made rewriting a
    run's files the slowest part of a dense run.  Binary mode keeps LF line
    endings on every platform.  No fsync or atomic rename, as before: a
    crash can leave a file partly rewritten."""
    if isinstance(text, str):
        text = (text,)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with os.fdopen(fd, "wb") as fh:
            for piece in text:
                fh.write(piece.encode("utf-8"))
            fh.truncate()
    except OSError as exc:
        raise OutputError(f"cannot write {path!r}: {exc}") from None


def _columns(*cols) -> list:
    """Values of stacked columns (1-D arrays or row blocks), flat and row-major."""
    return np.vstack(cols).T.ravel().tolist()


@dataclass(eq=False, repr=False)
class PhysicalTrajectory:
    """Physical-domain view of a run: thickness and velocity vs physical time."""

    t_phys: np.ndarray
    L: np.ndarray
    u1: np.ndarray


def back_transform(traj: Trajectory) -> PhysicalTrajectory:
    """Map a recorded run to the physical moving domain.

    The computational clock integrates ``dt = L**2 dt_c``, so physical time
    is accumulated with the trapezoid rule on ``R**2``; the thickness ``L``
    equals ``R`` and the physical surface speed is ``u1 = v1 / L``.  A stored
    profile maps by ``x = z * L`` and ``u = v / L``, with ``Y`` and ``C``
    keeping their nodal values.

    Raises
    ------
    ValidationError
        Code ``NONPOSITIVE_THICKNESS`` when any recorded thickness is <= 0.
    """
    R = traj.thickness_series()
    if np.any(R <= 0.0):
        raise ValidationError("trajectory contains nonpositive thickness",
                              code="NONPOSITIVE_THICKNESS")
    times = traj.times()
    Rsq = R**2
    t_phys = np.zeros_like(times)
    t_phys[1:] = np.cumsum(0.5 * np.diff(times) * (Rsq[:-1] + Rsq[1:]))
    return PhysicalTrajectory(t_phys=t_phys, L=R, u1=traj.v1_series() / R)


def write_timeseries(traj: Trajectory, out_dir: str, config_hash: str | None = None) -> dict:
    """Write the full output set for a run into ``out_dir``.

    Files: ``scalars.csv`` (one row per step), ``snapshot_<k>.csv`` per stored
    state, ``physical_scalars.csv`` (moving-domain series including t = 0) and
    ``manifest.json``.  Snapshot files that an earlier run left in
    ``out_dir`` and this run did not write are deleted, so the snapshots on
    disk are the ones the manifest lists.  Returns the manifest dictionary
    as written.

    Raises
    ------
    OutputError
        Code ``IO_ERROR`` on any filesystem failure.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create {out_dir!r}: {exc}") from None

    def scalar_values(lo, hi):
        rows = traj.reports[lo:hi]
        cols = [rows[name].tolist() for name in _SCALAR_COLUMNS]
        cols.append([_FLAG_TEXT[mask] for mask in rows.invariant_flags.tolist()])
        return [v for row in zip(*cols) for v in row]

    _write_text(os.path.join(out_dir, "scalars.csv"), _blocks(
        "t,R,v1,energy,picard_iters,residual,first_residual,clamped_feet,boundary_energy_flux,"
        "flags", "%.17g,%.17g,%.17g,%.17g,%d,%.17g,%.17g,%d,%.17g,%s",
        len(traj.reports), scalar_values))
    files = ["scalars.csv"]

    # every snapshot lies on traj.grid: its z column is formatted once, into
    # a whole-file template that leaves a conversion per Y, C and v value
    n, m = traj.kin.n, traj.kin.m
    header = ",".join(["z"] + [f"Y{i + 1}" for i in range(n)]
                      + [f"C{j + 1}" for j in range(m)] + ["v"])
    row = ",%.17g" * (n + m + 1) + "\n"
    snapshot = header + "\n" + "".join("%.17g" % z + row
                                       for z in traj.grid.nodes.tolist())
    for idx, s in enumerate(traj.states):
        name = f"snapshot_{idx}.csv"
        _write_text(os.path.join(out_dir, name),
                    snapshot % tuple(_columns(s.Y, s.C, s.v)))
        files.append(name)

    phys = back_transform(traj)
    _write_text(os.path.join(out_dir, "physical_scalars.csv"),
                _blocks("t_phys,L,u1", "%.17g,%.17g,%.17g", len(phys.t_phys),
                        lambda lo, hi: _columns(phys.t_phys[lo:hi], phys.L[lo:hi],
                                                phys.u1[lo:hi])))
    files.append("physical_scalars.csv")

    written = set(files)
    try:
        for name in os.listdir(out_dir):
            if name not in written and _SNAPSHOT_NAME.fullmatch(name):
                os.remove(os.path.join(out_dir, name))
    except OSError as exc:
        raise OutputError(f"cannot remove stale snapshots in {out_dir!r}: {exc}") from None

    sweeps, flags = traj.reports.picard_iterations, traj.reports.invariant_flags
    manifest = {
        "package": PACKAGE_NAME,
        "config_hash": config_hash,
        "outcome": traj.outcome,
        "n_steps": len(traj.reports),
        "t_final": traj.final_state.t,
        "snapshot_steps": list(traj.state_steps),
        "min_Y_seen": traj.min_Y_seen,
        "min_C_seen": traj.min_C_seen,
        "picard": {"sweeps": int(sweeps.sum()), "max_sweeps": int(sweeps.max(initial=0))},
        "warnings": [list(w) for w in traj.validation.warnings],
        "flags_seen": flag_names(int(np.bitwise_or.reduce(flags, initial=0))),
        "files": files,
    }
    if traj.failure is not None:
        manifest["failure"] = {k: v for k, v in traj.failure.items()
                               if k in ("code", "message", "step", "t", "thickness")}
    import json  # here, not at module level: only the manifest needs it

    _write_text(os.path.join(out_dir, "manifest.json"),
                json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
