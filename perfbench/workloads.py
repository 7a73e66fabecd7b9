"""Benchmark workloads: seeded inputs, the timed call and its output checks.

Nothing here imports ``biofilmfront`` (or numpy, or yaml) at module level.
The set-up probe imports this module before it starts its clock, so the
package's whole import cost stays inside the measured set-up time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random

WORKLOADS = ("monod_n40", "decay_n1600", "simulate_dense")

#: relative half-width of the seeded perturbations; seed 0 applies none
PERTURBATION = 0.02

#: seed-0 inputs.  ``amp_phi`` / ``amp_theta`` scale the non-constant part
#: of the initial biomass / substrate profile.  Horizons keep one call at
#: 0.1-0.25 s, so that a run holds a hundred calls or more (see README.md,
#: "Steadiness").
BASE = {
    # configs/monod_growth.yaml as shipped, over its first 200 steps.
    "monod_n40": dict(lam=0.5, R0=1.0, amp_phi=0.1, amp_theta=0.9,
                      N=40, dt=1e-3, t_end=0.2, stride=1000),
    # acceptance test c01's problem, refined to N=1600.
    "decay_n1600": dict(lam=0.5, R0=1.0, amp_phi=0.0, amp_theta=1.0,
                        N=1600, dt=1e-3, t_end=0.04, stride=1000),
    # configs/zero_kinetics.yaml (c01's problem at N=100) with a snapshot
    # written at every step, through the CLI.
    "simulate_dense": dict(lam=0.5, R0=1.0, amp_phi=0.0, amp_theta=1.0,
                           N=100, dt=1e-3, t_end=0.1, stride=1),
}

#: c01's tolerance on the closed-form thickness
DECAY_TOL = 1e-6
#: c04's positivity floor
POSITIVITY_FLOOR = -1e-12
#: slack on the a priori thickness bound (the solver's own R_BOUND_SLACK)
R_BOUND_SLACK = 1e-8

# benchmark-owned copy of configs/monod_growth.yaml
MONOD_YAML = """\
problem:
  kinetics:
    preset: monod
    mu: [0.5]
    K: [0.05]
    k_d: [0.02]
    limiting: [0]
    yields: [[0.08]]
  phi: ["0.3 + {amp_phi!r}*cos(pi*z)"]
  theta: ["1 - {amp_theta!r}*cos(pi*z/2)"]
  psi: [1.0]
  D: [0.05]
  lambda: {lam!r}
  R0: {R0!r}
solver:
  N: {N}
  dt: {dt!r}
  t_end: {t_end!r}
output:
  stride: {stride}
"""

# benchmark-owned copy of configs/zero_kinetics.yaml, written every step
DENSE_YAML = """\
problem:
  kinetics: {{preset: zero}}
  phi: [0.0]
  theta: ["{theta}"]
  psi: [0.0]
  D: [1.0]
  lambda: {lam!r}
  R0: {R0!r}
solver:
  N: {N}
  dt: {dt!r}
  t_end: {t_end!r}
output:
  stride: {stride}
"""


def params(workload: str, seed: int) -> dict:
    """Seeded inputs of a workload.

    Seed 0 returns ``BASE`` unchanged.  Any other seed scales ``lam``, ``R0``
    and both initial-profile amplitudes by independent factors drawn
    uniformly from ``[1 - PERTURBATION, 1 + PERTURBATION]``.  That keeps every
    workload in its regime: the mesh Peclet number stays far below 1 and the
    outcome stays ``completed`` (both are checked on every run).
    """
    p = dict(BASE[workload])
    if seed != 0:
        rng = random.Random(f"{workload}:{seed}")
        for key in ("lam", "R0", "amp_phi", "amp_theta"):
            p[key] *= 1.0 + PERTURBATION * (2.0 * rng.random() - 1.0)
    return p


def config_path(workdir: str, workload: str) -> str:
    return os.path.join(workdir, f"{workload}.yaml")


def write_config(workload: str, p: dict, path: str) -> None:
    """Write the YAML config of a config-driven workload (no-op otherwise)."""
    if workload == "monod_n40":
        text = MONOD_YAML.format(**p)
    elif workload == "simulate_dense":
        amp = p["amp_theta"]
        theta = "cos(pi*z/2)" if amp == 1.0 else f"{amp!r}*cos(pi*z/2)"
        text = DENSE_YAML.format(theta=theta, **p)
    else:
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def build_inputs(bf, workload: str, p: dict, path: str):
    """Build ``(data, kin, cfg)`` the way a user of the workload would."""
    if workload == "decay_n1600":
        import numpy as np
        amp = p["amp_theta"]
        data = bf.ProblemData(
            phi=[lambda z: np.zeros_like(z)],
            theta=[lambda z: amp * np.cos(0.5 * math.pi * z)],
            psi=[lambda t: 0.0],
            D=[1.0],
            lam=p["lam"],
            R0=p["R0"],
        )
        return data, bf.zero_kinetics(1, 1), bf.SolverConfig(N=p["N"], dt=p["dt"])
    spec = bf.parse_config(path)
    return spec.data, spec.kin, spec.cfg


def decay_thickness(R0: float, lam: float, t: float) -> float:
    """Closed-form thickness of the reaction-free problem."""
    return R0 * (1.0 + 3.0 * lam * R0**3 * t) ** (-1.0 / 3.0)


class Case:
    """One workload at one seed: its inputs, its timed call and its checks.

    ``run()`` is the timed call.  ``check(result)`` inspects what it returned
    and produces a record: ``errors`` (empty when every check passed), the
    final thickness ``R`` and the per-step Picard sweep counts ``sweeps``.
    """

    def __init__(self, bf, workload: str, seed: int, workdir: str):
        self.bf = bf
        self.workload = workload
        self.p = params(workload, seed)
        self.config_path = config_path(workdir, workload)
        # Every call of a run writes into this one directory, replacing the
        # previous call's files, as repeated `simulate --out out` calls do.
        # Deleting them between calls made the next call's writes slower and
        # much noisier; a new directory per call left the disk writing back
        # the earlier calls' files, which slowed later runs.
        self.out_dir = os.path.join(workdir, "out")
        self.n_steps = int(round(self.p["t_end"] / self.p["dt"]))
        if workload != "simulate_dense":
            self.data, self.kin, self.cfg = build_inputs(bf, workload, self.p,
                                                         self.config_path)

    def run(self, kin=None):
        """The timed call; ``kin`` replaces the workload's kinetics model."""
        if self.workload == "simulate_dense":
            argv = ["simulate", "--config", self.config_path, "--out", self.out_dir]
            with contextlib.redirect_stdout(io.StringIO()):
                return self.bf.cli.main(argv)
        return self.bf.run_simulation(self.data, kin or self.kin, self.cfg, self.p["t_end"],
                                      snapshot_stride=self.p["stride"])

    def check(self, result) -> dict:
        if self.workload == "simulate_dense":
            return self._check_cli(result)
        traj = result
        rec = {"errors": [], "R": float(traj.final_state.R),
               "sweeps": tuple(int(r.picard_iterations) for r in traj.reports),
               "files": 0, "bytes": 0}
        err = rec["errors"]
        if traj.outcome != "completed":
            err.append(f"outcome {traj.outcome}")
        if len(traj.reports) != self.n_steps:
            err.append(f"{len(traj.reports)} steps, expected {self.n_steps}")
        v1 = [float(x) for x in traj.v1_series()]
        D_min = float(min(self.data.D))
        peclet = max(map(abs, v1)) / (2.0 * D_min * self.p["N"])
        if not peclet < 1.0:
            err.append(f"mesh Peclet {peclet:.3g} >= 1")
        if self.workload == "decay_n1600":
            exact = decay_thickness(self.p["R0"], self.p["lam"], traj.final_state.t)
            if not abs(rec["R"] - exact) < DECAY_TOL:
                err.append(f"|R - closed form| = {abs(rec['R'] - exact):.3e}")
        else:
            lowest = min(traj.min_Y_seen, traj.min_C_seen)
            if not lowest >= POSITIVITY_FLOOR:
                err.append(f"min(Y, C) = {lowest:.3e}")
            bound = max(self.p["R0"], math.sqrt(max(max(v1), 0.0) / self.p["lam"]))
            R_max = max(float(x) for x in traj.thickness_series())
            if not R_max <= bound + R_BOUND_SLACK:
                err.append(f"max R {R_max!r} above its a priori bound {bound!r}")
        return rec

    def _check_cli(self, code: int) -> dict:
        rec = {"errors": [], "R": math.nan, "sweeps": (), "files": 0, "bytes": 0}
        err = rec["errors"]
        if code != 0:
            err.append(f"exit code {code}")
        try:
            with open(os.path.join(self.out_dir, "scalars.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            with open(os.path.join(self.out_dir, "manifest.json")) as fh:
                manifest = json.load(fh)
            # the manifest lists what this call wrote; files left by an
            # earlier call into the same directory are not counted
            names = list(manifest["files"]) + ["manifest.json"]
            rec["bytes"] = sum(os.path.getsize(os.path.join(self.out_dir, n))
                               for n in names)
        except (OSError, KeyError, ValueError) as exc:
            err.append(f"cannot read outputs: {exc}")
            return rec
        if manifest.get("outcome") != "completed":
            err.append(f"outcome {manifest.get('outcome')}")
        rec["files"] = len(names)
        snapshots = sum(n.startswith("snapshot_") for n in names)
        if len(rows) != self.n_steps:
            err.append(f"{len(rows)} scalars.csv rows, expected {self.n_steps}")
        if snapshots != self.n_steps + 1:
            err.append(f"{snapshots} snapshots, expected {self.n_steps + 1} "
                       "(t = 0 and every step)")
        if not rows:
            return rec
        rec["R"] = float(rows[-1]["R"])
        rec["sweeps"] = tuple(int(r["picard_iters"]) for r in rows)
        peclet = max(abs(float(r["v1"])) for r in rows) / (2.0 * self.p["N"])  # D = 1
        if not peclet < 1.0:
            err.append(f"mesh Peclet {peclet:.3g} >= 1")
        exact = decay_thickness(self.p["R0"], self.p["lam"], float(rows[-1]["t"]))
        if not abs(rec["R"] - exact) < DECAY_TOL:
            err.append(f"|R - closed form| = {abs(rec['R'] - exact):.3e}")
        return rec
