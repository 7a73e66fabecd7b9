"""Hello-world run: pure detachment decay and the physical round trip.

With all reactions switched off the film thickness obeys
dR/dt = -lambda R^4, which integrates to R(t) = R0 (1 + 3 lambda R0^3 t)^(-1/3).
Mapped back to the physical (moving-front) frame the thickness follows the
classic hyperbolic thinning law L(t) = L0 / (1 + lambda L0 t).

Outputs land in demo_out/decay/.
"""

import math
import os

import numpy as np

import biofilmfront as bf

OUT = os.path.join("demo_out", "decay")


def main():
    data = bf.ProblemData(
        phi=[lambda z: np.zeros_like(z)],
        theta=[lambda z: np.cos(0.5 * math.pi * z)],
        psi=[lambda t: 0.0],
        D=[1.0],
        lam=0.5,
        R0=1.0,
    )
    cfg = bf.SolverConfig(N=100, dt=1e-3)
    traj = bf.run_simulation(data, bf.zero_kinetics(1, 1), cfg, t_end=2.0,
                             snapshot_stride=200)

    print(f"outcome: {traj.outcome} after {len(traj.reports)} steps")
    exact = (1.0 + 3.0 * 0.5 * 2.0) ** (-1.0 / 3.0)
    print(f"R(2)      = {traj.final_state.R:.12f}")
    print(f"closed    = {exact:.12f}")
    print(f"difference = {abs(traj.final_state.R - exact):.3e}")

    phys = bf.back_transform(traj)
    print("\nphysical frame (hyperbolic thinning law L = 1/(1 + t/2)):")
    print(f"{'t_phys':>10} {'L':>12} {'1/(1+t/2)':>12}")
    for t_probe in (0.25, 0.5, 1.0):
        L = float(np.interp(t_probe, phys.t_phys, phys.L))
        print(f"{t_probe:>10.2f} {L:>12.8f} {1.0 / (1.0 + 0.5 * t_probe):>12.8f}")

    manifest = bf.write_timeseries(traj, OUT)
    print(f"\nwrote {len(manifest['files'])} files and manifest.json to {OUT}/")


if __name__ == "__main__":
    main()
