"""Audit a dissipative run against its exponential energy envelope.

For kinetics whose reaction terms only remove mass (here: linear decay in
both biomass and substrate), the weighted L2 energy must sit below
e^{-gamma t} E(0) plus a production allowance.  The a-posteriori check
recomputes the certificate from the stored states; a healthy run reports a
nonnegative margin at every snapshot.

Try alpha=50 to see the certificate fail: the claimed decay rate outruns
what the dynamics actually deliver, and the report is not ok; its
first_crossing indexes the first time the energy leaves the envelope.
"""

import numpy as np

import biofilmfront as bf


def decaying_run():
    data = bf.ProblemData(
        phi=[lambda z: np.zeros_like(z)],
        theta=[lambda z: np.cos(0.5 * np.pi * z)],
        psi=[lambda t: 0.0],
        D=[1.0],
        lam=0.5,
        R0=1.0,
    )
    kin = bf.linear_preset(A=[[-1.0]], c=[0.0], B=[[-1.0]], d=[0.0])
    cfg = bf.SolverConfig(N=80, dt=2e-3)
    return bf.run_simulation(data, kin, cfg, t_end=2.0, snapshot_stride=100)


def main():
    traj = decaying_run()
    print(f"outcome: {traj.outcome}, {len(traj.reports)} steps")

    report = bf.dissipation_envelope_check(traj, alpha=1.0, beta=0.0, M0=0.0)
    print(f"certificate rate gamma = {report.gamma:.4f}"
          f"  (M_R = {report.M_R:.4f}, C* = {report.C_star:.4f})")

    print("\n        t      energy      budget      margin")
    idx = list(range(0, len(report.times), 100))
    if idx[-1] != len(report.times) - 1:
        idx.append(len(report.times) - 1)
    for k in idx:
        print(f"  {report.times[k]:>7.3f}  {report.energies[k]:10.4e}"
              f"  {report.budget[k]:10.4e}  {report.margins[k]:10.3e}")

    worst = min(report.margins)
    print(f"\nsmallest margin: {worst:.3e}  ->  "
          + ("envelope holds" if worst >= 0 else "envelope violated"))

    # Overclaiming the decay rate must fail the audit.
    over = bf.dissipation_envelope_check(traj, alpha=50.0, beta=0.0, M0=0.0)
    k = over.first_crossing
    print(f"\nalpha=50 overclaim rejected as expected (ok={over.ok}): energy "
          f"{over.energies[k]:.6g} exceeded its envelope {over.budget[k]:.6g} "
          f"at t={over.times[k]:g}")


if __name__ == "__main__":
    main()
