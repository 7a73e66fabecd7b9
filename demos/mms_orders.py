"""Manufactured-solution convergence study for the three subsolvers.

Each case plants a smooth exact solution, derives the forcing that makes it
satisfy the discretised equation, and measures the error as the grid is
refined with dt tied to dz.  Expected slopes: 2 for the Crank-Nicolson
substrate step, 1 for the semi-Lagrangian transport step (linear
interpolation at the characteristic feet), 4 for the RK4 thickness update.

Running the substrate case fully implicit (theta_scheme = 1.0) knocks its
order down to ~1 -- a deliberately broken configuration the regression
guard refuses: the report's ok turns false and the case is marked below its
floor.
"""

import biofilmfront as bf


def main():
    report = bf.mms_study()
    print("case                 floor   observed   errors (coarse -> fine)")
    for case in report.cases.values():
        errs = "  ".join(f"{e:.3e}" for e in case.errors)
        print(f"{case.name:<20} {case.floor:>5.2f}   {case.observed_order:>8.3f}   {errs}")
    print(f"\nall floors met: {report.ok}")

    print("\nsame study, fully implicit substrate step (theta_scheme = 1.0):")
    degraded = bf.mms_study(theta_scheme=1.0)
    print(f"  all floors met: {degraded.ok}")
    sub = degraded.cases["substrate_diffusion"]
    print(f"  substrate order degrades to {sub.observed_order:.3f} "
          f"(floor {sub.floor}) -- first-order time error dominates")


if __name__ == "__main__":
    main()
