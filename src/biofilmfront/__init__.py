"""Front-fixed solver for 1D multispecies biofilm growth with substrate
diffusion and surface detachment.

The moving film [0, L(t)] is mapped onto the fixed unit interval; the solver
advances biomass fractions (semi-Lagrangian transport), substrate
concentrations (implicit theta-scheme) and the film thickness (RK4) with a
per-step fixed-point coupling, then maps results back to physical
coordinates.
"""

from .audit import ConvergenceReport, EnvelopeReport, audit, dissipation_envelope_check, mms_study
from .boundary import R_FLOOR, detachment_rhs, integrate_thickness, r_max_bound
from .config import RunSpec, build_runspec, compile_expression, config_hash, parse_config
from .coupler import (FLAGS, SolverConfig, State, Trajectory, check_invariants, energy, flag_names,
                      initial_state, picard_step, run_simulation)
from .errors import (AssemblyError, ConfigError, InvalidProblem, LinearSolveError, OutputError,
                     PicardDivergence, SolverError, ThicknessCollapse, ValidationError)
from .grid import Grid
from .kinetics import KineticsModel, linear_preset, monod_preset, zero_kinetics
from .output import PhysicalTrajectory, back_transform, write_timeseries
from .problem import ProblemData, ValidationReport, validate_problem

__version__ = "0.1.0"

__all__ = [
    "AssemblyError", "ConfigError", "ConvergenceReport", "EnvelopeReport", "FLAGS", "Grid",
    "InvalidProblem", "KineticsModel", "LinearSolveError", "OutputError", "PhysicalTrajectory",
    "PicardDivergence", "ProblemData", "R_FLOOR", "RunSpec", "SolverConfig", "SolverError",
    "State", "ThicknessCollapse", "Trajectory", "ValidationError", "ValidationReport", "audit",
    "back_transform", "build_runspec", "check_invariants", "compile_expression", "config_hash",
    "detachment_rhs", "dissipation_envelope_check", "energy", "flag_names", "initial_state",
    "integrate_thickness", "linear_preset", "mms_study", "monod_preset", "parse_config",
    "picard_step", "r_max_bound", "run_simulation", "validate_problem", "write_timeseries",
    "zero_kinetics",
]
