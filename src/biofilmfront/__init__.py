"""Front-fixed solver for 1D multispecies biofilm growth with substrate
diffusion and surface detachment.

The moving film [0, L(t)] is mapped onto the fixed unit interval; the solver
advances biomass fractions (semi-Lagrangian transport), substrate
concentrations (implicit theta-scheme) and the film thickness (RK4) with a
per-step fixed-point coupling, then maps results back to physical
coordinates.
"""

from .boundary import R_FLOOR, detachment_rhs, integrate_thickness, r_max_bound
from .config import RunSpec, build_runspec, compile_expression, config_hash, parse_config
from .coupler import (FLAGS, EnvelopeReport, PhysicalTrajectory, SolverConfig, State,
                      Trajectory, back_transform, check_invariants, dissipation_envelope_check,
                      energy, flag_names, initial_state, picard_step, run_simulation)
from .errors import (AssemblyError, ConfigError, EnvelopeViolation, GridError,
                     InvalidProblem, LinearSolveError, OrderRegression, OutputError,
                     PicardDivergence, SolverError, ThicknessCollapse, ValidationError)
from .grid import Grid, build_grid
from .kinetics import KineticsModel, MonodParams, linear_preset, monod_preset, zero_kinetics
from .mms import ConvergenceReport, mms_study
from .output import write_timeseries
from .problem import ProblemData, ValidationReport, validate_problem

__version__ = "0.1.0"

__all__ = [
    "AssemblyError", "ConfigError", "ConvergenceReport", "EnvelopeReport",
    "EnvelopeViolation", "FLAGS", "Grid", "GridError", "InvalidProblem", "KineticsModel",
    "LinearSolveError", "MonodParams", "OrderRegression", "OutputError",
    "PhysicalTrajectory", "PicardDivergence", "ProblemData", "R_FLOOR", "RunSpec",
    "SolverConfig", "SolverError", "State", "ThicknessCollapse",
    "Trajectory", "ValidationError", "ValidationReport",
    "back_transform", "build_grid", "build_runspec", "check_invariants",
    "compile_expression", "config_hash", "detachment_rhs",
    "dissipation_envelope_check", "energy", "flag_names", "initial_state",
    "integrate_thickness", "linear_preset", "mms_study", "monod_preset", "parse_config",
    "picard_step", "r_max_bound", "run_simulation", "validate_problem", "write_timeseries",
    "zero_kinetics",
]
