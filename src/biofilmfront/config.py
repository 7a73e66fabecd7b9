"""Run configuration: YAML schema, expression mini-language, RunSpec builder.

A run is described by a single YAML document with four blocks::

    problem:   kinetics preset + initial/boundary data + detachment
    solver:    grid, step sizes, iteration and monitor settings
    output:    directory, snapshot stride
    verify:    optional dissipativity constants for the energy audit

Initial profiles accept plain numbers, expression strings in ``z`` (e.g.
``"0.2 + 0.1*cos(pi*z/2)"``) or lists of nodal values (resampled linearly);
boundary values accept numbers or expression strings in ``t``.  The expression
language supports ``+ - * / ^``, ``exp``, ``cos``, ``sin``, the constants
``pi`` and ``e``, and the single free variable.  Unknown keys anywhere in the
tree are errors.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
import yaml

from .coupler import SolverConfig
from .errors import ConfigError
from .kinetics import KineticsModel, MonodParams, linear_preset, monod_preset, zero_kinetics
from .problem import ProblemData

_FUNCS = {"exp": np.exp, "cos": np.cos, "sin": np.sin}
_CONSTS = {"pi": math.pi, "e": math.e}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARY = (ast.USub, ast.UAdd)


def compile_expression(text: str, variable: str):
    """Compile an expression string into a vectorized callable of ``variable``."""
    src = text.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc.msg}",
                          code="PARSE_ERROR") from None
    _check_node(tree.body, variable, text)
    code = compile(tree, f"<expr {text!r}>", "eval")
    env = {"__builtins__": {}}
    names = dict(_FUNCS, **_CONSTS)

    def fn(x):
        out = eval(code, env, dict(names, **{variable: x}))
        return out

    return fn


def _check_node(node, variable, text):
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        _check_node(node.left, variable, text)
        _check_node(node.right, variable, text)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY):
        _check_node(node.operand, variable, text)
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCS
                and len(node.args) == 1 and not node.keywords):
            raise ConfigError(
                f"expression {text!r}: only unary calls to {sorted(_FUNCS)} are allowed",
                code="SCHEMA_VIOLATION")
        _check_node(node.args[0], variable, text)
    elif isinstance(node, ast.Name):
        if node.id != variable and node.id not in _CONSTS:
            raise ConfigError(
                f"expression {text!r}: unknown name {node.id!r} (variable is {variable!r})",
                code="SCHEMA_VIOLATION")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
            raise ConfigError(f"expression {text!r}: only numeric literals allowed",
                              code="SCHEMA_VIOLATION")
    else:
        raise ConfigError(f"expression {text!r}: unsupported syntax "
                          f"({type(node).__name__})", code="SCHEMA_VIOLATION")


# -- schema helpers ------------------------------------------------------------


def _require_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping", code="SCHEMA_VIOLATION")
    return value


def _check_keys(block: dict, allowed: set, path: str):
    unknown = set(block) - allowed
    if unknown:
        key = sorted(str(k) for k in unknown)[0]
        raise ConfigError(f"unknown key {path}.{key}", code="UNKNOWN_KEY")


def _get(block, key, path, required=False, default=None):
    if key not in block:
        if required:
            raise ConfigError(f"missing required key {path}.{key}", code="SCHEMA_VIOLATION")
        return default
    return block[key]


def _num(value, path, positive=False, nonnegative=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}", code="SCHEMA_VIOLATION")
    v = float(value)
    if positive and v <= 0.0:
        raise ConfigError(f"{path}: must be > 0, got {v}", code="SCHEMA_VIOLATION")
    if nonnegative and v < 0.0:
        raise ConfigError(f"{path}: must be >= 0, got {v}", code="SCHEMA_VIOLATION")
    return v

def _int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}", code="SCHEMA_VIOLATION")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}", code="SCHEMA_VIOLATION")
    return int(value)


def _num_list(value, path, length=None):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers", code="SCHEMA_VIOLATION")
    out = [_num(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise ConfigError(f"{path}: expected {length} entries, got {len(out)}",
                          code="SCHEMA_VIOLATION")
    return np.array(out)


def _matrix(value, path, shape):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of rows", code="SCHEMA_VIOLATION")
    rows = [_num_list(r, f"{path}[{i}]", length=shape[1]) for i, r in enumerate(value)]
    if len(rows) != shape[0]:
        raise ConfigError(f"{path}: expected {shape[0]} rows, got {len(rows)}",
                          code="SCHEMA_VIOLATION")
    return np.array(rows)


def _profile_callable(entry, path, variable):
    """Number, expression string or nodal list -> vectorized callable."""
    if isinstance(entry, bool):
        raise ConfigError(f"{path}: expected number/expression/list", code="SCHEMA_VIOLATION")
    if isinstance(entry, (int, float)):
        value = float(entry)
        return lambda x, _v=value: np.full_like(np.asarray(x, dtype=float), _v)
    if isinstance(entry, str):
        return compile_expression(entry, variable)
    if isinstance(entry, list):
        vals = _num_list(entry, path)
        if len(vals) < 2:
            raise ConfigError(f"{path}: nodal lists need at least 2 values",
                              code="SCHEMA_VIOLATION")
        src = np.linspace(0.0, 1.0, len(vals))
        return lambda x, _s=src, _v=vals: np.interp(np.asarray(x, dtype=float), _s, _v)
    raise ConfigError(f"{path}: expected number/expression/list, got {type(entry).__name__}",
                      code="SCHEMA_VIOLATION")


def _time_callable(entry, path):
    """Number or expression string in t -> scalar callable of time."""
    if isinstance(entry, bool):
        raise ConfigError(f"{path}: expected number or expression", code="SCHEMA_VIOLATION")
    if isinstance(entry, (int, float)):
        value = float(entry)
        return lambda t, _v=value: _v
    if isinstance(entry, str):
        fn = compile_expression(entry, "t")
        return lambda t, _f=fn: float(_f(t))
    raise ConfigError(f"{path}: expected number or expression, got {type(entry).__name__}",
                      code="SCHEMA_VIOLATION")


# -- kinetics block ------------------------------------------------------------

_KINETICS_KEYS = {
    "zero": {"preset"},
    "linear": {"preset", "A", "c", "B", "d"},
    "monod": {"preset", "mu", "K", "k_d", "limiting", "yields"},
}


def _build_kinetics(block: dict, n: int, m: int, path: str) -> KineticsModel:
    _require_mapping(block, path)
    preset = _get(block, "preset", path, required=True)
    if preset not in _KINETICS_KEYS:
        raise ConfigError(f"{path}.preset: unknown preset {preset!r} "
                          f"(choose from {sorted(_KINETICS_KEYS)})", code="SCHEMA_VIOLATION")
    _check_keys(block, _KINETICS_KEYS[preset], path)
    if preset == "zero":
        return zero_kinetics(n=n, m=m)
    if preset == "linear":
        A = _matrix(_get(block, "A", path, required=True), f"{path}.A", (n, n))
        c = _num_list(_get(block, "c", path, required=True), f"{path}.c", length=n)
        B = _matrix(_get(block, "B", path, required=True), f"{path}.B", (m, m))
        d = _num_list(_get(block, "d", path, required=True), f"{path}.d", length=m)
        return linear_preset(A, c, B, d)
    params = MonodParams(
        mu=_num_list(_get(block, "mu", path, required=True), f"{path}.mu", length=n),
        K=_num_list(_get(block, "K", path, required=True), f"{path}.K", length=n),
        k_d=_num_list(_get(block, "k_d", path, default=[0.0] * n), f"{path}.k_d", length=n),
        limiting=np.array([_int(v, f"{path}.limiting[{i}]", minimum=0)
                           for i, v in enumerate(_get(block, "limiting", path,
                                                      default=[0] * n))]),
        yields=_matrix(_get(block, "yields", path, default=[[0.0] * m] * n),
                       f"{path}.yields", (n, m)),
    )
    return monod_preset(params, m=m)


# -- run spec ------------------------------------------------------------------


@dataclass
class RunSpec:
    """Fully-built run description (model + numerics + output wishes)."""

    data: ProblemData
    kin: KineticsModel
    cfg: SolverConfig
    t_end: float
    out_dir: str | None
    stride: int
    verify: dict | None
    config_hash: str


_PROBLEM_KEYS = {"kinetics", "phi", "theta", "psi", "D", "lambda", "R0"}
_SOLVER_KEYS = {"N", "dt", "t_end", "picard_tol", "picard_max_iter", "theta_scheme",
                "positivity_mode", "continuation_threshold", "energy_weights"}
_OUTPUT_KEYS = {"directory", "stride"}
_VERIFY_KEYS = {"alpha", "beta", "M0", "tol", "include_boundary"}


def build_runspec(tree: dict) -> RunSpec:
    """Validate a parsed configuration tree and build all model objects."""
    _require_mapping(tree, "config")
    _check_keys(tree, {"problem", "solver", "output", "verify"}, "config")

    prob = _require_mapping(_get(tree, "problem", "config", required=True), "problem")
    _check_keys(prob, _PROBLEM_KEYS, "problem")
    phi_raw = _get(prob, "phi", "problem", required=True)
    theta_raw = _get(prob, "theta", "problem", required=True)
    psi_raw = _get(prob, "psi", "problem", required=True)
    for name, raw in (("phi", phi_raw), ("theta", theta_raw), ("psi", psi_raw)):
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"problem.{name}: expected a non-empty list",
                              code="SCHEMA_VIOLATION")
    n, m = len(phi_raw), len(theta_raw)
    if len(psi_raw) != m:
        raise ConfigError(f"problem.psi: expected {m} entries (one per substrate), "
                          f"got {len(psi_raw)}", code="SCHEMA_VIOLATION")

    phi = [_profile_callable(e, f"problem.phi[{i}]", "z") for i, e in enumerate(phi_raw)]
    theta = [_profile_callable(e, f"problem.theta[{i}]", "z") for i, e in enumerate(theta_raw)]
    psi = [_time_callable(e, f"problem.psi[{i}]") for i, e in enumerate(psi_raw)]
    D = _num_list(_get(prob, "D", "problem", required=True), "problem.D", length=m)
    lam = _num(_get(prob, "lambda", "problem", required=True), "problem.lambda")
    R0 = _num(_get(prob, "R0", "problem", required=True), "problem.R0")
    kin = _build_kinetics(_get(prob, "kinetics", "problem", required=True), n, m,
                          "problem.kinetics")
    data = ProblemData(phi=phi, theta=theta, psi=psi, D=D, lam=lam, R0=R0)

    solver = _require_mapping(_get(tree, "solver", "config", required=True), "solver")
    _check_keys(solver, _SOLVER_KEYS, "solver")
    t_end = _num(_get(solver, "t_end", "solver", required=True), "solver.t_end",
                 nonnegative=True)
    weights = _get(solver, "energy_weights", "solver", default=None)
    mu = nu = None
    if weights is not None:
        _require_mapping(weights, "solver.energy_weights")
        _check_keys(weights, {"mu", "nu"}, "solver.energy_weights")
        if "mu" in weights:
            mu = _num_list(weights["mu"], "solver.energy_weights.mu", length=n)
        if "nu" in weights:
            nu = _num_list(weights["nu"], "solver.energy_weights.nu", length=m)
    # SolverConfig checks every range but N's (build_grid only runs later)
    cfg = SolverConfig(
        N=_int(_get(solver, "N", "solver", default=100), "solver.N", minimum=4),
        dt=_num(_get(solver, "dt", "solver", default=1e-3), "solver.dt"),
        picard_tol=_num(_get(solver, "picard_tol", "solver", default=1e-10),
                        "solver.picard_tol"),
        picard_max_iter=_int(_get(solver, "picard_max_iter", "solver", default=50),
                             "solver.picard_max_iter"),
        theta_scheme=_num(_get(solver, "theta_scheme", "solver", default=0.5),
                          "solver.theta_scheme"),
        positivity_mode=_get(solver, "positivity_mode", "solver", default="monitor"),
        continuation_threshold=_num(_get(solver, "continuation_threshold", "solver",
                                         default=1e6), "solver.continuation_threshold"),
        mu=mu, nu=nu,
    )

    out = _get(tree, "output", "config", default={}) or {}
    _require_mapping(out, "output")
    _check_keys(out, _OUTPUT_KEYS, "output")
    out_dir = _get(out, "directory", "output", default=None)
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("output.directory: expected a string", code="SCHEMA_VIOLATION")
    stride = _int(_get(out, "stride", "output", default=1), "output.stride", minimum=1)

    verify = _get(tree, "verify", "config", default=None)
    if verify is not None:
        _require_mapping(verify, "verify")
        _check_keys(verify, _VERIFY_KEYS, "verify")
        verify = {
            "alpha": _num(_get(verify, "alpha", "verify", required=True), "verify.alpha",
                          positive=True),
            "beta": _num(_get(verify, "beta", "verify", default=0.0), "verify.beta",
                         nonnegative=True),
            "M0": _num(_get(verify, "M0", "verify", default=0.0), "verify.M0",
                       nonnegative=True),
            "tol": _num(_get(verify, "tol", "verify", default=1e-3), "verify.tol",
                        positive=True),
            "include_boundary": bool(_get(verify, "include_boundary", "verify",
                                          default=False)),
        }

    return RunSpec(data=data, kin=kin, cfg=cfg, t_end=t_end, out_dir=out_dir,
                   stride=stride, verify=verify,
                   config_hash=config_hash(tree))


def config_hash(tree: dict) -> str:
    """Content hash of a configuration tree (formatting-independent)."""
    canon = json.dumps(tree, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def load_tree(path: str) -> dict:
    """Read and parse a YAML config file into a tree (syntax errors carry the line)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}", code="PARSE_ERROR") from None
    try:
        tree = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        raise ConfigError(f"cannot parse config {path!r}{where}: {exc}",
                          code="PARSE_ERROR") from None
    if tree is None:
        raise ConfigError(f"config {path!r} is empty", code="SCHEMA_VIOLATION")
    return _require_mapping(tree, "config")


def parse_config(path: str) -> RunSpec:
    """Load, validate and build a run description from a YAML file."""
    return build_runspec(load_tree(path))
