"""Run configuration: YAML types, expression mini-language, RunSpec builder.

A run is described by a single YAML document with four blocks::

    problem:   kinetics preset + initial/boundary data + detachment
    solver:    grid, step sizes, iteration and monitor settings
    output:    directory, snapshot stride
    verify:    optional dissipativity constants for the energy audit

Initial profiles accept plain numbers, expression strings in ``z`` (e.g.
``"0.2 + 0.1*cos(pi*z/2)"``) or lists of nodal values (resampled linearly);
boundary values accept numbers or expression strings in ``t``.  The expression
language supports ``+ - * / ^``, ``exp``, ``cos``, ``sin``, the constants
``pi`` and ``e``, and the single free variable.

Every block is read by one helper, :func:`_read`: it rejects unknown keys,
requires the listed ones and checks the YAML type of each key present.  The
keys a block sets go on to the library's constructors (``ProblemData``, the
kinetics presets, ``SolverConfig``), which own every default, shape, length
and range; ``validate_problem`` checks the counts of ``D`` and ``psi``, and
the energy audit the ranges of the verify constants.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .audit import _check_constants
from .coupler import SNAPSHOT_STRIDE, SolverConfig
from .errors import ValidationError
from .kinetics import KineticsModel, linear_preset, monod_preset, zero_kinetics
from .problem import ProblemData

_FUNCS = {"exp": np.exp, "cos": np.cos, "sin": np.sin}
_CONSTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARY = (ast.USub, ast.UAdd)


def compile_expression(text: str, variable: str):
    """Compile an expression string into a vectorized callable of ``variable``,
    which computes in float64 throughout, its literals and constants too:
    ``1/0`` is ``inf`` and ``(-8)^(1/3)`` is ``nan``, as at an array."""
    src = text.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"cannot parse expression {text!r}: {exc.msg}",
                              code="PARSE_ERROR") from None
    names = dict(_FUNCS, **_CONSTS)
    tree.body = _check_node(tree.body, variable, text, names)
    code = compile(tree, f"<expr {text!r}>", "eval")
    env = {"__builtins__": {}}
    return lambda x: eval(code, env, dict(names, **{variable: x}))


def _check_node(node, variable, text, names):
    """``node`` checked against the grammar, each numeric literal replaced by
    a name that ``names`` binds to its float64 value."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        node.left = _check_node(node.left, variable, text, names)
        node.right = _check_node(node.right, variable, text, names)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY):
        node.operand = _check_node(node.operand, variable, text, names)
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCS
                and len(node.args) == 1 and not node.keywords):
            raise ValidationError(
                f"expression {text!r}: only unary calls to {sorted(_FUNCS)} are allowed",
                code="SCHEMA_VIOLATION")
        node.args[0] = _check_node(node.args[0], variable, text, names)
    elif isinstance(node, ast.Name):
        if node.id != variable and node.id not in _CONSTS:
            raise ValidationError(
                f"expression {text!r}: unknown name {node.id!r} (variable is {variable!r})",
                code="SCHEMA_VIOLATION")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
            raise ValidationError(f"expression {text!r}: only numeric literals allowed",
                                  code="SCHEMA_VIOLATION")
        name = f"_{len(names)}"  # no variable, function or constant starts with "_"
        names[name] = np.float64(str(node.value))  # from text: a huge int reads as inf
        return ast.copy_location(ast.Name(id=name, ctx=ast.Load()), node)
    else:
        raise ValidationError(f"expression {text!r}: unsupported syntax "
                              f"({type(node).__name__})", code="SCHEMA_VIOLATION")
    return node


# -- schema helpers ------------------------------------------------------------


def _require_mapping(value, path):
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected a mapping", code="SCHEMA_VIOLATION")
    return value


def _read(block, path: str, checks: dict, required=()) -> dict:
    """The keys of the mapping ``block`` that it sets, each through its check
    in ``checks``.  A key ``checks`` does not list, or a ``required`` one
    missing or null, is an error; an absent key is left to the library's
    default."""
    _require_mapping(block, path)
    unknown = set(block) - set(checks)
    if unknown:
        key = sorted(str(k) for k in unknown)[0]
        raise ValidationError(f"unknown key {path}.{key}", code="UNKNOWN_KEY")
    for key in required:
        if block.get(key) is None:
            raise ValidationError(f"missing required key {path}.{key}", code="SCHEMA_VIOLATION")
    prefix = "" if path == "config" else f"{path}."  # top-level keys are named bare
    return {key: check(block[key], prefix + key) for key, check in checks.items() if key in block}


def _block(checks: dict, required=()):
    """The check of a nested block, read by :func:`_read`; a block set to
    ``null`` reads as absent."""
    return lambda value, path: None if value is None else _read(value, path, checks, required)


def _num(value, path):
    """A YAML number as a float.  PyYAML reads YAML 1.1, where ``1e-3`` and
    ``inf`` are text, so a string that parses as a float is named as such."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        hint = ""
        if isinstance(value, str):
            try:
                float(value)
                hint = ("; YAML reads it as text: write a dot and a signed exponent "
                        "(1.0e-3), or .inf / .nan")
            except ValueError:
                pass
        raise ValidationError(f"{path}: expected a number, got {value!r}{hint}",
                              code="SCHEMA_VIOLATION")
    return float(value)


def _int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {value!r}",
                              code="SCHEMA_VIOLATION")
    return int(value)


def _str(value, path):
    if not isinstance(value, str):
        raise ValidationError(f"{path}: expected a string, got {value!r}", code="SCHEMA_VIOLATION")
    return value


def _bool(value, path):
    if not isinstance(value, bool):
        raise ValidationError(f"{path}: expected a boolean, got {value!r}", code="SCHEMA_VIOLATION")
    return value


def _list(value, path, item, of=""):
    """A non-empty list, each entry through ``item``."""
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{path}: expected a non-empty list{of}", code="SCHEMA_VIOLATION")
    return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _num_list(value, path, item=_num):
    return np.array(_list(value, path, item, " of numbers"))


def _matrix(value, path):
    """A list of number lists, as nested lists: the library checks the shape."""
    return _list(value, path, partial(_list, item=_num, of=" of numbers"), " of number lists")


def _profile_callable(entry, path):
    """Number, expression string in z or nodal list -> vectorized callable."""
    if isinstance(entry, bool):
        raise ValidationError(f"{path}: expected number/expression/list", code="SCHEMA_VIOLATION")
    if isinstance(entry, (int, float)):
        value = float(entry)
        return lambda x, _v=value: np.full_like(np.asarray(x, dtype=float), _v)
    if isinstance(entry, str):
        return compile_expression(entry, "z")
    if isinstance(entry, list):
        vals = _num_list(entry, path)
        if len(vals) < 2:
            raise ValidationError(f"{path}: nodal lists need at least 2 values",
                                  code="SCHEMA_VIOLATION")
        src = np.linspace(0.0, 1.0, len(vals))
        return lambda x, _s=src, _v=vals: np.interp(np.asarray(x, dtype=float), _s, _v)
    raise ValidationError(f"{path}: expected number/expression/list, got {type(entry).__name__}",
                          code="SCHEMA_VIOLATION")


def _time_callable(entry, path):
    """Number or expression string in t -> scalar callable of time."""
    if isinstance(entry, bool):
        raise ValidationError(f"{path}: expected number or expression", code="SCHEMA_VIOLATION")
    if isinstance(entry, (int, float)):
        value = float(entry)
        return lambda t, _v=value: _v
    if isinstance(entry, str):
        fn = compile_expression(entry, "t")
        return lambda t, _f=fn: float(_f(t))
    raise ValidationError(f"{path}: expected number or expression, got {type(entry).__name__}",
                          code="SCHEMA_VIOLATION")


# -- kinetics block ------------------------------------------------------------

#: the keys of each preset past ``preset``: the parameters of ``linear_preset``
#: and ``monod_preset``, which own their shapes and defaults
_LINEAR_CHECKS = {"A": _matrix, "c": _num_list, "B": _matrix, "d": _num_list}
_MONOD_CHECKS = {"mu": _num_list, "K": _num_list, "k_d": _num_list,
                 "limiting": partial(_num_list, item=_int), "yields": _matrix}
#: each preset's key checks, its required keys and its builder, which
#: :func:`build_runspec` calls with the keys and ``(n, m)``
_PRESETS = {
    "zero": ({}, (), lambda keys, n, m: zero_kinetics(n, m)),
    "linear": (_LINEAR_CHECKS, tuple(_LINEAR_CHECKS), lambda keys, n, m: linear_preset(**keys)),
    "monod": (_MONOD_CHECKS, ("mu", "K"), lambda keys, n, m: monod_preset(**keys, m=m)),
}


def _kinetics(block, path):
    """The preset's builder and the keys the block sets past ``preset``."""
    preset = _require_mapping(block, path).get("preset")
    if not isinstance(preset, str) or preset not in _PRESETS:
        raise ValidationError(f"{path}.preset: expected one of {sorted(_PRESETS)}, got {preset!r}",
                              code="SCHEMA_VIOLATION")
    checks, required, build = _PRESETS[preset]
    keys = _read(block, path, {"preset": _str, **checks}, required)
    del keys["preset"]
    return build, keys


# -- run spec ------------------------------------------------------------------


@dataclass(eq=False, repr=False)
class RunSpec:
    """Fully-built run description (model + numerics + output wishes), with
    the canonical JSON text of the tree it was built from."""

    data: ProblemData
    kin: KineticsModel
    cfg: SolverConfig
    t_end: float
    out_dir: str | None
    stride: int
    verify: dict | None
    config_json: str

    @cached_property
    def config_hash(self) -> str:
        """:func:`config_hash` of the tree, computed when first read."""
        return _sha256(self.config_json)


_profiles = partial(_list, item=_profile_callable)
_PROBLEM_CHECKS = {"phi": _profiles, "theta": _profiles,
                   "psi": partial(_list, item=_time_callable), "D": _num_list,
                   "lambda": _num, "R0": _num, "kinetics": _kinetics}
#: the solver keys that are ``SolverConfig`` fields, the run's ``t_end`` and
#: the energy weights; the library owns their defaults and ranges
_SOLVER_CHECKS = {"N": _int, "dt": _num, "picard_tol": _num, "picard_max_iter": _int,
                  "theta_scheme": _num, "positivity_mode": _str,
                  "continuation_threshold": _num, "t_end": _num,
                  "energy_weights": _block({"mu": _num_list, "nu": _num_list})}
_OUTPUT_CHECKS = {"directory": _str, "stride": _int}
#: the keys of ``dissipation_envelope_check``, which owns their defaults and ranges
_VERIFY_CHECKS = {"alpha": _num, "beta": _num, "M0": _num, "tol": _num,
                  "include_boundary": _bool}
_CONFIG_CHECKS = {"problem": _block(_PROBLEM_CHECKS, tuple(_PROBLEM_CHECKS)),
                  "solver": _block(_SOLVER_CHECKS, ("t_end",)),
                  "output": _block(_OUTPUT_CHECKS),
                  "verify": _block(_VERIFY_CHECKS, ("alpha",))}


def build_runspec(tree: dict) -> RunSpec:
    """Type-check a parsed configuration tree and build all model objects,
    whose constructors check every shape, length and range."""
    top = _read(tree, "config", _CONFIG_CHECKS, ("problem", "solver"))
    if top.get("verify") is not None:  # at load: the audit runs only after the simulation
        _check_constants(top["verify"])
    prob, solver = top["problem"], top["solver"]
    n, m = len(prob["phi"]), len(prob["theta"])
    build, keys = prob["kinetics"]
    kin = build(keys, n, m)
    data = ProblemData(phi=prob["phi"], theta=prob["theta"], psi=prob["psi"], D=prob["D"],
                       lam=prob["lambda"], R0=prob["R0"])
    t_end, weights = solver.pop("t_end"), solver.pop("energy_weights", None) or {}
    cfg = SolverConfig(**solver, **weights)
    out = top.get("output") or {}
    return RunSpec(data=data, kin=kin, cfg=cfg, t_end=t_end, out_dir=out.get("directory"),
                   stride=out.get("stride", SNAPSHOT_STRIDE), verify=top.get("verify"),
                   config_json=_canonical(tree))


def _canonical(tree: dict) -> str:
    """A configuration tree as JSON text with sorted keys and no spaces."""
    import json  # here, not at module level: only hashing a tree needs it

    return json.dumps(tree, sort_keys=True, separators=(",", ":"), default=str)


def _sha256(text: str) -> str:
    """SHA-256 hex digest of ``text`` in UTF-8, from the interpreter's own
    module, the one ``hashlib`` falls back to; ``hashlib`` loads OpenSSL."""
    try:
        from _sha2 import sha256  # CPython >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10-3.11
        except ImportError:  # neither is built
            from hashlib import sha256

    return sha256(text.encode("utf-8")).hexdigest()


def config_hash(tree: dict) -> str:
    """Content hash of a configuration tree (formatting-independent)."""
    return _sha256(_canonical(tree))


def load_tree(path: str) -> dict:
    """Read and parse a YAML config file into a tree (syntax errors carry the line)."""
    import yaml  # here, not at module level: a run built in code never parses YAML

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}", code="PARSE_ERROR") from None
    try:  # libyaml's safe loader where PyYAML was built with it: same trees, faster
        tree = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        raise ValidationError(f"cannot parse config {path!r}{where}: {exc}",
                              code="PARSE_ERROR") from None
    if tree is None:
        raise ValidationError(f"config {path!r} is empty", code="SCHEMA_VIOLATION")
    return _require_mapping(tree, "config")


def parse_config(path: str) -> RunSpec:
    """Load, validate and build a run description from a YAML file."""
    return build_runspec(load_tree(path))
