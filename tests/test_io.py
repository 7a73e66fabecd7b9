"""Configuration parsing, the expression mini-language, and run output files."""

import dataclasses
import hashlib
import inspect
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from biofilmfront import (
    FLAGS,
    Grid,
    OutputError,
    SolverConfig,
    SolverError,
    State,
    ValidationError,
    build_runspec,
    compile_expression,
    config_hash,
    dissipation_envelope_check,
    linear_preset,
    monod_preset,
    parse_config,
    run_simulation,
    write_timeseries,
    zero_kinetics,
)
from biofilmfront.cli import main
from biofilmfront.config import _LINEAR_CHECKS, _MONOD_CHECKS, _SOLVER_CHECKS, load_tree
from biofilmfront.coupler import SNAPSHOT_STRIDE, STEP_COLUMNS, _Run, flag_names
from biofilmfront.output import _BLOCK_ROWS, _blocks, back_transform

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = ["equilibrium", "linear_dissipative", "monod_growth", "zero_kinetics"]


def _tree(**overrides):
    tree = {
        "problem": {
            "kinetics": {"preset": "zero"},
            "phi": [0.0],
            "theta": ["cos(pi*z/2)"],
            "psi": [0.0],
            "D": [1.0],
            "lambda": 0.5,
            "R0": 1.0,
        },
        "solver": {"N": 20, "dt": 1e-3, "t_end": 0.05},
        "output": {"stride": 10},
    }
    tree.update(overrides)
    return tree


# -- expressions ----------------------------------------------------------------


def test_expression_basic():
    fn = compile_expression("cos(pi*z/2)", "z")
    assert fn(0.0) == pytest.approx(1.0)
    assert fn(1.0) == pytest.approx(0.0, abs=1e-15)


def test_expression_caret_power():
    fn = compile_expression("1 - z^2", "z")
    assert fn(0.5) == pytest.approx(0.75)


def test_expression_vectorized():
    fn = compile_expression("exp(-t)", "t")
    out = fn(np.array([0.0, 1.0]))
    assert np.allclose(out, [1.0, math.exp(-1.0)])


def test_expression_constants_and_unary():
    fn = compile_expression("-e + 2*e", "z")
    assert fn(0.0) == pytest.approx(math.e)


@pytest.mark.parametrize("text,value", [
    ("1/0", math.inf), ("0^-1", math.inf), ("10^400", math.inf), ("9^9^5", math.inf),
    ("10.0^400", math.inf), pytest.param("1" + "0" * 400, math.inf, id="1e400-int"),
    ("e^1000", math.inf), ("9^9^9", math.inf), ("(-8)^(1/3)", math.nan),
    ("1/3", 1 / 3), ("2^0.5", 2 ** 0.5),
])
def test_expression_literals_compute_in_float64(text, value):
    """Literal arithmetic is float64, as at an array of the variable: no
    Python error, and ``9^9^9`` is ``inf`` at once, not an exact integer of
    370 million digits."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        got = compile_expression(text, "z")(0.0)
    assert got == value or math.isnan(got) and math.isnan(value)


@pytest.mark.parametrize(
    "bad",
    [
        "__import__('os')",
        "z.__class__",
        "open('x')",
        "q + 1",               # unknown variable
        "cos(z, z)",           # wrong arity
        "lambda z: z",
        "[1, 2][0]",
        "exp",                 # bare function name, not a call
    ],
)
def test_expression_rejects_unsafe(bad):
    with pytest.raises(ValidationError) as exc:
        compile_expression(bad, "z")
    assert exc.value.code == "SCHEMA_VIOLATION"


# -- schema ----------------------------------------------------------------------


def test_stride_default_has_one_owner():
    """A config without ``output.stride`` takes the library's default, as a
    run that names no stride does."""
    spec = build_runspec(_tree(output={}))
    assert spec.stride == SNAPSHOT_STRIDE and type(spec.stride) is int
    default = inspect.signature(run_simulation).parameters["snapshot_stride"].default
    assert default is SNAPSHOT_STRIDE


def test_build_runspec_roundtrip():
    spec = build_runspec(_tree())
    assert spec.cfg.N == 20
    assert spec.t_end == pytest.approx(0.05)
    assert spec.stride == 10
    assert spec.data.n == 1 and spec.data.m == 1
    assert spec.kin.quasi_positive
    assert len(spec.config_hash) == 64


def test_unknown_key_rejected():
    tree = _tree()
    tree["problem"]["lamda"] = 0.5  # typo'd key must fail loudly
    with pytest.raises(ValidationError) as exc:
        build_runspec(tree)
    assert exc.value.code == "UNKNOWN_KEY"


def test_missing_required_key():
    tree = _tree()
    del tree["problem"]["R0"]
    with pytest.raises(ValidationError) as exc:
        build_runspec(tree)
    assert exc.value.code == "SCHEMA_VIOLATION"


def test_psi_length_must_match_substrates(tmp_path, capsys):
    """The config hands ``psi`` on as the file sets it; ``validate_problem``
    owns its count, so the run, not the parse, rejects one too many."""
    tree = _tree()
    tree["problem"]["psi"] = [0.0, 1.0]
    assert len(build_runspec(tree).data.psi) == 2
    p = tmp_path / "run.yaml"
    p.write_text(json.dumps(tree))  # JSON is YAML
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error [DIMENSION_MISMATCH]: invalid problem data: DIMENSION_MISMATCH: psi has 2 "
        "entries, expected 1 (one per substrate, as theta)\n")


def test_theta_scheme_range_enforced():
    tree = _tree()
    tree["solver"]["theta_scheme"] = 0.25
    with pytest.raises(SolverError):
        build_runspec(tree)


def test_transport_coefficient_key_rejected():
    # the characteristic foot is always z e^{dt v1}; there is no option left
    tree = _tree()
    tree["solver"]["transport_coefficient"] = "scaled"
    with pytest.raises(ValidationError) as exc:
        build_runspec(tree)
    assert exc.value.code == "UNKNOWN_KEY"


def test_solver_keys_match_solver_config():
    """Every solver setting has one YAML key and no key outlives its setting:
    the energy weights ``mu``/``nu`` sit under ``energy_weights``, and
    ``t_end`` is the run's, not ``SolverConfig``'s."""
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert set(_SOLVER_CHECKS) == fields - {"mu", "nu"} | {"t_end", "energy_weights"}


def test_monod_keys_match_monod_preset():
    """The Monod block has one key per parameter of ``monod_preset`` but
    ``m``, whose defaults apply to the keys a file leaves out."""
    assert list(_MONOD_CHECKS) == [p for p in inspect.signature(monod_preset).parameters
                                   if p != "m"]


def test_linear_keys_match_linear_preset():
    assert list(_LINEAR_CHECKS) == list(inspect.signature(linear_preset).parameters)


def test_formats_key_rejected():
    # output files are always CSV, so there is no ``formats`` option left
    tree = _tree(output={"formats": ["csv"]})
    with pytest.raises(ValidationError) as exc:
        build_runspec(tree)
    assert exc.value.code == "UNKNOWN_KEY"


def test_positivity_mode_values():
    tree = _tree()
    tree["solver"]["positivity_mode"] = "fail"
    assert build_runspec(tree).cfg.positivity_mode == "fail"
    tree["solver"]["positivity_mode"] = "reject"
    with pytest.raises(SolverError) as exc:
        build_runspec(tree)
    assert exc.value.code == "SCHEMA_VIOLATION"


def test_linear_kinetics_block():
    tree = _tree()
    tree["problem"]["kinetics"] = {
        "preset": "linear", "A": [[-1.0]], "c": [0.5], "B": [[-2.0]], "d": [0.1],
    }
    spec = build_runspec(tree)
    Y, C = np.array([[2.0]]), np.array([[3.0]])
    assert spec.kin.f(Y, C)[0, 0] == pytest.approx(-1.5)
    assert spec.kin.g(Y, C)[0] == pytest.approx(-1.5)
    assert spec.kin.h(Y, C)[0, 0] == pytest.approx(-5.9)


def test_monod_kinetics_block():
    tree = _tree()
    tree["problem"]["kinetics"] = {
        "preset": "monod", "mu": [0.4], "K": [0.3], "k_d": [0.0],
        "limiting": [0], "yields": [[0.5]],
    }
    spec = build_runspec(tree)
    assert not spec.kin.quasi_positive


@pytest.mark.parametrize("kinetics,got", [
    ({"preset": "quadratic"}, "'quadratic'"),
    ({"preset": ["zero"]}, "['zero']"),
    ({}, "None"),
], ids=["unknown", "list", "missing"])
def test_preset_must_be_a_known_name(kinetics, got):
    tree = _tree()
    tree["problem"]["kinetics"] = kinetics
    with pytest.raises(ValidationError) as exc:
        build_runspec(tree)
    assert exc.value.code == "SCHEMA_VIOLATION"
    assert str(exc.value) == ("problem.kinetics.preset: expected one of ['linear', 'monod', "
                              f"'zero'], got {got}")


def test_monod_block_with_only_mu_and_K_takes_the_library_defaults():
    """Two substrates and no ``k_d``, ``limiting`` or ``yields``: the preset
    sizes its zero defaults from ``mu`` and the substrate count."""
    tree = _tree()
    tree["problem"].update(kinetics={"preset": "monod", "mu": [0.4], "K": [0.3]},
                           theta=["cos(pi*z/2)"] * 2, psi=[0.0, 0.0], D=[1.0, 1.0])
    spec = build_runspec(tree)
    assert (spec.kin.n, spec.kin.m) == (1, 2) and spec.kin.quasi_positive
    assert run_simulation(spec.data, spec.kin, spec.cfg, t_end=0.005).outcome == "completed"


@pytest.mark.parametrize("limiting,message", [
    (0, "problem.kinetics.limiting: expected a non-empty list of numbers"),
    ([0.5], "problem.kinetics.limiting[0]: expected an integer, got 0.5"),
])
def test_monod_limiting_must_be_a_list_of_integers(limiting, message):
    tree = _tree()
    tree["problem"]["kinetics"] = {"preset": "monod", "mu": [0.4], "K": [0.3],
                                   "limiting": limiting}
    with pytest.raises(ValidationError) as exc:
        build_runspec(tree)
    assert exc.value.code == "SCHEMA_VIOLATION"
    assert str(exc.value) == message


def test_nodal_list_profile():
    tree = _tree()
    tree["problem"]["theta"] = [[0.0, 1.0, 0.0]]
    tree["problem"]["psi"] = [0.0]
    spec = build_runspec(tree)
    assert spec.data.theta[0](0.25) == pytest.approx(0.5)


def test_psi_time_expression():
    """A surface value given as an expression in ``t`` is evaluated at each
    time asked, and a run holds the film surface at it."""
    tree = _tree()
    tree["problem"].update(theta=[1.0], psi=["cos(t)"])
    spec = build_runspec(tree)
    for t in (0.0, 0.3, 2.0):
        assert spec.data.psi_at(t) == pytest.approx([math.cos(t)], rel=1e-15)
    traj = run_simulation(spec.data, spec.kin, spec.cfg, spec.t_end, snapshot_stride=spec.stride)
    assert traj.outcome == "completed" and traj.final_state.t == pytest.approx(0.05)
    assert traj.final_state.C[0, -1] == pytest.approx(math.cos(0.05), rel=1e-15)


def test_verify_block_parsed():
    """The block hands on only the constants it sets, checked; the audit
    owns the defaults of the others."""
    spec = build_runspec(_tree(verify={"alpha": 1.0, "beta": 0.1}))
    assert spec.verify == {"alpha": 1.0, "beta": 0.1}


def test_verify_block_with_only_alpha_audits_with_the_defaults():
    spec = build_runspec(_tree(verify={"alpha": 1.0}))
    assert spec.verify == {"alpha": 1.0}
    traj = run_simulation(spec.data, spec.kin, spec.cfg, spec.t_end)
    got = dissipation_envelope_check(traj, **spec.verify)
    # the defaults docs/config.md documents
    want = dissipation_envelope_check(traj, alpha=1.0, beta=0.0, M0=0.0, tol=1e-3,
                                      include_boundary=False)
    assert np.array_equal(got.budget, want.budget)
    assert np.array_equal(got.margins, want.margins)


@pytest.mark.parametrize("value", ["fast", "1/2", [1.0], None, b"1.0"])
def test_number_key_names_other_values_plainly(value):
    """Only a string that parses as a float gets the YAML-spelling hint."""
    tree = _tree()
    tree["solver"]["dt"] = value
    with pytest.raises(ValidationError) as exc:
        build_runspec(tree)
    assert exc.value.code == "SCHEMA_VIOLATION"
    assert str(exc.value) == f"solver.dt: expected a number, got {value!r}"


@pytest.mark.parametrize("value", ["false", 0, None])
def test_include_boundary_must_be_a_boolean(value):
    # bool("false") is True, so only a YAML boolean is read
    with pytest.raises(ValidationError) as exc:
        build_runspec(_tree(verify={"alpha": 1.0, "include_boundary": value}))
    assert exc.value.code == "SCHEMA_VIOLATION"
    assert str(exc.value) == f"verify.include_boundary: expected a boolean, got {value!r}"


def test_solver_block_with_only_t_end_takes_the_library_defaults():
    spec = build_runspec(_tree(solver={"t_end": 0.05}))
    assert spec.cfg == SolverConfig()


def test_config_hash_ignores_formatting(tmp_path):
    a = tmp_path / "a.yaml"
    b = tmp_path / "b.yaml"
    a.write_text(
        "problem:\n  kinetics: {preset: zero}\n  phi: [0.0]\n  theta: [1.0]\n"
        "  psi: [1.0]\n  D: [1.0]\n  lambda: 0.5\n  R0: 1.0\n"
        "solver: {t_end: 0.1}\n"
    )
    b.write_text(
        "solver:\n    t_end: 0.1\n"
        "problem:\n"
        "    R0: 1.0\n    lambda: 0.5\n    D: [1.0]\n    psi: [1.0]\n"
        "    theta: [1.0]\n    phi: [0.0]\n"
        "    kinetics:\n        preset: zero\n"
    )
    assert parse_config(str(a)).config_hash == parse_config(str(b)).config_hash


def test_config_hash_sees_value_changes():
    t1, t2 = _tree(), _tree()
    t2["problem"]["lambda"] = 0.25
    assert config_hash(t1) != config_hash(t2)


def test_spec_hash_is_of_the_tree_as_built():
    """A spec's hash, computed when first read, is ``config_hash`` of the
    tree it was built from, however the tree changes afterwards."""
    tree = _tree()
    want = config_hash(tree)
    spec = build_runspec(tree)
    tree["problem"]["lambda"] = 0.25
    assert "config_hash" not in vars(spec)
    assert spec.config_hash == want != config_hash(tree)


@pytest.mark.parametrize("name", SHIPPED)
def test_config_hash_is_sha256_of_canonical_json(name, monkeypatch):
    """A shipped config's hash is ``hashlib``'s SHA-256 of its sorted,
    space-free JSON, and stays so where the interpreter's own SHA-256
    module is missing and the hash falls back to ``hashlib``."""
    path = str(CONFIGS / f"{name}.yaml")
    tree = load_tree(path)
    text = json.dumps(tree, sort_keys=True, separators=(",", ":"), default=str)
    want = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert config_hash(tree) == parse_config(path).config_hash == want
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert config_hash(tree) == want


@pytest.mark.parametrize("name", SHIPPED)
def test_load_tree_matches_pure_python_loader(name):
    """``load_tree`` parses with libyaml's loader when PyYAML has it; the
    shipped configs give the trees of PyYAML's pure-Python safe loader."""
    yaml = pytest.importorskip("yaml")
    path = CONFIGS / f"{name}.yaml"
    assert load_tree(str(path)) == yaml.load(path.read_text(), Loader=yaml.SafeLoader)


def test_load_tree_errors(tmp_path):
    with pytest.raises(ValidationError) as exc:
        load_tree(str(tmp_path / "missing.yaml"))
    assert exc.value.code == "PARSE_ERROR"

    bad = tmp_path / "bad.yaml"
    bad.write_text("problem: [unclosed\n")
    with pytest.raises(ValidationError) as exc:
        load_tree(str(bad))
    assert exc.value.code == "PARSE_ERROR"
    assert "(line 2)" in str(exc.value)

    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ValidationError) as exc:
        load_tree(str(empty))
    assert exc.value.code == "SCHEMA_VIOLATION"


# -- writers ---------------------------------------------------------------------


def _run_small(stride=5):
    spec = build_runspec(_tree())
    return run_simulation(spec.data, spec.kin, spec.cfg, t_end=0.01,
                          snapshot_stride=stride)


def test_write_timeseries_files(tmp_path):
    traj = _run_small()
    out = tmp_path / "run"
    manifest = write_timeseries(traj, str(out), config_hash="ab" * 32)
    assert (out / "scalars.csv").exists()
    assert (out / "physical_scalars.csv").exists()
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [
        "snapshot_0.csv", "snapshot_1.csv", "snapshot_2.csv",
    ]
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk["outcome"] == "completed"
    assert on_disk["config_hash"] == "ab" * 32
    assert on_disk["snapshot_steps"] == [0, 5, 10]
    assert manifest["n_steps"] == 10


def test_scalars_header_and_shape(tmp_path):
    traj = _run_small()
    out = tmp_path / "run"
    write_timeseries(traj, str(out))
    lines = (out / "scalars.csv").read_text().splitlines()
    assert lines[0] == ("t,R,v1,energy,picard_iters,residual,first_residual,clamped_feet,"
                        "boundary_energy_flux,flags")
    assert len(lines) == 1 + 10  # one row per accepted step
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1e-3)
    assert int(first[4]) <= 2


def test_seventeen_digit_roundtrip(tmp_path):
    traj = _run_small()
    out = tmp_path / "run"
    write_timeseries(traj, str(out))
    lines = (out / "scalars.csv").read_text().splitlines()
    R_written = float(lines[-1].split(",")[1])
    assert R_written == traj.final_state.R  # bitwise round-trip through text


def test_output_uses_lf_newlines(tmp_path):
    traj = _run_small()
    out = tmp_path / "run"
    write_timeseries(traj, str(out))
    raw = (out / "scalars.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_snapshot_columns(tmp_path):
    traj = _run_small()
    out = tmp_path / "run"
    write_timeseries(traj, str(out))
    lines = (out / "snapshot_0.csv").read_text().splitlines()
    assert lines[0] == "z,Y1,C1,v"
    assert len(lines) == 1 + 21  # N + 1 nodes
    z_vals = [float(l.split(",")[0]) for l in lines[1:]]
    assert z_vals[0] == 0.0 and z_vals[-1] == 1.0


def test_physical_series_includes_origin(tmp_path):
    traj = _run_small()
    out = tmp_path / "run"
    write_timeseries(traj, str(out))
    lines = (out / "physical_scalars.csv").read_text().splitlines()
    assert lines[0] == "t_phys,L,u1"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0


def test_energy_weights_flow_into_config():
    tree = _tree()
    tree["solver"]["energy_weights"] = {"mu": [2.0], "nu": [3.0]}
    spec = build_runspec(tree)
    mu, nu = spec.cfg.weights(1, 1)
    assert mu[0] == 2.0 and nu[0] == 3.0
    # defaults are unit weights
    mu_d, nu_d = SolverConfig().weights(2, 1)
    assert np.all(mu_d == 1.0) and np.all(nu_d == 1.0)


def test_rerun_removes_stale_snapshots(tmp_path):
    out = tmp_path / "run"
    write_timeseries(_run_small(stride=1), str(out))
    assert len(list(out.glob("snapshot_*.csv"))) == 11
    manifest = write_timeseries(_run_small(stride=5), str(out))
    assert sorted(p.name for p in out.iterdir()) == sorted(manifest["files"] + ["manifest.json"])


def test_rerun_keeps_other_files(tmp_path):
    out = tmp_path / "run"
    write_timeseries(_run_small(stride=1), str(out))
    keep = ["snapshot_9.csv.bak", "snapshot_x.csv", "old_snapshot_9.csv", "notes.txt"]
    for name in keep:
        (out / name).write_text("kept\n")
    manifest = write_timeseries(_run_small(stride=5), str(out))
    assert sorted(p.name for p in out.iterdir()) == sorted(
        manifest["files"] + ["manifest.json"] + keep)


def test_manifest_picard_statistics(tmp_path):
    traj = _run_small()
    manifest = write_timeseries(traj, str(tmp_path / "run"))
    sweeps = [r.picard_iterations for r in traj.reports]
    assert manifest["picard"] == {"sweeps": sum(sweeps), "max_sweeps": max(sweeps)}
    assert all(type(v) is int for v in manifest["picard"].values())
    spec = build_runspec(_tree())
    empty = run_simulation(spec.data, spec.kin, spec.cfg, t_end=0.0)
    manifest = write_timeseries(empty, str(tmp_path / "empty"))
    assert manifest["picard"] == {"sweeps": 0, "max_sweeps": 0}


def test_returned_manifest_is_the_written_one(tmp_path):
    out = tmp_path / "run"
    traj = _run_small()
    manifest = write_timeseries(traj, str(out), config_hash="cd" * 32)
    assert manifest == json.loads((out / "manifest.json").read_text())
    assert "manifest.json" not in manifest["files"]
    assert manifest["min_Y_seen"] == traj.min_Y_seen
    assert manifest["min_C_seen"] == traj.min_C_seen


# -- writer oracle: the per-value formatter the batched writer replaced ------------


def _fmt(x):
    return format(float(x), ".17g")


def _oracle_files(traj):
    """Every CSV file of a run, formatted one value and one line at a time."""
    files = {}
    lines = ["t,R,v1,energy,picard_iters,residual,first_residual,clamped_feet,"
             "boundary_energy_flux,flags"]
    for r in traj.reports:
        flags = {name for i, name in enumerate(FLAGS) if r.invariant_flags & (1 << i)}
        lines.append(",".join([
            _fmt(r.t), _fmt(r.R), _fmt(r.v1), _fmt(r.energy),
            str(r.picard_iterations), _fmt(r.residual), _fmt(r.first_residual),
            str(r.clamped_feet), _fmt(r.boundary_energy_flux), ";".join(sorted(flags)),
        ]))
    files["scalars.csv"] = lines
    for idx, s in enumerate(traj.states):
        n, m = s.Y.shape[0], s.C.shape[0]
        lines = [",".join(["z"] + [f"Y{i + 1}" for i in range(n)]
                          + [f"C{j + 1}" for j in range(m)] + ["v"])]
        for k in range(s.grid.N + 1):
            vals = [s.grid.nodes[k]] + [s.Y[i, k] for i in range(n)] \
                + [s.C[j, k] for j in range(m)] + [s.v[k]]
            lines.append(",".join(_fmt(v) for v in vals))
        files[f"snapshot_{idx}.csv"] = lines
    phys = back_transform(traj)
    lines = ["t_phys,L,u1"]
    for k in range(len(phys.t_phys)):
        lines.append(",".join([_fmt(phys.t_phys[k]), _fmt(phys.L[k]), _fmt(phys.u1[k])]))
    files["physical_scalars.csv"] = lines
    return {name: "".join(line + "\n" for line in lines).encode() for name, lines in files.items()}


def test_writer_matches_per_value_oracle(tmp_path):
    tree = _tree()
    tree["problem"].update(
        kinetics={"preset": "linear", "A": [[-1.0, 0.2], [0.1, -0.5]], "c": [0.3, 0.1],
                  "B": [[-2.0, 0.0], [0.5, -1.0]], "d": [0.1, 0.2]},
        phi=["0.5 + 0.1*cos(pi*z)", 0.2], theta=["cos(pi*z/2)", "0.5*cos(pi*z/2)"],
        psi=[0.0, 0.0], D=[1.0, 0.5])
    spec = build_runspec(tree)
    traj = run_simulation(spec.data, spec.kin, spec.cfg, t_end=0.01, snapshot_stride=1)
    out = tmp_path / "run"
    manifest = write_timeseries(traj, str(out))
    expected = _oracle_files(traj)
    assert manifest["files"] == list(expected)
    assert len(expected) == 1 + 11 + 1  # scalars, a snapshot per step and t = 0, physical
    for name, data in expected.items():
        assert (out / name).read_bytes() == data, name


def test_writer_flags_match_per_value_oracle(tmp_path):
    """Rows that raise invariant flags: a source that drives both Y and C
    negative from the first steps, so ``flags`` reads
    ``NEGATIVE_C;NEGATIVE_Y``."""
    tree = _tree()
    tree["problem"].update(
        kinetics={"preset": "linear", "A": [[0.0]], "c": [-5.0], "B": [[-1.0]], "d": [-2.0]},
        phi=[0.05], theta=["0.1*cos(pi*z/2)"])
    spec = build_runspec(tree)
    traj = run_simulation(spec.data, spec.kin, spec.cfg, t_end=0.05, snapshot_stride=25)
    assert traj.outcome == "completed"
    write_timeseries(traj, str(tmp_path / "run"))
    expected = _oracle_files(traj)["scalars.csv"]
    assert expected.endswith(b",NEGATIVE_C;NEGATIVE_Y\n")
    assert (tmp_path / "run" / "scalars.csv").read_bytes() == expected


def test_empty_run_outputs(tmp_path):
    """``t_end = 0`` takes no step: the per-step table has no rows, the
    series hold t = 0 alone and ``scalars.csv`` is its header."""
    spec = build_runspec(_tree())
    traj = run_simulation(spec.data, spec.kin, spec.cfg, t_end=0.0)
    assert traj.outcome == "completed" and len(traj.reports) == 0
    assert traj.times().tolist() == [0.0] and traj.state_steps == [0]
    s0 = traj.states[0]
    assert traj.min_Y_seen == float(s0.Y.min()) and traj.min_C_seen == float(s0.C.min())
    manifest = write_timeseries(traj, str(tmp_path / "run"))
    assert (tmp_path / "run" / "scalars.csv").read_text() == (
        "t,R,v1,energy,picard_iters,residual,first_residual,clamped_feet,"
        "boundary_energy_flux,flags\n")
    assert manifest["n_steps"] == 0
    assert manifest["picard"] == {"sweeps": 0, "max_sweeps": 0}


@given(hnp.arrays(np.float64,
                  st.tuples(st.integers(0, 12), st.integers(1, 5)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([[-0.0, 5e-324, 1e16, 1e-5]]))
@example(np.array([[-0.0], [5e-324], [1e16], [1e-5]]))
def test_table_matches_per_value_format(block):
    ncols = block.shape[1]
    text = "".join(_blocks("h", ",".join(["%.17g"] * ncols), len(block),
                           lambda lo, hi: block[lo:hi].ravel().tolist()))
    assert text == "h\n" + "".join(",".join(_fmt(x) for x in row) + "\n" for row in block)


def _one_table(header, row, values):
    """CSV text of flat, row-major ``values`` by one ``%`` over all rows."""
    return f"{header}\n" + ((row + "\n") * (len(values) // row.count("%"))) % tuple(values)


def _run_long():
    """A run with more, longer files than ``_run_small()``'s: finer grid, more
    steps, a snapshot every step."""
    tree = _tree()
    tree["solver"]["N"] = 40
    spec = build_runspec(tree)
    return run_simulation(spec.data, spec.kin, spec.cfg, t_end=0.03, snapshot_stride=1)


@pytest.mark.parametrize("earlier,later", [("long", "small"), ("small", "long")])
def test_rerun_writes_the_bytes_of_a_fresh_directory(tmp_path, earlier, later):
    """Files are rewritten in place and then cut to what this run wrote, so
    no tail of a longer earlier file survives and a longer file grows."""
    runs = {"long": _run_long, "small": _run_small}
    out = tmp_path / "run"
    write_timeseries(runs[earlier](), str(out))
    traj = runs[later]()
    write_timeseries(traj, str(out))
    for name, data in _oracle_files(traj).items():
        assert (out / name).read_bytes() == data, name


def _synthetic_run(rows):
    """A one-state trajectory whose per-step table holds ``rows`` made-up
    rows: every flag combination, and 17 significant digits in most values."""
    spec = build_runspec(_tree())
    traj = run_simulation(spec.data, spec.kin, spec.cfg, t_end=0.0)
    rng = np.random.default_rng(rows)
    reports = np.recarray(rows, STEP_COLUMNS)
    for name in STEP_COLUMNS.names:
        if STEP_COLUMNS[name].kind == "i":
            reports[name] = rng.integers(0, 1 << len(FLAGS), rows)
        else:
            reports[name] = rng.uniform(0.5, 2.0, rows)
    reports.t = np.arange(1, rows + 1) * 1e-3
    return dataclasses.replace(traj, reports=reports)


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                  3 * _BLOCK_ROWS + 5])
def test_block_writer_matches_one_table(tmp_path, rows):
    """The per-step tables, written a block of rows at a time, hold the text
    that one ``%`` over all rows gives."""
    traj = _synthetic_run(rows)
    write_timeseries(traj, str(tmp_path))
    r = traj.reports
    scalars = [v for k in range(rows) for v in (
        r.t[k], r.R[k], r.v1[k], r.energy[k], int(r.picard_iterations[k]), r.residual[k],
        r.first_residual[k], int(r.clamped_feet[k]), r.boundary_energy_flux[k],
        ";".join(flag_names(int(r.invariant_flags[k]))))]
    assert (tmp_path / "scalars.csv").read_text() == _one_table(
        "t,R,v1,energy,picard_iters,residual,first_residual,clamped_feet,"
        "boundary_energy_flux,flags", "%.17g,%.17g,%.17g,%.17g,%d,%.17g,%.17g,%d,%.17g,%s",
        scalars)
    phys = back_transform(traj)
    assert (tmp_path / "physical_scalars.csv").read_text() == _one_table(
        "t_phys,L,u1", "%.17g,%.17g,%.17g",
        np.column_stack((phys.t_phys, phys.L, phys.u1)).ravel().tolist())


def test_writer_memory_is_bounded_by_the_block(tmp_path):
    """Writing a 40 000-step run holds a block of text at a time, not the
    whole 6.5 MB ``scalars.csv`` with the objects formatted into it: the
    traced peak stays under 4 MB."""
    traj = _synthetic_run(40_000)
    tracemalloc.start()
    try:
        write_timeseries(traj, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "scalars.csv").stat().st_size > 6e6
    assert peak < 4e6


_ZEROS_AND_ONES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])


@given(first=_ZEROS_AND_ONES, column=st.lists(_ZEROS_AND_ONES, max_size=40))
@example(first=0.0, column=[-0.0])
@example(first=1.0, column=[0.0, -0.0])
@example(first=1.0, column=[-0.0, 0.0])
def test_run_minimum_matches_the_list_minimum(first, column):
    """The manifest's ``min_Y_seen`` and ``min_C_seen``, which a run keeps
    as it accepts its steps, are the minimum of the t = 0 value and every
    step's, as Python's ``min`` takes it: equal minima keep the first one,
    so ``-0.0`` and ``0.0`` print as before."""
    spec = build_runspec(_tree())
    grid = Grid(spec.cfg.N)

    def state(k, low):  # Y and C with the least value ``low``
        row = np.full(grid.N + 1, 5.0)
        row[3] = low
        return State(t=k * spec.cfg.dt, grid=grid, Y=row, C=row, R=1.0, v=np.zeros(grid.N + 1))

    run = _Run(state(0, first), spec.data, spec.cfg, len(column))
    mu, nu = spec.cfg.weights(1, 1)
    for k, low in enumerate(column, 1):
        run.accept((state(k, low), [0.0], 0), spec.data, spec.cfg, mu, nu)
    want = repr(min([first, *column]))
    assert repr(run.min_Y_seen) == want and repr(run.min_C_seen) == want


def test_reports_holds_the_columns_scalars_csv_prints(tmp_path):
    """A run keeps no per-step column that ``scalars.csv`` does not print:
    the columns of ``reports`` are the header's, in order, under their
    printed names."""
    traj = _run_small()
    write_timeseries(traj, str(tmp_path))
    header = (tmp_path / "scalars.csv").read_text().splitlines()[0].split(",")
    printed = {"picard_iterations": "picard_iters", "invariant_flags": "flags"}
    assert [printed.get(name, name) for name in traj.reports.dtype.names] == header


# -- write failures ----------------------------------------------------------------


def test_blocked_output_directory_is_io_error(tmp_path):
    traj = _run_small()
    blocked = tmp_path / "blocked"
    blocked.write_text("a regular file where the output directory should be\n")
    with pytest.raises(OutputError) as exc:
        write_timeseries(traj, str(blocked))
    assert exc.value.code == "IO_ERROR"
    with pytest.raises(OutputError) as exc:
        write_timeseries(traj, str(blocked / "run"))
    assert exc.value.code == "IO_ERROR"


def test_unwritable_output_file_is_io_error(tmp_path):
    out = tmp_path / "run"
    (out / "scalars.csv").mkdir(parents=True)
    with pytest.raises(OutputError) as exc:
        write_timeseries(_run_small(), str(out))
    assert exc.value.code == "IO_ERROR"
    assert "scalars.csv" in str(exc.value)
