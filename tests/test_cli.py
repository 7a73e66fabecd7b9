"""Command-line entry points: simulate, sweep, verify, mms."""

import concurrent.futures
import gc
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import biofilmfront
from biofilmfront import (InvalidProblem, OutputError, PicardDivergence, ThicknessCollapse,
                          ValidationError, ValidationReport)
from biofilmfront.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOOD = """
problem:
  kinetics: {preset: zero}
  phi: [0.0]
  theta: ["cos(pi*z/2)"]
  psi: [0.0]
  D: [1.0]
  lambda: 0.5
  R0: 1.0
solver: {N: 20, dt: 1.0e-3, t_end: 0.02}
output: {stride: 10}
"""

DISSIPATIVE = """
problem:
  kinetics:
    preset: linear
    A: [[-1.0]]
    c: [0.0]
    B: [[-1.0]]
    d: [0.0]
  phi: [0.0]
  theta: ["cos(pi*z/2)"]
  psi: [0.0]
  D: [1.0]
  lambda: 0.5
  R0: 1.0
solver: {N: 30, dt: 2.0e-3, t_end: 0.1}
verify: {alpha: 1.0}
"""


@pytest.fixture
def good_cfg(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text(GOOD)
    return p


def test_simulate_writes_outputs(good_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(good_cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "scalars.csv").exists()
    assert (out / "manifest.json").exists()
    text = capsys.readouterr().out
    assert "completed" in text


def test_simulate_overrides(good_cfg, tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(good_cfg), "--out", str(out),
               "--grid-n", "25", "--dt", "2e-3"])
    assert rc == 0
    lines = (out / "snapshot_0.csv").read_text().splitlines()
    assert len(lines) == 1 + 26


def test_simulate_bad_config_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text(GOOD.replace("lambda", "lamda"))
    rc = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    # --dt sets a key of the solver block: a null block becomes a mapping, and
    # a list is a schema violation, where both used to raise a TypeError
    capsys.readouterr()
    for block, message in (("", "missing required key solver.t_end"),
                           (" [1, 2]", "solver: expected a mapping")):
        p.write_text(GOOD.replace(" {N: 20, dt: 1.0e-3, t_end: 0.02}", block))
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--dt", "0.01"]) == 2
        assert capsys.readouterr().err == f"error [SCHEMA_VIOLATION]: {message}\n"


@pytest.mark.parametrize("key,value,code", [
    ("theta_scheme", "0.25", "SCHEMA_VIOLATION"),
    ("dt", "-1.0e-3", "NONPOSITIVE_PARAM"),
    ("picard_max_iter", "0", "NONPOSITIVE_PARAM"),
    ("picard_tol", "0.0", "NONPOSITIVE_PARAM"),
    ("continuation_threshold", ".nan", "NONPOSITIVE_PARAM"),
])
def test_simulate_out_of_range_solver_setting_exit_2(key, value, code, tmp_path, capsys):
    solver = {**{"N": "20", "dt": "1.0e-3", "t_end": "0.02"}, key: value}
    p = tmp_path / "bad.yaml"
    p.write_text(GOOD.replace("solver: {N: 20, dt: 1.0e-3, t_end: 0.02}", "solver: {"
                              + ", ".join(f"{k}: {v}" for k, v in solver.items()) + "}"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error [{code}]: {key} must ")
    assert not out.exists()


def test_nonpositive_energy_weight_exit_2(tmp_path, capsys):
    """A sign error in the energy weights is a configuration error for
    simulate and verify alike, found before anything runs."""
    p = tmp_path / "bad.yaml"
    p.write_text(GOOD.replace("t_end: 0.02}", "t_end: 0.02, energy_weights: {mu: [-1.0]}}"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert main(["verify", "--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error [NONPOSITIVE_PARAM]: energy weights mu must be > 0, got [-1.]"] * 2
    assert captured.out == ""
    assert not out.exists()


def test_rounded_horizon_is_reported(tmp_path, capsys):
    """t_end = 0.0105 with dt = 1e-3 runs 10 steps: both commands say so,
    the manifest records the warning and the time of the last step, and it
    lists no flag."""
    p = tmp_path / "run.yaml"
    p.write_text(GOOD.replace("t_end: 0.02", "t_end: 0.0105"))
    warning = ("warning [HORIZON_ROUNDED]: t_end=0.0105 is not a whole number of steps "
               "of dt=0.001: running 10 steps, to t=0.01")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    assert warning in capsys.readouterr().out.splitlines()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_steps"] == 10 and manifest["t_final"] == pytest.approx(0.01)
    assert manifest["warnings"] == [["HORIZON_ROUNDED", warning.split("]: ", 1)[1]]]
    assert manifest["flags_seen"] == []
    assert main(["verify", "--config", str(p)]) == 0
    assert warning in capsys.readouterr().out.splitlines()


def test_manifest_lists_warnings_and_flags_seen(tmp_path, capsys):
    """Negative initial data under quasi-positive kinetics: the warning
    ``simulate`` prints is in the manifest as ``[code, message]``, and so
    are the names of the flags the run set, sorted."""
    p = tmp_path / "run.yaml"
    p.write_text(GOOD.replace("phi: [0.0]", "phi: [-0.1]")
                 .replace('theta: ["cos(pi*z/2)"]', 'theta: ["cos(pi*z/2) - 0.1"]')
                 .replace("psi: [0.0]", "psi: [-0.1]"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    message = "model preserves nonnegativity but initial data start negative"
    assert f"warning [NEGATIVE_INITIAL_DATA]: {message}" in capsys.readouterr().out.splitlines()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outcome"] == "completed"
    assert manifest["warnings"] == [["NEGATIVE_INITIAL_DATA", message]]
    assert manifest["flags_seen"] == ["NEGATIVE_C", "NEGATIVE_Y"]
    flags = {f for line in (out / "scalars.csv").read_text().splitlines()[1:]
             for f in line.rsplit(",", 1)[1].split(";") if f}
    assert flags == set(manifest["flags_seen"])


def test_whole_step_horizon_is_not_reported(good_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(good_cfg), "--out", str(out)]) == 0
    assert "HORIZON_ROUNDED" not in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_steps"] == 20 and manifest["t_final"] == pytest.approx(0.02)


def test_missing_file_exit_2(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.yaml"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    # a file that is not UTF-8 is unreadable too, not a UnicodeDecodeError
    p = tmp_path / "binary.yaml"
    p.write_bytes(b"problem:\n  R0: \xd0\x01\n")
    capsys.readouterr()
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error [PARSE_ERROR]: cannot read config {str(p)!r}: 'utf-8' codec can't decode ")


def test_nonfinite_initial_data_exit_2(tmp_path, capsys):
    """phi = 1/(3z - 1) is infinite at node 10 of the run's grid of N = 30.
    Problem validation, which samples the data on that grid, rejects it and
    names the profile and the node: a problem violation, on which simulate
    exits 2 like on every invalid problem, and verify prints its failed
    check and exits 1.  Data that are not finite are checked before their
    sign, so the report holds no ``NEGATIVE_INITIAL_DATA`` warning."""
    p = tmp_path / "run.yaml"
    p.write_text(GOOD.replace("phi: [0.0]", 'phi: ["1/(3*z-1)"]').replace("N: 20", "N: 30"))
    out = tmp_path / "o"
    violation = "initial data phi[0] is not finite at node 10 (z=0.333333) of N=30"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error [NONFINITE_INPUT]: invalid problem data: NONFINITE_INPUT: "
                            f"{violation}\n")
    assert captured.out == ""
    assert not out.exists()
    assert main(["verify", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (f"problem validation: FAIL [NONFINITE_INPUT] {violation}\n"
                            "verify: FAIL\n")
    assert captured.err == ""


@pytest.mark.parametrize("old,new,violation", [
    ('theta: ["cos(pi*z/2)"]', 'theta: ["1/(z-0.5)"]',
     "initial data theta[0] is not finite at node 50 (z=0.5) of N=100"),
    ("psi: [0.0]", 'psi: ["1/t"]', "surface value psi[0] is not finite at t=0"),
])
def test_nonfinite_data_on_the_validation_sample_are_named(old, new, violation, tmp_path,
                                                           capsys):
    """Problem validation samples the initial data on the run's grid, here
    of N = 100, and ``psi`` at t = 0.  Data that are not finite there are
    named: the profile with its node and the grid's N, or the surface value."""
    p = tmp_path / "run.yaml"
    p.write_text((CONFIGS / "zero_kinetics.yaml").read_text().replace(old, new))
    assert main(["verify", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (f"problem validation: FAIL [NONFINITE_INPUT] {violation}\n"
                            "verify: FAIL\n")
    assert captured.err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_velocity_on_the_run_grid(tmp_path, capsys):
    """``g = Y`` is finite everywhere, but its integral ``v1(0)`` overflows on
    the run's grid of N = 1000, where two adjacent nodes hold 1.3e308 each
    (a grid of 200 cells sees at most 3.3e305).  The t = 0 velocity is
    input, so it is a problem violation naming ``R0`` and ``N``, not a step
    error: simulate exits 2 and verify prints its failed check and exits 1."""
    p = tmp_path / "run.yaml"
    p.write_text("""
problem:
  kinetics: {preset: linear, A: [[1.0]], c: [0.0], B: [[0.0]], d: [0.0]}
  phi: ["1.7e308*exp(-1e6*(z-0.3325)^2)"]
  theta: [1.0]
  psi: [1.0]
  D: [1.0]
  lambda: 0.5
  R0: 1.0
solver: {N: 1000, dt: 1.0e-3, t_end: 0.01}
""")
    out = tmp_path / "o"
    violation = ("surface velocity v1(0) = R0^2 int_0^1 g is not finite at R0=1 on the run's "
                 "grid of N=1000; reduce R0 or g at the initial data")
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error [NONFINITE_INPUT]: invalid problem data: NONFINITE_INPUT: "
                            f"{violation}\n")
    assert captured.out == "" and not out.exists()
    assert main(["verify", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"problem validation: FAIL [NONFINITE_INPUT] {violation}\nverify: FAIL\n"
    assert captured.err == ""


_GROWTH = GOOD.replace("kinetics: {preset: zero}",
                      "kinetics: {preset: linear, A: [[10.0]], c: [0.0], B: [[-1.0]], d: [0.0]}")
_RATE_AT = "at the initial data is not finite at node"


_OVERFLOWING_PHI = pytest.mark.parametrize("phi,N,violations", [
    ("1.0e308", 20, [f"kinetics f[0] {_RATE_AT} 0 (z=0) of N=20",
                     f"kinetics g {_RATE_AT} 0 (z=0) of N=20"]),
    ('"1e308*exp(-1e10*(z-1/3)^2)"', 30, [f"kinetics f[0] {_RATE_AT} 10 (z=0.333333) of N=30",
                                          f"kinetics g {_RATE_AT} 10 (z=0.333333) of N=30"]),
], ids=["on_the_sample", "on_the_run_grid"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@_OVERFLOWING_PHI
def test_nonfinite_rate_at_initial_data(tmp_path, capsys, phi, N, violations):
    """``f = 10 Y`` overflows where ``phi`` is 1e308: at every node of the
    sample that problem validation takes on the run's grid, or only at node
    10 of N = 30, where the narrow spike of the second ``phi`` sits (a grid
    of 200 cells has no node close enough to see it).  Either is a problem
    violation naming the rate and the node, ``f`` and with it ``g``, on
    which simulate exits 2 and verify prints its failed checks and exits 1."""
    p = tmp_path / "run.yaml"
    p.write_text(_GROWTH.replace("phi: [0.0]", f"phi: [{phi}]").replace("N: 20", f"N: {N}"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error [NONFINITE_INPUT]: invalid problem data: "
                            + "; ".join(f"NONFINITE_INPUT: {v}" for v in violations) + "\n")
    assert captured.out == "" and not out.exists()
    assert main(["verify", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "".join(f"problem validation: FAIL [NONFINITE_INPUT] {v}\n"
                                   for v in violations) + "verify: FAIL\n"
    assert captured.err == ""


@_OVERFLOWING_PHI
def test_nonfinite_rate_prints_no_numpy_warning(tmp_path, phi, N, violations):
    """The overflow that makes the rate non-finite is the report's to name:
    a fresh simulate or verify process prints no numpy ``RuntimeWarning``."""
    p = tmp_path / "run.yaml"
    p.write_text(_GROWTH.replace("phi: [0.0]", f"phi: [{phi}]").replace("N: 20", f"N: {N}"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(biofilmfront.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    for command, code in (["simulate", 2], ["verify", 1]):
        proc = subprocess.run([sys.executable, "-m", "biofilmfront", command, "--config", str(p)],
                              env=env, capture_output=True, text=True, cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert violations[-1] in proc.stderr + proc.stdout


@pytest.mark.parametrize("old,new,message", [
    ("N: 20", "N: 3", "error [TOO_COARSE]: grid needs at least 4 cells, got N=3"),
    ("t_end: 0.02", "t_end: -1",
     "error [NONPOSITIVE_PARAM]: t_end must be >= 0, got -1.0"),
    ("stride: 10", "stride: 0",
     "error [NONPOSITIVE_PARAM]: snapshot_stride must be >= 1, got 0"),
    ("t_end: 0.02", "t_end: .nan",
     "error [NONFINITE_INPUT]: t_end / dt must be finite, got t_end=nan, dt=0.001"),
    ("t_end: 0.02", "t_end: .inf",
     "error [NONFINITE_INPUT]: t_end / dt must be finite, got t_end=inf, dt=0.001"),
    ("t_end: 0.02", "t_end: 1.0e+200",
     "error [TOO_MANY_STEPS]: t_end / dt = 1e+203 steps are more than an array can hold"),
    # 71 PiB of reports, past a 64-bit process's address space: it fails at once
    ("t_end: 0.02", "t_end: 1.0e+12",
     "error [TOO_MANY_STEPS]: t_end=1e+12 at dt=0.001 is 1000000000000000 steps, whose "
     "reports (8e+16 bytes) do not fit in memory"),
], ids=["N", "t_end", "stride", "t_end_nan", "t_end_inf", "t_end_huge", "t_end_memory"])
def test_library_range_error_exit_2(old, new, message, tmp_path, capsys):
    """The library checks these ranges before the first step; simulate and
    verify both exit 2 with its error and print nothing else."""
    p = tmp_path / "bad.yaml"
    p.write_text(GOOD.replace(old, new))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert main(["verify", "--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message] * 2
    assert captured.out == ""
    assert not out.exists()


def test_grid_too_fine_exit_2(tmp_path, capsys):
    """``--grid-n 10**16`` asks for 80 PB of nodes: ``TOO_FINE``, exit 2, where
    numpy's ``MemoryError`` traceback used to end the process with 1."""
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(CONFIGS / "zero_kinetics.yaml"), "--out", str(out),
                 "--grid-n", str(10**16)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error [TOO_FINE]: grid of N=10000000000000000 cells needs 8e+16 "
                            "bytes for its nodes, more than an array or memory holds; reduce N\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("text", ["1e-3", "1.0e3", "1e+3", "inf", "NaN"])
def test_yaml_text_number_names_the_fix(text, tmp_path, capsys):
    """PyYAML reads YAML 1.1, where these are strings; the error says so and
    names the spelling YAML reads as a number."""
    p = tmp_path / "run.yaml"
    p.write_text(GOOD.replace("dt: 1.0e-3", f"dt: {text}"))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error [SCHEMA_VIOLATION]: solver.dt: expected a number, got {text!r}; YAML reads it "
        "as text: write a dot and a signed exponent (1.0e-3), or .inf / .nan\n")


@pytest.mark.parametrize("key,value", [("alpha", ".nan"), ("beta", ".inf"), ("M0", "-.inf"),
                                       ("tol", ".nan")])
def test_nonfinite_verify_constant_exit_2(key, value, tmp_path, capsys):
    """A NaN alpha used to pass the audit with gamma=nan; every constant of
    the envelope must be finite.  The loader applies the audit's check, so
    simulate and verify both exit 2 with its error before any step."""
    p = tmp_path / "bad.yaml"
    p.write_text(DISSIPATIVE.replace("verify: {alpha: 1.0}",
                                     f"verify: {{alpha: 1.0, {key}: {value}}}"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert main(["verify", "--config", str(p)]) == 2
    got = {".nan": "nan", ".inf": "inf", "-.inf": "-inf"}[value]
    assert capsys.readouterr().err.splitlines() == [
        f"error [NONFINITE_INPUT]: {key} must be finite, got {got}"] * 2
    assert not out.exists()


@pytest.mark.parametrize("key,value,message", [
    ("alpha", "-1.0", "alpha must be > 0, got -1.0"),
    ("alpha", "0", "alpha must be > 0, got 0.0"),
    ("beta", "-0.5", "beta must be >= 0, got -0.5"),
    ("M0", "-1.0e-300", "M0 must be >= 0, got -1e-300"),
    ("tol", "0.0", "tol must be > 0, got 0.0"),
])
def test_verify_constant_out_of_range_exit_2(key, value, message, tmp_path, capsys):
    """The audit owns the constants' ranges, and the loader applies its
    check: simulate and verify exit 2 with the audit's code and message."""
    constants = ", ".join(f"{k}: {v}" for k, v in {"alpha": "1.0", key: value}.items())
    p = tmp_path / "bad.yaml"
    p.write_text(DISSIPATIVE.replace("verify: {alpha: 1.0}", f"verify: {{{constants}}}"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert main(["verify", "--config", str(p)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error [NONPOSITIVE_PARAM]: {message}"] * 2
    assert not out.exists()


def test_include_boundary_string_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text(DISSIPATIVE.replace("verify: {alpha: 1.0}",
                                     'verify: {alpha: 1.0, include_boundary: "false"}'))
    assert main(["verify", "--config", str(p)]) == 2
    assert capsys.readouterr().err == ("error [SCHEMA_VIOLATION]: verify.include_boundary: "
                                       "expected a boolean, got 'false'\n")


MONOD = GOOD.replace("{preset: zero}", "{preset: monod, mu: [0.4], K: [0.3]}")
LINEAR = GOOD.replace("{preset: zero}", "{preset: linear, A: [[-1.0]], c: [0.0], B: [[-1.0]], "
                                        "d: [0.0]}")


@pytest.mark.parametrize("text,old,new,verify_rc,message", [
    (GOOD, "D: [1.0]", "D: [1.0, 1.0]", 1,
     "error [DIMENSION_MISMATCH]: invalid problem data: DIMENSION_MISMATCH: D must have "
     "shape (1,), got (2,)"),
    (GOOD, "psi: [0.0]", "psi: [0.0, 0.0]", 1,
     "error [DIMENSION_MISMATCH]: invalid problem data: DIMENSION_MISMATCH: psi has 2 entries, "
     "expected 1 (one per substrate, as theta)"),
    (MONOD, "K: [0.3]", "K: [0.3, 0.3]", 2,
     "error [DIMENSION_MISMATCH]: K has 2 entries, expected 1 (one per species, as mu)"),
    (MONOD, "K: [0.3]", "K: [0.3], limiting: [0, 0]", 2,
     "error [DIMENSION_MISMATCH]: limiting has 2 entries, expected 1 (one per species, as mu)"),
    (MONOD, "K: [0.3]", "K: [0.3], yields: [[0.5], [0.5, 0.1]]", 2,
     "error [DIMENSION_MISMATCH]: yields must be a rectangular array of numbers, got "
     "[[0.5], [0.5, 0.1]]"),
    (LINEAR, "A: [[-1.0]]", "A: [[-1.0], [0.0, -1.0]]", 2,
     "error [DIMENSION_MISMATCH]: A must be a rectangular array of numbers, got "
     "[[-1.0], [0.0, -1.0]]"),
    (LINEAR, "c: [0.0]", "c: [0.0, 0.0]", 2,
     "error [DIMENSION_MISMATCH]: matrix/vector shapes disagree: A(1, 1) vs c(2,), "
     "B(1, 1) vs d(1,)"),
    (GOOD, "t_end: 0.02}", "t_end: 0.02, energy_weights: {mu: [1.0, 1.0]}}", 2,
     "error [DIMENSION_MISMATCH]: energy weights need 1 mu and 1 nu entries, got 2 and 1"),
], ids=["D", "psi", "K", "limiting", "yields_ragged", "A_ragged", "c", "energy_weights_mu"])
def test_malformed_shape_is_one_error_line(text, old, new, verify_rc, message, tmp_path,
                                            capsys):
    """The library finds every malformed shape the config hands on: simulate
    exits 2 with one line naming the key.  verify exits 2 as well, except on
    a problem violation (``D``, ``psi``), which it reports as a failed check."""
    p = tmp_path / "bad.yaml"
    p.write_text(text.replace(old, new))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message] and captured.out == ""
    assert not out.exists()
    assert main(["verify", "--config", str(p)]) == verify_rc
    if verify_rc == 1:
        violation = message.split("DIMENSION_MISMATCH: ", 1)[1]
        assert capsys.readouterr().out.splitlines() == [
            f"problem validation: FAIL [DIMENSION_MISMATCH] {violation}", "verify: FAIL"]
    else:
        assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("param,values,message", [
    ("lambda", "0.5,abc", "error [SCHEMA_VIOLATION]: cannot parse sweep value 'abc' as a number"),
    ("lamda", "0.5", "error [UNKNOWN_KEY]: unknown sweep parameter 'lamda'"),
    ("solver.nope.dt", "1e-3", "error [UNKNOWN_KEY]: unknown sweep parameter path "
                               "'solver.nope.dt'"),
    # paths that end inside a list or a number
    ("problem.D.0", "2.0", "error [UNKNOWN_KEY]: unknown sweep parameter path 'problem.D.0'"),
    ("problem.lambda.x", "1.0", "error [UNKNOWN_KEY]: unknown sweep parameter path "
                                "'problem.lambda.x'"),
])
def test_sweep_bad_parameter_exit_2(param, values, message, good_cfg, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(good_cfg), "--param", param, "--values", values,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_config_with_a_date_exit_2(jobs, tmp_path, capsys):
    """A YAML date is a schema violation in sweep as in simulate, serial or
    with worker processes; the sweep names the first run it stops at."""
    p = tmp_path / "date.yaml"
    p.write_text(GOOD.replace("psi: [0.0]", "psi: [2001-01-01]"))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(p), "--param", "lambda", "--values", "0.5,1.0",
                 "--jobs", jobs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error [SCHEMA_VIOLATION]: lambda=0.5: problem.psi[0]: "
                                       "expected number or expression, got date\n")
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2


def test_sweep_invalid_problem_in_workers_exit_2(tmp_path, monkeypatch, capsys):
    """A sweep with worker processes validates every run's problem before
    it starts a worker: an invalid one exits 2, as in a serial sweep, naming
    the run, and no pool is made."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    p = tmp_path / "bad.yaml"
    p.write_text(GOOD.replace("D: [1.0]", "D: [-1.0]"))
    assert main(["sweep", "--config", str(p), "--param", "lambda", "--values", "0.25,0.5",
                 "--jobs", "2", "--out", str(tmp_path / "sweep")]) == 2
    assert capsys.readouterr().err.startswith(
        "error [NONPOSITIVE_D]: lambda=0.25: invalid problem data: NONPOSITIVE_D: ")
    assert _RecordingPool.made == [] and not (tmp_path / "sweep").exists()


def test_a_command_leaves_no_argparse_objects_for_the_collector(tmp_path):
    """The command-line parser is built once per process, so a ``main`` call
    leaves no unreachable parser, action or formatter behind: with the
    collector off during the call, a collection afterwards finds none."""
    p = tmp_path / "run.yaml"
    p.write_text(GOOD)
    argv = ["simulate", "--config", str(p), "--out", str(tmp_path / "out")]
    assert main(argv) == 0  # a first call builds the parser
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_bad_value_stops_before_any_run(jobs, tmp_path, monkeypatch, capsys):
    """A value that makes one run's problem, horizon or snapshot stride
    invalid stops the sweep before any run starts: the error names the
    value, and nothing is written, not even the valid runs' outputs or the
    summary."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    cases = [
        ("lambda", "0.5,-1", "error [NONPOSITIVE_LAMBDA]: lambda=-1: invalid problem data: "
                             "NONPOSITIVE_LAMBDA: detachment rate must be > 0, got -1.0\n"),
        ("t_end", "0.01,-1", "error [NONPOSITIVE_PARAM]: t_end=-1: t_end must be >= 0, "
                             "got -1.0\n"),
        ("stride", "5,0", "error [NONPOSITIVE_PARAM]: stride=0: snapshot_stride must be >= 1, "
                          "got 0\n"),
    ]
    for param, values, err in cases:
        out = tmp_path / param
        assert main(["sweep", "--config", str(CONFIGS / "zero_kinetics.yaml"), "--param", param,
                     "--values", values, "--jobs", jobs, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err
        assert _RecordingPool.made == [] and not out.exists()


@pytest.mark.parametrize("exc", [
    ValidationError("bad key", code="UNKNOWN_KEY"),
    InvalidProblem(ValidationReport(violations=[("NONPOSITIVE_D", "D < 0")],
                                    warnings=[("NEGATIVE_INITIAL_DATA", "phi < 0")])),
    ThicknessCollapse("washout", thickness=1e-9),
    PicardDivergence("no contraction", residual_history=[1.0, 2.0]),
    OutputError("cannot write"),
], ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and str(back) == str(exc)
    assert set(vars(back)) == set(vars(exc)) and back.code == exc.code
    if isinstance(exc, InvalidProblem):
        assert back.report == exc.report


def test_config_error_is_a_validation_error(tmp_path):
    """One family of input errors, on which the CLI exits 2: a bad
    configuration file raises ``ValidationError`` itself, no subclass."""
    p = tmp_path / "typo.yaml"
    p.write_text(GOOD.replace("lambda:", "lamda:"))
    with pytest.raises(ValidationError) as exc:
        biofilmfront.parse_config(str(p))
    assert type(exc.value) is ValidationError and exc.value.code == "UNKNOWN_KEY"
    assert issubclass(InvalidProblem, ValidationError)


def test_usage_error_exit_2():
    assert main(["simulate", "--no-such-flag"]) == 2
    assert main([]) == 2


def test_determinism_across_invocations(good_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(good_cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(good_cfg), "--out", str(out2)]) == 0
    assert (out1 / "scalars.csv").read_bytes() == (out2 / "scalars.csv").read_bytes()


def test_verify_pass(good_cfg, capsys):
    rc = main(["verify", "--config", str(good_cfg)])
    assert rc == 0
    assert "verify: PASS" in capsys.readouterr().out


def test_verify_with_envelope(tmp_path, capsys):
    p = tmp_path / "diss.yaml"
    p.write_text(DISSIPATIVE)
    rc = main(["verify", "--config", str(p)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "envelope" in out
    assert "verify: PASS" in out


def test_verify_envelope_fail(tmp_path, capsys):
    """The shipped dissipative run audited with an overclaimed decay rate
    crosses its envelope at the first step: one failed check, exit 1."""
    text = (CONFIGS / "linear_dissipative.yaml").read_text()
    assert "  alpha: 1.0\n" in text
    p = tmp_path / "overclaim.yaml"
    p.write_text(text.replace("  alpha: 1.0\n", "  alpha: 50.0\n"))
    assert main(["verify", "--config", str(p)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "problem validation: ok",
        "run outcome: completed (1000 steps)",
        "positivity: ok (min Y=0.000e+00, min C=0.000e+00)",
        "thickness bound: ok (max R=1)",
        "energy envelope: FAIL at t=0.002 (excess 2.046e-01)",
        "equilibrium residual: skipped (|dR/dt|=7.875e-02, not at equilibrium)",
        "verify: FAIL (energy envelope)",
    ]


def test_sweep_summary(good_cfg, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(good_cfg), "--param", "lambda",
               "--values", "0.25,0.5", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert lines[0] == "lambda,outcome,final_R,final_energy,steps"
    assert len(lines) == 3
    assert (out / "lambda=0.25" / "manifest.json").exists()
    # larger detachment coefficient leaves a thinner film
    r_weak = float(lines[1].split(",")[2])
    r_strong = float(lines[2].split(",")[2])
    assert r_strong < r_weak


def test_sweep_stride(good_cfg, tmp_path):
    # bare ``stride`` is the output block's snapshot stride
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(good_cfg), "--param", "stride",
                 "--values", "5,20", "--out", str(out)]) == 0
    for stride, steps in (("5", [0, 5, 10, 15, 20]), ("20", [0, 20])):
        manifest = json.loads((out / f"stride={stride}" / "manifest.json").read_text())
        assert manifest["snapshot_steps"] == steps


def test_sweep_dotted_path(good_cfg, tmp_path):
    """The dotted-path example of docs/config.md, ``problem.lambda``, runs
    the same configurations as the bare name ``lambda``."""
    dotted, bare = tmp_path / "d", tmp_path / "b"
    assert main(["sweep", "--config", str(good_cfg), "--param", "problem.lambda",
                 "--values", "0.25,0.5", "--out", str(dotted)]) == 0
    assert main(["sweep", "--config", str(good_cfg), "--param", "lambda",
                 "--values", "0.25,0.5", "--out", str(bare)]) == 0
    rows = (dotted / "sweep_summary.csv").read_text().splitlines()
    assert rows[0] == "problem.lambda,outcome,final_R,final_energy,steps"
    assert rows[1:] == (bare / "sweep_summary.csv").read_text().splitlines()[1:]
    for value in ("0.25", "0.5"):
        assert ((dotted / f"problem.lambda={value}" / "scalars.csv").read_bytes()
                == (bare / f"lambda={value}" / "scalars.csv").read_bytes())


class _RecordingPool:
    """Stand-in for ``ProcessPoolExecutor`` that records its ``max_workers``
    and maps in this process, so no worker is ever started."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("values,jobs,pools", [
    ("0.25,0.5", "64", [2]),       # never more workers than values
    ("0.25,0.5,1.0", "2", [2]),
    ("0.5", "4", []),              # one value runs serially
    ("0.25,0.5", "1", []),
])
def test_sweep_pool_is_sized_by_the_work(values, jobs, pools, good_cfg, tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(good_cfg), "--param", "lambda", "--values", values,
                 "--jobs", jobs, "--out", str(out)]) == 0
    assert _RecordingPool.made == pools
    assert len((out / "sweep_summary.csv").read_text().splitlines()) == 1 + len(values.split(","))


@pytest.mark.parametrize("jobs,pools", [("1", []), ("2", [2])], ids=["serial", "pool"])
def test_sweep_prints_each_runs_warnings(jobs, pools, good_cfg, tmp_path, monkeypatch, capsys):
    """A run's validation warnings print before its summary line, named by
    the swept value, whether the runs go serially or through a pool."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(good_cfg), "--param", "dt", "--values", "3e-3,1e-3",
                 "--jobs", jobs, "--out", str(out)]) == 0
    assert _RecordingPool.made == pools
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("dt=3e-3: warning [HORIZON_ROUNDED]: t_end=0.02 is not a whole number "
                        "of steps of dt=0.003: running 7 steps, to t=0.021")
    assert lines[1].startswith("dt=3e-3: completed (") and lines[1].endswith("steps=7)")
    assert lines[2].startswith("dt=1e-3: completed (") and lines[2].endswith("steps=20)")
    assert len(lines) == 4 and lines[3].startswith("summary: ")


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_jobs_below_one(jobs, good_cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(good_cfg), "--param", "lambda", "--values", "0.5",
                 "--jobs", jobs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error [SCHEMA_VIOLATION]: --jobs must be >= 1, "
                                       f"got {jobs}\n")
    assert _RecordingPool.made == [] and not out.exists()


@pytest.mark.parametrize("param,values,message", [
    ("problem.nope.x", "0.25,0.5",
     "error [UNKNOWN_KEY]: unknown sweep parameter path 'problem.nope.x'"),
    ("lamda", "0.25,0.5", "error [UNKNOWN_KEY]: unknown sweep parameter 'lamda'"),
    ("lambda", " , ", "error [SCHEMA_VIOLATION]: --values is empty"),
])
def test_sweep_bad_parameter_starts_no_worker(param, values, message, good_cfg, tmp_path,
                                              monkeypatch, capsys):
    """Every run's tree is built before the pool: a bad parameter or no
    value exits 2 with one error line, and no pool is made."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(good_cfg), "--param", param, "--values", values,
                 "--jobs", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert _RecordingPool.made == [] and not out.exists()


def test_sweep_parallel_matches_serial(good_cfg, tmp_path):
    serial, par = tmp_path / "s", tmp_path / "p"
    assert main(["sweep", "--config", str(good_cfg), "--param", "solver.dt",
                 "--values", "1e-3,2e-3", "--out", str(serial)]) == 0
    assert main(["sweep", "--config", str(good_cfg), "--param", "solver.dt",
                 "--values", "1e-3,2e-3", "--jobs", "2", "--out", str(par)]) == 0
    assert (serial / "sweep_summary.csv").read_text() == (par / "sweep_summary.csv").read_text()


def test_mms_command(capsys):
    rc = main(["mms"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "substrate_diffusion" in out
    assert "thickness_ode" in out


def test_manifest_records_hash(good_cfg, tmp_path):
    out = tmp_path / "out"
    main(["simulate", "--config", str(good_cfg), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["config_hash"]) == 64
    assert manifest["package"] == "biofilmfront"


def test_simulate_blocked_output_exits_1(good_cfg, tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("not a directory\n")
    rc = main(["simulate", "--config", str(good_cfg), "--out", str(blocked)])
    assert rc == 1
    assert "error [IO_ERROR]" in capsys.readouterr().err


def test_sweep_summary_full_precision(good_cfg, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(good_cfg), "--param", "lambda",
                 "--values", "0.25,0.5", "--out", str(out)]) == 0
    rows = (out / "sweep_summary.csv").read_text().splitlines()[1:]
    for row, value in zip(rows, ("0.25", "0.5")):
        fields = row.split(",")
        assert fields[0] == value and fields[1] == "completed" and fields[4] == "20"
        # final_R is written as the last scalars.csv R, to all 17 digits
        last = (out / f"lambda={value}" / "scalars.csv").read_text().splitlines()[-1]
        assert fields[2] == last.split(",")[1]
        assert fields[2] == format(float(fields[2]), ".17g")


PECLET_GROWTH = """
problem:
  kinetics: {preset: linear, A: [[1.0]], c: [0.0], B: [[0.0]], d: [0.0]}
  phi: ["0.3 + 0.1*cos(pi*z)"]
  theta: ["1 - 0.5*z^2"]
  psi: [0.5]
  D: [0.02]
  lambda: 0.01
  R0: 1.0
solver: {N: 40, dt: 1.0e-2, t_end: 5.0}
output: {stride: 25}
"""


def test_simulate_failed_step_writes_partial_outputs(tmp_path, capsys):
    """The mesh Peclet number passes 1 at step 62: a classified outcome,
    exit code 1, and the outputs of the 61 accepted steps."""
    p = tmp_path / "peclet.yaml"
    p.write_text(PECLET_GROWTH)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(p), "--out", str(out)])
    assert rc == 1
    assert "outcome: assembly_rejected" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outcome"] == "assembly_rejected"
    assert manifest["n_steps"] == 61
    assert manifest["snapshot_steps"] == [0, 25, 50, 61]
    failure = manifest["failure"]
    assert failure["code"] == "UNSTABLE_ASSEMBLY"
    assert failure["step"] == 62 and failure["t"] == pytest.approx(0.62)
    assert len((out / "scalars.csv").read_text().splitlines()) == 1 + 61
    for name in manifest["files"]:
        assert (out / name).exists()


def _shipped(name, *edits, t_end="0.002"):
    """A shipped config's text with ``(old, new)`` edits and a short horizon."""
    text = (CONFIGS / f"{name}.yaml").read_text()
    text = text.replace(text[text.index("  t_end: "):].splitlines()[0], f"  t_end: {t_end}")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize("name,edit,outcome,code", [
    ("zero_kinetics", ("lambda: 0.5", "lambda: 1.0e+308"), "solve_failed", "NONFINITE"),
    ("monod_growth", ("k_d: [0.02]", "k_d: [1.0e+308]"), "assembly_rejected",
     "UNSTABLE_ASSEMBLY"),
], ids=["lambda", "k_d"])
def test_overflowing_first_step_is_classified(name, edit, outcome, code, tmp_path, capsys):
    """lambda = 1e308 overflows the thickness stage's x**4, and k_d = 1e308
    the grid size the Peclet message would name; both used to escape as an
    ``OverflowError``.  Now step 1 fails: a classified outcome, exit 1 and
    the outputs of t = 0."""
    p = tmp_path / "run.yaml"
    p.write_text(_shipped(name, edit))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
    assert f"outcome: {outcome}" in capsys.readouterr().out.splitlines()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outcome"] == outcome and manifest["n_steps"] == 0
    assert manifest["failure"]["code"] == code and manifest["failure"]["step"] == 1
    for file in manifest["files"]:
        assert (out / file).exists()


@pytest.mark.parametrize("name,edit,command,line", [
    ("monod_growth", ("D: [0.05]", "D: [1.0e+308]"), "simulate", "outcome: solve_failed"),
    ("linear_dissipative", ("d: [0.0]", "d: [1.0e+308]"), "simulate",
     "outcome: continuation_tripped"),
    ("linear_dissipative", ("B: [[-1.0]]", "B: [[1.0e+308]]"), "simulate",
     "outcome: solve_failed"),
    ("monod_growth", ("k_d: [0.02]", "k_d: [1.0e+308]"), "simulate",
     "outcome: assembly_rejected"),
    ("linear_dissipative", ("alpha: 1.0", "alpha: 1.0e+200"), "verify",
     "energy envelope: FAIL at t=0.002 (excess inf)"),
    ("zero_kinetics", ("R0: 1.0", "R0: 1.0e+100"), "verify",
     "equilibrium residual: skipped (|dR/dt|=inf, not at equilibrium)"),
], ids=["D", "d", "B", "k_d", "alpha", "R0"])
def test_overflowing_run_prints_no_numpy_warning(name, edit, command, line, tmp_path, capsys):
    """Each value overflows the solver's arrays mid-run, or the audit's.  A
    run and an audit silence numpy's floating-point warnings, which this
    suite turns into errors, and print the classified outcome on stdout
    (R0 = 1e100 used to escape the equilibrium check as an ``OverflowError``)."""
    p = tmp_path / "run.yaml"
    p.write_text(_shipped(name, edit, t_end="0.01"))
    out = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, "--config", str(p), *out]) == 1
    captured = capsys.readouterr()
    assert line in captured.out.splitlines() and captured.err == ""


def test_initial_thickness_without_a_finite_square(tmp_path, capsys):
    """R0 = 1e200 used to raise an ``OverflowError`` from the solver's R0**2;
    it is an invalid problem: simulate exits 2, verify fails its check."""
    p = tmp_path / "run.yaml"
    p.write_text(_shipped("monod_growth", ("R0: 1.0", "R0: 1.0e+200")))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error [NONFINITE_INPUT]: invalid problem data: "
                                       "NONFINITE_INPUT: R0=1e+200 has no finite square\n")
    assert not out.exists()
    assert main(["verify", "--config", str(p)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "problem validation: FAIL [NONFINITE_INPUT] R0=1e+200 has no finite square",
        "verify: FAIL"]


@pytest.mark.parametrize("name,N,edit", [
    ("linear_dissipative", 80, ("c: [0.0]", "c: [1.0e+308]")),
    ("linear_dissipative", 80, ("phi: [0.0]", "phi: [1.0e+308]")),
    ("equilibrium", 40, ("A: [[0.0]]", "A: [[1.0e+308]]")),
    ("equilibrium", 40, ("c: [0.5]", "c: [1.0e+308]")),
], ids=["c", "phi", "A", "c_balanced"])
def test_overflowing_initial_velocity_is_a_violation(name, N, edit, tmp_path, capsys):
    """Rates finite at the initial data whose integral v1(0) overflows used
    to escape as a bare ``NONFINITE`` error naming no input, after numpy's
    overflow warnings.  It is an invalid problem naming R0, g and the run's
    N, without a ``RuntimeWarning``: simulate exits 2, verify fails its check."""
    violation = (f"surface velocity v1(0) = R0^2 int_0^1 g is not finite at R0=1 on the run's "
                 f"grid of N={N}; reduce R0 or g at the initial data")
    p = tmp_path / "run.yaml"
    p.write_text(_shipped(name, edit))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error [NONFINITE_INPUT]: invalid problem data: "
                                       f"NONFINITE_INPUT: {violation}\n")
    assert not out.exists()
    assert main(["verify", "--config", str(p)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"problem validation: FAIL [NONFINITE_INPUT] {violation}", "verify: FAIL"]


def test_sweep_sets_a_key_of_a_null_block(tmp_path, capsys):
    """An empty ``output:`` block runs under simulate; a sweep of its
    ``stride`` fills it instead of raising a ``TypeError``."""
    p = tmp_path / "run.yaml"
    p.write_text(_shipped("zero_kinetics", ("output:\n  stride: 100\n", "output:\n")))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(p), "--param", "stride", "--values", "2",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "stride=2" / "manifest.json").read_text())
    assert manifest["snapshot_steps"] == [0, 2]


#: 1 - z^2 against psi = 0 fails the second-order matching condition:
#: D theta''(1) = -2, not psi'(0) = 0
SECOND_ORDER_MISMATCH = GOOD.replace('"cos(pi*z/2)"', '"1 - z^2"')


def test_simulate_prints_validation_warnings(tmp_path, capsys):
    p = tmp_path / "neg.yaml"
    p.write_text(SECOND_ORDER_MISMATCH.replace("phi: [0.0]", "phi: [-0.1]"))
    rc = main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "warning [NEGATIVE_INITIAL_DATA]: model preserves nonnegativity but initial " \
           "data start negative" in lines
    assert any(line.startswith("warning [SECOND_ORDER_COMPAT]: substrate 0: ")
               for line in lines)


def test_invalid_problem_names_every_violation(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text(GOOD.replace("psi: [0.0]", "psi: [0.5]").replace("D: [1.0]", "D: [-1.0]"))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [NONPOSITIVE_D]: invalid problem data: NONPOSITIVE_D: ")
    assert "; COMPAT_MISMATCH: " in err
    assert not (tmp_path / "o").exists()
    assert main(["verify", "--config", str(p)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("]")[0] for line in lines[:2]] == [
        "problem validation: FAIL [NONPOSITIVE_D", "problem validation: FAIL [COMPAT_MISMATCH"]
    assert lines[2:] == ["verify: FAIL"]


def test_verify_invalid_problem_prints_its_warnings(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text(GOOD.replace("phi: [0.0]", "phi: [-0.1]").replace("D: [1.0]", "D: [-1.0]"))
    assert main(["verify", "--config", str(p)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "warning [NEGATIVE_INITIAL_DATA]: model preserves nonnegativity but initial data "
        "start negative",
        "problem validation: FAIL [NONPOSITIVE_D] diffusivities must be > 0, got [-1.]",
        "verify: FAIL",
    ]


def test_verify_prints_validation_warnings(tmp_path, capsys):
    p = tmp_path / "run.yaml"
    p.write_text(SECOND_ORDER_MISMATCH)
    assert main(["verify", "--config", str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("warning [SECOND_ORDER_COMPAT]: substrate 0: ")
    assert lines[1] == "problem validation: ok"
