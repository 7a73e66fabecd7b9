"""``audit``: the records of verify's checks on a recorded run, each
failing or skipped branch driven by a run that takes it."""

from pathlib import Path

import pytest

from biofilmfront import audit, build_runspec, run_simulation
from biofilmfront.cli import main
from biofilmfront.config import load_tree
from biofilmfront.coupler import R_BOUND_EXCEEDED

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
NO_ENVELOPE = ("energy envelope", None, "energy envelope: skipped (no verify block)")


def _run(name, **edits):
    """Spec and trajectory of a shipped config with dotted-path edits."""
    tree = load_tree(str(CONFIGS / f"{name}.yaml"))
    for path, value in edits.items():
        *keys, last = path.split(".")
        node = tree
        for key in keys:
            node = node[key]
        node[last] = value
    spec = build_runspec(tree)
    return spec, run_simulation(spec.data, spec.kin, spec.cfg, spec.t_end,
                                snapshot_stride=spec.stride)


def test_picard_divergence_fails_the_run_outcome():
    """One sweep cannot contract the Monod coupling: step 1 ends
    ``picard_diverged`` with its one residual, and the run outcome fails."""
    spec, traj = _run("monod_growth", **{"solver.picard_max_iter": 1, "solver.t_end": 0.01})
    assert traj.outcome == "picard_diverged" and len(traj.reports) == 0
    assert traj.failure["code"] == "PICARD_DIVERGED" and traj.failure["step"] == 1
    assert traj.failure["message"].startswith("no contraction within 1 sweeps at t=0.001")
    assert traj.failure["residual_history"] == pytest.approx([1.6706e-3], rel=1e-4)
    assert audit(traj, spec.data, spec.verify) == [
        ("outcome", False, "run outcome: FAIL (picard_diverged)"),
        ("positivity", True, "positivity: ok (min Y=2.000e-01, min C=1.000e-01)"),
        ("thickness bound", True, "thickness bound: ok (max R=1)"),
        NO_ENVELOPE,
        ("equilibrium", None,
         "equilibrium residual: skipped (|dR/dt|=3.821e-01, not at equilibrium)"),
    ]


def test_negative_substrate_fails_positivity():
    """A substrate consumed at unit rate from zero data goes negative."""
    kinetics = {"preset": "linear", "A": [[0.0]], "c": [0.0], "B": [[0.0]], "d": [-1.0]}
    spec, traj = _run("zero_kinetics", **{"problem.kinetics": kinetics, "problem.theta": [0.0],
                                          "solver.N": 20, "solver.t_end": 0.01})
    assert traj.outcome == "completed"
    assert audit(traj, spec.data, spec.verify)[1] == (
        "positivity", False,
        "positivity: FAIL (flags ['NEGATIVE_C'], min Y=0.000e+00, min C=-9.950e-03)")


def test_exceeded_bound_fails_the_thickness_bound():
    spec, traj = _run("zero_kinetics", **{"solver.t_end": 0.01})
    assert audit(traj, spec.data)[2] == ("thickness bound", True,
                                         "thickness bound: ok (max R=1)")
    traj.reports.invariant_flags[-1] |= R_BOUND_EXCEEDED
    assert audit(traj, spec.data)[2] == (
        "thickness bound", False, "thickness bound: FAIL (R exceeded its a priori bound)")


def test_thin_film_off_equilibrium_is_skipped():
    """At R = 0.01, |dR/dt| = R^2 |v1 - lambda R^2| is 5e-9 while the film
    still thins: the equilibrium check is skipped, not failed."""
    spec, traj = _run("zero_kinetics", **{"problem.R0": 0.01, "solver.t_end": 0.01})
    assert audit(traj, spec.data) == [
        ("outcome", True, "run outcome: completed (10 steps)"),
        ("positivity", True, "positivity: ok (min Y=0.000e+00, min C=0.000e+00)"),
        ("thickness bound", True, "thickness bound: ok (max R=0.01)"),
        NO_ENVELOPE,
        ("equilibrium", None,
         "equilibrium residual: skipped (|dR/dt|=5.000e-09, not at equilibrium)"),
    ]


def test_verify_prints_the_records_and_names_the_failures(tmp_path, capsys):
    """verify prints each record's line and fails with the names of the
    records whose ``ok`` is False; a skipped record does not fail it."""
    p = tmp_path / "thin.yaml"
    p.write_text((CONFIGS / "zero_kinetics.yaml").read_text()
                 .replace("R0: 1.0", "R0: 0.01").replace("t_end: 1.0", "t_end: 0.01"))
    assert main(["verify", "--config", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "equilibrium residual: skipped (|dR/dt|=5.000e-09, not at equilibrium)",
        "verify: PASS"]
    p.write_text((CONFIGS / "monod_growth.yaml").read_text()
                 .replace("t_end: 10.0", "t_end: 0.01\n  picard_max_iter: 1"))
    assert main(["verify", "--config", str(p)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "run outcome: FAIL (picard_diverged)" in out
    assert out[-1] == "verify: FAIL (outcome)"
