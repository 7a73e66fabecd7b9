"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Each test also prints a one-line summary with the measured values.
"""

import dataclasses
import gc
import glob
import hashlib
import importlib.metadata
import math
import os
import platform
import sys
import time

import numpy as np
import pytest

import biofilmfront as bf
from biofilmfront import cli
from biofilmfront.cli import main as cli_main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _report(label, ok, detail):
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {label}: {detail}"


# -- shared runs of every shipped configuration ---------------------------------


@pytest.fixture(scope="module")
def shipped_runs():
    runs = {}
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml"))):
        spec = bf.parse_config(path)
        traj = bf.run_simulation(spec.data, spec.kin, spec.cfg, spec.t_end,
                                 snapshot_stride=spec.stride)
        runs[os.path.basename(path)] = (spec, traj)
    return runs


#: SHA-256 of each shipped run: its ``reports`` bytes, then ``x`` and ``v`` of
#: every stored state in order; pinned with the versions of GOLDEN_VERSIONS
GOLDEN_DIGESTS = {
    "equilibrium.yaml": "71c6b77c35ba3c446937e0be5c6cd50e0dad360b5daea4a3744a20c4ace1c1bc",
    "linear_dissipative.yaml": "1dc94aa89cc9e794ae9cc5cb79147be27acf09f10a4214e87702b25ee16a5107",
    "monod_growth.yaml": "1d55ac2067cf68bbef328988be0aae5aae9f4f331dbd2c8bf07e928201afa9d5",
    "zero_kinetics.yaml": "23102d56750d535c7a5911a16d5b0896b2685b3af1f6753bc9eea972c2de57a1",
}
GOLDEN_VERSIONS = "Python 3.11.7, numpy 2.4.6, scipy 1.17.1"


def _versions():
    return (f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {importlib.metadata.version('scipy')}")


def test_shipped_runs_match_their_golden_digests(shipped_runs):
    """Every shipped run is bit for bit the pinned one: a change that moves
    a result, or a library version that does, names the configs it moved."""
    digests = {}
    for name, (_, traj) in shipped_runs.items():
        h = hashlib.sha256(traj.reports.tobytes())
        for s in traj.states:
            h.update(s.x.tobytes())
            h.update(s.v.tobytes())
        digests[name] = h.hexdigest()
    moved = sorted(name for name in digests.keys() | GOLDEN_DIGESTS.keys()
                   if digests.get(name) != GOLDEN_DIGESTS.get(name))
    assert not moved, (f"digests of {', '.join(moved)} differ from those pinned with "
                       f"{GOLDEN_VERSIONS}; running {_versions()}")


@pytest.fixture(scope="module")
def mms_run():
    """One manufactured-solution study and its wall time in seconds."""
    t0 = time.perf_counter()
    report = bf.mms_study()
    return report, time.perf_counter() - t0


#: SHA-256 of ``f"{exit code}\n{stdout}"`` of ``verify`` on each shipped
#: config and of ``mms``; pinned with the versions of GOLDEN_VERSIONS
GOLDEN_STDOUT = {
    "equilibrium.yaml": "55a860f0670fca4ffe60a840c5e28b52a9de82b4bb9e5b8d15745aee6d247882",
    "linear_dissipative.yaml": "e25340a08d7370b1b8b7d39c223d246a5012dc9f97cbd9aba7d74f02dcec33c8",
    "monod_growth.yaml": "caf2dd5286e5d479ec3d7f32ad3c12d626cc71a11f52ac5a39fb09f7e1975fb5",
    "zero_kinetics.yaml": "8a400cd7d48f3b726c3660e47fecf2674017e8b2eef94640680a49311103ec49",
    "mms": "679e5e28ea9eb61607057c7ac851e1affa4dbaa98e50364c0107fcc4c5100333",
}


def test_verify_and_mms_stdout_match_their_golden_digests(shipped_runs, mms_run, monkeypatch,
                                                          capsys):
    """``verify`` on each shipped config and ``mms`` print the pinned bytes
    and exit with the pinned codes.  They audit the runs of ``shipped_runs``
    and report the study of ``mms_run``, so no run is made twice."""
    runs = {spec.config_hash: (spec, traj) for spec, traj in shipped_runs.values()}
    monkeypatch.setattr(cli, "_run_tree", lambda tree: runs[bf.build_runspec(tree).config_hash])
    monkeypatch.setattr(cli, "mms_study", lambda: mms_run[0])
    commands = {name: ["verify", "--config", os.path.join(CONFIG_DIR, name)]
                for name in shipped_runs}
    digests = {}
    for name, argv in {**commands, "mms": ["mms"]}.items():
        code = cli_main(argv)
        digests[name] = hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode()).hexdigest()
    moved = sorted(name for name in digests.keys() | GOLDEN_STDOUT.keys()
                   if digests.get(name) != GOLDEN_STDOUT.get(name))
    assert not moved, (f"stdout digests of {', '.join(moved)} differ from those pinned with "
                       f"{GOLDEN_VERSIONS}; running {_versions()}: {digests}")


#: Python and C calls (``sys.setprofile``'s ``call`` and ``c_call`` events) of
#: one warm 200-step run, by problem; pinned with the versions of
#: GOLDEN_VERSIONS, since numpy's Python-level wrappers count too
GOLDEN_CALLS = {
    "c01 N=100 dt=1e-3": 18056,
    "monod N=40 dt=1e-3": 18536,
    "monod N=40 dt=1e-2": 30416,
}


def _count_calls(data, kin, cfg, steps=200):
    """Calls made by a ``steps``-step run, after a first run has warmed up
    numpy and the package's caches.  The garbage collector is off while
    they are counted, so that no finalizer of an earlier test's objects
    counts."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    bf.run_simulation(data, kin, cfg, t_end=steps * cfg.dt, snapshot_stride=1000)
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        traj = bf.run_simulation(data, kin, cfg, t_end=steps * cfg.dt, snapshot_stride=1000)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert traj.outcome == "completed" and len(traj.reports) == steps
    return calls


def test_calls_per_step_match_their_golden_counts():
    """The interpreter's work per step, a yardstick that the machine's load
    does not move: c01's problem at N=100, and the shipped Monod problem at
    N=40 with dt=1e-3 and dt=1e-2."""
    spec = bf.parse_config(os.path.join(CONFIG_DIR, "monod_growth.yaml"))
    runs = {
        "c01 N=100 dt=1e-3": (_decay_problem(), bf.zero_kinetics(1, 1),
                              bf.SolverConfig(N=100, dt=1e-3)),
        "monod N=40 dt=1e-3": (spec.data, spec.kin, dataclasses.replace(spec.cfg, N=40, dt=1e-3)),
        "monod N=40 dt=1e-2": (spec.data, spec.kin, dataclasses.replace(spec.cfg, N=40, dt=1e-2)),
    }
    counts = {name: _count_calls(*run) for name, run in runs.items()}
    print("calls per step: " + ", ".join(f"{name} {c / 200:.3f}" for name, c in counts.items()))
    assert counts == GOLDEN_CALLS, (f"call counts {counts} differ from those pinned with "
                                    f"{GOLDEN_VERSIONS}; running {_versions()}")


def _decay_problem():
    return bf.ProblemData(
        phi=[lambda z: np.zeros_like(z)],
        theta=[lambda z: np.cos(0.5 * math.pi * z)],
        psi=[lambda t: 0.0],
        D=[1.0],
        lam=0.5,
        R0=1.0,
    )


def test_c01_closed_form_detachment_decay():
    """R0=1, lam=0.5, dt=1e-3, t_end=1: |R(1) - 2.5^(-1/3)| < 1e-6 in < 1 s."""
    t0 = time.perf_counter()
    traj = bf.run_simulation(_decay_problem(), bf.zero_kinetics(1, 1),
                             bf.SolverConfig(N=100, dt=1e-3), t_end=1.0,
                             snapshot_stride=1000)
    elapsed = time.perf_counter() - t0
    err = abs(traj.final_state.R - 2.5 ** (-1.0 / 3.0))
    _report("01 closed-form decay", err < 1e-6 and elapsed < 1.0,
            f"|R(1)-2.5^(-1/3)|={err:.2e}, runtime={elapsed:.2f}s")


def test_c02_physical_round_trip():
    """Back-transformed thickness matches L(t) = 1/(1 + 0.5 t) at t_phys = 1."""
    traj = bf.run_simulation(_decay_problem(), bf.zero_kinetics(1, 1),
                             bf.SolverConfig(N=100, dt=1e-3), t_end=2.0,
                             snapshot_stride=1000)
    phys = bf.back_transform(traj)
    assert phys.t_phys[-1] > 1.0  # recorded horizon covers the probe time
    L_at_1 = float(np.interp(1.0, phys.t_phys, phys.L))
    err = abs(L_at_1 - 2.0 / 3.0)
    _report("02 physical round-trip", err < 1e-4,
            f"|L(t_phys=1)-2/3|={err:.2e}")


def test_c03_parabolic_eigenmode():
    """cos(pi z/2) decays to e^(-(pi/2)^2 * 0.1) within 1% at N=200, dt=1e-4."""
    t0 = time.perf_counter()
    traj = bf.run_simulation(_decay_problem(), bf.zero_kinetics(1, 1),
                             bf.SolverConfig(N=200, dt=1e-4, theta_scheme=0.5),
                             t_end=0.1, snapshot_stride=1000)
    elapsed = time.perf_counter() - t0
    exact = math.exp(-((0.5 * math.pi) ** 2) * 0.1)
    rel_err = abs(traj.final_state.C[0, 0] - exact) / exact
    _report("03 parabolic eigenmode", rel_err < 0.01 and elapsed < 10.0,
            f"rel err={rel_err:.2e}, runtime={elapsed:.2f}s")


def test_c04_positivity_invariance(shipped_runs):
    """Monod run over 10^4 steps: min over all nodes/steps of Y, C >= -1e-12."""
    _, traj = shipped_runs["monod_growth.yaml"]
    assert len(traj.reports) == 10_000
    worst = min(traj.min_Y_seen, traj.min_C_seen)
    _report("04 positivity invariance", worst >= -1e-12,
            f"min(Y,C) over run={worst:.3e}")


def test_c05_thickness_bound_forward_invariance(shipped_runs):
    """Every shipped run keeps R(t) <= max(R0, sqrt(v1_max/lambda)) + 1e-8."""
    worst_excess = -math.inf
    for name, (spec, traj) in shipped_runs.items():
        v1_running = abs(traj.states[0].v1)
        for rep in traj.reports:
            v1_running = max(v1_running, abs(rep.v1))
            bound = bf.r_max_bound(spec.data.R0, spec.data.lam, v1_running)
            worst_excess = max(worst_excess, rep.R - (bound + 1e-8))
    _report("05 thickness bound", worst_excess <= 0.0,
            f"worst R-(bound+1e-8)={worst_excess:.3e} over "
            f"{len(shipped_runs)} configs")


def test_c06_energy_envelope(shipped_runs):
    """Dissipative preset stays under e^(-gamma t) E(0) x (1 + 1e-3)."""
    spec, traj = shipped_runs["linear_dissipative.yaml"]
    rep = bf.dissipation_envelope_check(traj, **spec.verify)
    margin = float(np.min(rep.margins))
    _report("06 energy envelope", margin >= 0.0,
            f"gamma={rep.gamma:g}, min margin={margin:.3e}")


def _contraction_reference():
    data = bf.ProblemData(
        phi=[lambda z: 0.5 + 0.2 * np.cos(math.pi * z)],
        theta=[lambda z: 1.0 - 0.5 * z**2],
        psi=[lambda t: 0.5],
        D=[1.0],
        lam=0.5,
        R0=1.0,
    )
    kin = bf.linear_preset([[-3.0]], [1.5], [[-5.0]], [2.0])
    return data, kin


def _first_step_contraction(dt):
    data, kin = _contraction_reference()
    cfg = bf.SolverConfig(N=50, dt=dt, picard_tol=1e-12, picard_max_iter=80)
    row = bf.run_simulation(data, kin, cfg, t_end=dt).reports[0]  # one step, started cold
    # geometric mean reduction per sweep
    return (row.residual / row.first_residual) ** (1.0 / (row.picard_iterations - 1))


def test_c07_picard_contraction_scaling():
    """Halving dt halves the measured contraction ratio (bracket [0.35, 0.65]).

    Bracket frozen from the calibration run recorded in
    docs/contraction_calibration.md.
    """
    quotients = {}
    for dt in (1e-2, 5e-3, 2.5e-3):
        quotients[dt] = _first_step_contraction(dt / 2) / _first_step_contraction(dt)
    ok = all(0.35 <= q <= 0.65 for q in quotients.values())
    detail = ", ".join(f"dt={dt:g}: {q:.3f}" for dt, q in quotients.items())
    _report("07 contraction scaling", ok, detail)


def test_c08_continuous_dependence():
    """Final-time sup-difference scales linearly in the data perturbation."""

    def run(eps):
        data = bf.ProblemData(
            phi=[lambda z: 0.5 + 0.2 * np.cos(math.pi * z) + eps * np.cos(math.pi * z)],
            theta=[lambda z: 1.0 - 0.5 * z**2],
            psi=[lambda t: 0.5],
            D=[1.0],
            lam=0.5,
            R0=1.0,
        )
        kin = bf.linear_preset([[-3.0]], [1.5], [[-5.0]], [2.0])
        cfg = bf.SolverConfig(N=50, dt=5e-3, picard_tol=1e-12)
        return bf.run_simulation(data, kin, cfg, t_end=0.5,
                                 snapshot_stride=10**9).final_state

    base = run(0.0)
    gains = []
    for eps in (1e-2, 1e-3, 1e-4):
        pert = run(eps)
        diff = max(float(np.max(np.abs(pert.Y - base.Y))),
                   float(np.max(np.abs(pert.C - base.C))),
                   abs(pert.R - base.R))
        gains.append(diff / eps)
    spread = max(gains) / min(gains)
    _report("08 continuous dependence", spread < 2.0,
            f"K(eps)={['%.4f' % g for g in gains]}, spread={spread:.3f}x")


def test_c09_mms_convergence(mms_run):
    """Observed orders >= (1.8, 0.9, 3.5); full study < 60 s."""
    report, elapsed = mms_run
    orders = report.orders()
    ok = (report.ok and elapsed < 60.0)
    detail = ", ".join(f"{k}={v:.2f}" for k, v in orders.items())
    _report("09 manufactured solutions", ok, f"{detail}, runtime={elapsed:.1f}s")


def test_c10_steady_state_balance(shipped_runs):
    """|dR/dt| < 1e-8 at the end of a run implies |v1 - lambda R^2| < 1e-6."""
    spec, traj = shipped_runs["equilibrium.yaml"]
    s = traj.final_state
    rhs = abs(bf.detachment_rhs(s.R, s.v1, spec.data.lam))
    assert rhs < 1e-8  # the shipped balance run does end at equilibrium
    resid = abs(s.v1 - spec.data.lam * s.R**2)
    tol = 1e-6 * max(1.0, s.v1)
    _report("10 steady-state balance", resid < tol,
            f"|dR/dt|={rhs:.2e}, |v1-lam R^2|={resid:.2e}")


#: ``audit``'s records of each shipped run, as ``verify`` prints them
SHIPPED_AUDITS = {
    "equilibrium.yaml": [
        ("outcome", True, "run outcome: completed (1000 steps)"),
        ("positivity", True, "positivity: ok (min Y=1.000e+00, min C=1.000e+00)"),
        ("thickness bound", True, "thickness bound: ok (max R=1)"),
        ("energy envelope", None, "energy envelope: skipped (no verify block)"),
        ("equilibrium", True, "equilibrium residual: ok (|v1 - lambda R^2|=2.220e-16)")],
    "linear_dissipative.yaml": [
        ("outcome", True, "run outcome: completed (1000 steps)"),
        ("positivity", True, "positivity: ok (min Y=0.000e+00, min C=0.000e+00)"),
        ("thickness bound", True, "thickness bound: ok (max R=1)"),
        ("energy envelope", True, "energy envelope: ok (gamma=2, min margin=2.500e-04)"),
        ("equilibrium", None,
         "equilibrium residual: skipped (|dR/dt|=7.875e-02, not at equilibrium)")],
    "monod_growth.yaml": [
        ("outcome", True, "run outcome: completed (10000 steps)"),
        ("positivity", True, "positivity: ok (min Y=2.000e-01, min C=2.614e-08)"),
        ("thickness bound", True, "thickness bound: ok (max R=1)"),
        ("energy envelope", None, "energy envelope: skipped (no verify block)"),
        ("equilibrium", None,
         "equilibrium residual: skipped (|dR/dt|=1.160e-02, not at equilibrium)")],
    "zero_kinetics.yaml": [
        ("outcome", True, "run outcome: completed (1000 steps)"),
        ("positivity", True, "positivity: ok (min Y=0.000e+00, min C=0.000e+00)"),
        ("thickness bound", True, "thickness bound: ok (max R=1)"),
        ("energy envelope", None, "energy envelope: skipped (no verify block)"),
        ("equilibrium", None,
         "equilibrium residual: skipped (|dR/dt|=1.474e-01, not at equilibrium)")],
}


def test_audit_records_of_the_shipped_runs(shipped_runs):
    assert {name: bf.audit(traj, spec.data, spec.verify)
            for name, (spec, traj) in shipped_runs.items()} == SHIPPED_AUDITS


#: each shipped run's validation report, ``(violations, warnings)``, as
#: ``verify`` prints it
SHIPPED_VALIDATION = {
    "equilibrium.yaml": ([], []),
    "linear_dissipative.yaml": ([], []),
    "monod_growth.yaml": ([], [
        ("SECOND_ORDER_COMPAT", "substrate 0: boundary data rate psi'(0)=0 does not match the "
                                "interior balance -1.02382 at t=0; expect a transient boundary "
                                "layer")]),
    "zero_kinetics.yaml": ([], []),
}


def test_validation_reports_of_the_shipped_runs(shipped_runs):
    assert {name: (traj.validation.violations, traj.validation.warnings)
            for name, (_, traj) in shipped_runs.items()} == SHIPPED_VALIDATION


def test_c11_bitwise_determinism(tmp_path):
    """Two `simulate` runs of one config produce identical scalars.csv bytes."""
    cfg_path = os.path.join(CONFIG_DIR, "zero_kinetics.yaml")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
    b1 = (out1 / "scalars.csv").read_bytes()
    b2 = (out2 / "scalars.csv").read_bytes()
    _report("11 determinism", b1 == b2,
            f"{len(b1)} bytes, identical={b1 == b2}")
