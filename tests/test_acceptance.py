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
    "equilibrium.yaml": "8ecf8d27882a93fb3fb3e471faa6b53c381b63764be18ee0009ef7c484629910",
    "linear_dissipative.yaml": "44d88997290aca2116456fe9bd25353d991a4d046a7996ee8827900281523078",
    "monod_growth.yaml": "ef905520cf86746db4ba09ab1c46e3a80a2f2a5357faeb5197cbc3abdfd244ec",
    "zero_kinetics.yaml": "860087d5844ac872aaae8c0080db8fde4ed0a2f13c26072f57f588e27b4eaeff",
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


#: Python and C calls (``sys.setprofile``'s ``call`` and ``c_call`` events) of
#: one warm 200-step run, by problem; pinned with the versions of
#: GOLDEN_VERSIONS, since numpy's Python-level wrappers count too
GOLDEN_CALLS = {
    "c01 N=100 dt=1e-3": 20248,
    "monod N=40 dt=1e-3": 20770,
    "monod N=40 dt=1e-2": 32980,
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


def test_c09_mms_convergence():
    """Observed orders >= (1.8, 0.9, 3.5); full study < 60 s."""
    t0 = time.perf_counter()
    report = bf.mms_study()
    elapsed = time.perf_counter() - t0
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
