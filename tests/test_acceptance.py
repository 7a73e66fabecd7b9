"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Each test also prints a one-line summary with the measured values.
"""

import glob
import math
import os
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
    traj = bf.run_simulation(data, kin, cfg, t_end=dt)  # one step, started cold
    return traj.reports[0].contraction_ratio


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
