"""Command-line interface: simulate, sweep, verify, mms.

Exit codes: 0 success, 1 classified run/check failure (washout, divergence,
invariant or order violation) or any other package error, 2 usage errors and
invalid input: a ``ValidationError``, a bad configuration file included, from
every command alike.  ``verify`` alone reports an invalid problem as a failed
check, on stdout with exit 1.
"""

from __future__ import annotations

import copy
import os
import re
import sys

from .audit import audit, mms_study
from .config import (_OUTPUT_CHECKS, _PROBLEM_CHECKS, _SOLVER_CHECKS, _require_mapping,
                     build_runspec, load_tree)
from .coupler import energy, run_simulation
from .errors import InvalidProblem, SolverError, ValidationError
from .output import _table, _write_text, write_timeseries


def _build_parser():
    import argparse  # here, not at module level: importing the package parses no command line

    parser = argparse.ArgumentParser(
        prog="biofilmfront",
        description="Front-fixed solver for 1D biofilm growth with substrate "
                    "diffusion and surface detachment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one configuration and write outputs")
    sim.add_argument("--config", required=True, help="YAML run configuration")
    sim.add_argument("--out", help="output directory (overrides the config)")
    sim.add_argument("--dt", type=float, help="override solver.dt")
    sim.add_argument("--grid-n", type=int, help="override solver.N")

    swp = sub.add_parser("sweep", help="run a parameter sweep of whole simulations")
    swp.add_argument("--config", required=True)
    swp.add_argument("--param", required=True,
                     help="parameter name (e.g. lambda, R0, dt) or dotted path")
    swp.add_argument("--values", required=True, help="comma-separated values")
    swp.add_argument("--jobs", type=int, default=1, help="concurrent runs (default 1)")
    swp.add_argument("--out", default="sweep_out", help="base output directory")

    ver = sub.add_parser("verify", help="run a config and audit the invariant suite")
    ver.add_argument("--config", required=True)

    sub.add_parser("mms", help="run the manufactured-solution convergence study")
    return parser


def _set_param(tree: dict, name: str, value) -> dict:
    """Set the parameter ``name`` of ``tree`` to ``value``; return ``tree``."""
    if "." in name:
        *path, last = name.split(".")
        node = tree
        for key in path:
            node = node.get(key) if isinstance(node, dict) else None
        if not isinstance(node, dict):  # a path that ends in a list, a number or nothing
            raise ValidationError(f"unknown sweep parameter path {name!r}", code="UNKNOWN_KEY")
        node[last] = value
        return tree
    blocks = (("problem", _PROBLEM_CHECKS), ("solver", _SOLVER_CHECKS),
              ("output", _OUTPUT_CHECKS))
    block = next((b for b, checks in blocks if name in checks), None)
    if block is None:
        raise ValidationError(f"unknown sweep parameter {name!r}", code="UNKNOWN_KEY")
    node = tree[block] = {} if tree.get(block) is None else tree[block]  # absent or null
    _require_mapping(node, block)[name] = value
    return tree


def _parse_value(text: str):
    if re.fullmatch(r"[+-]?\d+", text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"cannot parse sweep value {text!r} as a number",
                              code="SCHEMA_VIOLATION") from None


def _run_tree(tree: dict):
    """Build and run one configuration tree (the run validates it)."""
    spec = build_runspec(tree)
    traj = run_simulation(spec.data, spec.kin, spec.cfg, spec.t_end,
                          snapshot_stride=spec.stride)
    return spec, traj


def _print_warnings(report) -> None:
    for code, msg in report.warnings:
        print(f"warning [{code}]: {msg}")


def _cmd_simulate(args) -> int:
    tree = load_tree(args.config)
    if args.dt is not None:
        _set_param(tree, "dt", args.dt)
    if args.grid_n is not None:
        _set_param(tree, "N", args.grid_n)
    spec, traj = _run_tree(tree)
    _print_warnings(traj.validation)
    target = args.out or spec.out_dir or "out"
    write_timeseries(traj, target, config_hash=spec.config_hash)
    final = traj.final_state
    print(f"outcome: {traj.outcome}")
    print(f"steps: {len(traj.reports)}  t: {final.t:.6g}  R: {final.R:.9g}  "
          f"v1: {final.v1:.9g}")
    print(f"outputs: {target}")
    return 0 if traj.outcome == "completed" else 1


def _sweep_worker(job: dict):
    spec, traj = _run_tree(job["tree"])
    write_timeseries(traj, job["out_dir"], config_hash=spec.config_hash)
    final = traj.final_state
    mu, nu = spec.cfg.weights(spec.kin.n, spec.kin.m)
    return {
        "value_text": job["value_text"],
        "outcome": traj.outcome,
        "final_R": final.R,
        "final_energy": energy(final, mu, nu),
        "steps": len(traj.reports),
        "warnings": traj.validation.warnings,
    }


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}", code="SCHEMA_VIOLATION")
    tree = load_tree(args.config)
    value_texts = [v.strip() for v in args.values.split(",") if v.strip()]
    if not value_texts:
        raise ValidationError("--values is empty", code="SCHEMA_VIOLATION")
    # every tree is built here, so a bad parameter stops the sweep before a worker starts
    jobs = [{"tree": _set_param(copy.deepcopy(tree), args.param, _parse_value(text)),
             "value_text": text, "out_dir": f"{args.out}/{args.param}={text}"}
            for text in value_texts]
    workers = min(args.jobs, len(jobs))  # a pool forks all its workers at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only sweeps use a pool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, jobs))
    else:
        rows = [_sweep_worker(j) for j in jobs]

    os.makedirs(args.out, exist_ok=True)
    summary = os.path.join(args.out, "sweep_summary.csv")
    values = [row[key] for row in rows
              for key in ("value_text", "outcome", "final_R", "final_energy", "steps")]
    _write_text(summary, _table(f"{args.param},outcome,final_R,final_energy,steps",
                                "%s,%s,%.17g,%.17g,%d", values))
    for row in rows:
        for code, msg in row["warnings"]:
            print(f"{args.param}={row['value_text']}: warning [{code}]: {msg}")
        print(f"{args.param}={row['value_text']}: {row['outcome']} "
              f"(final_R={row['final_R']:.6g}, steps={row['steps']})")
    print(f"summary: {summary}")
    return 0 if all(r["outcome"] == "completed" for r in rows) else 1


def _cmd_verify(args) -> int:
    try:
        spec, traj = _run_tree(load_tree(args.config))
    except InvalidProblem as exc:
        _print_warnings(exc.report)
        for code, msg in exc.report.violations:
            print(f"problem validation: FAIL [{code}] {msg}")
        print("verify: FAIL")
        return 1
    _print_warnings(traj.validation)
    print("problem validation: ok")
    failures = []
    for name, ok, line in audit(traj, spec.data, spec.verify):
        print(line)
        if ok is False:
            failures.append(name)
    print("verify: " + ("PASS" if not failures else "FAIL (" + ", ".join(failures) + ")"))
    return 0 if not failures else 1


def _cmd_mms(_args) -> int:
    report = mms_study()
    for name, case in report.cases.items():
        status = "ok" if case.ok else "FAIL"
        errs = ", ".join(f"{e:.3e}" for e in case.errors)
        print(f"{name}: order={case.observed_order:.2f} floor={case.floor} "
              f"[{status}] errors=[{errs}]")
    print("convergence study: " + ("PASS" if report.ok else "FAIL"))
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        command = {"simulate": _cmd_simulate, "sweep": _cmd_sweep, "verify": _cmd_verify,
                   "mms": _cmd_mms}[args.command]
        return command(args)
    except SolverError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 1


if __name__ == "__main__":
    sys.exit(main())
