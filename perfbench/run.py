"""Benchmark of biofilmfront: whole runs of three workloads, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload monod_n40 --seed 0 --seconds 20 --trace 0

One process, one call at a time, no threads.  ``--trace 0`` reports the
end-to-end metrics (``run_s``, ``setup_s``, ``peak_rss_mb``) from untraced
calls.  ``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics (see ``spans.py`` and README.md).  Every call's outputs
are checked; the last line of standard output is one JSON object.

Times are calibrated.  On a shared machine, neighbours slow every call by
a third or more for minutes at a time.  So a fixed gauge kernel is timed
right before every call, and a fresh process that imports numpy right
before every set-up probe, and each time is scaled to the speed at which
its gauge takes ``GAUGE_S`` or ``NUMPY_IMPORT_S``.  ``run_s`` is the median
calibrated call and ``setup_s`` the median calibrated set-up probe; stderr
shows the raw times (README.md, "Steadiness").
"""

from __future__ import annotations

import argparse
import compileall
import functools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
# No bytecode files are written next to any source, here or in the probes.
# The probes import a copy of the package whose bytecode this run compiles
# (see ``copy_package``), so set-up time does not depend on the caches that
# earlier test or CLI runs left in src/.
sys.dont_write_bytecode = True
PROBE_ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")

import numpy as np  # noqa: E402  (the gauge; the package imports it anyway)

import spans  # noqa: E402
import workloads  # noqa: E402

#: fresh set-up processes measured per run (one more runs first to warm the
#: file cache and is discarded)
PROBES = 12
#: timed calls per run, at least, whatever ``--seconds`` says
MIN_CALLS = 3
PROBE_TIMEOUT_S = 60
#: time of ``gauge()`` on a 2-vCPU machine when it runs at full speed (its
#: fastest runs); calibrated call times are wall times scaled to that speed
GAUGE_S = 0.015
#: the set-up probes' gauge: a fresh process that times its ``import numpy``
NUMPY_IMPORT = ("import time; t0 = time.perf_counter(); import numpy; "
                "print(time.perf_counter() - t0)")
#: time of ``NUMPY_IMPORT`` on the same machine at full speed
NUMPY_IMPORT_S = 0.1

_GAUGE_ROW = np.linspace(0.0, 1.0, 41)


def gauge() -> float:
    """Seconds taken by a fixed mix of interpreter work and numpy calls on
    41-element arrays, the kind of work the solver does.  It measures how
    fast the machine runs that work at this moment."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(3000):
        row = _GAUGE_ROW * 1.0001 + i
        total += float(row[-1]) + float(np.sum(row[1:5]))
    return time.perf_counter() - t0


def copy_package(workdir: str) -> str:
    """Copy ``src/biofilmfront`` into ``workdir`` without its ``__pycache__``
    and compile the copy's bytecode; return the directory to import it from.

    A probe then loads bytecode compiled from the current sources, as an
    installed package would, whether or not src/ holds stale or no caches.
    """
    dest = os.path.join(workdir, "src")
    shutil.copytree(os.path.join(SRC, "biofilmfront"), os.path.join(dest, "biofilmfront"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(dest, quiet=1):
        raise RuntimeError("cannot compile the copied package")
    return dest


def fresh_process(args: list[str]) -> str | None:
    """Last line of stdout of a fresh Python process, or None if it failed."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=PROBE_ENV,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(f"set-up probe failed:\n{proc.stderr}")
        return None
    return proc.stdout.strip().splitlines()[-1]


def probe_setup(workload: str, seed: int, workdir: str, src: str) -> dict | None:
    """One fresh-process set-up measurement, raw and calibrated by the numpy
    import timed in another fresh process just before it, or None when
    either process failed.

    A fresh process that imports modules is slowed by a neighbour's load
    less than the in-process gauge is, and about as much as another fresh
    process that imports modules (README.md, "Probes")."""
    ref = fresh_process(["-c", NUMPY_IMPORT])
    out = fresh_process([os.path.join(HERE, "probe.py"), workload, str(seed), workdir, src])
    if ref is None or out is None:
        return None
    scale = NUMPY_IMPORT_S / float(ref)
    raw = json.loads(out)
    return {**raw, **{f"{k}_cal": v * scale for k, v in raw.items()}}


class Runner:
    """Makes the timed calls of one case and checks every result against the
    first one that passed its checks: a deterministic solver gives the same
    final R, bit for bit, and the same per-step sweep counts, traced or not.
    A call that raises counts as a failed operation and the run goes on."""

    def __init__(self, case):
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def check(self, result) -> dict:
        """The case's check record, or a failed one when the call raised."""
        if not isinstance(result, Exception):
            try:
                return self.case.check(result)
            except Exception as exc:
                result = exc
        return {"errors": [f"{type(result).__name__}: {result}"], "R": math.nan,
                "sweeps": (), "files": 0, "bytes": 0}

    def call(self, kin=None) -> tuple[float, float]:
        """One checked call; returns its calibrated and its raw wall time."""
        scale = GAUGE_S / gauge()
        t0 = time.perf_counter()
        try:
            result = self.case.run(kin)
        except Exception as exc:  # one failed operation; the run goes on
            result = exc
        elapsed = time.perf_counter() - t0
        rec = self.check(result)
        key = (rec["R"].hex(), rec["sweeps"])
        if self.reference is None:
            if not rec["errors"]:
                self.reference = rec
        elif not rec["errors"] and key != (self.reference["R"].hex(),
                                           self.reference["sweeps"]):
            rec["errors"].append("final R or sweep counts differ from the first call")
        self.attempted += 1
        if rec["errors"]:
            self.failed += 1
            sys.stderr.write(f"check failed: {'; '.join(rec['errors'])}\n")
        return elapsed * scale, elapsed


def measure(runner: Runner, seconds: float, probe, tracer=None):
    """Timed calls until their time adds up to ``seconds``, with ``PROBES``
    set-up probes spread evenly among them, so that both sample the same
    stretch of machine time.  With a tracer, every untraced call is followed
    by a traced one.  Returns the untraced and traced (calibrated, raw) call
    times, the layer stats of each traced call, and the probe results."""
    kin = None
    if tracer is not None and runner.case.workload != "simulate_dense":
        kin = tracer.kinetics(runner.case.kin)
    plain, traced, per_call, probes = [], [], [], []
    spent = 0.0
    while len(probes) < PROBES or len(plain) < MIN_CALLS or spent < seconds:
        if len(probes) < PROBES and spent >= len(probes) * seconds / PROBES:
            probes.append(probe())
            continue
        t0 = time.perf_counter()
        plain.append(runner.call())
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(runner.call(kin))
            finally:
                tracer.uninstall()
            per_call.append({k: (s.calls, s.total_s, s.self_s)
                             for k, s in tracer.stats.items()})
        spent += time.perf_counter() - t0
    return plain, traced, per_call, probes


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, plain, traced, per_call, ref, import_s) -> dict:
    def best(key, i):
        return min(c[key][i] for c in per_call)

    out = {}
    for key in spans.KEYS:
        out[f"{key}.calls"] = metric(best(key, 0), "count")
        out[f"{key}.self_s"] = metric(best(key, 2), "s")
    steps = statistics.quantiles(tracer.step_s, n=100) if len(tracer.step_s) > 1 else [0.0] * 99
    sweeps = sum(ref["sweeps"])
    n_steps = len(ref["sweeps"])
    kin_evals = sum(best(f"kinetics.{name}", 0) for name in spans.KINETICS)
    out.update({
        "coupler.picard_step.p50_ms": metric(1e3 * steps[49], "ms"),
        "coupler.picard_step.p99_ms": metric(1e3 * steps[98], "ms"),
        "coupler.steps": metric(n_steps, "count"),
        "coupler.sweeps": metric(sweeps, "count"),
        "coupler.sweeps_per_step": metric(sweeps / max(n_steps, 1), "sweeps/step"),
        "coupler.sweeps_max": metric(max(ref["sweeps"], default=0), "count"),
        "boundary.velocity_profile.calls_per_sweep": metric(
            best("boundary.velocity_profile", 0) / max(sweeps, 1), "calls/sweep"),
        "kinetics.evals_per_sweep": metric(kin_evals / max(sweeps, 1), "evals/sweep"),
        "output.bytes": metric(ref["bytes"], "B"),
        "output.files": metric(ref["files"], "count"),
        "import_s": metric(import_s, "s"),
        "trace.overhead": metric(statistics.median(t for t, _ in traced)
                                 / statistics.median(t for t, _ in plain), "ratio"),
        "trace.absent": metric(len(tracer.absent), "count"),
    })
    for key in sorted(tracer.absent):
        sys.stderr.write(f"trace: {key} not found, reported as absent\n")
    write_layer_table(per_call, best)
    return out


def write_layer_table(per_call, best) -> None:
    """Human-readable per-call layer table on stderr (inclusive time too)."""
    step_total = best("coupler.picard_step", 1) or 1.0
    sys.stderr.write(f"{'layer':32s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s} "
                     f"{'of steps':>10s}\n")
    for key in spans.KEYS:
        calls, total, own = best(key, 0), best(key, 1), best(key, 2)
        if calls:
            sys.stderr.write(f"{key:32s} {calls:8.0f} {total:9.4f} {own:9.4f} "
                             f"{total / step_total:10.1%}\n")


def run(args, workdir: str) -> dict:
    p = workloads.params(args.workload, args.seed)
    workloads.write_config(args.workload, p, workloads.config_path(workdir, args.workload))
    probe = functools.partial(probe_setup, args.workload, args.seed, workdir,
                              copy_package(workdir))
    probe()  # warms the file cache; not measured

    sys.path.insert(0, SRC)
    import biofilmfront as bf
    import biofilmfront.cli  # noqa: F401  (the simulate_dense entry point)

    runner = Runner(workloads.Case(bf, args.workload, args.seed, workdir))
    runner.call()  # warm-up: first-call costs, and the reference result
    tracer = spans.Tracer() if args.trace else None
    plain, traced, per_call, probes = measure(runner, args.seconds, probe, tracer)
    done = [r for r in probes if r is not None]
    if not done:
        raise RuntimeError("every set-up probe failed")
    if tracer is not None:
        ref = runner.reference or runner.check(RuntimeError("no call passed its checks"))
        metrics = layer_metrics(tracer, plain, traced, per_call, ref,
                                statistics.median(r["import_s_cal"] for r in done))
        sys.stderr.write(f"{len(plain)} untraced and {len(traced)} traced calls\n")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "run_s": metric(statistics.median(t for t, _ in plain), "s"),
            "setup_s": metric(statistics.median(r["setup_s_cal"] for r in done), "s"),
            "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
        }
        raw = [t for _, t in plain]
        sys.stderr.write(f"{len(plain)} timed calls, raw wall time: min {min(raw):.4f} s, "
                         f"median {statistics.median(raw):.4f} s, max {max(raw):.4f} s; "
                         f"raw set-up fastest {min(r['setup_s'] for r in done):.4f} s, "
                         f"median {statistics.median(r['setup_s'] for r in done):.4f} s\n")
    attempted = len(probes) + runner.attempted
    failed = len(probes) - len(done) + runner.failed
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "biofilmfront", "__init__.py")):
        sys.stderr.write(f"error: no biofilmfront package under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
