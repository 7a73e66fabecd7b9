"""Set-up probe: one fresh process, timed from before ``import biofilmfront``
to the initial state, the point where the first time step would start.

Usage: ``python3 perfbench/probe.py <workload> <seed> <workdir> <src>``; the
workload's config must already be in ``<workdir>``, and ``biofilmfront`` is
imported from ``<src>``.  Prints one JSON object with ``import_s`` and
``setup_s``.
"""

import json
import os
import sys
import time

sys.path.insert(0, sys.argv[4])
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (stdlib only; see its docstring)


def main(workload: str, seed: int, workdir: str) -> None:
    t0 = time.perf_counter()
    if workload == "simulate_dense":
        import biofilmfront.cli  # noqa: F401  (what `biofilmfront simulate` loads)
    import biofilmfront as bf
    t_import = time.perf_counter()
    p = workloads.params(workload, seed)
    data, kin, cfg = workloads.build_inputs(
        bf, workload, p, workloads.config_path(workdir, workload))
    report = bf.validate_problem(data, kin)
    if not report.ok:
        raise SystemExit(f"invalid problem: {report.violations}")
    bf.initial_state(data, kin, cfg)
    t_end = time.perf_counter()
    print(json.dumps({"import_s": t_import - t0, "setup_s": t_end - t0}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
