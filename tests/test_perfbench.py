"""The benchmark's entry points run against this source tree."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import biofilmfront as bf
import biofilmfront.cli  # noqa: F401  (the simulate workload calls bf.cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(bf.__file__).resolve().parents[1]


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded from its source with nothing
    written next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_entry_points_run(workloads, tmp_path):
    """For every workload, the set-up probe runs in a fresh process and
    prints its two times, and one timed call passes the workload's checks.
    A change to the package API that the benchmark calls fails here."""
    for name in workloads.WORKLOADS:
        p = workloads.params(name, 1)
        workloads.write_config(name, p, workloads.config_path(str(tmp_path), name))
        proc = subprocess.run([sys.executable, "-B", str(PERFBENCH / "probe.py"), name, "1",
                               str(tmp_path), str(SRC)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert set(json.loads(proc.stdout)) == {"import_s", "setup_s"}, name
        case = workloads.Case(bf, name, 1, str(tmp_path))
        assert case.check(case.run())["errors"] == [], name
