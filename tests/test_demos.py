"""Every script in ``demos/`` runs to completion against the package as it
stands, with every warning an error.  Each runs in its own process, in a
fresh directory, since some of them write to ``demo_out/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import biofilmfront

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(biofilmfront.__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
