"""Importing the package stays light: scipy.integrate is never loaded."""

import os
import subprocess
import sys

import biofilmfront

SRC = os.path.dirname(os.path.dirname(os.path.abspath(biofilmfront.__file__)))


def test_import_does_not_load_scipy_integrate():
    code = ("import sys, biofilmfront, biofilmfront.cli; "
            "print('scipy.integrate' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
