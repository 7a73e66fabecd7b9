"""Config fuzz: no value at any key of a shipped config escapes the package
as a raw Python error."""

import copy
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from biofilmfront import SolverError, build_runspec, dissipation_envelope_check, run_simulation

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
#: each value replaces one key at a time; none makes a run allocate large
#: arrays (grid sizes and strides take integers only)
VALUES = (None, [], [1, 2], "x", {}, math.nan, math.inf, -math.inf, -1, 0, True, 1.0e+308,
          -1.0e+308, 1.0e+200)


def _paths(node, path=()):
    """Every key path of a tree, list entries included."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _run(tree):
    spec = build_runspec(tree)
    traj = run_simulation(spec.data, spec.kin, spec.cfg, spec.t_end,
                          snapshot_stride=spec.stride)
    if spec.verify is not None:
        dissipation_envelope_check(traj, **spec.verify)


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.yaml")))
def test_no_config_value_escapes_as_a_raw_error(name):
    """Every value at every key path of a shipped config, run for two steps,
    ends in a package error or none; numpy's floating-point warnings of the
    values that overflow are silenced here."""
    base = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    base["solver"]["t_end"] = 2 * base["solver"]["dt"]
    escaped = []
    for path in _paths(base):
        for value in VALUES:
            tree = copy.deepcopy(base)
            node = tree
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = copy.deepcopy(value)
            try:
                with np.errstate(all="ignore"):
                    _run(tree)
            except SolverError:
                pass
            except Exception as exc:  # the failure this test looks for
                escaped.append(f"{'.'.join(map(str, path))}={value!r}: "
                               f"{type(exc).__name__}: {exc}")
    assert escaped == []
