"""Config fuzz: no value at any key of a shipped config escapes the package
as a raw Python error."""

import copy
import math
from pathlib import Path

import pytest
import yaml

from biofilmfront import SolverError, audit, build_runspec, run_simulation

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
#: each value replaces one key at a time; none makes a run allocate large
#: arrays (grid sizes and strides take integers only).  The strings are
#: expressions of literals alone, which overflow, divide by zero or leave the
#: reals where an expression is read and are bad input everywhere else.
VALUES = (None, [], [1, 2], "x", {}, math.nan, math.inf, -math.inf, -1, 0, True, 1.0e+308,
          -1.0e+308, 1.0e+200, 1.0e+100, "1/0", "0^-1", "10^400", "(-8)^(1/3)")


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
    audit(traj, spec.data, spec.verify)  # what ``verify`` runs


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.yaml")))
def test_no_config_value_escapes_as_a_raw_error(name):
    """Every value at every key path of a shipped config, run for two steps
    and audited, ends in a package error or none.  The suite turns warnings
    into errors, so a numpy floating-point warning escapes too."""
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
                _run(tree)
            except SolverError:
                pass
            except Exception as exc:  # the failure this test looks for
                escaped.append(f"{'.'.join(map(str, path))}={value!r}: "
                               f"{type(exc).__name__}: {exc}")
    assert escaped == []
