"""Importing the package stays light, and the package defines nothing it
does not use or export."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import biofilmfront

SRC = os.path.dirname(os.path.dirname(os.path.abspath(biofilmfront.__file__)))
CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "zero_kinetics.yaml")


def _python(code: str, *args: str) -> str:
    """Standard output of ``code`` run with ``args`` by a fresh interpreter
    that imports the package from this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_import_does_not_load_scipy_integrate():
    """The package loads scipy's LAPACK wrapper alone, neither ``scipy``'s
    own ``__init__`` nor ``scipy.linalg`` (whose ``__init__`` pulls in
    ``numpy.f2py``), and leaves no entry for it in ``sys.modules``; a run
    solves on that wrapper with scipy still unimported.  PyYAML and the
    process pool load only when a config is parsed or a sweep runs in
    parallel.  OpenSSL (``_hashlib``) does not load, not even when a run's
    config hash is read, and ``json`` loads only when a config is built or
    a manifest written."""
    code = ("import sys, biofilmfront, biofilmfront.cli; "
            "print('scipy.integrate' in sys.modules); "
            "print(sorted(m for m in ('scipy', 'scipy.linalg', 'numpy.f2py', "
            "'scipy.linalg._flapack', 'concurrent.futures.process', 'yaml', 'json', "
            "'_hashlib') if m in sys.modules)); "
            "spec = biofilmfront.parse_config(sys.argv[1]); "
            "print('yaml' in sys.modules); "
            "biofilmfront.run_simulation(spec.data, spec.kin, spec.cfg, 0.01); "
            "print('scipy' in sys.modules); "
            "print('_hashlib' in sys.modules); "
            "spec.config_hash; "
            "print('_hashlib' in sys.modules)")
    assert _python(code, CONFIG).splitlines() == ["False", "[]", "True", "False", "False", "False"]


def test_importing_the_cli_loads_no_argparse():
    """``argparse`` loads when a command line is parsed, not when the CLI
    module is imported, as a library caller or the benchmark does."""
    code = ("import sys, biofilmfront.cli; print('argparse' in sys.modules); "
            "biofilmfront.cli.main(['mms', '--help']); print('argparse' in sys.modules)")
    out = _python(code).splitlines()  # the help text sits between the two
    assert (out[0], out[-1]) == ("False", "True")


def test_simulate_does_not_load_openssl(tmp_path):
    """A ``simulate`` process, which hashes its config for the manifest,
    ends with neither OpenSSL's ``_hashlib`` nor ``ssl`` loaded."""
    code = ("import sys; from biofilmfront.cli import main; "
            "code = main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]]); "
            "print(code, sorted(m for m in ('_hashlib', 'ssl') if m in sys.modules))")
    out = _python(code, CONFIG, str(tmp_path / "run"))
    assert out.splitlines()[-1] == "0 []"
    assert (tmp_path / "run" / "manifest.json").exists()


_SAME_BITS = """
import numpy as np
rng = np.random.default_rng(7)
dl, d, du, b = (rng.uniform(-1.0, 1.0, n) for n in (40, 41, 40, 41))
*_, x, info = parabolic.dgtsv(dl, d, du, b)
*_, x_ref, info_ref = scipy.linalg.lapack.dgtsv(dl, d, du, b)
print((x.tobytes(), info) == (x_ref.tobytes(), info_ref))
print(scipy.linalg._flapack is sys.modules['scipy.linalg._flapack'])
"""


@pytest.mark.parametrize("first", ["scipy.linalg", "biofilmfront"])
def test_gtsv_loader_in_either_import_order(first):
    """Whether ``scipy.linalg`` is imported before or after the package, both
    routines solve a system to the same bits and ``scipy.linalg`` keeps its
    own registered ``_flapack``."""
    imports = ["import scipy.linalg.lapack", "from biofilmfront import parabolic"]
    if first == "biofilmfront":
        imports.reverse()
    code = "import sys\n" + "\n".join(imports) + _SAME_BITS
    assert _python(code).splitlines() == ["True", "True"]


def _definitions(tree):
    """Module-level functions, classes and assigned names, with their nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(tree, skip=None):
    """Names read in ``tree`` (as names or attributes), outside ``skip``."""
    inside = set() if skip is None else {id(n) for n in ast.walk(skip)}
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_is_referenced():
    """Each module-level function, class or constant of the package is
    exported in ``__all__`` or used somewhere in the package outside its own
    definition.  Dunder names are exempt."""
    package = os.path.dirname(os.path.abspath(biofilmfront.__file__))
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read())
    used = {module: set(_references(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        elsewhere = set().union(*(refs for m, refs in used.items() if m != module))
        for name, node in _definitions(tree):
            if (name.startswith("__") and name.endswith("__")) or name in biofilmfront.__all__:
                continue
            if name not in elsewhere and name not in set(_references(tree, skip=node)):
                unused.append(f"{module[:-3]}.{name}")
    assert unused == []


def _imported_names(tree):
    """Names bound by the module-level imports of ``tree``, with the import
    they come from; ``from __future__`` binds none."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], ast.unparse(node)


def test_every_import_is_used():
    """Each name a package module imports at module level is read in that
    module.  ``__init__.py`` imports to re-export, and is exempt."""
    package = os.path.dirname(os.path.abspath(biofilmfront.__file__))
    unused = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unused += [f"{name[:-3]}: {bound} ({statement})"
                       for bound, statement in _imported_names(tree) if bound not in read]
    assert unused == []


#: the dunder methods each package dataclass defines itself.  ``__eq__`` and
#: ``__repr__`` are generated only where a caller compares or prints the type
#: (``__hash__`` comes with a frozen ``__eq__``, ``__setattr__`` and
#: ``__delattr__`` with ``frozen``); every other type compares by identity.
DATACLASS_METHODS = {
    "audit.CaseResult": ["__init__"],
    "audit.ConvergenceReport": ["__init__"],
    "audit.EnvelopeReport": ["__init__"],
    "config.RunSpec": ["__init__"],
    "coupler.SolverConfig": ["__delattr__", "__eq__", "__hash__", "__init__", "__post_init__",
                             "__repr__", "__setattr__"],
    "coupler.State": ["__delattr__", "__init__", "__post_init__", "__setattr__"],
    "coupler.Trajectory": ["__init__"],
    "grid.Grid": ["__delattr__", "__init__", "__post_init__", "__repr__", "__setattr__"],
    "kinetics.KineticsModel": ["__delattr__", "__init__", "__post_init__", "__setattr__"],
    "output.PhysicalTrajectory": ["__init__"],
    "problem.ProblemData": ["__delattr__", "__init__", "__post_init__", "__setattr__"],
    "problem.ValidationReport": ["__eq__", "__init__", "__repr__"],
}


def test_dataclasses_define_only_the_methods_their_callers_use():
    """A new dataclass, or a generated method switched back on, shows up here."""
    found = {}
    for info in pkgutil.iter_modules(biofilmfront.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"biofilmfront.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                found[f"{info.name}.{cls.__name__}"] = sorted(
                    name for name, value in vars(cls).items()
                    if name.startswith("__") and name.endswith("__") and callable(value))
    assert found == DATACLASS_METHODS
