"""Importing the package stays light, and the package defines nothing it
does not use or export."""

import ast
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
