"""Spans recorded from outside the package, by rebinding looked-up names.

Every entry of ``SITES`` names a module attribute that package code looks up
at call time (a module-level function or an imported name).  While a
:class:`Tracer` is installed, that attribute is replaced by a wrapper that
times each call and credits it to a layer key such as ``parabolic.assemble_step``.
Self time is a span's duration minus the time of the spans nested inside it.

Names are resolved when the tracer is installed, so a later change that
removes, renames or inlines one of them only makes that key absent: it is
counted in ``absent`` and reports zero calls.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from time import perf_counter

#: (module looked up in, attribute, layer key)
SITES = (
    ("biofilmfront.coupler", "picard_step", "coupler.picard_step"),
    ("biofilmfront.coupler", "check_invariants", "coupler.check_invariants"),
    ("biofilmfront.coupler", "energy", "coupler.energy"),
    ("biofilmfront.coupler", "initial_state", "coupler.initial_state"),
    ("biofilmfront.coupler", "validate_problem", "problem.validate_problem"),
    ("biofilmfront.cli", "validate_problem", "problem.validate_problem"),
    ("biofilmfront.cli", "load_tree", "config.load_tree"),
    ("biofilmfront.cli", "build_runspec", "config.build_runspec"),
    ("biofilmfront.coupler", "parabolic_step", "parabolic.parabolic_step"),
    ("biofilmfront.parabolic", "assemble_step", "parabolic.assemble_step"),
    ("biofilmfront.parabolic", "solve_tridiagonal", "parabolic.solve_tridiagonal"),
    ("biofilmfront.coupler", "velocity_profile", "boundary.velocity_profile"),
    ("biofilmfront.boundary", "cumtrapz", "grid.cumtrapz"),
    ("biofilmfront.coupler", "boundary_step", "boundary.boundary_step"),
    ("biofilmfront.coupler", "transport_step", "transport.transport_step"),
    ("biofilmfront.coupler", "interp_rows", "grid.interp_rows"),
    ("biofilmfront.transport", "interp_rows", "grid.interp_rows"),
    ("biofilmfront.cli", "write_timeseries", "output.write_timeseries"),
    ("biofilmfront.output", "back_transform", "output.back_transform"),
)

#: rate callables of a KineticsModel, wrapped by :meth:`Tracer.kinetics`
KINETICS = ("f", "h", "g")

#: every layer key, in report order
KEYS = tuple(dict.fromkeys([key for _, _, key in SITES]
                           + [f"kinetics.{name}" for name in KINETICS]))


@dataclasses.dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Per-key call counts and times, plus every ``picard_step`` duration."""

    def __init__(self):
        self.stats = {key: Stat() for key in KEYS}
        self.step_s: list[float] = []
        self.absent: set[str] = set()
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero the per-key stats (step durations are kept)."""
        for stat in self.stats.values():
            stat.calls, stat.total_s, stat.self_s = 0, 0.0, 0.0

    def wrap(self, key: str, fn):
        stat, stack = self.stats[key], self._stack
        steps = self.step_s if key == "coupler.picard_step" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                if stack:
                    stack[-1] += dt
                if steps is not None:
                    steps.append(dt)

        return traced

    def install(self) -> None:
        """Rebind every resolvable site; record the keys found nowhere."""
        found = set()
        for modname, attr, key in SITES:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(key, fn))
            found.add(key)
        self.absent |= {key for _, _, key in SITES} - found

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def kinetics(self, kin):
        """A copy of ``kin`` whose rate callables are traced."""
        try:
            return dataclasses.replace(kin, **{name: self.wrap(f"kinetics.{name}",
                                                               getattr(kin, name))
                                               for name in KINETICS})
        except (TypeError, AttributeError):
            self.absent |= {f"kinetics.{name}" for name in KINETICS}
            return kin
