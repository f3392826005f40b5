"""Span tracing around the public functions of tumorspec's layers.

Wrappers are installed where callers look the names up: tumorspec modules
use ``from .x import y``, so a module-level function is replaced in every
loaded module of the package that holds a reference to it, and a method is
replaced on its class. A target that no longer exists is recorded as absent
instead of failing, so the benchmark keeps running across refactors of the
package. Spans stay in memory until the run ends.
"""

import functools
import importlib
import sys
import time
from dataclasses import dataclass

TASK = "task"


@dataclass(frozen=True)
class Target:
    """One wrapped callable: metric prefix, defining module, attribute path."""

    name: str
    module: str
    attr: str           # "func" or "Class.method"


TARGETS = (
    Target("cli", "tumorspec.cli", "main"),
    Target("radial.steady_radius", "tumorspec.radial", "steady_radius"),
    Target("radial.solve_U", "tumorspec.radial", "solve_U"),
    Target("radial.boundary_ratio", "tumorspec.radial", "boundary_ratio"),
    Target("spectrum.build_table", "tumorspec.spectrum", "build_table"),
    Target("spectrum.report_dict", "tumorspec.spectrum", "report_dict"),
    Target("dynamics.evolve_nonlinear", "tumorspec.dynamics", "evolve_nonlinear"),
    Target("dynamics.phi", "tumorspec.dynamics", "phi"),
    Target("fields.solve_nutrient", "tumorspec.fields", "solve_nutrient"),
    Target("fields.solve_pressure", "tumorspec.fields", "solve_pressure"),
    Target("fields.gmres", "tumorspec.fields", "gmres"),
    Target("fields.BoundaryGeometry.from_shape", "tumorspec.fields",
           "BoundaryGeometry.from_shape"),
    Target("disk.ModePreconditioner.init", "tumorspec.disk",
           "ModePreconditioner.__init__"),
    Target("disk.ModePreconditioner.solve_interior", "tumorspec.disk",
           "ModePreconditioner.solve_interior"),
    Target("disk.apply_mapped_laplacian", "tumorspec.disk",
           "apply_mapped_laplacian"),
    Target("disk.DiskGrid.fold_derivative", "tumorspec.disk",
           "DiskGrid.fold_derivative"),
    Target("disk.MappedCoefficients.from_boundary", "tumorspec.disk",
           "MappedCoefficients.from_boundary"),
    Target("disk.DiskGrid.init", "tumorspec.disk", "DiskGrid.__init__"),
)


class Tracer:
    """Records spans [name, start, end, parent index, task id, info].

    ``info`` holds what an ``observe(args, result)`` hook extracted from a
    call, or None.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.task_id = None
        self._stack = []
        self._restore = []

    def span(self, name, fn, observe=None):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None,
                   self.task_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    try:
                        rec[5] = observe(args, result)
                    except (AttributeError, IndexError, TypeError):
                        pass  # the observed structure changed; leave it out
                return result
            finally:
                rec[2] = clock()
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def install(self, targets, observers=None):
        """Wrap every target that exists; return the names of absent ones."""
        observers = observers or {}
        absent = []
        for target in targets:
            if not self._install_one(target, observers.get(target.name)):
                absent.append(target.name)
        return absent

    def _install_one(self, target, observe):
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return False
        owner_path, _, attr = target.attr.rpartition(".")
        if owner_path:
            owner = module
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
                if owner is None:
                    return False
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.span(target.name, raw.__func__, observe))
            elif callable(raw):
                new = self.span(target.name, raw, observe)
            else:
                return False
            setattr(owner, attr, new)
            self._restore.append((owner, attr, raw))
            return True

        original = getattr(module, attr, None)
        if original is None or not callable(original):
            return False
        wrapped = self.span(target.name, original, observe)
        package = target.module.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
                    self._restore.append((mod, name, original))
        return True

    def uninstall(self):
        """Put back every original, last installed first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per-span self time: its duration minus the durations of its children.

    Spans nest on one thread, so children never overlap and their durations
    add up to the part of the parent's interval they cover.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - child[i] for i, rec in enumerate(spans)]


def ancestor(spans, index, name):
    """Index of the nearest enclosing span called ``name``, or None."""
    parent = spans[index][3]
    while parent is not None and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent


def aggregate(spans):
    """{name: {"calls", "s", "self_s", "durations"}} summed over all spans."""
    out = {}
    for rec, own in zip(spans, self_times(spans)):
        entry = out.setdefault(rec[0], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "durations": []})
        entry["calls"] += 1
        entry["s"] += rec[2] - rec[1]
        entry["self_s"] += own
        entry["durations"].append(rec[2] - rec[1])
    return out


def percentile(samples, q):
    """Linearly interpolated q-th percentile (numpy's default definition)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def percentile_supported(n, q):
    """True when at least 10 of n samples lie above the q-th percentile."""
    return n * (100.0 - q) / 100.0 >= 10
