"""Span tracer that wraps phasemix's public callables from outside the package.

The program itself carries no tracing.  :class:`Tracer` replaces every
binding of each target callable (the defining module, each module that
imported it by name, and the class for methods) with a wrapper that
records a span ``(id, parent, name, start, end)`` in memory and, for the
callables that take phase points, the number of points it was asked to
evaluate.  :meth:`Tracer.remove` restores every binding it replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import namedtuple
from time import perf_counter

import numpy as np

Span = namedtuple("Span", "id parent name start end")

# (module, qualified name, arguments whose broadcast size is the work count).
# ``sup_phi_t`` counts its sample times.
TARGETS = (
    ("cli", "main", None),
    ("action_angle", "build_chart", None),
    ("action_angle", "OrbitChart.q_from_chi", ("chi", "k")),
    ("action_angle", "OrbitChart.c_of_k", None),
    ("action_angle", "OrbitChart.chi_from_q", None),
    ("action_angle", "to_angle_energy", None),
    ("potential", "hamiltonian", None),
    ("transport", "evaluate_f_actionangle", ("x", "v")),
    ("transport", "evaluate_f_characteristic", ("x", "v")),
    ("flow", "flow_map", ("x", "v")),
    ("flow", "orbit_period", None),
    ("moments", "MomentCalculator.current", None),
    ("moments", "MomentCalculator.density", None),
    ("moments", "cumulative_from_zero", None),
    ("mixing", "sup_phi_t", ("times",)),
    ("mixing", "fit_decay", None),
)

STATS = ("calls", "total_s", "self_s", "points")


def target_names(targets=TARGETS) -> list[str]:
    return [f"{module}.{qualname}" for module, qualname, _ in targets]


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out


def _resolve(module: str, qualname: str):
    """Return (owner class or None, attribute, original callable)."""
    mod = importlib.import_module(f"phasemix.{module}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name)
        return owner, attr, getattr(owner, attr)
    return None, attr, getattr(mod, attr)


class Tracer:
    """Install span-recording wrappers on :data:`TARGETS` and collect stats."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: list[Span | None] = []
        self.points: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, qualname, point_args in self.targets:
            name = f"{module}.{qualname}"
            try:
                owner, attr, original = _resolve(module, qualname)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, point_args)
            if owner is not None:
                self._rebind(owner, attr, wrapper)
                continue
            # A function imported by name lives on in each importer's
            # namespace, so every binding is replaced, not just the home one.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "phasemix" or mod_name.startswith("phasemix.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def remove(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def _rebind(self, holder, key: str, wrapper) -> None:
        self._restore.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def _wrap(self, name: str, fn, point_args):
        signature = inspect.signature(fn) if point_args else None
        self.points[name] = 0
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                tracer.points[name] += int(
                    np.broadcast(*(np.asarray(bound[a]) for a in point_args)).size
                )
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = Span(span_id, parent, name, start, end)

        return wrapper

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-callable calls, total_s, self_s and points over all spans."""
        spans = [s for s in self.spans if s is not None]
        own = self_times(spans)
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "points": self.points.get(name, 0)}
            for name in target_names(self.targets)
            if name not in self.missing
        }
        for s in spans:
            entry = out[s.name]
            entry["calls"] += 1
            entry["total_s"] += s.end - s.start
            entry["self_s"] += own[s.id]
        return out
