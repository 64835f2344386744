"""Spans at bbuclust's module boundaries, recorded from outside the package.

``Tracer.install()`` replaces a function in the namespace of the module that
looks it up (for example ``fitness_parts`` as ``bbuclust.solvers`` sees it)
with a wrapper that times each call; ``uninstall()`` puts the originals
back. Nothing under ``src/`` changes.

Spans nest on a stack: a span's self time is its duration minus the time
covered by the spans it caused. Only per-layer totals are kept (count,
inclusive seconds, self seconds), since the benchmark reports totals.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass


@dataclass
class Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


# (module, attribute as that module looks it up, layer name)
BOUNDARIES = (
    ("datasets", "make_dataset", "datasets.make"),
    ("datasets", "load_csv_dataset", "datasets.load"),
    ("datasets", "build_distance_matrix", "model.distance"),
    ("harness", "resolve_tau", "harness.resolve_tau"),
    ("forecast", "oracle_predict", "forecast.predict"),
    ("forecast", "persistence_predict", "forecast.predict"),
    ("solvers", "run_ea", "solvers.ea"),
    ("solvers", "run_greedy", "solvers.greedy"),
    ("solvers", "_initial_labels", "solvers.initial_pop"),
    ("solvers", "renumber", "model.renumber"),
    ("solvers", "fitness_parts", "objective.fitness"),
    ("objective", "metrics", "objective.metrics"),
    ("harness", "aggregate", "harness.aggregate"),
    ("harness", "friedman_nemenyi", "stats.friedman"),
    ("harness", "write_records", "harness.records_io"),
    ("harness", "read_records", "harness.records_io"),
)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.layers: dict[str, Layer] = {}
        self._stack: list[float] = []  # child time accumulated per open span
        self._saved: list[tuple[object, str, object]] = []
        # Distinct label vectors scored since the last reset_distinct().
        self._seen: set = set()

    def reset(self) -> None:
        self.layers = {}
        self._seen = set()

    def reset_distinct(self) -> None:
        self._seen = set()

    @property
    def distinct(self) -> int:
        return len(self._seen)

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def _wrap(self, fn, name: str, count_distinct: bool):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count_distinct:
                # (traffic array, label bytes): the same vector on another day
                # is a different evaluation.
                self._seen.add((id(args[1]), args[0].tobytes()))
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                lay = self.layers.setdefault(name, Layer())
                lay.calls += 1
                lay.total_s += dt
                lay.self_s += dt - child

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every boundary; return the ones this version of the package lacks."""
        missing = []
        for mod_name, attr, name in BOUNDARIES:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, name == "objective.fitness"))
        return missing

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        if self._stack:
            print(f"boundary: {len(self._stack)} spans left open", file=sys.stderr)
            self._stack.clear()
