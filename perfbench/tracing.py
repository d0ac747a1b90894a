"""Spans around the package's public functions, recorded from outside it.

:func:`install` replaces every module-level binding of a traced function
inside ``treekuramoto`` (``analysis.step_theta``, ``conditions.jacobi_eigenvalues``,
``dynamics.wrap_angle``, ...) with a wrapper that records one span per
call: name, start, end and the enclosing span. Spans stay in memory;
:func:`layer_metrics` turns them into the per-layer metrics once the run
has finished.

A span's self time is its duration minus the durations of its direct
child spans, so untraced helpers count toward the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

import numpy as np

#: Traced functions: span name -> (module, attribute). Several callables
#: may share a span name when together they form one layer step.
POINTS = {
    "cli.load_config": [("cli", "_read_raw"), ("cli", "_validate")],
    "cli.run_subcommand": [("cli", "run_subcommand")],
    "graph.build_tree": [("graph", "build_tree")],
    "noise.sample_noise_block": [("noise", "sample_noise_block")],
    "linalg.weighted_edge_laplacian": [("linalg", "weighted_edge_laplacian")],
    "linalg.jacobi_eigenvalues": [("linalg", "jacobi_eigenvalues")],
    "conditions.mc_spectral_stats": [("conditions", "mc_spectral_stats")],
    "dynamics.step_theta": [("dynamics", "step_theta")],
    "dynamics.wrap_angle": [("dynamics", "wrap_angle")],
    "dynamics.edge_geodesics": [("dynamics", "edge_geodesics")],
    "dynamics.drift_values": [("dynamics", "drift_values")],
    "analysis.simulate": [("analysis", "simulate")],
    "analysis.recurrence_experiment": [("analysis", "recurrence_experiment")],
    "analysis.drift_sweep": [("analysis", "drift_sweep")],
    "analysis.drift_estimate": [("analysis", "drift_estimate")],
}

#: ``edge_box_sampler`` is a factory; its span wraps the sampler it returns.
SAMPLER_FACTORY = ("analysis", "edge_box_sampler")
SAMPLER_SPAN = "analysis.edge_box_sampler.sample"


def _rows(result) -> int:
    return math.prod(np.shape(result)[:-1])


def _record_mb(record) -> float:
    arrays = [v for v in vars(record).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays) / 1e6


#: Exact counts computed from return values: span name -> (counter, fn).
COUNTERS = {
    "dynamics.step_theta": ("dynamics.step_theta.state_rows", _rows),
    "noise.sample_noise_block": ("noise.sample_noise_block.draws", np.size),
    "linalg.jacobi_eigenvalues": ("linalg.jacobi_eigenvalues.matrices", _rows),
    "analysis.simulate": ("analysis.simulate.record_mb", _record_mb),
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(math.nan)
            self._stack.append(index)
            self.starts.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = self.clock()
                self._stack.pop()
            if counter is not None:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(result)
            return result

        return traced

    def wrap_factory(self, name: str, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return traced_factory

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.names, dtype=object),
            "parent": np.array(self.parents, dtype=np.int64),
            "start": np.array(self.starts, dtype=float),
            "end": np.array(self.ends, dtype=float),
        }


def _lookup(package: str, module: str, attribute: str):
    """The traced callable, or ``None`` once the program no longer has it
    (its layer then reads 0 rather than breaking the traced run)."""
    try:
        return getattr(importlib.import_module(f"{package}.{module}"), attribute)
    except (ImportError, AttributeError):
        return None


def _rebind(package: str, original, replacement) -> None:
    """Point every binding of ``original`` inside ``package`` at ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer, package: str = "treekuramoto") -> None:
    """Wrap every traced function at all of its bindings in ``package``."""
    for span, targets in POINTS.items():
        for module, attribute in targets:
            original = _lookup(package, module, attribute)
            if original is not None:
                _rebind(package, original, tracer.wrap(span, original))
    factory = _lookup(package, *SAMPLER_FACTORY)
    if factory is not None:
        _rebind(package, factory, tracer.wrap_factory(SAMPLER_SPAN, factory))


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered


def layer_metrics(spans: dict[str, np.ndarray], counts: dict[str, float]) -> dict:
    """Per span name: ``calls``, inclusive ``s``, ``self_s`` and per-call
    ``p50_us``/``p99_us`` of the inclusive duration; plus the counters."""
    duration = spans["end"] - spans["start"]
    own = self_times(spans["parent"], spans["start"], spans["end"])
    out: dict[str, float] = {}
    for name in sorted(set(spans["name"])):
        mask = spans["name"] == name
        out[f"{name}.calls"] = int(mask.sum())
        out[f"{name}.s"] = float(duration[mask].sum())
        out[f"{name}.self_s"] = float(own[mask].sum())
        p50, p99 = np.percentile(duration[mask], [50, 99]) * 1e6
        out[f"{name}.p50_us"] = float(p50)
        out[f"{name}.p99_us"] = float(p99)
    out.update(counts)
    return out
