"""Spans recorded from outside the program, around its public entry points.

The benchmark never edits ``src/``: a traced run swaps each entry point
named in :data:`ENTRY_POINTS` for a wrapper that records one span (name,
layer, start, end, parent span, request id) and calls through.  Spans
are kept in memory on the benchmark's main thread; calls from other
threads or from forked worker processes pass straight through.  Work
that runs inside worker processes is read from what the program already
publishes: per-job trace timelines and the telemetry registry.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (module, attribute path, span name, layer).  Module-level functions
#: are also replaced wherever another ``repro`` module imported them by
#: name, so ``from x import f`` call sites are covered too.
ENTRY_POINTS: List[Tuple[str, str, str, str]] = [
    ("repro.api", "solve", "api.solve", "api"),
    ("repro.api", "sweep", "api.sweep", "api"),
    ("repro.backends.adapters", "CNashBackend.solve", "backends.solve", "backends"),
    ("repro.backends.adapters", "SQuboBackend.solve", "backends.solve", "backends"),
    ("repro.core.solver", "CNashSolver.solve_batch", "core.solve_batch", "core"),
    ("repro.core.solver", "solve_shards_fused", "core.solve_shards_fused", "core"),
    ("repro.annealing.vectorized", "FusedAnnealer.run", "annealing.fused", "annealing"),
    ("repro.annealing.vectorized", "FusedAnnealer.run_multi", "annealing.fused",
     "annealing"),
    ("repro.annealing.vectorized", "VectorizedAnnealer.run", "annealing.legacy",
     "annealing"),
    ("repro.hardware.bicrossbar", "BiCrossbar.__init__", "hardware.program", "hardware"),
    ("repro.hardware.bicrossbar", "BiCrossbar.evaluate_batch", "hardware.evaluate",
     "hardware"),
    ("repro.qubo.s_qubo", "build_s_qubo", "qubo.build", "qubo"),
    ("repro.baselines.dwave_like", "DWaveLikeSolver.sample_batch", "baselines.sample",
     "baselines"),
    ("repro.games.spec", "GameSpec.materialize", "games.materialize", "games"),
    ("repro.games.equilibrium", "classify_profile", "games.classify", "games"),
    ("repro.games.equilibrium", "EquilibriumSet.from_profiles", "games.distinct", "games"),
    ("repro.service.client", "InProcessClient.submit_many", "service.submit", "service"),
    ("repro.service.client", "InProcessClient.results", "service.wait", "service"),
]


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    request: str
    children_s: float = 0.0
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """In-memory span recorder for the main thread of this process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._patches: List[Tuple[Any, str, Any]] = []

    def recording(self) -> bool:
        return os.getpid() == self._pid and threading.get_ident() == self._thread

    def open(self, name: str, layer: str) -> int:
        """Start a span; a top-level span starts a new request id, children share it."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        request = self.spans[parent].request if parent is not None else f"req-{index}"
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent, request))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self
        sized = name in ("hardware.evaluate", "baselines.sample")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            index = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
                if sized:
                    # evaluate_batch(self, p_counts, ...) / sample_batch(self, n, ...)
                    first = args[1] if len(args) > 1 else next(iter(kwargs.values()))
                    tracer.spans[index].size = (
                        int(first) if isinstance(first, int) else len(first)
                    )

        return wrapper

    def install(self, entry_points: Iterable[Tuple[str, str, str, str]] = ENTRY_POINTS):
        """Swap every entry point for its recording wrapper."""
        for module_name, path, name, layer in entry_points:
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(raw.__func__, name, layer))
                else:
                    replacement = self._wrap(raw, name, layer)
                self.patch(owner, attr, raw, replacement)
            else:
                raw = getattr(module, path)
                replacement = self._wrap(raw, name, layer)
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro") and \
                            getattr(other, path, None) is raw:
                        self.patch(other, path, raw, replacement)

    def patch(self, owner: Any, attr: str, raw: Any, replacement: Any) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def self_seconds(self, name: Optional[str] = None, layer: Optional[str] = None) -> float:
        return sum(span.self_s for span in self.spans
                   if (name is None or span.name == name)
                   and (layer is None or span.layer == layer))

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def size(self, name: str) -> int:
        return sum(span.size for span in self.spans if span.name == name)

    def to_records(self) -> List[Dict[str, Any]]:
        return [
            {"id": index, "name": span.name, "layer": span.layer, "start": span.start,
             "end": span.end, "parent": span.parent, "request": span.request}
            for index, span in enumerate(self.spans)
        ]


# ----------------------------------------------------------------------
# Telemetry snapshots (``{"families": {...}}`` from the registry, the
# InProcessClient or the server's ``telemetry`` op)
# ----------------------------------------------------------------------
def family_total(snapshot: Dict[str, Any], name: str, field: str = "value") -> float:
    """Sum of a family's samples (``field`` = ``value``, ``sum`` or ``count``)."""
    family = snapshot.get("families", {}).get(name)
    if family is None:
        return 0.0
    return float(sum(sample.get(field, 0.0) for sample in family["samples"]))


def family_delta(before: Dict[str, Any], after: Dict[str, Any], name: str,
                 field: str = "value") -> float:
    return family_total(after, name, field) - family_total(before, name, field)


def apportion(total: float, shares: Dict[str, float]) -> Dict[str, float]:
    """Split ``total`` seconds over ``shares`` in proportion to their sizes."""
    weight = sum(max(value, 0.0) for value in shares.values())
    if weight <= 0:
        return {key: 0.0 for key in shares}
    return {key: total * max(value, 0.0) / weight for key, value in shares.items()}


def batch_phases(traces: Iterable[List[Dict[str, Any]]]) -> Dict[str, Any]:
    """Worker-side busy seconds from per-job traces, shared spans counted once.

    Jobs of one coalesced batch each carry a copy of the batch's
    ``coalesce``, ``shm``, ``run``, ``kernel`` and top-level ``settle``
    spans; those count once per ``batch_id``.  ``materialize`` and the
    worker ``settle`` (depth 1) are per job.  Solo jobs (no batch id)
    count everything once.
    """
    shared = ("coalesce", "shm", "run", "kernel", "settle")
    per_batch: Dict[str, Dict[str, float]] = {}
    totals = {"materialize": 0.0, "worker_settle": 0.0}
    queue_ms: List[float] = []
    materialize_calls = 0
    for index, trace in enumerate(traces):
        batch_id = None
        phases: Dict[str, float] = {}
        for phase in trace:
            seconds = (phase["end_ms"] - phase["start_ms"]) / 1000.0
            name, depth = phase["name"], phase.get("depth", 0)
            if depth == 0 and name == "run":
                batch_id = (phase.get("meta") or {}).get("batch_id")
            if depth == 0 and name == "queue":
                queue_ms.append(seconds * 1000.0)
            if name == "materialize":
                totals["materialize"] += seconds
                materialize_calls += 1
            elif name == "settle" and depth > 0:
                totals["worker_settle"] += seconds
            elif name in shared:
                phases[name] = phases.get(name, 0.0) + seconds
        key = batch_id or f"solo-{index}"
        merged = per_batch.setdefault(key, {})
        for name, seconds in phases.items():
            merged[name] = max(merged.get(name, 0.0), seconds)
    for name in shared:
        totals[name] = sum(batch.get(name, 0.0) for batch in per_batch.values())
    totals["batches"] = len(per_batch)
    totals["materialize_calls"] = materialize_calls
    totals["queue_ms"] = queue_ms
    return totals
