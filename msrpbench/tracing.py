"""Spans around the public entry points of each ``src/repro`` layer.

The traced run wraps functions from outside the program, under the name
the caller looks them up by (``from x import f`` binds ``f`` into the
caller's namespace at import, so that namespace is the one patched).
Each call becomes a span: name, start, end, parent and per-span counts,
kept in memory and written out when the run ends.  A span's self time is
its duration minus the time its child spans cover.

Work inside pool workers is out of reach from here: forked workers
inherit the wrappers, which then record nothing (the recording process
is fixed at install time), so sharded work shows only as the parent-side
``parallel.sharded.<task>`` span.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Callable, Dict, List, Optional


def _keys_count(args, kwargs) -> Dict[str, int]:
    keys = args[1] if len(args) > 1 else kwargs["keys"]
    return {"keys": len(keys)}


def _roots_count(args, kwargs) -> Dict[str, int]:
    roots = args[1] if len(args) > 1 else kwargs["roots"]
    return {"roots": len(set(int(r) for r in roots))}


def _sharded_name(args, kwargs) -> str:
    task = args[0] if args else kwargs["task"]
    return f"parallel.sharded.{task.__name__}"


#: (module, attribute, span name or name function, count function).
#: ``run_sharded`` is patched in every module that calls it; bfs_many
#: imports it lazily from ``repro.parallel``.
ENTRY_POINTS = [
    ("repro.core.msrp", "MSRPSolver.solve", "core.solve", None),
    ("repro.rp.bruteforce", "brute_force_multi_source", "rp.bruteforce", None),
    ("repro.core.msrp", "bfs_many", "graph.bfs_many", _roots_count),
    ("repro.multisource.pipeline", "bfs_many", "graph.bfs_many", _roots_count),
    ("repro.core.msrp", "compute_direct_tables", "core.direct_tables", None),
    ("repro.core.landmark_rp", "replacement_paths", "rp.single_pair", None),
    ("repro.rp.dijkstra", "InternedAuxiliaryGraph.dijkstra", "rp.aux_dijkstra", None),
    ("repro.multisource.pipeline", "compute_auxiliary_tables", "multisource.aux_tables", None),
    ("repro.multisource.pipeline", "compute_small_paths_through_centers",
     "multisource.small_through", None),
    ("repro.parallel.tasks", "compute_center_to_landmark_tables",
     "multisource.center_to_landmark", None),
    ("repro.multisource.pipeline", "compute_source_to_center_tables",
     "multisource.source_to_center", None),
    ("repro.multisource.pipeline", "compute_interval_avoiding_tables",
     "multisource.interval_avoiding", None),
    ("repro.core.msrp", "run_sharded", _sharded_name, _keys_count),
    ("repro.multisource.pipeline", "run_sharded", _sharded_name, _keys_count),
    ("repro.rp.bruteforce", "run_sharded", _sharded_name, _keys_count),
    ("repro.parallel", "run_sharded", _sharded_name, _keys_count),
]


class Tracer:
    """In-memory span recorder for the process that installed it."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self._pid = os.getpid()

    def install(self) -> "Tracer":
        for module_name, attr, name, count in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self._wrap(getattr(owner, leaf), name, count))
        return self

    def _wrap(self, original: Callable, name, count: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append({
                "name": name(args, kwargs) if callable(name) else name,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "counts": count(args, kwargs) if count else {},
                "start": time.perf_counter(),
            })
            tracer._stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[index]["end"] = time.perf_counter()

        return traced

    def finished(self) -> List[Dict[str, object]]:
        """Closed spans with ``duration`` and ``self`` seconds filled in."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if "end" in span and span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        closed = []
        for index, span in enumerate(self.spans):
            if "end" in span:
                duration = span["end"] - span["start"]
                closed.append(dict(span, duration=duration, self=duration - child_time[index]))
        return closed


def totals(
    spans: List[Dict[str, object]], factors: Dict[str, float]
) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds, summed counts.

    ``total_s`` and ``self_s`` are host-scaled by the factor of the span's
    root (the timed region it ran in, such as ``core.solve``), looked up
    in ``factors``; ``raw_total_s`` is the unscaled total.
    """
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        root = span
        while root["parent"] is not None:
            root = spans[root["parent"]]
        factor = factors.get(root["name"], 1.0)
        entry = out.setdefault(
            span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raw_total_s": 0.0}
        )
        entry["calls"] += 1
        entry["raw_total_s"] += span["duration"]
        entry["total_s"] += span["duration"] * factor
        entry["self_s"] += span["self"] * factor
        for key, value in span["counts"].items():
            entry[key] = entry.get(key, 0) + value
    return out
