"""One solve in a fresh process: set-up, solve, brute-force oracle, digests.

Run by ``run.py`` as ``python3 solve_child.py '<json spec>'`` with the
repository's ``src`` on ``PYTHONPATH``.  Prints one JSON object as its
last line of output.  Every timed region runs under the host-speed
sampler, between two probes (see ``hostclock``); digests are computed
outside the timed regions.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import digest
import hostclock
import tracing
from workloads import make_instance

#: Brute-force runs per untraced process; the median is reported.
ORACLE_REPS = 2


def _timed(fn, before: float, probes: list):
    """Run ``fn`` under the sampler; return (value, raw s, scaled s, after probe)."""
    with hostclock.Sampler() as sampler:
        start = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - start
    raw = wall - sampler.spent
    after = hostclock.probe()
    probes.append(after)
    return value, raw, hostclock.scale(raw, before, after, sampler.samples), after


def main(spec) -> dict:
    from repro.core.msrp import MSRPSolver
    from repro.core.params import AlgorithmParams
    from repro.graph.graph import Graph
    from repro.rp import bruteforce

    tracer = tracing.Tracer().install() if spec["trace"] else None
    n, seed, workers = spec["n"], spec["seed"], spec["workers"]
    edges, sources = make_instance(n, spec["sigma"], seed)
    params = AlgorithmParams(seed=seed, workers=workers)
    out = {"seed": seed, "m": len(edges), "sources": sources}

    def build():
        graph = Graph(n, edges)
        return graph, MSRPSolver(
            graph, sources, params=params, landmark_strategy=spec["strategy"]
        )

    probe = hostclock.probe()
    out["kernel_probes"] = probes = [probe]
    setups = []
    for _ in range(spec["setup_reps"]):
        (graph, solver), raw, scaled, probe = _timed(build, probe, probes)
        setups.append((scaled, raw))
    out["setup_s"] = statistics.median(s for s, _ in setups)
    out["setup_raw_s"] = statistics.median(r for _, r in setups)

    result, out["solve_raw_s"], out["solve_s"], probe = _timed(solver.solve, probe, probes)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["worker_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    )
    out["executor_stats"] = {
        k: v for k, v in solver.executor_stats.items() if isinstance(v, int)
    }
    out["landmarks"] = len(solver.landmarks.union)
    out["output_entries"] = result.output_size

    oracles = []
    for _ in range(1 if tracer else ORACLE_REPS):  # one run keeps the spans per-solve
        reference, raw, scaled, probe = _timed(
            lambda: bruteforce.brute_force_multi_source(graph, sources, workers=workers),
            probe, probes,
        )
        oracles.append((scaled, raw))
    out["oracle_s"] = statistics.median(s for s, _ in oracles)
    out["oracle_raw_s"] = statistics.median(r for _, r in oracles)
    out["solver_digest"] = digest.result_digest(result)
    out["oracle_digest"] = digest.nested_digest(reference)

    if spec.get("store"):
        from repro.store import write_store

        _header, out["write_raw_s"], out["write_s"], probe = _timed(
            lambda: write_store(spec["store"], result, meta=solver.store_metadata()),
            probe, probes,
        )

    if tracer is not None:
        spans = tracer.finished()
        out["spans"] = spans
        out["span_totals"] = tracing.totals(spans, {
            "core.solve": out["solve_s"] / out["solve_raw_s"],
            "rp.bruteforce": out["oracle_s"] / out["oracle_raw_s"],
        })
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
