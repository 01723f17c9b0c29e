"""End-to-end MSRP benchmark with a machine-readable JSON trajectory.

This is the perf harness future PRs diff against: it runs the full
:class:`~repro.core.msrp.MSRPSolver` pipeline on the same sparse workloads
as ``bench_fig_scaling_n`` (``random_connected_graph`` with ``m ~ 3 n``,
fixed seeds) and records, per configuration, the end-to-end wall time, the
solver's per-phase ``phase_seconds``, the auxiliary strategy's
``tables``/``walks``/``assembly`` sub-phase breakdown and an output
fingerprint (entry count plus a value checksum) so that a speedup can never
silently come from computing something different.

Unlike the ``bench_fig_*`` modules this file is a plain script, not a
pytest-benchmark suite, so CI can run it as a smoke job and commit-time
tooling can produce comparable JSON without pulling in the benchmark
plugin::

    PYTHONPATH=src python benchmarks/bench_msrp_e2e.py --json BENCH_msrp.json
    PYTHONPATH=src python benchmarks/bench_msrp_e2e.py --fast --json /tmp/smoke.json

Passing ``--baseline OLD.json`` embeds the old runs and per-configuration
speedups (``old wall / new wall``) in the output, which is how the
committed ``BENCH_msrp.json`` documents a PR's end-to-end effect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import sys
import time
from typing import Dict, List, Optional

from repro.core.msrp import MSRPSolver
from repro.core.params import AlgorithmParams
from repro.graph.generators import random_connected_graph

#: Default configuration mirrors ``bench_fig_scaling_n``'s size ladder.
DEFAULT_SIZES = [60, 100, 160, 240]
#: ``--fast`` keeps the harness honest in CI without burning minutes.
FAST_SIZES = [48, 72]
DEFAULT_SIGMA = 3
DEFAULT_STRATEGY = "auxiliary"


def sparse_workload(num_vertices: int, seed: int):
    """Connected sparse graph with ``m ~ 3 n`` (same as the figure benches)."""
    return random_connected_graph(num_vertices, extra_edges=2 * num_vertices, seed=seed)


def run_key(
    n: int,
    sigma: int,
    strategy: str,
    workers: int = 0,
    numpy_tier: Optional[bool] = None,
    executor: Optional[str] = None,
) -> str:
    """Stable row key; serial and worker rows keep historical keys.

    ``numpy_tier=None`` (whatever the environment selects) adds no
    suffix, so pre-existing baselines keep diffing; explicit tier rows
    get ``,numpy=on`` / ``,numpy=off``.  Likewise ``executor=None``
    (automatic transport selection) adds no suffix, while a forced
    transport gets ``,executor=serial`` / ``,executor=process``.
    """
    key = f"n={n},sigma={sigma},strategy={strategy}"
    if workers:
        key += f",workers={workers}"
    if numpy_tier is not None:
        key += f",numpy={'on' if numpy_tier else 'off'}"
    if executor is not None:
        key += f",executor={executor}"
    return key


def aux_breakdown(phase_seconds: Dict[str, float]) -> Dict[str, float]:
    """The tables/walks sub-phase split of the auxiliary strategy.

    ``tables`` is the time spent building the Section 8.1/8.2/8.3 auxiliary
    tables, ``walks`` the Section 8.2.1 id-path walk enumeration and
    ``assembly`` the per-edge path-cover minimisation; all zero under the
    direct strategy (the solver never enters the Section 8 pipeline).
    """
    return {
        "tables": phase_seconds.get("aux_tables", 0.0),
        "walks": phase_seconds.get("aux_walks", 0.0),
        "assembly": phase_seconds.get("aux_assembly", 0.0),
    }


def fingerprint(result) -> Dict[str, float]:
    """Cheap output invariant: entry count + checksum of the finite values."""
    entries = 0
    finite_sum = 0.0
    infinite = 0
    for _s, _t, _e, value in result.iter_entries():
        entries += 1
        if value is math.inf:
            infinite += 1
        else:
            finite_sum += value
    return {"entries": entries, "finite_sum": finite_sum, "infinite": infinite}


def _tier_env(numpy_tier: Optional[bool]):
    """Context manager pinning ``REPRO_NUMPY`` for one run (None = leave)."""
    import contextlib

    @contextlib.contextmanager
    def _pin():
        if numpy_tier is None:
            yield
            return
        from repro.npsupport import NUMPY_ENV_VAR

        previous = os.environ.get(NUMPY_ENV_VAR)
        os.environ[NUMPY_ENV_VAR] = "1" if numpy_tier else "0"
        try:
            yield
        finally:
            if previous is None:
                os.environ.pop(NUMPY_ENV_VAR, None)
            else:
                os.environ[NUMPY_ENV_VAR] = previous

    return _pin()


def run_one(
    n: int,
    sigma: int,
    strategy: str,
    repeat: int,
    workers: int = 0,
    numpy_tier: Optional[bool] = None,
    executor: Optional[str] = None,
) -> Dict:
    """Run one configuration ``repeat`` times and keep the best wall time.

    ``numpy_tier`` pins the kernel tier for the run (sharded workers
    inherit it through the environment); ``None`` leaves the ambient
    environment untouched, which preserves historical row semantics.
    ``executor`` forces the sharded-phase transport (``None`` keeps the
    solver's automatic selection); the chosen transport and its crash /
    degradation counters land in the row as ``executor_stats``.
    """
    graph = sparse_workload(n, seed=n)
    rng = random.Random(n)
    sources = sorted(rng.sample(range(n), min(sigma, n)))
    best: Optional[Dict] = None
    with _tier_env(numpy_tier):
        for _ in range(repeat):
            solver = MSRPSolver(
                graph,
                sources,
                params=AlgorithmParams(
                    seed=n, workers=workers, executor=executor
                ),
                landmark_strategy=strategy,
            )
            start = time.perf_counter()
            result = solver.solve()
            wall = time.perf_counter() - start
            if best is None or wall < best["wall_seconds"]:
                best = {
                    "key": run_key(
                        n, sigma, strategy, workers, numpy_tier, executor
                    ),
                    "n": n,
                    "sigma": sigma,
                    "strategy": strategy,
                    "workers": workers,
                    "numpy": numpy_tier,
                    "executor": executor,
                    "executor_stats": dict(solver.executor_stats),
                    "sources": sources,
                    "num_edges": graph.num_edges,
                    "wall_seconds": wall,
                    "phase_seconds": dict(solver.phase_seconds),
                    "aux_breakdown": aux_breakdown(solver.phase_seconds),
                    "fingerprint": fingerprint(result),
                }
    assert best is not None
    return best


def run_suite(
    sizes: List[int],
    sigma: int,
    strategy: str,
    repeat: int,
    workers_list: Optional[List[int]] = None,
    numpy_modes: Optional[List[Optional[bool]]] = None,
    executor: Optional[str] = None,
    verbose: bool = True,
) -> List[Dict]:
    """One row per (size, worker count, kernel tier).

    All rows of a size must report identical fingerprints — that is the determinism
    contract of :mod:`repro.parallel`, and :func:`main` enforces it after
    the suite runs.
    """
    workers_list = workers_list if workers_list is not None else [0]
    numpy_modes = numpy_modes if numpy_modes is not None else [None]
    runs = []
    for n in sizes:
        for workers in workers_list:
            for numpy_tier in numpy_modes:
                run = run_one(
                    n,
                    sigma,
                    strategy,
                    repeat,
                    workers=workers,
                    numpy_tier=numpy_tier,
                    executor=executor,
                )
                runs.append(run)
                if verbose:
                    phases = ", ".join(
                        f"{name}={seconds:.3f}s"
                        for name, seconds in sorted(
                            run["phase_seconds"].items(), key=lambda kv: -kv[1]
                        )
                    )
                    print(f"{run['key']}: {run['wall_seconds']:.3f}s  ({phases})")
                    breakdown = run["aux_breakdown"]
                    if any(breakdown.values()):
                        print(
                            "  aux breakdown: "
                            + ", ".join(
                                f"{name}={seconds:.3f}s"
                                for name, seconds in breakdown.items()
                            )
                        )
    return runs


def check_worker_fingerprints(runs: List[Dict]) -> None:
    """Fail loudly if any worker count / kernel tier diverged.

    Rows group by the base ``(n, sigma, strategy)`` key, so the
    ``,numpy=on`` and ``,numpy=off`` rows of one instance are held to the
    same fingerprint as every worker configuration — a vectorized speedup
    can never silently come from computing something different.
    """
    by_config: Dict[str, Dict] = {}
    for run in runs:
        config = run_key(run["n"], run["sigma"], run["strategy"])
        reference = by_config.setdefault(config, run)
        if run["fingerprint"] != reference["fingerprint"]:
            raise AssertionError(
                f"fingerprint diverged across worker configurations for "
                f"{config}: {reference['key']} -> {reference['fingerprint']}, "
                f"{run['key']} -> {run['fingerprint']}"
            )


def attach_baseline(payload: Dict, baseline_path: str) -> None:
    """Embed baseline runs and per-key speedups into ``payload``."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    baseline_runs = {run["key"]: run for run in baseline.get("runs", [])}
    speedups: Dict[str, float] = {}
    for run in payload["runs"]:
        old = baseline_runs.get(run["key"])
        if old is None:
            # Tier-pinned (",numpy=on/off") and transport-forced
            # (",executor=...") rows fall back to the baseline's
            # suffix-less key, so older baselines still yield speedups
            # for the new row variants.
            base_key = run["key"].split(",numpy=")[0].split(",executor=")[0]
            old = baseline_runs.get(base_key)
        if old is not None and run["wall_seconds"] > 0:
            speedups[run["key"]] = old["wall_seconds"] / run["wall_seconds"]
    payload["baseline"] = {
        "source": baseline_path,
        "recorded_at": baseline.get("recorded_at"),
        "runs": list(baseline_runs.values()),
    }
    payload["speedup_vs_baseline"] = speedups


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="write the JSON report here")
    parser.add_argument(
        "--fast",
        action="store_true",
        help="small sizes only (CI smoke mode)",
    )
    parser.add_argument(
        "--sizes",
        type=lambda text: [int(part) for part in text.split(",") if part],
        default=None,
        help="comma-separated vertex counts (default: 60,100,160,240)",
    )
    parser.add_argument("--sigma", type=int, default=DEFAULT_SIGMA)
    parser.add_argument(
        "--strategy",
        choices=("direct", "auxiliary"),
        default=DEFAULT_STRATEGY,
    )
    parser.add_argument(
        "--repeat", type=int, default=1, help="repetitions per size (best kept)"
    )
    parser.add_argument(
        "--workers",
        type=lambda text: [int(part) for part in text.split(",") if part],
        default=None,
        metavar="W[,W...]",
        help=(
            "comma-separated worker counts; one row per (size, count), 0 = "
            "serial (default: 0).  Fingerprints must agree across counts."
        ),
    )
    parser.add_argument(
        "--numpy",
        choices=("auto", "on", "off", "both"),
        default="auto",
        metavar="MODE",
        help=(
            "kernel tier for the rows: 'auto' (default) leaves the "
            "environment's REPRO_NUMPY untouched and adds no key suffix, "
            "'on'/'off' pin one tier (suffix ',numpy=on'/',numpy=off'), "
            "'both' records a row per tier so the trajectory captures the "
            "vectorized speedup with a cross-tier fingerprint check"
        ),
    )
    parser.add_argument(
        "--executor",
        choices=("auto", "serial", "process"),
        default="auto",
        metavar="KIND",
        help=(
            "sharded-phase transport for every row: 'auto' (default) keeps "
            "the solver's automatic selection and adds no key suffix, "
            "'serial'/'process' force one Executor kind (suffix "
            "',executor=...'); the transport and its crash/degradation "
            "counters are recorded per row as executor_stats"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="previous JSON report to embed and compute speedups against",
    )
    parser.add_argument(
        "--note",
        default=None,
        help="free-form annotation embedded in the JSON (e.g. hardware caveats)",
    )
    args = parser.parse_args(argv)

    sizes = args.sizes if args.sizes is not None else (
        FAST_SIZES if args.fast else DEFAULT_SIZES
    )
    workers_list = args.workers if args.workers else [0]  # [] would emit no rows
    numpy_modes: List[Optional[bool]] = {
        "auto": [None],
        "on": [True],
        "off": [False],
        "both": [True, False],
    }[args.numpy]
    if True in numpy_modes:
        from repro.npsupport import require_numpy

        require_numpy(f"bench_msrp_e2e --numpy {args.numpy}")
    executor = None if args.executor == "auto" else args.executor
    runs = run_suite(
        sizes,
        args.sigma,
        args.strategy,
        max(1, args.repeat),
        workers_list,
        numpy_modes,
        executor,
    )
    check_worker_fingerprints(runs)

    payload: Dict = {
        "harness": "bench_msrp_e2e",
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "config": {
            "sizes": sizes,
            "sigma": args.sigma,
            "strategy": args.strategy,
            "repeat": max(1, args.repeat),
            "fast": bool(args.fast),
            "workers": workers_list,
            "numpy": args.numpy,
            "executor": args.executor,
        },
        "runs": runs,
    }
    if args.note:
        payload["note"] = args.note
    if args.baseline:
        attach_baseline(payload, args.baseline)
        for key, speedup in sorted(payload["speedup_vs_baseline"].items()):
            print(f"speedup {key}: {speedup:.2f}x")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
