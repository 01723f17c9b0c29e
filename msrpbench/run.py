"""Repository benchmark: solve, brute-force oracle, store, serve, query.

Usage (from the repository root)::

    python3 msrpbench/run.py --workload solve-aux --seed 1 --seconds 10 --trace 0

Prints a provenance header, one line per measured operation, a table of
every metric (host-scaled and raw) and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  Exits 1 if any
answer is wrong or any operation fails, 2 if the library is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".msrpbench_work")
#: Set-up repetitions per solve process (graph + solver construction).
SETUP_REPS = 7
#: How ``repro-msrp serve`` loads the store (its ``--mmap`` default).
SERVE_MMAP = "auto"
#: Server launches per run of the serve workload (the median counts).
SERVE_LAUNCHES = 3
#: Requests per window of the closed loop.  A gated latency percentile is
#: the median over windows of the window's percentile: a stall of the
#: host that spans a few windows moves it little, a slower program moves
#: every window.  The p99 tails (traced run) are over all requests.
WINDOW = 500
#: Longest a single solve process may take (seconds).
CHILD_TIMEOUT = 170
#: Tasks whose parent-side ``run_sharded`` time and key count are reported.
SHARDED_TASKS = (
    "bfs_roots_task", "near_small_task", "center_tables_task",
    "assemble_task", "solve_sources_task", "bruteforce_edges_task",
)
#: Measured counts checked for exact repetition at a fixed seed.
COUNTS = (
    "graph.bfs_roots", "rp.single_pair_calls", "rp.aux_dijkstra_calls",
    "multisource.centers", "parallel.keys.bruteforce_edges_task",
    "core.landmarks", "core.output_entries",
)

sys.path.insert(0, BENCH_DIR)

import hostclock  # noqa: E402
from workloads import WORKLOADS, instance_seed  # noqa: E402


class Run:
    """Everything one benchmark run measured, checked and printed."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.attempted = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.raw: Dict[str, float] = {}
        self.probes: List[float] = []
        self.dir = os.path.join(
            WORK_DIR, f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        )

    # -- bookkeeping -------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}")

    def metric(self, name: str, value: float, unit: str, raw: Optional[float] = None) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        if raw is not None:
            self.raw[name] = raw

    # -- solve phase -------------------------------------------------------

    def solve(self, seed: int, trace: bool, store: Optional[str] = None) -> dict:
        w = self.workload
        spec = {
            "n": w.n, "sigma": w.sigma, "strategy": w.strategy, "workers": w.workers,
            "seed": seed, "setup_reps": SETUP_REPS, "trace": trace, "store": store,
        }
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "solve_child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"solve process for seed {seed} exited {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.probes.extend(out["kernel_probes"])
        self.check(
            out["solver_digest"] == out["oracle_digest"],
            f"instance seed {seed}: solver digest {out['solver_digest'][:16]} != "
            f"brute-force digest {out['oracle_digest'][:16]}",
        )
        print(
            f"solve seed={seed} n={w.n} m={out['m']} sigma={w.sigma} "
            f"landmarks={out['landmarks']} entries={out['output_entries']} "
            f"trace={int(trace)}: setup {out['setup_s'] * 1e3:.3f} ms "
            f"(raw {out['setup_raw_s'] * 1e3:.3f}), solve {out['solve_s']:.3f} s "
            f"(raw {out['solve_raw_s']:.3f}), oracle {out['oracle_s']:.3f} s "
            f"(raw {out['oracle_raw_s']:.3f}), rss {out['peak_rss_mb']:.1f} MB, "
            f"digest {out['solver_digest'][:16]}"
        )
        return out

    # -- serve phase -------------------------------------------------------

    def serve(self, store: str, solved: dict, seconds: float, trace: bool) -> dict:
        import serving
        from digest import result_digest
        from repro.serve import QueryClient
        from repro.store import load_store

        launches = SERVE_LAUNCHES if self.workload.preprocess else 1
        cold_starts = []
        for i in range(launches):
            server = serving.ServerProcess(
                ROOT, store, SERVE_MMAP, os.path.join(self.dir, "server.log")
            )
            before = hostclock.probe()
            try:
                raw = server.start()
            except BaseException:
                if server.proc is not None:
                    server.stop()
                raise
            after = hostclock.probe()
            self.probes += [before, after]
            cold_starts.append((hostclock.scale(raw, before, after), raw))
            if i < launches - 1:
                code, _rss = server.stop()
                self.check(code == 0, f"server launch {i} exited {code}")
        try:
            loaded, header = load_store(store, mmap=False)
            self.check(
                result_digest(loaded) == solved["solver_digest"],
                "load_store round-trip digest differs from the solver's",
            )
            edges = list(loaded.graph.edges())
            mix = serving.QueryMix(
                self.workload.n, list(loaded.sources), edges, self.args.seed
            )
            log = serving.run_closed_loop(server.port, mix, seconds)
            with QueryClient(port=server.port, retries=0) as client:
                status = client.status()
        finally:
            code, rss = server.stop()
        self.probes += log.probes
        self.check(code == 0, f"server exited {code} after SIGTERM")
        bad = serving.check_answers(log, loaded, self.workload.n)
        self.attempted += len(log.records)
        self.failures += bad
        for line in bad[:5]:
            print(f"FAILED: {line}")
        problems = serving.check_status(status, log, header)
        self.check(not problems, "; ".join(problems))
        print(
            f"serve n={self.workload.n}: {len(log.records)} requests "
            f"({log.sent('point')} point, {log.sent('sweep')} sweep, "
            f"{log.sent('batch')} batch) in {seconds:.1f} s, {len(bad)} wrong, "
            f"cold start {statistics.median(c[0] for c in cold_starts):.3f} s, "
            f"server rss {rss:.1f} MB, lru hit rate {status['cache']['hit_rate']:.3f}"
        )
        served = {"log": log, "status": status, "rss": rss, "cold_starts": cold_starts}
        if trace:
            served.update(self.store_and_lookup_layers(store, log, loaded, header))
        return served

    def store_and_lookup_layers(self, store, log, loaded, header) -> dict:
        """Traced run only: store load modes and in-process lookup times."""
        import serving
        from repro.npsupport import numpy_enabled
        from repro.store import load_store

        out = {"store_bytes": sum(
            os.path.getsize(os.path.join(store, name)) for name in os.listdir(store)
        )}
        for label, mode in (("mmap", True), ("copy", False)):
            if mode and not numpy_enabled():
                out[f"load_{label}_s"] = (0.0, 0.0)
                continue
            scaled, raws = [], []
            for _ in range(3):
                before = hostclock.probe()
                start = time.perf_counter()
                load_store(store, mmap=mode)
                raws.append(time.perf_counter() - start)
                scaled.append(hostclock.scale(raws[-1], before, hostclock.probe()))
            out[f"load_{label}_s"] = (statistics.median(scaled), statistics.median(raws))
        before = hostclock.probe()
        lookups = serving.replay_in_process(log, loaded, header)
        factor = hostclock.scale(1.0, before, hostclock.probe())
        out["lookup_us"] = {
            kind: (statistics.median(times) * factor * 1e6, statistics.median(times) * 1e6)
            for kind, times in lookups.items()
        }
        return out

    # -- the run -----------------------------------------------------------

    def execute(self) -> None:
        import digest

        w, args = self.workload, self.args
        os.makedirs(self.dir, exist_ok=True)
        passed, message = digest.self_test()
        self.check(passed, f"digest self-test: {message}")
        print(f"# digest self-test: {message}")

        def store(i: int) -> str:
            return os.path.join(self.dir, f"store{i}")

        if args.trace:
            # Instance 0 untraced, then traced twice: the ratio of the two
            # gives the tracing overhead, the pair checks count repetition.
            seed = instance_seed(args.seed, 0)
            solved = [self.solve(seed, trace=False)]
            solved += [self.solve(seed, trace=True), self.solve(seed, trace=True, store=store(2))]
        else:
            # When every solve is a preprocess, each writes a store;
            # otherwise only the last one does.  The last store is served.
            solved = [
                self.solve(instance_seed(args.seed, i), trace=False,
                           store=store(i) if w.preprocess or i == w.solves - 1 else None)
                for i in range(w.solves)
            ]
        served = self.serve(
            store(len(solved) - 1), solved[-1], args.seconds * w.query_share, args.trace
        )
        if args.trace:
            self.layer_metrics(solved, served)
        else:
            self.end_to_end_metrics(solved, served)
        self.write_trace(solved)

    def end_to_end_metrics(self, solved: List[dict], served: dict) -> None:
        def median_of(key: str) -> float:
            return statistics.median(s[key] for s in solved)

        if self.workload.preprocess:
            # Set-up is the whole preprocess (graph, solver, solve, store
            # write) plus a server launch up to its first /status answer.
            def preprocess(suffix: str) -> float:
                return statistics.median(
                    s[f"setup{suffix}_s"] + s[f"solve{suffix}_s"] + s[f"write{suffix}_s"]
                    for s in solved
                )

            launch = statistics.median(c[0] for c in served["cold_starts"])
            launch_raw = statistics.median(c[1] for c in served["cold_starts"])
            self.metric("setup_s", preprocess("") + launch, "s", preprocess("_raw") + launch_raw)
            self.metric("peak_rss_mb", served["rss"], "MB")
        else:
            self.metric("setup_s", median_of("setup_s"), "s", median_of("setup_raw_s"))
            self.metric("peak_rss_mb", median_of("peak_rss_mb"), "MB")
        self.metric("solve_s", median_of("solve_s"), "s", median_of("solve_raw_s"))
        self.metric("oracle_s", median_of("oracle_s"), "s", median_of("oracle_raw_s"))
        failed = len(self.failures)
        self.metric("success_rate", (self.attempted - failed) / self.attempted, "ratio")
        windows = served["log"].windows(WINDOW)
        for kind in ("point", "sweep", "batch"):
            for p in (50, 90):
                self.metric(
                    f"{kind}_p{p}_ms",
                    statistics.median(percentile(w.latencies(kind), p) for w in windows) * 1e3,
                    "ms",
                    statistics.median(
                        percentile(w.latencies(kind, scaled=False), p) for w in windows
                    ) * 1e3,
                )

    def layer_metrics(self, solved: List[dict], served: dict) -> None:
        from repro.analysis import predicted_operations

        untraced, traced = solved[0], solved[1:]
        layers = [span_layers(s) for s in traced]
        first = layers[0]
        for name, (value, unit, raw) in first.items():
            self.metric(name, value, unit, raw)
        self.metric("parallel.worker_peak_rss_mb", traced[0]["worker_peak_rss_mb"], "MB")
        for key in ("crash_recoveries", "serial_degradations"):
            self.metric(f"parallel.{key}", traced[0]["executor_stats"].get(key, 0), "count")
        self.metric("core.landmarks", traced[0]["landmarks"], "count")
        self.metric("core.output_entries", traced[0]["output_entries"], "count")

        w = self.workload
        m = untraced["m"]
        msrp_ops = predicted_operations("msrp", w.n, m, w.sigma)
        brute_ops = predicted_operations("bruteforce", w.n, m, w.sigma)
        measured_brute = first["parallel.keys.bruteforce_edges_task"][0] * m
        print(f"# conformance: predicted msrp ops {msrp_ops:.0f}, predicted brute-force "
              f"ops {brute_ops:.0f}, measured brute-force ops (BFS runs x m) {measured_brute}")
        counts = [
            {**{k: layer[k][0] for k in COUNTS if k in layer},
             "core.landmarks": t["landmarks"], "core.output_entries": t["output_entries"]}
            for layer, t in zip(layers, traced)
        ]
        repeat = int(counts[0] == counts[1])
        for name in COUNTS:
            print(f"# count {name}: {[c[name] for c in counts]}")
            if counts[0][name] != counts[1][name]:
                print(f"FLAG: count {name} did not repeat at a fixed seed")
        self.metric("conformance.counts_repeat", repeat, "count")
        self.metric("conformance.bruteforce_ops_ratio", measured_brute / brute_ops, "ratio")
        self.metric(
            "trace.overhead_ratio",
            statistics.median(s["solve_s"] for s in traced) / untraced["solve_s"], "ratio",
        )

        self.metric("store.write_s", traced[-1]["write_s"], "s", traced[-1]["write_raw_s"])
        for label in ("mmap", "copy"):
            scaled, raw = served[f"load_{label}_s"]
            self.metric(f"store.load_{label}_s", scaled, "s", raw)
        self.metric("store.bytes", served["store_bytes"], "bytes")
        log, status = served["log"], served["status"]
        (point_us, point_raw_us), (sweep_us, sweep_raw_us) = (
            served["lookup_us"]["point"], served["lookup_us"]["sweep"]
        )
        self.metric("serve.point_query_us", point_us, "us", point_raw_us)
        self.metric("serve.sweep_us", sweep_us, "us", sweep_raw_us)
        self.metric(
            "serve.http_overhead_us",
            statistics.median(log.latencies("point")) * 1e6 - point_us, "us",
            statistics.median(log.latencies("point", scaled=False)) * 1e6 - point_raw_us,
        )
        self.metric("serve.lru_hit_rate", status["cache"]["hit_rate"], "ratio")
        self.metric("serve.slice_misses", status["cache"]["misses"], "count")
        for key in ("requests_shed", "requests_timed_out"):
            self.metric(f"serve.{key}", status["server"][key], "count")
        cold_starts = served["cold_starts"]
        self.metric("serve.cold_start_s", statistics.median(c[0] for c in cold_starts), "s",
                    statistics.median(c[1] for c in cold_starts))
        for kind in ("point", "sweep", "batch"):
            latencies = log.latencies(kind)
            self.metric(f"serve.{kind}_p99_ms", percentile(latencies, 99) * 1e3, "ms",
                        percentile(log.latencies(kind, scaled=False), 99) * 1e3)
            self.metric(f"serve.{kind}_samples", len(latencies), "count")

    def report(self) -> None:
        probes = self.probes
        if self.args.trace:
            self.metric("bench.kernel_iqr_ratio", hostclock.iqr_ratio(probes), "ratio")
        print(f"# host: loadavg_end={os.getloadavg()} reference loop median "
              f"{statistics.median(probes) * 1e6:.1f} us per unit over {len(probes)} probes "
              f"(REFERENCE_PROBE_S={hostclock.REFERENCE_PROBE_S * 1e6:g} us), "
              f"bench.kernel_iqr_ratio={hostclock.iqr_ratio(probes):.4f}")
        print(f"{'metric':40s} {'value':>14s} {'raw':>14s}  unit")
        for name, entry in self.metrics.items():
            raw = self.raw.get(name)
            print(f"{name:40s} {entry['value']:14.6g} "
                  f"{'' if raw is None else format(raw, '.6g'):>14s}  {entry['unit']}")
        print(json.dumps({
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": self.reported(),
        }))

    def reported(self) -> Dict[str, Dict[str, float]]:
        """The metrics ``BENCHMARK.json`` names for this mode, in its order.

        Every other metric stays in the printed table: layers that run on
        only some workloads (Section 8, the per-task sharding of tasks a
        workload never runs) cannot be reported on every workload.
        """
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        reported = {}
        for entry in spec["per_layer" if self.args.trace else "end_to_end"]:
            measured = self.metrics.get(entry["name"])
            if measured is None or measured["unit"] != entry["unit"]:
                raise RuntimeError(
                    f"BENCHMARK.json metric {entry['name']} ({entry['unit']}) "
                    f"was not measured as such: {measured}"
                )
            reported[entry["name"]] = measured
        return reported

    def write_trace(self, solved: List[dict]) -> None:
        spans = [
            {"process": i, "instance": s["seed"], **span}
            for i, s in enumerate(solved) for span in s.get("spans", [])
        ]
        if spans:
            os.makedirs(os.path.join(WORK_DIR, "traces"), exist_ok=True)
            path = os.path.join(
                WORK_DIR, "traces", f"{self.args.workload}-seed{self.args.seed}.json"
            )
            with open(path, "w") as handle:
                json.dump(spans, handle)
            print(f"# spans written to {os.path.relpath(path, ROOT)}")


def percentile(values: List[float], p: int) -> float:
    """The ``p``-th percentile (``statistics.quantiles`` exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[p - 1]


def span_layers(solved: dict) -> Dict[str, Tuple[float, str, Optional[float]]]:
    """Per-layer (value, unit, raw value) of one traced solve process.

    A layer whose entry point never ran on this workload reads 0.
    """
    totals = solved["span_totals"]

    def seconds(span: str):
        entry = totals.get(span, {})
        return entry.get("total_s", 0.0), "s", entry.get("raw_total_s", 0.0)

    def count(span: str, key: str = "calls"):
        return totals.get(span, {}).get(key, 0), "count", None

    out = {
        "multisource.aux_tables_s": seconds("multisource.aux_tables"),
        "multisource.center_to_landmark_s": seconds("multisource.center_to_landmark"),
        "multisource.source_to_center_s": seconds("multisource.source_to_center"),
        "multisource.interval_avoiding_s": seconds("multisource.interval_avoiding"),
        "multisource.small_through_s": seconds("multisource.small_through"),
        "multisource.centers": count("multisource.center_to_landmark"),
        "rp.single_pair_s": seconds("rp.single_pair"),
        "rp.single_pair_calls": count("rp.single_pair"),
        "rp.aux_dijkstra_calls": count("rp.aux_dijkstra"),
        "core.direct_tables_s": seconds("core.direct_tables"),
        "core.near_small_s": seconds("parallel.sharded.near_small_task"),
        "core.assembly_s": seconds("parallel.sharded.solve_sources_task"),
        "graph.bfs_many_s": seconds("graph.bfs_many"),
        "graph.bfs_roots": count("graph.bfs_many", "roots"),
    }
    for task in SHARDED_TASKS:
        out[f"parallel.sharded_s.{task}"] = seconds(f"parallel.sharded.{task}")
        out[f"parallel.keys.{task}"] = count(f"parallel.sharded.{task}", "keys")
    return out


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head) as handle:
        ref = handle.read().strip()
    if ref.startswith("ref: "):
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        return ref
    return ref


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"msrpbench: no library at {os.path.join(ROOT, 'src', 'repro')}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.npsupport import NUMPY_ENV_VAR, numpy_available, numpy_enabled

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    tier = "numpy" if numpy_available() and numpy_enabled() else "pure"
    print(f"# msrpbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# host: cpu_count={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy_version} tier={tier} "
          f"({NUMPY_ENV_VAR}={os.environ.get(NUMPY_ENV_VAR, 'auto')}) serve --mmap {SERVE_MMAP} "
          f"loadavg_start={os.getloadavg()} commit={git_commit()}")
    run = Run(args)
    try:
        run.execute()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    run.report()
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
