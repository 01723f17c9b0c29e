"""Command-line interface (``repro-msrp``).

The CLI exposes the main entry points on randomly generated workloads so the
library can be exercised without writing code:

* ``repro-msrp ssrp --n 200 --extra-edges 400 --source 0``
* ``repro-msrp msrp --n 200 --sigma 4 --strategy direct``
* ``repro-msrp bmm --size 24 --density 0.2``

and drives the preprocess-once/query-often lifecycle end to end:

* ``repro-msrp preprocess --n 200 --sigma 4 --store DIR`` — solve once and
  persist the result to a versioned oracle store (:mod:`repro.store`);
* ``repro-msrp serve --store DIR --port 8351`` — long-lived asyncio HTTP
  server answering ``d(s, t, avoiding=e)`` queries from the store;
* ``repro-msrp query --port 8351 --source S --target T --edge U,V`` and
  ``repro-msrp status --port 8351`` — the matching client commands.

Each sub-command prints a short, human-readable summary (instance size,
landmark statistics, per-phase timings, output volume) and exits with a
non-zero status if the optional self-verification against brute force
fails: :func:`main` catches :class:`~repro.exceptions.ReproError`, prints
the failure summary to stderr and returns 1 instead of dumping a
traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from repro.core.msrp import MSRPSolver
from repro.core.params import AlgorithmParams
from repro.exceptions import (
    InternalInvariantError,
    InvalidParameterError,
    ReproError,
)
from repro.graph import generators
from repro.lint.cli import add_lint_arguments, run_lint_command
from repro.lowerbound.bmm import multiply_naive, multiply_via_msrp


def _parse_edge(text: str) -> Tuple[int, int]:
    """Parse ``"U,V"`` into an edge tuple, loudly on malformed input."""
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidParameterError(
            f"--edge expects 'U,V' (two comma-separated vertex ids), got {text!r}"
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidParameterError(
            f"--edge endpoints must be integers, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-msrp",
        description="Multiple Source Replacement Path (PODC 2020) reference implementation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=120, help="number of vertices")
    common.add_argument(
        "--extra-edges", type=int, default=240, help="edges added on top of a random spanning tree"
    )
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument(
        "--verify", action="store_true", help="cross-check the output against brute force"
    )
    common.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "worker processes for the sharded per-source phases "
            "(0 = serial; output is byte-identical at any worker count)"
        ),
    )
    common.add_argument(
        "--executor",
        choices=("auto", "serial", "process"),
        default="auto",
        help=(
            "transport for the sharded phases: 'auto' (default) picks the "
            "process executor when --workers > 1, 'serial' forces the "
            "in-process executor, 'process' forces the multiprocessing "
            "one — output is byte-identical across all of them"
        ),
    )
    common.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help=(
            "journal every completed chunk of the solve into DIR; "
            "re-running the same command after a crash resumes from the "
            "journal and re-executes only unjournaled work, with output "
            "identical to an uninterrupted run (requires --seed, which "
            "the CLI always sets)"
        ),
    )

    ssrp = sub.add_parser("ssrp", parents=[common], help="single source replacement paths")
    ssrp.add_argument("--source", type=int, default=0)

    msrp = sub.add_parser("msrp", parents=[common], help="multiple source replacement paths")
    msrp.add_argument("--sigma", type=int, default=4, help="number of sources")
    msrp.add_argument(
        "--strategy", choices=("direct", "auxiliary"), default="direct",
        help="landmark preprocessing strategy",
    )

    pre = sub.add_parser(
        "preprocess",
        parents=[common],
        help="solve once and persist the result to an oracle store",
    )
    pre.add_argument("--sigma", type=int, default=4, help="number of sources")
    pre.add_argument(
        "--strategy", choices=("direct", "auxiliary"), default="direct",
        help="landmark preprocessing strategy",
    )
    pre.add_argument(
        "--store", required=True, metavar="DIR",
        help="directory to write the versioned store into",
    )

    serve = sub.add_parser(
        "serve", help="serve d(s,t,avoiding=e) queries from a store over HTTP"
    )
    serve.add_argument("--store", required=True, metavar="DIR", help="store directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8351)
    serve.add_argument(
        "--lru", type=int, default=None, metavar="SLICES",
        help="LRU capacity in (source, edge) slices (default 256)",
    )
    serve.add_argument(
        "--max-connections", type=int, default=None, metavar="N",
        help=(
            "concurrent-connection ceiling; past it requests are shed "
            "with 503 + Retry-After (default 64)"
        ),
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help=(
            "on SIGTERM/SIGINT, how long in-flight requests may finish "
            "before connections are closed (default 10)"
        ),
    )
    serve.add_argument(
        "--mmap", choices=("auto", "on", "off"), default="auto",
        help=(
            "how to load segments.bin: 'auto' memory-maps it when numpy "
            "is available (zero-copy start), 'on' requires numpy and "
            "fails loudly without it, 'off' forces the classic "
            "read-then-decode path (default auto)"
        ),
    )

    client_common = argparse.ArgumentParser(add_help=False)
    client_common.add_argument("--host", default="127.0.0.1")
    client_common.add_argument("--port", type=int, default=8351)
    client_common.add_argument(
        "--retries", type=int, default=3,
        help="retry attempts for transient failures (default 3, 0 disables)",
    )
    client_common.add_argument(
        "--timeout", type=float, default=10.0,
        help="per-request socket timeout in seconds (default 10)",
    )

    query = sub.add_parser(
        "query", parents=[client_common], help="ask a running server one point query"
    )
    query.add_argument("--source", type=int, required=True)
    query.add_argument("--target", type=int, required=True)
    # Parsed by _parse_edge inside the dispatch so a malformed value gets
    # the library's clean stderr + exit-1 treatment, not an argparse usage
    # dump with a generic "invalid value" message.
    query.add_argument(
        "--edge", required=True, metavar="U,V",
        help="the failed edge, as two comma-separated vertex ids",
    )

    sub.add_parser(
        "status", parents=[client_common], help="print a running server's status"
    )

    bmm = sub.add_parser("bmm", help="Boolean matrix multiplication via the Theorem 28 reduction")
    bmm.add_argument("--size", type=int, default=16)
    bmm.add_argument("--density", type=float, default=0.25)
    bmm.add_argument("--seed", type=int, default=0)

    lint = sub.add_parser(
        "lint",
        help="run the architecture-invariant linter (repro-lint)",
        description=(
            "AST-based invariant linter enforcing this repository's "
            "architecture contracts (rule catalogue: docs/lint.md)"
        ),
    )
    add_lint_arguments(lint)
    return parser


def _make_solver(
    args: argparse.Namespace, sources: Sequence[int], strategy: str
) -> MSRPSolver:
    graph = generators.random_connected_graph(args.n, args.extra_edges, seed=args.seed)
    params = AlgorithmParams(
        seed=args.seed,
        verify=args.verify,
        workers=args.workers,
        executor=None if args.executor == "auto" else args.executor,
        checkpoint=args.checkpoint,
    )
    return MSRPSolver(graph, sources, params=params, landmark_strategy=strategy)


def _print_solve_summary(solver: MSRPSolver, result, verified: bool) -> None:
    graph = solver.graph
    print(f"graph: n={graph.num_vertices} m={graph.num_edges} sigma={len(solver.sources)}")
    print(f"landmarks: per-level sizes {solver.landmarks.level_sizes()} (|L|={len(solver.landmarks.union)})")
    for phase, seconds in solver.phase_seconds.items():
        print(f"phase {phase:28s} {seconds * 1000:10.1f} ms")
    print(f"output entries (s, t, e): {result.output_size}")
    stats = solver.executor_stats
    if stats.get("executor") is not None:
        line = f"executor: {stats['executor']}"
        if stats.get("crash_recoveries"):
            line += f", {stats['crash_recoveries']} crash recovery(ies)"
        if stats.get("serial_degradations"):
            line += f", {stats['serial_degradations']} serial degradation(s)"
        journal = stats.get("journal")
        if journal is not None:
            line += (
                f"; journal: {stats['keys_reused_from_journal']} key(s) "
                f"resumed, {journal['records_written']} record(s) written"
            )
        print(line)
    if verified:
        print("verification against brute force: PASSED")


def _run_solver(args: argparse.Namespace, sources: Sequence[int], strategy: str) -> int:
    solver = _make_solver(args, sources, strategy)
    result = solver.solve()
    _print_solve_summary(solver, result, verified=args.verify)
    return 0


def _workload_sources(args: argparse.Namespace) -> List[int]:
    return generators.random_sources(
        generators.random_connected_graph(args.n, args.extra_edges, seed=args.seed),
        args.sigma,
        seed=args.seed,
    )


def _run_preprocess(args: argparse.Namespace) -> int:
    from repro.store import write_store

    solver = _make_solver(args, _workload_sources(args), args.strategy)
    result = solver.solve()
    _print_solve_summary(solver, result, verified=args.verify)
    header = write_store(args.store, result, meta=solver.store_metadata())
    print(
        f"store written to {args.store} "
        f"(format v{header.format_version}, "
        f"graph fingerprint {header.fingerprint[:12]}..., "
        f"sources {header.sources})"
    )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        DEFAULT_LRU_SLICES,
        DEFAULT_MAX_CONNECTIONS,
        serve_store,
    )

    lru = args.lru if args.lru is not None else DEFAULT_LRU_SLICES
    max_connections = (
        args.max_connections
        if args.max_connections is not None
        else DEFAULT_MAX_CONNECTIONS
    )
    mmap_mode = {"auto": None, "on": True, "off": False}[args.mmap]
    return serve_store(
        args.store,
        host=args.host,
        port=args.port,
        lru_slices=lru,
        max_connections=max_connections,
        drain_timeout=args.drain_timeout,
        mmap=mmap_mode,
    )


def _run_query(args: argparse.Namespace) -> int:
    from repro.serve import QueryClient

    edge = _parse_edge(args.edge)
    with QueryClient(
        host=args.host, port=args.port,
        timeout=args.timeout, retries=args.retries,
    ) as client:
        length = client.query(args.source, args.target, edge)
    u, v = edge
    shown = "inf (deletion disconnects the pair)" if length == float("inf") else f"{length:g}"
    print(f"d({args.source}, {args.target}, avoiding=({u}, {v})) = {shown}")
    return 0


def _run_status(args: argparse.Namespace) -> int:
    from repro.serve import QueryClient

    with QueryClient(
        host=args.host, port=args.port,
        timeout=args.timeout, retries=args.retries,
    ) as client:
        status = client.status()
    store = status.get("store") or {}
    print(f"server: http://{args.host}:{args.port}")
    print(
        f"store: n={store.get('num_vertices')} m={store.get('num_edges')} "
        f"sources={store.get('sources')} strategy={store.get('strategy')} "
        f"(format v{status.get('format_version', store.get('format_version'))})"
    )
    print(
        "graph fingerprint: "
        f"{status.get('graph_fingerprint') or store.get('graph_fingerprint')}"
    )
    print(f"output entries: {status.get('output_entries')}")
    print(f"uptime: {status.get('uptime_seconds', 0.0):.1f}s")
    print(
        f"queries: {status.get('point_queries')} point, "
        f"{status.get('sweep_queries')} sweep "
        f"({status.get('qps', 0.0):.1f} qps lifetime)"
    )
    cache = status.get("cache", {})
    print(
        f"lru: {cache.get('slices')}/{cache.get('capacity')} slices, "
        f"hit rate {cache.get('hit_rate', 0.0):.1%} "
        f"({cache.get('hits')} hits / {cache.get('misses')} misses)"
    )
    server = status.get("server")
    if server:
        print(
            f"connections: {server.get('connections')}"
            f"/{server.get('max_connections')} "
            f"(shed {server.get('requests_shed')}, "
            f"timed out {server.get('requests_timed_out')}"
            f"{', draining' if server.get('draining') else ''})"
        )
    return 0


def _run_bmm(args: argparse.Namespace) -> int:
    import random

    rng = random.Random(args.seed)
    size = args.size
    a = [[1 if rng.random() < args.density else 0 for _ in range(size)] for _ in range(size)]
    b = [[1 if rng.random() < args.density else 0 for _ in range(size)] for _ in range(size)]
    via_msrp = multiply_via_msrp(a, b)
    naive = multiply_naive(a, b)
    ok = via_msrp == naive
    ones = sum(sum(row) for row in naive)
    print(f"BMM size={size} density={args.density} ones(C)={ones}")
    print(f"reduction result matches naive product: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-msrp`` console script.

    Library failures (verification mismatches, invalid parameters,
    malformed stores, unreachable servers — every
    :class:`~repro.exceptions.ReproError`) are reported on stderr and
    turned into exit status 1, as the module docstring promises; they do
    not escape as tracebacks.
    """
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "lint":
            # repro-lint has its own exit-code contract (0 clean, 1
            # findings, 2 usage error) and reports through its own
            # formatters, so it bypasses the ReproError -> 1 translation.
            return run_lint_command(args)
        if args.command == "ssrp":
            return _run_solver(args, [args.source], "direct")
        if args.command == "msrp":
            return _run_solver(args, _workload_sources(args), args.strategy)
        if args.command == "preprocess":
            return _run_preprocess(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "query":
            return _run_query(args)
        if args.command == "status":
            return _run_status(args)
        if args.command == "bmm":
            return _run_bmm(args)
    except ReproError as exc:
        print(f"repro-msrp {args.command}: {exc}", file=sys.stderr)
        return 1
    raise InternalInvariantError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
